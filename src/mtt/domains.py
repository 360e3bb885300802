"""Allowed values of the configuration records' fields, each declared once.

A record declares a field's domain with declare(default, Range(...) or
Choice(...)), or takes another record's with same_as, and checks its fields
with check_fields(self); the config parser checks each line with check_field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, field
from typing import NamedTuple


class Range(NamedTuple):
    """Finite numbers from lo up to hi (unbounded if None), either end open;
    with size, a sequence of exactly that many such numbers."""

    lo: float
    hi: float | None = None
    lo_open: bool = False
    hi_open: bool = False
    size: int | None = None

    def __str__(self) -> str:  # the range of one number
        if self.hi is not None:
            return (f"in {'(' if self.lo_open else '['}{self.lo:g}, "
                    f"{self.hi:g}{')' if self.hi_open else ']'}")
        if self.lo == 0:
            return "positive" if self.lo_open else "non-negative"
        return f"{'>' if self.lo_open else '>='} {self.lo:g}"

    def check(self, value, name: str) -> None:
        if self.size is not None and len(value) != self.size:
            raise ValueError(f"{name} has {len(value)} entries, expected {self.size}")
        named = ([(name, value)] if self.size is None
                 else [(f"{name}[{i}]", v) for i, v in enumerate(value)])
        for label, v in named:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ValueError(f"{label} = {v!r} is not a finite number")
            below = v <= self.lo if self.lo_open else v < self.lo
            above = self.hi is not None and (v >= self.hi if self.hi_open else v > self.hi)
            if below or above:
                raise ValueError(f"{label} = {v} is {'below' if below else 'above'} allowed "
                                 f"range: must be {self}")


class Choice(tuple):
    """One of a fixed tuple of strings."""

    def check(self, value, name: str) -> None:
        if value not in self:
            raise ValueError(f"{name} = {value!r} is not one of {self}")


def declare(default, domain: Range | Choice):
    """A dataclass field with this default whose values must lie in domain."""
    return field(default=default, metadata={"domain": domain})


def same_as(owner: type, name: str, default=MISSING):
    """A field with the domain and the default of owner's field `name`; a
    default given here replaces the owner's (None then allows None)."""
    f = owner.__dataclass_fields__[name]
    return field(default=f.default if default is MISSING else default, metadata=f.metadata)


def check_field(cls: type, name: str, value, label: str | None = None) -> None:
    """Raise ValueError, calling the value `label` (default: name), if value is outside
    the domain declared on field `name` of dataclass cls (only integers, if annotated int).
    A field with no domain takes any value, and one whose default is None takes None."""
    f = cls.__dataclass_fields__[name]
    if "domain" in f.metadata and not (value is None and f.default is None):
        if f.type in (int, "int") and not isinstance(value, numbers.Integral):
            raise ValueError(f"{label or name} = {value!r} is not an integer")
        f.metadata["domain"].check(value, label or name)


def check_fields(record) -> None:
    """check_field on every field of a dataclass record."""
    for name in record.__dataclass_fields__:
        check_field(type(record), name, getattr(record, name))
