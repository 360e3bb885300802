"""Allowed values of the configuration records' fields, each declared once.

A record declares a field's domain with declare(default, Range(...) or
Choice(...)), or takes another record's with same_as, and checks its fields
with check_fields(self); the config parser checks each line with check_field.
A value outside its domain raises ConfigError, a ValueError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import field
from typing import NamedTuple


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


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
            raise ConfigError(f"{name} has {len(value)} entries, expected {self.size}")
        named = ([(name, value)] if self.size is None
                 else [(f"{name}[{i}]", v) for i, v in enumerate(value)])
        for label, v in named:
            if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                raise ConfigError(f"{label} = {v!r} is not a finite number")
            below = v <= self.lo if self.lo_open else v < self.lo
            above = self.hi is not None and (v >= self.hi if self.hi_open else v > self.hi)
            if below or above:
                raise ConfigError(f"{label} = {v} is {'below' if below else 'above'} allowed "
                                  f"range: must be {self}")


class Choice(tuple):
    """One of a fixed tuple of strings."""

    def check(self, value, name: str) -> None:
        if value not in self:
            raise ConfigError(f"{name} = {value!r} is not one of {self}")


def declare(default, domain: Range | Choice):
    """A dataclass field with this default whose values must lie in domain."""
    return field(default=default, metadata={"domain": domain})


def same_as(owner: type, name: str):
    """A field with the domain and the default of owner's field `name`."""
    f = owner.__dataclass_fields__[name]
    return field(default=f.default, metadata=f.metadata)


def check_field(cls: type, name: str, value, label: str | None = None) -> None:
    """Raise ConfigError, calling the value `label` (default: name), if value is outside
    the domain declared on field `name` of dataclass cls (only integers, if annotated int).
    A field with no domain takes any value."""
    f = cls.__dataclass_fields__[name]
    if "domain" in f.metadata:
        if f.type in (int, "int") and not isinstance(value, numbers.Integral):
            raise ConfigError(f"{label or name} = {value!r} is not an integer")
        f.metadata["domain"].check(value, label or name)


def check_fields(record) -> None:
    """check_field on each field of a dataclass record that declares a domain; a field
    that __post_init__ computes after this check declares none and is not read."""
    for name, f in record.__dataclass_fields__.items():
        if "domain" in f.metadata:
            check_field(type(record), name, getattr(record, name))
