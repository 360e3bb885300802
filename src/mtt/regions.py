"""Axis-aligned workspace rectangles and sensor field-of-view regions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Rectangle:
    """Closed axis-aligned rectangle [x_min, x_max] x [y_min, y_max]; contains is elementwise."""

    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.y_min, self.x_max, self.y_max))):
            raise ValueError(f"rectangle bounds must be finite: {self}")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(f"rectangle has non-positive area: {self}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, x, y):
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)


@dataclass(frozen=True)
class FovRegion:
    """Region in which the sensor can observe targets.

    Either the full workspace (rects=None) or a union of closed rectangles: a
    point on the boundary is inside, and contains is elementwise like Rectangle's.
    """

    rects: tuple[Rectangle, ...] | None = None

    @classmethod
    def full(cls) -> "FovRegion":
        return cls(None)

    @classmethod
    def box(cls, x_min: float, y_min: float, x_max: float, y_max: float) -> "FovRegion":
        return cls((Rectangle(x_min, y_min, x_max, y_max),))

    def contains(self, x, y):
        if self.rects is None:
            return np.full(np.shape(x), True)
        return np.logical_or.reduce([r.contains(x, y) for r in self.rects])
