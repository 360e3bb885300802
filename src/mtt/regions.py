"""Axis-aligned rectangles: the workspace and the sensor's field of view."""

from __future__ import annotations

import math
from dataclasses import dataclass


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
        if not (0.0 < self.area < math.inf and 1.0 / self.area < math.inf):
            # the GPF's clutter density is 1 / area, and must be finite too
            raise ValueError(f"rectangle area {self.area!r} is not a positive finite "
                             f"number with a finite reciprocal: {self}")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, x, y):
        return (self.x_min <= x) & (x <= self.x_max) & (self.y_min <= y) & (y <= self.y_max)

