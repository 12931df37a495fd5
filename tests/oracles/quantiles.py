"""Exact quantile reference: keeps every sample.

:class:`repro.obs.sketch.QuantileSketch` promises ``quantile(q)`` within a
relative error ``alpha`` of ``sorted(values)[floor(q * (n - 1))]``;
:class:`ExactQuantiles` answers that rank exactly, so
``tests/obs/test_sketch.py`` asserts the bound against it verbatim.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Union


class ExactQuantiles:
    """Exact reference: stores every value."""

    __slots__ = ("_values", "_sorted")

    def __init__(self, values: Optional[Iterable[float]] = None):
        self._values: list[float] = list(values) if values is not None else []
        self._sorted = False

    def add(self, value: Union[int, float], count: int = 1) -> None:
        if value < 0.0:
            raise ValueError(f"values must be >= 0, got {value}")
        self._values.extend([float(value)] * count)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._values)

    def quantile(self, q: float) -> float:
        """``sorted(values)[floor(q * (n - 1))]`` — the sketch's rank model."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        if not self._sorted:
            self._values.sort()
            self._sorted = True
        return self._values[math.floor(q * (len(self._values) - 1))]
