"""Mergeable quantile sketches with a bounded relative error.

A streaming fleet run produces millions of latency samples per window;
storing them exactly (for p99 curves) would dwarf the simulation state.
:class:`QuantileSketch` is a DDSketch-style logarithmic-bucket sketch
(Masson, Rim & Lee, VLDB 2019): values collapse into geometric buckets
``gamma**i`` with ``gamma = (1 + alpha) / (1 - alpha)``, so any reported
quantile is within a *relative* error ``alpha`` of the exact order
statistic — p99 of a 4 ms stall distribution is correct to ``alpha * 4 ms``
no matter how many samples streamed through.  Two sketch properties carry
the whole telemetry design:

- **merge is exact**: bucket counts add, so per-window sketches from
  different boards, workers or processes fold together without widening the
  error bound (merge is associative and commutative — property-tested);
- **memory is bounded** by the dynamic range, not the sample count: the
  fleet's stall range (0 .. tens of ms in ns units) needs a few hundred
  buckets at the default 1% accuracy.

The tests compare the sketch against an exact reference that keeps every
sample (``tests/oracles/quantiles.py``); the declared bound is asserted
property-style.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = ["QuantileSketch", "DEFAULT_RELATIVE_ACCURACY"]

#: 1% relative accuracy: p99 of a millisecond-scale stall is exact to ~10 us.
DEFAULT_RELATIVE_ACCURACY = 0.01


class QuantileSketch:
    """DDSketch-style mergeable quantile sketch (relative-error bounded).

    Non-negative values only (latencies, durations, rates).  Values below
    ``min_value`` (including exact zeros) collapse into one dedicated zero
    bucket — distinguishing a 0.1 ns stall from a 0.3 ns stall is below any
    useful resolution and an unbounded bucket range would defeat the memory
    bound.
    """

    __slots__ = ("alpha", "gamma", "_log_gamma", "min_value", "_buckets",
                 "zero_count", "count", "sum", "_min", "_max")

    def __init__(
        self,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        min_value: float = 1e-9,
    ):
        if not 0.0 < relative_accuracy < 1.0:
            raise ValueError(
                f"relative_accuracy must be in (0, 1), got {relative_accuracy}"
            )
        if min_value <= 0.0:
            raise ValueError(f"min_value must be > 0, got {min_value}")
        self.alpha = float(relative_accuracy)
        self.gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self.gamma)
        self.min_value = float(min_value)
        self._buckets: dict[int, int] = {}
        self.zero_count = 0
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- recording ---------------------------------------------------------

    def _index(self, value: float) -> int:
        # ceil(log_gamma(v)): bucket i covers (gamma**(i-1), gamma**i], whose
        # midpoint-estimate 2*gamma**i/(gamma+1) is within alpha relatively.
        return math.ceil(math.log(value) / self._log_gamma)

    def add(self, value: Union[int, float], count: int = 1) -> None:
        """Record ``value`` ``count`` times."""
        value = float(value)
        if value < 0.0 or math.isnan(value) or math.isinf(value):
            raise ValueError(f"sketch values must be finite and >= 0, got {value}")
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        if value < self.min_value:
            self.zero_count += count
        else:
            index = self._index(value)
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += count
        self.sum += value * count
        self._min = min(self._min, value)
        self._max = max(self._max, value)

    def add_array(self, values: np.ndarray) -> None:
        """Vectorized :meth:`add` — the fast engine's per-batch flush path.

        One ``log`` over the whole array plus a ``unique`` per batch keeps
        telemetry cost per step-batch at numpy speed (no Python loop over
        samples).
        """
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size == 0:
            return
        if np.any(values < 0.0) or not np.all(np.isfinite(values)):
            raise ValueError("sketch values must be finite and >= 0")
        small = values < self.min_value
        n_small = int(small.sum())
        if n_small:
            self.zero_count += n_small
        large = values[~small]
        if large.size:
            indices = np.ceil(np.log(large) / self._log_gamma).astype(np.int64)
            for index, count in zip(*np.unique(indices, return_counts=True)):
                key = int(index)
                self._buckets[key] = self._buckets.get(key, 0) + int(count)
            self._min = min(self._min, float(large.min()))
            self._max = max(self._max, float(large.max()))
        if n_small:
            small_vals = values[small]
            self._min = min(self._min, float(small_vals.min()))
            self._max = max(self._max, float(small_vals.max()))
        self.count += int(values.size)
        self.sum += float(values.sum())

    # -- queries -----------------------------------------------------------

    @property
    def min(self) -> float:
        return self._min if self.count else 0.0

    @property
    def max(self) -> float:
        return self._max if self.count else 0.0

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile estimate (rank ``floor(q * (n - 1))``).

        Within ``alpha`` relative error of
        ``sorted(values)[floor(q * (n - 1))]`` — the rank definition the
        exact test reference uses, so the bound is testable verbatim.  Returns 0.0 on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return 0.0
        rank = math.floor(q * (self.count - 1))
        if rank < self.zero_count:
            return 0.0
        cumulative = self.zero_count
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            if cumulative > rank:
                # midpoint of (gamma**(i-1), gamma**i] in relative terms
                return 2.0 * self.gamma ** index / (self.gamma + 1.0)
        return self._max  # pragma: no cover - cumulative always reaches count

    def quantiles(self, qs: Sequence[float]) -> list[float]:
        return [self.quantile(q) for q in qs]

    # -- merge / serialization --------------------------------------------

    def _check_compatible(self, other: "QuantileSketch") -> None:
        if abs(other.alpha - self.alpha) > 1e-12 or abs(other.min_value - self.min_value) > 1e-30:
            raise ValueError(
                f"cannot merge sketches with different parameters "
                f"(alpha {self.alpha} vs {other.alpha}, "
                f"min_value {self.min_value} vs {other.min_value})"
            )

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` in (exact: bucket counts add, bound unchanged)."""
        self._check_compatible(other)
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.zero_count += other.zero_count
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self._min = min(self._min, other._min)
            self._max = max(self._max, other._max)

    def to_dict(self) -> dict:
        """JSON-safe snapshot; :meth:`from_dict` round-trips it exactly."""
        return {
            "type": "sketch",
            "alpha": self.alpha,
            "min_value": self.min_value,
            "count": self.count,
            "sum": self.sum,
            "zero_count": self.zero_count,
            "min": self.min,
            "max": self.max,
            # sorted for deterministic serialization (manifest diffs)
            "buckets": {str(i): self._buckets[i] for i in sorted(self._buckets)},
        }

    @classmethod
    def from_dict(cls, payload: Mapping) -> "QuantileSketch":
        sketch = cls(
            relative_accuracy=payload.get("alpha", DEFAULT_RELATIVE_ACCURACY),
            min_value=payload.get("min_value", 1e-9),
        )
        sketch._buckets = {int(k): int(v) for k, v in payload.get("buckets", {}).items()}
        sketch.zero_count = int(payload.get("zero_count", 0))
        sketch.count = int(payload.get("count", 0))
        sketch.sum = float(payload.get("sum", 0.0))
        if sketch.count:
            sketch._min = float(payload.get("min", 0.0))
            sketch._max = float(payload.get("max", 0.0))
        return sketch

    def summary(self, qs: Sequence[float] = (0.5, 0.95, 0.99)) -> dict:
        """The compact per-window digest the JSONL stream carries."""
        out = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        for q in qs:
            out[f"p{round(q * 100):02d}"] = self.quantile(q)
        return out

    def __len__(self) -> int:
        return len(self._buckets) + (1 if self.zero_count else 0)

