"""Reference traffic generators: one ``random.Random`` call per draw.

These are the scalar loops the fleet shipped before traffic became
structure-of-arrays.  :func:`repro.runtime.traffic.generate_traffic` must
reproduce them bit for bit (``tests/runtime/test_traffic.py``); they are the
specification of every request stream, and so of every fleet digest.
"""

from __future__ import annotations

import math
import random
from typing import Sequence


def _pick_region(rng: random.Random, regions: Sequence[str]) -> str:
    return regions[rng.randrange(len(regions))]


def _poisson(
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int,
) -> list[tuple[int, str, str]]:
    names = sorted(regions)
    cursor = {r: 0 for r in names}
    schedule: list[tuple[int, str, str]] = []
    burst_left = 0
    while len(schedule) < n_requests:
        if burst_left > 0:
            gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns / 10)
            burst_left -= 1
        else:
            gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns)
            if rng.random() < 0.1:
                burst_left = rng.randrange(3, 9)
        region = _pick_region(rng, names)
        modules = regions[region]
        # Noisy cycle: usually advance to the next module in rotation, the
        # rest of the time jump anywhere.  Learnable but not trivial.
        if rng.random() < 0.8:
            cursor[region] = (cursor[region] + 1) % len(modules)
        else:
            cursor[region] = rng.randrange(len(modules))
        schedule.append((gap, region, modules[cursor[region]]))
    return schedule


def _diurnal(
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int,
) -> list[tuple[int, str, str]]:
    names = sorted(regions)
    cursor = {r: 0 for r in names}
    # One "day" spans roughly n_requests/2 requests so every run sees at
    # least a couple of peaks and troughs.
    period = max(2, n_requests // 2)
    phase = rng.random() * 2 * math.pi
    schedule: list[tuple[int, str, str]] = []
    for i in range(n_requests):
        # Rate swings 4x between trough and peak -> gap swings inversely.
        swing = 1.0 + 0.6 * math.sin(2 * math.pi * i / period + phase)
        gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns * swing)
        region = _pick_region(rng, names)
        modules = regions[region]
        cursor[region] = (cursor[region] + 1) % len(modules)
        schedule.append((gap, region, modules[cursor[region]]))
    return schedule


def _thrash(
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int,
) -> list[tuple[int, str, str]]:
    names = sorted(regions)
    current: dict[str, int] = {r: 0 for r in names}
    schedule: list[tuple[int, str, str]] = []
    for _ in range(n_requests):
        gap = 1 + int(rng.expovariate(1.0) * mean_gap_ns)
        region = _pick_region(rng, names)
        modules = regions[region]
        if len(modules) > 1:
            # Uniform over the *other* modules: every request is a swap and
            # carries no sequential signal for a predictor to latch onto.
            step = rng.randrange(1, len(modules))
            current[region] = (current[region] + step) % len(modules)
        schedule.append((gap, region, modules[current[region]]))
    return schedule


_GENERATORS = {"poisson": _poisson, "diurnal": _diurnal, "thrash": _thrash}


def reference_schedule(
    pattern: str,
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int = 200_000,
) -> list[tuple[int, str, str]]:
    """A board's ``[(gap_ns, region, module), ...]`` by the scalar loops."""
    return _GENERATORS[pattern](rng, regions, n_requests, mean_gap_ns)
