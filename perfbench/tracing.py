"""In-memory span recording around public functions, and the self-time ledger.

The benchmark measures layers from outside the program: :func:`install`
replaces each public function named in :data:`LAYERS` with a wrapper that
records one span per call.  A span is ``(span_id, name, start_ns, end_ns,
parent_id, run_id)``; the parent is whichever wrapped call was open when
this one started (the workload is single-threaded), and the run id is the
benchmark iteration.  Spans stay in memory until :meth:`SpanRecorder.write`.

A layer's self time is its spans' durations minus the time their direct
children cover.  Every span descends from the iteration's root span, so the
root's self time (``unattributed``) plus every layer's self time equals the
root's duration exactly: :func:`ledger` rows sum to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Optional

ROOT = "workload"

#: ``(layer, "module[:Class]", attribute)``.  A module-level name that a
#: caller imported by name (``repro.runtime.fleet.simulate_fast_fleet``) is
#: patched where the caller looks it up; the workloads check that every
#: layer they exercise recorded spans, so a refactor that moves a call
#: fails loudly instead of silently measuring nothing.
LAYERS: tuple[tuple[str, str, str], ...] = (
    ("runtime.traffic", "repro.runtime.fleet", "generate_fleet_schedules"),
    ("runtime.fleet", "repro.runtime.fleet", "run_fleet"),
    ("runtime.fast", "repro.runtime.fleet", "simulate_fast_fleet"),
    ("reconfig.stats_rebuild", "repro.reconfig.manager:ManagerStats", "from_counters"),
    ("runtime.fleet.digest", "repro.runtime.fleet:FleetReport", "digest"),
    ("obs.telemetry.flush", "repro.runtime.fleet:FleetTelemetryRecorder", "flush"),
    ("obs.telemetry.slo_eval", "repro.obs.telemetry:SloMonitor", "evaluate"),
    ("obs.telemetry.export", "repro.obs.telemetry:TimeSeriesStore", "write_jsonl"),
    ("search.driver", "repro.search", "run_search"),
    ("search.space.neighbor", "repro.search.space:SearchSpace", "neighbor"),
    ("search.objective", "repro.search.objective:CostEvaluator", "evaluate"),
    ("aaa.adequate", "repro.search.objective", "adequate"),
    ("fabric.boundary_cost", "repro.search.objective", "boundary_cost"),
    ("fabric.floorplan", "repro.search.space:SearchSpace", "floorplan_of"),
    ("mccdma.engine", "repro.mccdma.engine:LinkSimulationEngine", "sweep_points"),
    ("mccdma.transmitter", "repro.mccdma.transmitter:MCCDMATransmitter", "transmit_frames"),
    ("mccdma.channel", "repro.mccdma.channel:AWGNChannel", "transmit"),
    ("mccdma.receiver", "repro.mccdma.receiver:MCCDMAReceiver", "receive_frames"),
)


class SpanRecorder:
    """Collects spans from wrapped calls while :attr:`active` is true."""

    def __init__(self):
        self.spans: list[tuple[int, str, int, int, Optional[int], int]] = []
        self.active = False
        self.run_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        #: per-layer callbacks ``(self_or_first_arg, result) -> None``
        self.hooks: dict[str, Callable] = {}

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            span_id = recorder._next_id
            recorder._next_id += 1
            stack = recorder._stack
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                recorder.spans.append((span_id, name, start, end, parent, recorder.run_id))
            hook = recorder.hooks.get(name)
            if hook is not None:
                hook(args[0] if args else None, result)
            return result

        return wrapper

    def root(self, run_id: int) -> "_RootSpan":
        """Context manager for one iteration's root span."""
        self.run_id = run_id
        return _RootSpan(self)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as stream:
            for span_id, name, start, end, parent, run_id in self.spans:
                stream.write(json.dumps({
                    "id": span_id, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "run": run_id,
                }) + "\n")


class _RootSpan:
    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self.wall_ns = 0

    def __enter__(self):
        rec = self.recorder
        self._id = rec._next_id
        rec._next_id += 1
        rec._stack.append(self._id)
        rec.active = True
        self._start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = perf_counter_ns()
        rec = self.recorder
        rec.active = False
        rec._stack.pop()
        rec.spans.append((self._id, ROOT, self._start, end, None, rec.run_id))
        self.wall_ns = end - self._start
        return False


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def install(recorder: SpanRecorder) -> None:
    """Wrap every :data:`LAYERS` function so its calls record spans."""
    for name, target, attr in LAYERS:
        owner = _resolve(target)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(recorder.wrap(name, raw.__func__)))
        else:
            setattr(owner, attr, recorder.wrap(name, raw))


def layer_times(spans, run_id: int) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``busy_ns`` and ``self_ns`` in one run."""
    rows = [s for s in spans if s[5] == run_id]
    child_ns: dict[int, int] = defaultdict(int)
    for _id, _name, start, end, parent, _run in rows:
        if parent is not None:
            child_ns[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for span_id, name, start, end, _parent, _run in rows:
        entry = out.setdefault(name, {"calls": 0, "busy_ns": 0, "self_ns": 0})
        entry["calls"] += 1
        entry["busy_ns"] += end - start
        entry["self_ns"] += end - start - child_ns[span_id]
    return out


def ledger(times: dict[str, dict[str, float]]) -> list[tuple[str, int]]:
    """``(row, self_ns)`` per layer, largest first, then ``unattributed``.

    The rows sum to the root span's duration: the traced wall time.
    """
    rows = sorted(
        ((name, t["self_ns"]) for name, t in times.items() if name != ROOT),
        key=lambda row: -row[1],
    )
    rows.append(("unattributed", times[ROOT]["self_ns"]))
    return rows
