"""Bridges between the observability layer and the repo's older islands.

- :func:`spans_from_sim_trace` re-bases the discrete-event kernel's
  :class:`repro.sim.Trace` spans onto the unified tracer model: every sim
  :class:`repro.sim.Span` becomes an :class:`repro.obs.Span` in the
  ``"sim"`` clock domain (virtual nanoseconds), parented under a given span
  context so runtime-simulation activity hangs off the flow/job that ran it.
- :func:`record_counts` and the ``record_*_stats`` helpers built on it
  feed counter bags — :class:`~repro.reconfig.manager.ManagerStats`
  (a.k.a. ``ReconfigStats``), a fleet report's totals, a search result —
  into a :class:`~repro.obs.telemetry.TimeSeriesStore` as run totals: one
  counter per numeric field, recorded at ``t=0`` (the hub's ``"run"``
  domain).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Optional, Sequence

from repro.obs.telemetry import TimeSeriesStore
from repro.obs.tracer import Span, SpanContext, new_trace_id

__all__ = [
    "spans_from_sim_trace",
    "record_trace_telemetry",
    "record_counts",
    "record_manager_stats",
    "record_fleet_stats",
    "record_search_stats",
]

_BRIDGE_SEQ = itertools.count(1)


def spans_from_sim_trace(
    trace,
    parent: Optional[SpanContext] = None,
    process: Optional[str] = None,
    include_kinds: Optional[Sequence[str]] = None,
) -> list[Span]:
    """Sim-kernel trace spans as unified ``clock="sim"`` spans.

    ``parent`` (usually the job or simulation span on the wall clock)
    becomes every bridged span's parent, so the trace tree stays connected
    across the clock-domain boundary.  ``include_kinds`` filters by sim span
    kind (``compute``, ``comm``, ``reconfig``, ``prefetch``, ``resident``…).

    ``process`` names the Perfetto process lane.  When omitted it falls back
    to the trace's own ``scope`` (the per-board namespace a fleet run sets),
    then to ``"sim"`` — so a multi-board trace set renders one lane per
    board without callers plumbing names through.
    """
    if process is None:
        process = getattr(trace, "scope", "") or "sim"
    trace_id = parent.trace_id if parent is not None else new_trace_id()
    parent_id = parent.span_id if parent is not None else None
    prefix = f"sim{next(_BRIDGE_SEQ)}-"
    out: list[Span] = []
    for i, sim_span in enumerate(trace.spans):
        if include_kinds is not None and sim_span.kind not in include_kinds:
            continue
        attributes = {"actor": sim_span.actor, "kind": sim_span.kind}
        if sim_span.detail:
            attributes["detail"] = sim_span.detail
        # Region-scoped spans (the reconfiguration manager's residency and
        # load intervals) expose region/module directly for the Gantt view.
        if sim_span.actor.startswith("region."):
            attributes["region"] = sim_span.actor[len("region."):]
            if sim_span.detail:
                attributes["module"] = sim_span.detail
        name = f"{sim_span.kind}:{sim_span.detail}" if sim_span.detail else sim_span.kind
        out.append(
            Span(
                name=name,
                context=SpanContext(
                    trace_id=trace_id, span_id=f"{prefix}{i + 1}", parent_id=parent_id
                ),
                start_ns=sim_span.start,
                duration_ns=sim_span.duration,
                clock="sim",
                process=process,
                track=sim_span.actor,
                attributes=attributes,
            )
        )
    return out


def record_trace_telemetry(store, trace, **labels) -> int:
    """Windowed telemetry from a (closed) sim-kernel trace.

    This is the DES kernel's road into the time-series layer: the kernel
    already records everything as :class:`repro.sim.Trace` spans, so
    instead of hooking the manager's hot path we fold the trace's load and
    residency intervals into a sim-clock
    :class:`~repro.obs.telemetry.TimeSeriesStore` after the run:

    - ``fleet.loads`` — counter per window of load *starts*, labeled by
      span kind (``load`` = demand, ``prefetch`` = speculative);
    - ``fleet.reconfig_ns`` — quantile sketch of load durations (the p99
      reconfiguration-latency SLO input), window of the start time;
    - ``fleet.port_busy_ns`` — configuration-port occupancy attributed to
      the window the transfer started in.

    Extra ``labels`` (typically ``policy=...``) apply to every series.
    Returns the number of spans folded in.  Close the trace first
    (``trace.close_open``) — open spans have no duration yet.
    """
    folded = 0
    for span in trace.spans:
        if span.kind not in ("load", "prefetch"):
            continue
        duration = span.duration
        store.counter_add("fleet.loads", span.start, 1, kind=span.kind, **labels)
        store.observe("fleet.reconfig_ns", span.start, duration, **labels)
        store.counter_add("fleet.port_busy_ns", span.start, duration, **labels)
        folded += 1
    return folded


def record_counts(store: TimeSeriesStore, prefix: str, values: Mapping[str, object]) -> None:
    """Bulk-add a stats mapping (e.g. a ``to_dict()`` of counters) as run totals.

    Numeric values land on ``<prefix>.<key>`` counters at ``t=0``;
    non-numeric and negative entries are skipped (rates and derived ratios
    belong in the reader, not the store).  Zero values still create their
    series: an explicit zero beats absence.
    """
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        if value < 0:
            continue
        store.counter_add(f"{prefix}.{key}", 0, value)


def record_manager_stats(store: TimeSeriesStore, stats, prefix: str = "reconfig") -> None:
    """Feed :class:`~repro.reconfig.manager.ManagerStats` counters in.

    ``to_dict`` is :func:`dataclasses.asdict`-backed, so new counters flow
    into the store without this bridge having to enumerate them.
    """
    record_counts(store, prefix, stats.to_dict())


def record_fleet_stats(store: TimeSeriesStore, report, prefix: str = "fleet") -> None:
    """Feed a :class:`~repro.runtime.fleet.FleetReport`'s aggregate totals in."""
    record_counts(store, prefix, dict(report.totals))
    record_counts(
        store,
        prefix,
        {
            "boards": report.n_boards,
            "total_requests": report.total_requests,
            "end_time_ns": report.end_time_ns,
        },
    )


def record_search_stats(store: TimeSeriesStore, result, prefix: str = "search") -> None:
    """Feed a :class:`~repro.search.anneal.SearchResult`'s counters in.

    The driver records per-evaluation series in the hub's ``"search"``
    domain as it runs; this records a *finished* result's totals (the
    traced CLI path uses it so the manifest carries them).
    """
    record_counts(
        store,
        prefix,
        {
            "evaluations": result.evaluations,
            "accepted": result.accepted,
            "improved": result.improved,
            "best_total_ns": result.best_cost.total_ns,
            "best_makespan_ns": result.best_cost.makespan_ns,
            "violations": len(result.best_cost.violations),
        },
    )
