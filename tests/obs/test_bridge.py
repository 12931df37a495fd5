"""Bridging the sim kernel's trace and legacy stat bags into the obs layer."""

from repro.obs import (
    SpanContext,
    TimeSeriesStore,
    record_manager_stats,
    spans_from_sim_trace,
)
from repro.reconfig.manager import ManagerStats
from repro.sim import Trace


def make_sim_trace() -> Trace:
    trace = Trace()
    trace.begin(0, "op.fft", "compute", detail="fft8")
    trace.end(4_000, "op.fft", "compute")
    trace.begin(1_000, "region.D1", "load", detail="qam16")
    trace.end(3_000, "region.D1", "load")
    trace.begin(3_000, "region.D1", "resident", detail="qam16")
    trace.end(9_000, "region.D1", "resident")
    return trace


def test_bridged_spans_carry_sim_clock_and_parent():
    parent = SpanContext(trace_id="t", span_id="job-1")
    spans = spans_from_sim_trace(make_sim_trace(), parent=parent)
    assert len(spans) == 3
    assert all(s.clock == "sim" for s in spans)
    assert all(s.context.trace_id == "t" for s in spans)
    assert all(s.context.parent_id == "job-1" for s in spans)
    assert len({s.context.span_id for s in spans}) == 3
    compute = next(s for s in spans if s.name == "compute:fft8")
    assert compute.track == "op.fft"
    assert compute.start_ns == 0 and compute.duration_ns == 4_000


def test_region_spans_expose_region_and_module():
    spans = spans_from_sim_trace(make_sim_trace())
    resident = next(s for s in spans if s.name == "resident:qam16")
    assert resident.attributes["region"] == "D1"
    assert resident.attributes["module"] == "qam16"
    assert resident.context.parent_id is None  # parentless bridge still works


def test_include_kinds_filters():
    spans = spans_from_sim_trace(make_sim_trace(), include_kinds=("load", "resident"))
    assert {s.attributes["kind"] for s in spans} == {"load", "resident"}


def test_bridge_span_ids_unique_across_calls():
    trace = make_sim_trace()
    first = spans_from_sim_trace(trace)
    second = spans_from_sim_trace(trace)
    ids = {s.context.span_id for s in first} | {s.context.span_id for s in second}
    assert len(ids) == 6


def test_record_manager_stats_feeds_counters():
    store = TimeSeriesStore(window=1)
    stats = ManagerStats(demand_requests=4, demand_loads=2, prefetch_loads=1,
                         useful_prefetches=1, stall_ns=12_345)
    record_manager_stats(store, stats)
    assert store.total("reconfig.demand_loads") == 2
    assert store.total("reconfig.useful_prefetches") == 1
    assert store.total("reconfig.stall_ns") == 12_345
    # run totals: every counter lands in the single window at t=0
    assert store.window_indices() == [0]
    # zero-valued counters still register (explicit zero beats absence)
    assert "reconfig.crc_failures" in store.series_names()
    assert store.total("reconfig.crc_failures") == 0
