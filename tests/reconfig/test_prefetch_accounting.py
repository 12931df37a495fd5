"""Prefetch accounting edge cases in :class:`ReconfigurationManager`.

The useful/wasted prefetch counters drive the paper's policy comparison
(and the run telemetry), so the corner cases must count exactly once:
duplicate hints, hints claimed while the load is still in flight, and
speculated modules evicted before anyone asked for them.
"""

from repro.reconfig import (
    BitstreamStore,
    ICAP_V2,
    OnSelectPrefetchPolicy,
    ProtocolConfigurationBuilder,
    ReconfigStats,
    ReconfigurationManager,
)
from repro.reconfig.manager import ManagerStats
from repro.sim import Simulator


def make_manager(size=88_000, request_latency_ns=1_000):
    sim = Simulator()
    store = BitstreamStore(bandwidth_bytes_per_s=22_000_000, access_ns=1_000)
    store.register("D1", "qpsk", size)
    store.register("D1", "qam16", size)
    builder = ProtocolConfigurationBuilder(sim, ICAP_V2, store)
    mgr = ReconfigurationManager(
        sim, builder, policy=OnSelectPrefetchPolicy(), request_latency_ns=request_latency_ns
    )
    return sim, mgr, builder


def drive(sim, gen):
    return sim.run(until=sim.process(gen))


def test_back_to_back_hints_same_module_load_once():
    sim, mgr, builder = make_manager()
    load = 1_000 + builder.estimate_ns(88_000)

    def proc():
        mgr.notify_select("D1", "qam16")
        mgr.notify_select("D1", "qam16")  # duplicate hint while first queued
        yield sim.timeout(3 * load)
        mgr.notify_select("D1", "qam16")  # already resident: no-op
        yield sim.timeout(load)

    drive(sim, proc())
    assert len(builder.loads) == 1
    assert mgr.stats.prefetch_loads == 1
    assert mgr.stats.wasted_prefetches == 0  # unclaimed but never evicted
    assert mgr.loaded_module("D1") == "qam16"


def test_hint_claimed_mid_flight_counts_one_useful_prefetch():
    sim, mgr, builder = make_manager()
    load = 1_000 + builder.estimate_ns(88_000)
    stalls = []

    def proc():
        mgr.notify_select("D1", "qam16")
        yield sim.timeout(load // 2)  # the prefetch is half done
        start = sim.now
        yield mgr.ensure_loaded("D1", "qam16")  # piggybacks on the flight
        stalls.append(sim.now - start)
        # A second demand for the now-resident module is an instant hit,
        # not a second useful prefetch.
        yield mgr.ensure_loaded("D1", "qam16")

    drive(sim, proc())
    assert mgr.stats.prefetch_loads == 1
    assert mgr.stats.useful_prefetches == 1
    assert mgr.stats.instant_hits == 1
    assert mgr.stats.demand_loads == 0
    assert 0 < stalls[0] < load


def test_wasted_prefetch_counted_on_eviction():
    sim, mgr, builder = make_manager()
    load = 1_000 + builder.estimate_ns(88_000)

    def proc():
        mgr.notify_select("D1", "qam16")  # speculated, never demanded
        yield sim.timeout(2 * load)
        yield mgr.ensure_loaded("D1", "qpsk")  # evicts the speculation

    drive(sim, proc())
    assert mgr.stats.prefetch_loads == 1
    assert mgr.stats.useful_prefetches == 0
    assert mgr.stats.wasted_prefetches == 1
    assert mgr.stats.demand_loads == 1
    assert mgr.loaded_module("D1") == "qpsk"


def test_claimed_prefetch_is_not_wasted_when_later_evicted():
    sim, mgr, builder = make_manager()
    load = 1_000 + builder.estimate_ns(88_000)

    def proc():
        mgr.notify_select("D1", "qam16")
        yield sim.timeout(2 * load)
        yield mgr.ensure_loaded("D1", "qam16")  # claims the prefetch
        yield mgr.ensure_loaded("D1", "qpsk")  # evicting it later is fine

    drive(sim, proc())
    assert mgr.stats.useful_prefetches == 1
    assert mgr.stats.wasted_prefetches == 0
    assert mgr.stats.demand_loads == 1


def test_reconfig_stats_alias_and_dict():
    assert ReconfigStats is ManagerStats
    stats = ReconfigStats(demand_loads=2, stall_ns=10)
    payload = stats.to_dict()
    assert payload["demand_loads"] == 2
    # to_dict is dataclasses.asdict-backed, so it tracks the field list.
    assert set(payload) == {
        "demand_requests", "demand_loads", "prefetch_loads", "useful_prefetches",
        "wasted_prefetches", "instant_hits", "resident_hits", "evictions",
        "stall_ns", "crc_failures", "readback_failures", "load_retries",
    }
