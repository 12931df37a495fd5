"""Windowed time-series store, write-behind array path, SLOs, the hub.

The store's contract has two halves this file pins down separately: the
*scalar* recording path aggregates eagerly, and the *array* path is a
write-behind buffer — references (or zero-argument batch closures) are
captured at record time and the windowed aggregation runs at first read.
Both must produce identical windows.
"""

import io

import numpy as np
import pytest

from repro.obs import (
    SloMonitor,
    SloRule,
    Telemetry,
    TimeSeriesStore,
    get_telemetry,
    use_telemetry,
)


def _mixed_store(**kwargs):
    return TimeSeriesStore(window=100, **kwargs)


# -- scalar/array equivalence ----------------------------------------------


def test_array_paths_match_scalar_paths_exactly():
    rng = np.random.default_rng(7)
    t = rng.integers(0, 5_000, size=3_000)
    weights = rng.integers(0, 50, size=3_000)
    latencies = rng.integers(0, 10_000, size=3_000).astype(np.float64)

    scalar = _mixed_store()
    for ti, wi, li in zip(t.tolist(), weights.tolist(), latencies.tolist()):
        scalar.counter_add("hits", ti)
        scalar.counter_add("bytes", ti, wi)
        scalar.observe("lat", ti, li)

    vector = _mixed_store()
    vector.counter_add_array("hits", t)
    vector.counter_add_array("bytes", t, weights)
    vector.observe_array("lat", t, latencies)

    assert vector.series("hits") == scalar.series("hits")
    assert vector.series("bytes") == scalar.series("bytes")
    scalar_lat = dict(scalar.series("lat"))
    for w, sketch in vector.series("lat"):
        assert sketch.to_dict() == scalar_lat[w].to_dict()


def test_interleaved_scalar_and_array_counter_updates_accumulate():
    store = _mixed_store()
    store.counter_add("n", 5)
    store.counter_add_array("n", np.asarray([10, 110, 110]))
    store.counter_add("n", 120)
    assert store.series("n") == [(0, 2), (1, 3)]
    assert store.total("n") == 5


def test_gauge_add_array_sums_contributions_per_window():
    store = _mixed_store()
    store.gauge_add_array("util", np.asarray([10, 20, 150]), np.asarray([0.25, 0.25, 1.0]))
    assert dict(store.series("util")) == pytest.approx({0: 0.5, 1: 1.0})


# -- write-behind semantics -------------------------------------------------


def test_array_recording_is_deferred_until_first_read():
    store = _mixed_store()
    store.counter_add_array("n", np.asarray([1, 2, 3]))
    series = next(iter(store._series.values()))
    assert series.pending and not series.windows  # buffered, not aggregated
    assert store.total("n") == 3
    assert not series.pending and series.windows  # drained at first read


def test_defer_array_runs_closure_once_at_drain():
    store = _mixed_store()
    calls = []

    def batch():
        calls.append(1)
        return np.asarray([10, 20]), np.asarray([2, 3])

    store.defer_array("n", "counter", batch)
    assert calls == []  # nothing materialized yet
    assert store.total("n") == 5
    assert store.total("n") == 5
    assert calls == [1]  # drained once, then served from windows


def test_defer_array_rejects_unknown_kind_eagerly():
    store = _mixed_store()
    with pytest.raises(ValueError):
        store.defer_array("n", "bogus", lambda: (np.asarray([1]), None))


def test_deferred_batch_validation_happens_at_materialization():
    store = _mixed_store()
    store.defer_array("n", "counter", lambda: (np.asarray([1]), np.asarray([-2])))
    with pytest.raises(ValueError):
        store.total("n")


def test_array_validation_is_eager_for_direct_arrays():
    store = _mixed_store()
    with pytest.raises(ValueError):
        store.counter_add_array("n", np.asarray([1]), np.asarray([-1]))
    with pytest.raises(ValueError):
        store.observe_array("lat", np.asarray([1.0]), np.asarray([np.nan]))
    with pytest.raises(ValueError):
        store.counter_add_array("n", np.asarray([1, 2]), np.asarray([1]))


# -- store basics -----------------------------------------------------------


def test_kind_mismatch_and_bad_parameters_raise():
    store = _mixed_store()
    store.counter_add("x", 0)
    with pytest.raises(TypeError):
        store.gauge_set("x", 0, 1.0)
    with pytest.raises(ValueError):
        store.counter_add("x", 0, value=-1)
    assert store.total("missing") == 0
    with pytest.raises(TypeError):
        store.observe("x", 0, 1.0)
    with pytest.raises(ValueError):
        TimeSeriesStore(window=0)
    with pytest.raises(ValueError):
        TimeSeriesStore(window=10, retention=1)


def test_label_sets_are_order_insensitive_dimensions():
    store = _mixed_store()
    store.counter_add("n", 0, policy="lru", region="r0")
    store.counter_add("n", 0, region="r0", policy="lru")
    store.counter_add("n", 0, policy="fifo", region="r0")
    assert store.total("n", policy="lru", region="r0") == 2
    assert store.total("n", policy="fifo", region="r0") == 1
    assert len(store.label_sets("n")) == 2


def test_ring_retention_drops_oldest_windows_and_counts_them():
    store = TimeSeriesStore(window=10, retention=3)
    for w in range(5):
        store.counter_add("n", w * 10)
    assert [w for w, _ in store.series("n")] == [2, 3, 4]
    assert store.evicted_windows == 2
    assert store.total("n") == 3  # totals cover retained windows only


def test_merge_is_commutative_for_counters_and_sketches():
    def fill(store, offset):
        store.counter_add_array("n", np.asarray([5, 15, 25]) + offset)
        store.observe_array(
            "lat", np.asarray([5, 15]) + offset, np.asarray([10.0, 20.0]) + offset
        )

    a1, b1 = _mixed_store(), _mixed_store()
    fill(a1, 0), fill(b1, 200)
    a1.merge(b1)
    a2, b2 = _mixed_store(), _mixed_store()
    fill(a2, 0), fill(b2, 200)
    b2.merge(a2)
    assert [r for r in a1.to_rows() if not r.get("meta")] == [
        r for r in b2.to_rows() if not r.get("meta")
    ]


def test_merge_rejects_mixed_window_widths():
    with pytest.raises(ValueError):
        TimeSeriesStore(window=100).merge(TimeSeriesStore(window=50))


def test_jsonl_roundtrip_rebuilds_equivalent_store():
    store = _mixed_store()
    store.counter_add_array("n", np.asarray([1, 150]), policy="lru")
    store.gauge_set("depth", 120, 4, pool="workers")
    store.observe_array("lat", np.asarray([10, 10, 210]), np.asarray([5.0, 7.0, 900.0]))
    buffer = io.StringIO()
    count = store.write_jsonl(buffer)
    assert count == len(store.to_rows())
    buffer.seek(0)
    rebuilt = TimeSeriesStore.from_rows(
        [__import__("json").loads(line) for line in buffer if line.strip()]
    )
    assert rebuilt.window == store.window
    assert rebuilt.to_rows() == store.to_rows()


def test_from_rows_rejects_newer_schema():
    with pytest.raises(ValueError):
        TimeSeriesStore.from_rows([{"schema": 999, "meta": True, "window": 10}])


# -- SLO monitoring ---------------------------------------------------------


def _hit_rate_store():
    store = _mixed_store()
    # window 0: 8/10 hits; window 1: 2/10 hits (breach); window 2: 1/2 (skip)
    store.counter_add("demands", 0, 10, policy="lru")
    store.counter_add("hits", 0, 8, policy="lru")
    store.counter_add("demands", 100, 10, policy="lru")
    store.counter_add("hits", 100, 2, policy="lru")
    store.counter_add("demands", 200, 2, policy="lru")
    store.counter_add("hits", 200, 1, policy="lru")
    return store


def test_ratio_floor_rule_flags_only_qualified_windows():
    store = _hit_rate_store()
    monitor = SloMonitor(
        store,
        [
            SloRule(
                name="hit-rate",
                series="hits",
                kind="floor",
                threshold=0.5,
                denominator="demands",
                min_count=5,
            )
        ],
    )
    breaches = monitor.evaluate()
    assert [b.window for b in breaches] == [1]
    assert breaches[0].observed == pytest.approx(0.2)
    assert breaches[0].low == 0.5
    assert "required >= 0.5" in breaches[0].describe()
    # window 2 was below min_count: never judged, never breached
    assert monitor.windows_judged["hit-rate"] == 2


def test_monitor_reports_each_window_once_across_evaluations():
    store = _hit_rate_store()
    monitor = SloMonitor(
        store,
        [SloRule(name="hr", series="hits", kind="floor", threshold=0.5,
                 denominator="demands")],
    )
    first = monitor.evaluate()
    assert len(first) == 1
    assert monitor.evaluate() == []  # same data: no repeats
    store.counter_add("demands", 300, 10, policy="lru")
    store.counter_add("hits", 300, 0, policy="lru")
    fresh = monitor.evaluate()
    assert [b.window for b in fresh] == [3]  # only the new window


def test_quantile_ceiling_rule_and_up_to_exclusion():
    store = _mixed_store()
    store.observe_array("lat", np.asarray([10] * 100), np.full(100, 50.0))
    store.observe_array("lat", np.asarray([110] * 100), np.full(100, 9_000.0))
    monitor = SloMonitor(
        store,
        [SloRule(name="p99", series="lat", kind="ceiling", threshold=1_000.0,
                 quantile=0.99)],
    )
    assert monitor.evaluate(up_to=1) == []  # window 1 still open: not judged
    breaches = monitor.evaluate()
    assert [b.window for b in breaches] == [1]
    assert breaches[0].observed == pytest.approx(9_000.0, rel=0.02)


def test_band_rule_and_rule_validation():
    rule = SloRule(name="util", series="u", kind="band", low=0.1, high=0.9)
    assert rule.violated_by(0.05) and rule.violated_by(0.95)
    assert not rule.violated_by(0.5)
    with pytest.raises(ValueError):
        SloRule(name="x", series="s", kind="sideways", threshold=1.0)
    with pytest.raises(ValueError):
        SloRule(name="x", series="s", kind="band", low=2.0, high=1.0)
    with pytest.raises(ValueError):
        SloRule(name="x", series="s", kind="floor")
    with pytest.raises(ValueError):
        SloMonitor(_mixed_store(), [rule, rule])


def test_breach_to_dict_is_json_safe():
    store = _hit_rate_store()
    monitor = SloMonitor(
        store,
        [SloRule(name="hr", series="hits", kind="floor", threshold=0.5,
                 denominator="demands")],
    )
    (breach,) = monitor.evaluate()
    payload = breach.to_dict()
    assert payload["labels"] == {"policy": "lru"}
    __import__("json").dumps(payload)


# -- the ambient hub --------------------------------------------------------


def test_hub_creates_domain_stores_lazily_with_default_widths():
    hub = Telemetry(windows={"search": 25})
    sim = hub.store("sim")
    assert sim is hub.store("sim")
    assert sim.clock == "sim"
    assert hub.store("search").window == 25
    assert hub.store("search").clock == "index"
    assert hub.domains() == ["search", "sim"]


def test_hub_rows_are_tagged_with_their_domain():
    hub = Telemetry()
    hub.store("sim").counter_add("n", 0)
    domains = {row["domain"] for row in hub.to_rows()}
    assert domains == {"sim"}


def _two_domain_hub() -> Telemetry:
    hub = Telemetry()
    hub.store("sim").counter_add("a", 0, 3)
    hub.store("wall").counter_add("b", 0, 5)
    return hub


def test_hub_rows_rebuild_every_domain():
    hub = _two_domain_hub()
    rebuilt = Telemetry.from_rows(hub.to_rows())
    assert rebuilt.domains() == ["sim", "wall"]
    assert rebuilt.store("sim").series_names() == ["a"]
    assert rebuilt.store("wall").total("b") == 5
    assert rebuilt.store("wall").window == hub.store("wall").window
    assert rebuilt.to_rows() == hub.to_rows()


def test_store_from_rows_rejects_multi_store_rows():
    # a single store cannot hold two domains: a second meta header used to
    # replace the store being built and silently drop the first domain
    with pytest.raises(ValueError, match="meta header"):
        TimeSeriesStore.from_rows(_two_domain_hub().to_rows())
    with pytest.raises(ValueError, match="domain"):
        Telemetry.from_rows(_two_domain_hub().store("sim").to_rows())


def test_use_telemetry_scopes_the_ambient_hub():
    assert get_telemetry() is None  # disabled by default
    with use_telemetry() as hub:
        assert get_telemetry() is hub
        with use_telemetry() as inner:
            assert get_telemetry() is inner
        assert get_telemetry() is hub
    assert get_telemetry() is None
