"""Run metrics: the telemetry hub's ``"run"`` domain.

Run totals (stage counts, link frames, sweep jobs, reconfiguration stats)
are ordinary :class:`TimeSeriesStore` series recorded at ``t=0``, so they
share one window.  Sweep workers ship their run store as rows (the
snapshot) and the engine folds the rebuilt store in with
:meth:`TimeSeriesStore.merge`.
"""

import pytest

from repro.obs import Telemetry, TimeSeriesStore, record_counts


def run_store() -> TimeSeriesStore:
    return Telemetry().store("run")


def snapshot(store: TimeSeriesStore) -> TimeSeriesStore:
    """The pipe hop: rows out of one process, a rebuilt store in the other."""
    return TimeSeriesStore.from_rows(store.to_rows())


def test_counter_accumulates_and_rejects_negative():
    store = run_store()
    store.counter_add("jobs", 0)
    store.counter_add("jobs", 0, 4)
    assert store.total("jobs") == 5
    assert store.window_indices() == [0]
    with pytest.raises(ValueError):
        store.counter_add("jobs", 0, -1)


def test_gauge_keeps_last_value():
    store = run_store()
    store.gauge_set("depth", 0, 3)
    store.gauge_set("depth", 0, 1)
    assert store.value("depth", 0) == 1


def test_kind_mismatch_raises():
    store = run_store()
    store.counter_add("x", 0)
    with pytest.raises(TypeError):
        store.gauge_set("x", 0, 1)


def test_record_counts_skips_non_numeric_and_negative():
    store = run_store()
    record_counts(store, "mgr", {"loads": 3, "name": "D1", "flag": True, "delta": -2})
    assert store.series_names() == ["mgr.loads"]
    assert store.total("mgr.loads") == 3


def test_snapshot_is_sorted_and_typed():
    store = run_store()
    store.gauge_set("b", 0, 2)
    store.counter_add("a", 0)
    store.observe("c", 0, 0.002)
    rows = [row for row in store.to_rows() if not row.get("meta")]
    assert [row["name"] for row in rows] == ["a", "b", "c"]
    assert [row["type"] for row in rows] == ["counter", "gauge", "quantile"]
    assert rows[2]["sketch"]["count"] == 1


def test_merge_snapshot_combines_all_kinds():
    worker = run_store()
    worker.counter_add("jobs", 0, 2)
    worker.gauge_set("depth", 0, 7)
    worker.observe("t", 0, 0.5)
    main = run_store()
    main.counter_add("jobs", 0, 1)
    main.observe("t", 0, 0.7)
    main.observe("t", 0, 1.5)

    main.merge(snapshot(worker))
    assert main.total("jobs") == 3
    assert main.value("depth", 0) == 7
    sketch = main.value("t", 0)
    assert sketch.count == 3
    assert sketch.sum == pytest.approx(2.7)
    assert sketch.quantile(0.0) == pytest.approx(0.5, rel=0.02)
    assert sketch.quantile(1.0) == pytest.approx(1.5, rel=0.02)


def test_merge_snapshot_rejects_boundary_mismatch_and_unknown_type():
    main = run_store()
    with pytest.raises(ValueError):
        main.merge(TimeSeriesStore(window=50))
    with pytest.raises(ValueError):
        TimeSeriesStore.from_rows(
            [{"schema": 1, "name": "x", "type": "meter", "window": 0, "value": 1}]
        )


def test_merge_snapshot_into_empty_store_adopts_everything():
    worker = run_store()
    worker.counter_add("jobs", 0, 4)
    worker.gauge_set("depth", 0, 2)
    worker.observe("t", 0, 1.5)
    empty = run_store()
    empty.merge(snapshot(worker))
    assert empty.to_rows() == worker.to_rows()
    # and an empty snapshot folded in changes nothing
    empty.merge(snapshot(run_store()))
    assert empty.to_rows() == worker.to_rows()


def test_merge_snapshot_is_associative_across_workers():
    def worker(jobs, depth, sample):
        store = run_store()
        store.counter_add("jobs", 0, jobs)
        store.gauge_set("depth", 0, depth)
        store.observe("t", 0, sample)
        return snapshot(store)

    a, b, c = worker(1, 5, 0.5), worker(2, 6, 1.5), worker(3, 7, 9.0)

    left = run_store()   # (a + b) + c
    left.merge(a)
    left.merge(b)
    left.merge(c)

    inner = run_store()  # a + (b + c)
    inner.merge(b)
    inner.merge(c)
    right = run_store()
    right.merge(a)
    right.merge(snapshot(inner))

    # counters and sketches agree exactly; the gauge takes the last
    # value in merge order, which both orders share (c's)
    assert left.to_rows() == right.to_rows()


def test_merge_snapshot_disjoint_quantile_names_coexist():
    main = run_store()
    main.observe("coarse", 0, 3.0)
    other = run_store()
    other.observe("fine", 0, 0.5)
    other.observe("fine", 0, 0.25)
    main.merge(snapshot(other))
    assert main.series_names() == ["coarse", "fine"]
    assert main.value("coarse", 0).count == 1
    assert main.value("fine", 0).count == 2
