"""Exporters: Chrome trace JSON + validator, Gantt views, run manifests."""

import json

import pytest

from repro.obs import (
    Span,
    SpanContext,
    Telemetry,
    build_manifest,
    chrome_trace,
    manifest_path_for,
    region_timeline,
    render_region_gantt,
    render_region_gantt_svg,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_manifest,
)


def _span(name, span_id, start, dur, parent=None, clock="wall", process="main",
          track="main", **attributes):
    return Span(
        name=name,
        context=SpanContext(trace_id="t", span_id=span_id, parent_id=parent),
        start_ns=start,
        duration_ns=dur,
        clock=clock,
        process=process,
        track=track,
        attributes=attributes,
    )


def _sample_spans():
    return [
        _span("flow", "s1", 1_000_000, 500_000),
        _span("stage", "s2", 1_100_000, 100_000, parent="s1"),
        _span("compute", "sim1-1", 0, 40_000, parent="s1", clock="sim",
              process="sim", track="op.fft"),
    ]


def test_chrome_trace_structure_and_lanes():
    payload = chrome_trace(_sample_spans(), metadata={"trace_id": "t"})
    assert payload["displayTimeUnit"] == "ms"
    assert payload["metadata"] == {"trace_id": "t"}
    events = payload["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    names = {e["args"]["name"] for e in meta if e["name"] == "process_name"}
    # Sim-clock spans live on their own lane: the clocks are unrelated.
    assert names == {"main", "sim [sim time]"}
    xs = {e["name"]: e for e in events if e["ph"] == "X"}
    assert xs["flow"]["ts"] == 0.0  # wall spans rebase to the earliest start
    assert xs["stage"]["ts"] == 100.0  # 0.1 ms later, in microseconds
    assert xs["flow"]["dur"] == 500.0
    assert xs["compute"]["ts"] == 0.0  # sim time stays absolute
    assert xs["stage"]["args"]["parent_id"] == "s1"
    assert xs["flow"]["pid"] != xs["compute"]["pid"]


def test_write_and_validate_roundtrip(tmp_path):
    path = write_chrome_trace(tmp_path / "trace.json", _sample_spans())
    assert validate_trace_file(path) == []
    payload = json.loads(path.read_text())
    assert validate_chrome_trace(payload) == []


def test_validator_catches_broken_traces(tmp_path):
    assert validate_chrome_trace({"nope": 1}) == ["top-level object has no 'traceEvents' list"]
    assert validate_chrome_trace([]) == ["trace contains no events"]
    errors = validate_chrome_trace(
        [
            {"ph": "X", "name": "a", "ts": -1, "dur": "x", "pid": 1, "tid": 1,
             "args": {"span_id": "s2", "parent_id": "missing", "trace_id": "t1"}},
            {"ph": "X", "name": "b", "ts": 0, "dur": 1, "pid": 1, "tid": 1,
             "args": {"span_id": "s3", "trace_id": "t2"}},
            {"ph": "B", "name": "open", "pid": 1, "tid": 1},
            {"ph": "?", "name": "junk"},
        ]
    )
    text = "\n".join(errors)
    assert "negative 'ts'" in text
    assert "non-numeric 'dur'" in text
    assert "parent_id 'missing'" in text
    assert "'B' never closed" in text
    assert "unknown phase" in text
    assert "2 traces" in text
    assert validate_trace_file(tmp_path / "absent.json")[0].startswith("cannot read")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert "not valid JSON" in validate_trace_file(bad)[0]


def _region_spans():
    return [
        _span("resident:qpsk", "r1", 0, 4_000, clock="sim", process="sim",
              track="region.D1", region="D1", module="qpsk", kind="resident"),
        _span("load:qam16", "r2", 4_000, 2_000, clock="sim", process="sim",
              track="region.D1", region="D1", module="qam16", kind="load"),
        _span("prefetch:qpsk", "r3", 8_000, 2_000, clock="sim", process="sim",
              track="region.D1", region="D1", module="qpsk", kind="prefetch"),
        _span("resident:qam16", "r4", 6_000, 4_000, clock="sim", process="sim",
              track="region.D1", region="D1", module="qam16", kind="resident"),
        # Wall spans and attribute-free sim spans stay out of the timeline.
        _span("flow", "s1", 0, 1_000),
        _span("compute", "c1", 0, 1_000, clock="sim", process="sim", track="op.fft"),
    ]


def test_region_timeline_classifies_intervals():
    timeline = region_timeline(_region_spans())
    assert set(timeline) == {"D1"}
    assert [m for m, *_ in timeline["D1"]["resident"]] == ["qpsk", "qam16"]
    assert [(m, k) for m, _, _, k in timeline["D1"]["loads"]] == [
        ("qam16", "load"),
        ("qpsk", "prefetch"),
    ]


def test_gantt_renders_residency_loads_and_prefetch():
    text = render_region_gantt(_region_spans(), width=40)
    assert "D1 |" in text
    row = text.splitlines()[0]
    assert "a" in row and "b" in row  # two resident modules
    assert "B" in row or "A" in row  # a demand load in flight
    assert "*" in row  # the prefetch overlay
    assert "*=prefetch" in text
    assert render_region_gantt([]) == "(no region residency spans in trace)"


def test_gantt_svg_is_wellformed():
    svg = render_region_gantt_svg(_region_spans())
    assert svg.startswith("<svg") and svg.endswith("</svg>")
    assert "region.D1" not in svg  # labelled by region name, not actor
    assert ">D1</text>" in svg
    assert svg.count("<rect") >= 6
    assert "#999" in svg  # prefetch hatch


def test_manifest_contents_and_sibling_path(tmp_path):
    hub = Telemetry()
    hub.store("run").counter_add("a", 0, 1)
    manifest = build_manifest(
        argv=["repro", "sweep"], seed=7,
        metrics=hub.to_rows(),
        extra={"command": "sweep"},
    )
    assert manifest["argv"] == ["repro", "sweep"]
    assert manifest["seed"] == 7
    assert manifest["command"] == "sweep"
    assert manifest["python"]
    assert manifest["created_unix_s"] > 0
    assert manifest_path_for("out/trace.json") == manifest_path_for("out/trace.json").with_name(
        "trace.manifest.json"
    )
    path = write_manifest(tmp_path / "run.manifest.json", manifest)
    rows = json.loads(path.read_text())["metrics"]
    assert Telemetry.from_rows(rows).store("run").total("a") == 1


# -- counter tracks ----------------------------------------------------------


def test_run_store_counter_events_sample_counters_and_gauges():
    from repro.obs import counter_events_from_store

    run = Telemetry().store("run")
    run.counter_add("jobs", 0, 3)
    run.gauge_set("depth", 0, 2)
    run.observe("t", 0, 0.5)  # a sketch fans out into /count and quantile tracks
    events = counter_events_from_store(run, pid=7, quantiles=(0.5,))
    assert [e["name"] for e in events] == ["depth", "jobs", "t/count", "t/p50"]
    # run totals live in the single window at t=0
    assert all(e["ph"] == "C" and e["ts"] == 0.0 and e["pid"] == 7 for e in events)
    assert events[1]["args"] == {"value": 3}


def test_counter_events_from_store_unrolls_windows_and_quantiles():
    import numpy as np

    from repro.obs import TimeSeriesStore, counter_events_from_store

    store = TimeSeriesStore(window=1_000)
    store.counter_add_array("hits", np.asarray([100, 1_500]), policy="lru")
    store.observe_array(
        "lat", np.full(100, 100), np.asarray([10.0] * 98 + [90.0] * 2)
    )
    events = counter_events_from_store(store, pid=3, quantiles=(0.99,))
    by_name = {}
    for e in events:
        by_name.setdefault(e["name"], []).append(e)
    # counter series: one sample per window, labels become a track suffix
    hits = by_name["hits{policy=lru}"]
    assert [(e["ts"], e["args"]["value"]) for e in hits] == [(0.0, 1), (1.0, 1)]
    # quantile series fan out into /count and /p99 tracks
    assert by_name["lat/count"][0]["args"]["value"] == 100
    assert by_name["lat/p99"][0]["args"]["value"] == pytest.approx(90.0, rel=0.02)
    assert all(e["ph"] == "C" and e["pid"] == 3 for e in events)
    # deterministic ordering: by (name, ts)
    assert events == sorted(events, key=lambda e: (e["name"], e["ts"]))


def test_chrome_trace_carries_counter_lanes_and_validates(tmp_path):
    import numpy as np

    from repro.obs import TimeSeriesStore

    run = Telemetry().store("run")
    run.counter_add("jobs", 0, 1)
    store = TimeSeriesStore(window=1_000)
    store.counter_add_array("fleet.demands", np.asarray([10, 2_000]), policy="lru")
    payload = chrome_trace(_sample_spans(), counters=run, telemetry=store)
    counters = [e for e in payload["traceEvents"] if e["ph"] == "C"]
    assert {e["name"] for e in counters} >= {"jobs", "fleet.demands{policy=lru}"}
    lanes = {e["args"]["name"] for e in payload["traceEvents"]
             if e["ph"] == "M" and e["name"] == "process_name"}
    assert {"metrics", "telemetry [sim time]"} <= lanes
    assert validate_chrome_trace(payload) == []
    path = tmp_path / "trace.json"
    write_chrome_trace(path, _sample_spans(), counters=run, telemetry=store)
    assert validate_trace_file(path) == []


def test_validator_rejects_malformed_counter_events():
    base = {"ph": "C", "name": "x", "pid": 0, "tid": 0}
    assert validate_chrome_trace(
        {"traceEvents": [{**base, "ts": -1.0, "args": {"value": 1}}]}
    )
    assert validate_chrome_trace(
        {"traceEvents": [{**base, "ts": 0.0, "args": {}}]}
    )
    assert validate_chrome_trace(
        {"traceEvents": [{**base, "ts": 0.0, "args": {"value": float("nan")}}]}
    )
    assert validate_chrome_trace(
        {"traceEvents": [{**base, "ts": 0.0, "args": {"value": True}}]}
    )
    assert validate_chrome_trace(
        {"traceEvents": [{**base, "ts": 0.0, "args": {"value": 1.0}}]}
    ) == []
