"""The ``--profile`` table: :func:`repro.obs.render_profile` over spans."""

import pytest

from repro.obs import Span, SpanContext, render_profile


def make_span(name, span_id, parent_id=None, start_ms=0.0, ms=1.0, clock="wall", **attributes):
    return Span(
        name=name,
        context=SpanContext(trace_id="t", span_id=span_id, parent_id=parent_id),
        start_ns=int(start_ms * 1e6),
        duration_ns=int(ms * 1e6),
        clock=clock,
        attributes=attributes,
    )


def stage(stage_name, span_id, start_ms, ms, hit):
    return make_span(
        f"stage:{stage_name}", span_id, parent_id="root", start_ms=start_ms, ms=ms,
        flow="f", cache_hit=hit, fingerprint="0123456789abcdef", **{"metric.files": 2},
    )


def sweep_spans():
    """One root span over four stage spans, plus a sim span to be ignored."""
    return [
        stage("adequation", "a1", 1.0, 4.0, False),
        stage("adequation", "a2", 5.0, 1.0, True),
        stage("modular_backend", "m1", 6.0, 10.0, False),
        stage("adequation", "a3", 16.0, 1.0, True),
        make_span("flow:f", "root", start_ms=0.0, ms=20.0),
        make_span("resident", "sim1", clock="sim", ms=99.0, region="D1", kind="resident"),
    ]


def test_render_profile_default_is_per_event():
    text = render_profile(sweep_spans())
    lines = text.splitlines()
    # One row per wall-clock span, in start order; the sim span is left out.
    assert [line.split()[0] for line in lines[1:-1]] == [
        "flow:f", "adequation", "adequation", "modular_backend", "adequation",
    ]
    first = lines[2]
    assert first.split()[1:4] == ["miss", "4.00", "ms"]
    assert "0123456789ab" in first and "0123456789abc" not in first
    assert first.endswith("files=2")  # metric. prefix dropped, flow column-only
    assert lines[3].split()[1] == "hit"
    assert lines[1].split()[1:3] == ["20.00", "ms"]  # no cache column for flow:f
    # The total times the root span only: nested stages are inside it.
    assert lines[-1].split() == ["total", "2/4", "hit", "20.00", "ms"]


def test_render_profile_aggregate_groups_by_stage():
    text = render_profile(sweep_spans(), aggregate=True)
    lines = text.splitlines()
    assert lines[0].split() == ["stage", "count", "hits", "rate", "total", "mean"]
    # Busiest name first.
    assert lines[1].startswith("flow:f")
    assert lines[2].startswith("modular_backend")
    adequation = next(line for line in lines if line.startswith("adequation"))
    fields = adequation.split()
    assert fields[1] == "3" and fields[2] == "2" and fields[3] == "67%"
    assert pytest.approx(float(fields[4]), abs=0.01) == 6.0  # total ms
    assert pytest.approx(float(fields[6]), abs=0.01) == 2.0  # mean ms
    assert lines[1].split()[3] == "-"  # flow:f carries no cache_hit
    total = lines[-1].split()
    assert total[:4] == ["total", "5", "2", "50%"]
    assert pytest.approx(float(total[4]), abs=0.01) == 20.0


def test_render_profile_empty():
    sim_only = [make_span("resident", "sim1", clock="sim")]
    for spans in ([], sim_only):
        assert "no wall-clock spans" in render_profile(spans)
        assert "no wall-clock spans" in render_profile(spans, aggregate=True)
