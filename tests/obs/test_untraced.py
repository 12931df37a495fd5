"""Untraced runs record nothing.

Telemetry is opt-in: with no hub installed, every instrumentation site's
``hub is None`` guard must skip recording entirely.  A spy on every
:class:`TimeSeriesStore` recorder (and on hub construction) proves that a
search, a flow pipeline and a link point run without touching the store;
spies on span construction prove that an untraced sweep job builds no span.
"""

import pytest

from repro.arch.boards import sundance_board
from repro.dfg.generators import layered_random_graph, multiregion_graph
from repro.dfg.library import default_library
from repro.exec import SweepJob, run_job
from repro.fabric.device import XC2V1000
from repro.flows import ArtifactCache, DesignFlow
from repro.mccdma.casestudy import build_mccdma_graph
from repro.mccdma.engine import LinkEngineConfig, LinkSimulationEngine
from repro.mccdma.transmitter import MCCDMAConfig
from repro.obs import Span, Telemetry, TimeSeriesStore, get_telemetry, get_tracer
from repro.obs.tracer import SpanHandle
from repro.reconfig import case_a_standalone
from repro.search import CostEvaluator, SearchConfig, SearchSpace, run_search

RECORDERS = (
    "counter_add",
    "gauge_set",
    "observe",
    "defer_array",
)


@pytest.fixture
def store_calls(monkeypatch):
    calls: list[str] = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)

        return record

    for name in RECORDERS:
        monkeypatch.setattr(TimeSeriesStore, name, spy(f"TimeSeriesStore.{name}"))
    monkeypatch.setattr(Telemetry, "__init__", spy("Telemetry.__init__"))
    monkeypatch.setattr(Telemetry, "store", spy("Telemetry.store"))
    return calls


@pytest.fixture
def span_calls(monkeypatch):
    calls: list[str] = []

    def spy(name):
        def record(*args, **kwargs):
            calls.append(name)

        return record

    monkeypatch.setattr(Span, "__init__", spy("Span.__init__"))
    monkeypatch.setattr(SpanHandle, "__init__", spy("SpanHandle.__init__"))
    return calls


def test_untraced_search_records_nothing(store_calls):
    assert get_telemetry() is None
    space = SearchSpace(multiregion_graph(2, 2), default_library())
    result = run_search(
        space, CostEvaluator(space), SearchConfig(budget=20, seed=0, restarts=2)
    )
    assert result.evaluations > 0
    assert get_telemetry() is None
    assert store_calls == []


def test_untraced_flow_pipeline_records_nothing(store_calls):
    assert get_telemetry() is None
    flow = DesignFlow(
        graph=layered_random_graph(4, 3, seed=1),
        board=sundance_board(),
        library=default_library(),
    )
    artifacts = flow.build_pipeline().run()
    assert "executive" in artifacts
    assert get_telemetry() is None
    assert store_calls == []


def test_untraced_link_point_records_nothing(store_calls):
    assert get_telemetry() is None
    engine = LinkSimulationEngine(
        config=MCCDMAConfig(user_codes=(0, 3)),
        engine=LinkEngineConfig(batch_frames=8),
    )
    result = engine.simulate_point("adaptive", 6.0, 8, seed=11)
    assert result.n_frames == 8
    assert get_telemetry() is None
    assert store_calls == []


def test_untraced_sweep_job_records_nothing(store_calls, span_calls):
    assert not get_tracer().enabled and get_telemetry() is None
    job = SweepJob(
        job_id="untraced",
        graph=build_mccdma_graph(),
        library=default_library(),
        device=XC2V1000,
        architecture=case_a_standalone(),
        pins=(("bit_src", "DSP"), ("select", "DSP")),
    )
    payload = run_job(job, cache=ArtifactCache())
    assert payload["fits"] is True
    assert payload["cache_lookups"] == 6  # every stage looked up the cache
    assert get_telemetry() is None
    assert store_calls == []
    assert span_calls == []
