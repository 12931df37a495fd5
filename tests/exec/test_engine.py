"""The parallel sweep engine: scheduling, fault tolerance, determinism.

The acceptance-critical properties live here:

- a ``--jobs 4`` sweep of the stock 3-device x 2-architecture grid leaves
  **byte-identical artifacts** on disk to a serial run;
- fault injection (a worker raising, hard-exiting, or sleeping past the
  timeout) shows the engine retries, then completes with the failed job
  reported — never deadlocking, never failing the sweep as a whole.

Worker processes are real spawn-context children, so this module leans on
small grids to keep wall time reasonable.
"""

import dataclasses

import pytest

from repro.dfg.library import default_library
from repro.exec import ParallelSweepEngine, SweepEvent
from repro.fabric.device import XC2V1000
from repro.flows import parse_constraints, sweep_jobs_for_grid
from repro.mccdma.casestudy import build_mccdma_graph
from repro.mccdma.engine import LinkEngineConfig, LinkPointJob
from repro.mccdma.transmitter import MCCDMAConfig
from repro.obs import Tracer, use_tracer
from repro.reconfig import case_a_standalone, case_b_processor

CONSTRAINTS = parse_constraints("""
[module mod_qpsk]
region    = D1
operation = mod_qpsk

[module mod_qam16]
region    = D1
operation = mod_qam16

[region D1]
sharing   = true
exclusive = mod_qpsk, mod_qam16
""")

PINS = (("bit_src", "DSP"), ("select", "DSP"))


def grid_jobs(devices=(XC2V1000,), architectures=()):
    return sweep_jobs_for_grid(
        build_mccdma_graph(),
        default_library(),
        devices=devices,
        architectures=architectures,
        dynamic_constraints=CONSTRAINTS,
        pins=PINS,
    )


def with_fault(job, job_id, fault):
    return dataclasses.replace(job, job_id=job_id, fault=fault)


def kinds(report):
    return [e.kind for e in report.events]


# -- construction ------------------------------------------------------------------


def test_engine_rejects_bad_parameters():
    with pytest.raises(ValueError):
        ParallelSweepEngine(jobs=-1)
    with pytest.raises(ValueError):
        ParallelSweepEngine(retries=-1)
    with pytest.raises(ValueError):
        ParallelSweepEngine(timeout_s=0)


def test_engine_rejects_duplicate_job_ids():
    jobs = grid_jobs()
    with pytest.raises(ValueError, match="duplicate"):
        ParallelSweepEngine(jobs=0).run([jobs[0], jobs[0]])


def test_empty_sweep_completes():
    report = ParallelSweepEngine(jobs=0).run([])
    assert report.results == []
    assert report.failed == []


def test_sweep_event_kind_is_validated():
    with pytest.raises(ValueError, match="unknown sweep event kind"):
        SweepEvent(kind="not_a_kind")
    event = SweepEvent(kind="job_finished", job="j1", worker=3, attempt=2, detail="x")
    assert (event.kind, event.sweep, event.job) == ("job_finished", "sweep", "j1")
    assert event.worker == 3
    assert event.attempt == 2


# -- serial in-process mode (jobs=0) ------------------------------------------------


def test_serial_mode_runs_the_grid_and_streams_events(tmp_path):
    engine = ParallelSweepEngine(jobs=0, cache_dir=tmp_path / "cache", sweep_name="serial")
    with use_tracer(Tracer()) as tracer:
        report = engine.run(grid_jobs(architectures=(case_a_standalone(), case_b_processor())))
    assert [r.ok for r in report.results] == [True, True]
    assert [r.job_id for r in report.results] == [
        "xc2v1000@case_a_standalone",
        "xc2v1000@case_b_processor",
    ]
    # Every stage looked up the shared cache, which produced hits.
    assert report.cache_lookups() == 12  # 2 jobs x 6 stages
    assert report.cache_hits() > 0
    assert kinds(report).count("job_finished") == 2
    assert kinds(report)[-1] == "sweep_completed"
    # The stage spans agree with the cache accounting.
    stages = [s for s in tracer.spans if s.name.startswith("stage:")]
    assert len(stages) == report.cache_lookups()
    assert sum(s.attributes["cache_hit"] for s in stages) == report.cache_hits()


def test_link_jobs_report_no_stage_cache_traffic():
    """Non-flow jobs never touch the artifact cache, so a link sweep
    reports 0/0 — not its ``link:*`` batches counted as cache lookups."""
    jobs = [
        LinkPointJob(
            job_id=f"pt{i}", strategy="qpsk", snr_db=6.0, n_frames=8, seed_entropy=0,
            point_index=i, config=MCCDMAConfig(user_codes=(0, 5)),
            engine=LinkEngineConfig(batch_frames=4),
        )
        for i in range(2)
    ]
    report = ParallelSweepEngine(jobs=0).run(jobs)
    assert all(r.ok for r in report.results)
    assert (report.cache_hits(), report.cache_lookups()) == (0, 0)
    assert "stage cache 0/0 hit" in report.summary()


def test_serial_mode_retries_then_reports_failure():
    jobs = grid_jobs()
    flaky = with_fault(jobs[0], "flaky", "fail_below:2")
    dead = with_fault(jobs[0], "dead", "raise")
    report = ParallelSweepEngine(jobs=0, retries=1).run([flaky, dead])
    by_id = {r.job_id: r for r in report.results}
    assert by_id["flaky"].ok and by_id["flaky"].attempts == 2
    assert not by_id["dead"].ok and by_id["dead"].attempts == 2
    assert "injected fault" in by_id["dead"].error


# -- parallel workers --------------------------------------------------------------


def test_parallel_sweep_matches_expected_points(tmp_path):
    engine = ParallelSweepEngine(
        jobs=2, timeout_s=300, retries=1, cache_dir=tmp_path / "cache"
    )
    jobs = grid_jobs(architectures=(case_a_standalone(), case_b_processor()))
    with use_tracer(Tracer()) as tracer:
        report = engine.run(jobs)
    engine.close()
    # Results in submission order, independent of completion order.
    assert [r.job_id for r in report.results] == [j.job_id for j in jobs]
    assert all(r.ok for r in report.results)
    payload = report.results[0].payload
    assert payload["fits"] is True
    assert payload["makespan_ns"] > 0
    assert payload["reconfig_latency_ns"]["D1"] > 0
    # Worker stage spans were streamed back into the caller's trace.
    stage_names = {
        s.name for s in tracer.spans if s.process.startswith("worker-")
    }
    assert "stage:adequation" in stage_names and "stage:modular_backend" in stage_names
    assert report.to_dict()["succeeded"] == 2


def test_parallel_faults_retry_then_report_without_deadlock(tmp_path):
    """A raising worker, a hard-crashing worker and a hung worker each fail
    only their own job; the sweep completes with partial results."""
    jobs = grid_jobs(architectures=(case_a_standalone(),))
    good = jobs[0]
    raiser = with_fault(good, "raiser", "raise")
    crasher = with_fault(good, "crasher", "exit")
    hung = with_fault(good, "hung", "hang")
    # Worker imports are not on a job's clock and a fitting job runs in
    # tens of milliseconds, so 1 s still tells every other job from the hang.
    engine = ParallelSweepEngine(
        jobs=2, timeout_s=1, retries=1, backoff_s=0.01, cache_dir=tmp_path / "cache"
    )
    report = engine.run([good, raiser, crasher, hung])
    by_id = {r.job_id: r for r in report.results}
    assert len(report.results) == 4  # nothing lost
    assert by_id[good.job_id].ok
    assert not by_id["raiser"].ok and by_id["raiser"].attempts == 2
    assert "injected fault" in by_id["raiser"].error
    assert not by_id["crasher"].ok and "crashed" in by_id["crasher"].error
    assert not by_id["hung"].ok and "timed out" in by_id["hung"].error
    assert "job_retried" in kinds(report)
    assert "job_timeout" in kinds(report)
    assert "worker_crashed" in kinds(report)
    assert kinds(report)[-1] == "sweep_completed"


def test_flaky_job_succeeds_on_parallel_retry(tmp_path):
    jobs = grid_jobs(architectures=(case_a_standalone(),))
    flaky = with_fault(jobs[0], "flaky", "fail_below:2")
    engine = ParallelSweepEngine(
        jobs=1, timeout_s=300, retries=2, backoff_s=0.01, cache_dir=tmp_path / "cache"
    )
    report = engine.run([flaky])
    (result,) = report.results
    assert result.ok and result.attempts == 2
    assert result.payload["fits"] is True


# -- the acceptance criterion: byte-identical artifacts ----------------------------


def stock_grid_jobs():
    from repro.fabric.device import XC2V2000, XC2V3000

    return sweep_jobs_for_grid(
        build_mccdma_graph(),
        default_library(),
        devices=(XC2V1000, XC2V2000, XC2V3000),
        architectures=(case_a_standalone(), case_b_processor()),
        dynamic_constraints=CONSTRAINTS,
        pins=PINS,
    )


def artifact_bytes(cache_dir):
    return {p.name: p.read_bytes() for p in cache_dir.glob("*.pkl")}


def test_parallel_artifacts_byte_identical_to_serial(tmp_path):
    """Stock 3-device x 2-architecture grid, --jobs 4 vs serial: the shared
    disk caches must contain the same entries with the same bytes."""
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / "parallel"
    serial = ParallelSweepEngine(jobs=0, cache_dir=serial_dir).run(stock_grid_jobs())
    parallel = ParallelSweepEngine(
        jobs=4, timeout_s=300, retries=1, cache_dir=parallel_dir
    ).run(stock_grid_jobs())
    assert all(r.ok for r in serial.results)
    assert all(r.ok for r in parallel.results)
    serial_artifacts = artifact_bytes(serial_dir)
    parallel_artifacts = artifact_bytes(parallel_dir)
    assert set(serial_artifacts) == set(parallel_artifacts)
    assert serial_artifacts == parallel_artifacts  # byte-identical payloads
    # And the reported numbers agree point by point.
    for a, b in zip(serial.results, parallel.results):
        assert a.job_id == b.job_id
        assert a.payload["makespan_ns"] == b.payload["makespan_ns"]
        assert a.payload["reconfig_latency_ns"] == b.payload["reconfig_latency_ns"]
