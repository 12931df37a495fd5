"""Worker-side half of the parallel sweep engine.

A worker process is spawned **once** per :class:`~repro.exec.pool.WorkerPool`
slot, pre-imports the full ``repro`` package, and then serves jobs over its
duplex pipe for its whole life — across as many engine ``run()`` calls as
the pool survives.  The message protocol:

- engine → worker: ``("jobs", [(job, attempt, span_context), ...])`` with a
  *batch* of jobs (one pipe round-trip amortized over the batch; the worker
  queues them locally and pulls the next as soon as the previous finishes),
  ``("reset_cache", cache_dir)`` to drop the worker's artifact cache and
  rebuild it against ``cache_dir`` (applied in FIFO order after any queued
  jobs), or ``("stop",)``; ``span_context`` is the engine-side job span's
  :class:`~repro.obs.SpanContext` (``None`` when tracing is disabled), so
  the worker's spans parent correctly across the process boundary;
- worker → engine: ``("ready", worker_id)`` once imports complete,
  ``("started", job_id, attempt)`` when a job begins (the engine starts the
  job's timeout clock here, not at dispatch — a queued job is not running),
  ``("event", FlowEvent)`` for every pipeline stage event (streamed live so
  the engine's observer sees parallel stage traffic as it happens),
  ``("spans", job_id, [Span, ...])`` with the worker's finished trace spans
  and ``("metrics", job_id, rows)`` with the telemetry rows of its
  ``"run"`` store (both sent *before* the job outcome, so the engine
  always drains them),
  ``("done", job_id, payload, wall_time_s)`` on success and
  ``("fail", job_id, error, traceback, wall_time_s)`` on any exception.

:class:`SweepJob` is the picklable unit of work — it carries real model
objects (graph, library, device, reconfiguration architecture, parsed
dynamic constraints), mapping pins as plain pairs instead of a callable,
and the board factory as an ``"module:attr"`` entrypoint so the spawn
context can rebuild everything by import.  :func:`run_job` is the pure
"evaluate one design point" function; the engine's serial fallback and the
tests call it in-process.

Because one worker serves many traced runs, it keeps a single span-id
counter for its whole life: every run's tracer reuses it, so ``w<id>-``
span ids stay unique across runs even though each run carries a fresh
``trace_id``.

``fault`` is a deliberate fault-injection hook (``raise``, ``exit``,
``hang``, ``sleep:<s>``, ``fail_below:<n>``, ``raise_exit``) used to
validate the engine's retry, timeout and graceful-degradation semantics;
``raise_exit`` reports a failure and *then* kills the worker, reproducing
a worker dying between a failed attempt and its redispatch.
"""

from __future__ import annotations

import importlib
import itertools
import time
import traceback
from collections import deque
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Optional

from repro.arch.boards import Board
from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.fabric.device import VirtexIIDevice
from repro.fabric.floorplan import FloorplanError
from repro.flows.constraints import DynamicConstraints
from repro.flows.flow import DesignFlow
from repro.flows.observe import FlowEvent, FlowObserver
from repro.flows.pipeline import ArtifactCache
from repro.obs import Telemetry, Tracer, set_telemetry, set_tracer
from repro.reconfig.architectures import ReconfigArchitecture

__all__ = ["SweepJob", "run_job", "resolve_entrypoint", "worker_main"]

#: Default board factory entrypoint (the paper's Sundance platform).
DEFAULT_BOARD_BUILDER = "repro.arch.boards:sundance_board"


def resolve_entrypoint(spec: str) -> Callable:
    """Import ``"package.module:attr"`` and return the attribute."""
    module_name, sep, attr = spec.partition(":")
    if not sep or not module_name or not attr:
        raise ValueError(f"entrypoint must look like 'package.module:attr', got {spec!r}")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError as err:
        raise ValueError(f"module {module_name!r} has no attribute {attr!r}") from err


@dataclass(frozen=True)
class SweepJob:
    """One picklable design-point evaluation.

    Everything a spawn-context worker needs to rebuild the flow: model
    objects travel by value (all are plain-data and pickle cleanly),
    callables travel as importable entrypoints or data (``pins`` replaces
    ``configure_flow``-style lambdas).
    """

    job_id: str
    graph: AlgorithmGraph
    library: OperationLibrary
    device: VirtexIIDevice
    architecture: ReconfigArchitecture
    board_builder: str = DEFAULT_BOARD_BUILDER
    dynamic_constraints: Optional[DynamicConstraints] = None
    pins: tuple[tuple[str, str], ...] = ()
    prefetch: bool = True
    iteration_deadline_ns: Optional[int] = None
    #: Fault-injection hook for engine validation; see module docstring.
    fault: Optional[str] = None
    #: When > 0, run the runtime system simulation for this many executive
    #: iterations after a successful flow; selector values cycle through
    #: each condition group's alternatives so every dynamic region actually
    #: swaps (its reconfiguration activity lands in the trace and payload).
    simulate_iterations: int = 0
    #: Manager prefetch policy for that simulation: "none", "on_select"
    #: or "history" (a picklable name, resolved worker-side).
    simulate_policy: str = "none"


class ExitAfterReport(RuntimeError):
    """Injected failure that also kills the worker *after* it reports.

    Reproduces the nastiest respawn-accounting case: the engine sees the
    job fail (and schedules its retry with backoff), then the worker that
    failed it dies before the retry can be dispatched.  The engine must
    respawn a replacement into the warm pool and still finish the job.
    """


def _apply_fault(fault: Optional[str], attempt: int) -> None:
    if not fault:
        return
    if fault == "raise":
        raise RuntimeError(f"injected fault (attempt {attempt})")
    if fault == "raise_exit":
        if attempt < 2:
            raise ExitAfterReport(f"injected fault then crash (attempt {attempt})")
        return
    if fault == "exit":  # simulate a hard crash (segfault-style death)
        import os

        os._exit(13)
    if fault == "hang":
        time.sleep(3600.0)
        return
    if fault.startswith("sleep:"):
        time.sleep(float(fault.split(":", 1)[1]))
        return
    if fault.startswith("fail_below:"):
        threshold = int(fault.split(":", 1)[1])
        if attempt < threshold:
            raise RuntimeError(f"injected fault (attempt {attempt} < {threshold})")
        return
    raise ValueError(f"unknown fault spec {fault!r}")


def build_board(job: SweepJob) -> Board:
    return resolve_entrypoint(job.board_builder)(device=job.device)


def run_job(
    job: SweepJob,
    attempt: int = 1,
    cache: Optional[ArtifactCache] = None,
    observer: Optional[FlowObserver] = None,
) -> dict[str, Any]:
    """Evaluate one design point; returns a JSON-safe result payload.

    A floorplanning failure is a *result* (``fits: false``), not an error —
    matching :func:`repro.flows.designspace.explore_design_space`.  Any
    other exception propagates to the caller (the worker loop reports it to
    the engine, which retries or records the failure).

    Jobs other than :class:`SweepJob` may plug into the sweep machinery by
    exposing ``job_id`` plus an ``execute(attempt=, cache=, observer=)``
    method returning the payload (e.g.
    :class:`repro.mccdma.engine.LinkPointJob`); ``fault`` is honoured for
    them too when present.
    """
    _apply_fault(getattr(job, "fault", None), attempt)
    execute = getattr(job, "execute", None)
    if execute is not None:
        return execute(attempt=attempt, cache=cache, observer=observer)
    flow = DesignFlow(
        graph=job.graph,
        board=build_board(job),
        library=job.library,
        dynamic_constraints=job.dynamic_constraints,
        reconfig_architecture=job.architecture,
        prefetch=job.prefetch,
        iteration_deadline_ns=job.iteration_deadline_ns,
        cache=cache,
        observer=observer,
    )
    for operation, operator in job.pins:
        flow.mapping.pin(operation, operator)
    payload: dict[str, Any] = {
        "job_id": job.job_id,
        "device": job.device.name,
        "architecture": job.architecture.name,
    }
    try:
        result = flow.run()
    except FloorplanError as err:
        payload.update({"fits": False, "error": str(err)})
        return payload
    regions = result.modular.floorplan.placements
    payload.update(
        {
            "fits": True,
            "error": None,
            "region_area": {r: result.modular.region_area_fraction(r) for r in regions},
            "bitstream_bytes": {
                r: result.modular.floorplan.partial_bitstream_bytes(r) for r in regions
            },
            "reconfig_latency_ns": dict(result.modular.reconfig_latency_ns),
            "clock_mhz": result.modular.par_report.clock_mhz,
            "makespan_ns": result.makespan_ns,
            "first_pass_makespan_ns": result.first_pass_makespan_ns,
            "cache_stats": cache.stats.to_dict() if cache is not None else None,
        }
    )
    if job.simulate_iterations > 0:
        payload["runtime"] = _simulate_runtime(job, result)
    return payload


def _simulate_runtime(job: SweepJob, result) -> dict[str, Any]:
    """Run the dynamic verification for a fitting design point.

    Selector values cycle through each condition group's alternatives, so
    every dynamic region performs real swaps and the reconfiguration
    manager's load/prefetch/residency activity shows up in the trace.
    """
    # Local import: repro.flows.__init__ itself imports this module (via
    # designspace), so a top-level runtime import would re-enter it mid-init.
    from repro.flows.runtime import SystemSimulation
    from repro.runtime.policies import create_policy, get_bundle, policy_names

    try:
        bundle = get_bundle(job.simulate_policy)
    except ValueError:
        raise ValueError(
            f"unknown simulate_policy {job.simulate_policy!r}; "
            f"expected one of {policy_names()}"
        ) from None
    if bundle.needs_future:
        raise ValueError(
            f"simulate_policy {job.simulate_policy!r} is clairvoyant and "
            f"needs the demand schedule up front; pick one of "
            f"{policy_names(include_future=False)}"
        )
    runtime_policy = create_policy(job.simulate_policy)
    selectors = {
        group: (lambda i, vals=tuple(values): vals[i % len(vals)])
        for group, values in result.executive.condition_groups.items()
        if values
    }
    runtime = SystemSimulation(
        result,
        n_iterations=job.simulate_iterations,
        selector_values=selectors,
        policy=runtime_policy.prefetch,
        eviction=runtime_policy.eviction,
        region_slots=runtime_policy.region_slots,
    )
    rt = runtime.run()
    return {
        "n_iterations": rt.n_iterations,
        "switches": rt.switches,
        "stall_ns": rt.total_stall_ns,
        "end_time_ns": rt.end_time_ns,
        "useful_prefetches": rt.manager_stats.useful_prefetches,
        "policy": rt.policy_name,
    }


@dataclass
class _PipeObserver:
    """Streams each pipeline stage event back to the engine live.

    Send-only: nothing is retained worker-side, so a long-lived pool
    worker's memory footprint stays flat across thousands of jobs.
    """

    conn: Any

    def on_event(self, event: FlowEvent) -> None:
        try:
            self.conn.send(("event", event))
        except (BrokenPipeError, OSError):  # engine went away; keep computing
            pass


def worker_main(conn, worker_id: int, cache_dir: Optional[str]) -> None:
    """Process entrypoint: serve job batches from ``conn`` until ``stop``/EOF.

    The worker keeps one :class:`ArtifactCache` for its whole life (unless
    the engine sends ``reset_cache``), so its in-memory tier stays warm
    across the jobs — and the engine *runs* — it serves; with a
    ``cache_dir`` the disk tier is also shared with every sibling worker.

    Dispatch is pull-based: the engine keeps at most a couple of jobs
    queued here, and the worker starts the next the instant the previous
    finishes — it never waits a pipe round-trip with work in hand, and the
    engine never commits more than the queue depth to one worker (so a
    slow job cannot strand a long tail behind it).
    """
    cache = ArtifactCache(disk_dir=cache_dir) if cache_dir else ArtifactCache()
    observer = _PipeObserver(conn)
    #: One span-id counter for the worker's whole life: each traced run
    #: gets a fresh tracer (runs carry distinct trace ids) but the counter
    #: carries over, so ``w<id>-N`` ids never repeat across runs.
    span_seq = itertools.count(1)
    tracer: Optional[Tracer] = None
    #: FIFO of ("job", job, attempt, ctx) and ("reset_cache", dir) entries.
    local: deque = deque()
    try:
        conn.send(("ready", worker_id))
        while True:
            # Ingest everything available; block only when out of work.
            try:
                while not local or conn.poll():
                    message = conn.recv()
                    kind = message[0]
                    if kind == "stop":
                        return
                    if kind == "jobs":
                        local.extend(("job", *entry) for entry in message[1])
                    elif kind == "reset_cache":
                        local.append(message)
            except (EOFError, OSError):
                return
            entry = local.popleft()
            if entry[0] == "reset_cache":
                new_dir = entry[1]
                cache = ArtifactCache(disk_dir=new_dir) if new_dir else ArtifactCache()
                continue
            _, job, attempt, ctx = entry
            started = perf_counter()
            conn.send(("started", job.job_id, attempt))
            job_span = None
            previous = None
            previous_hub = None
            hub = None
            if ctx is not None:
                if tracer is None or tracer.trace_id != ctx.trace_id:
                    tracer = Tracer(
                        trace_id=ctx.trace_id,
                        span_id_prefix=f"w{worker_id}-",
                        process=f"worker-{worker_id}",
                        span_seq=span_seq,
                    )
                previous = set_tracer(tracer)
                hub = Telemetry()
                previous_hub = set_telemetry(hub)
                job_span = tracer.span(
                    f"attempt:{attempt}",
                    parent=ctx,
                    attributes={"job": job.job_id, "worker": worker_id},
                ).start()
            error: Optional[BaseException] = None
            error_tb = ""
            payload = None
            try:
                payload = run_job(job, attempt=attempt, cache=cache, observer=observer)
            except Exception as err:  # reported to the engine, never fatal here
                error = err
                error_tb = traceback.format_exc()
            wall = perf_counter() - started
            if ctx is not None:
                if error is not None:
                    job_span.set_attribute("error", f"{type(error).__name__}: {error}")
                job_span.end()
                set_tracer(previous)
                set_telemetry(previous_hub)
                # Stream the finished spans and run totals *before* the
                # outcome: once the engine records the last job result it
                # stops draining pipes.
                conn.send(("spans", job.job_id, list(tracer.spans)))
                tracer.spans.clear()
                if "run" in hub.domains():
                    conn.send(("metrics", job.job_id, hub.store("run").to_rows()))
            if error is not None:
                conn.send(
                    ("fail", job.job_id, f"{type(error).__name__}: {error}", error_tb, wall)
                )
                if isinstance(error, ExitAfterReport):
                    import os

                    os._exit(13)
            else:
                conn.send(("done", job.job_id, payload, wall))
    except (BrokenPipeError, OSError):  # engine died; exit quietly
        pass
    finally:
        try:
            conn.close()
        except OSError:
            pass
