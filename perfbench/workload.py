"""Run one benchmark workload in this (fresh) process; ``run.py`` spawns it.

    python3 perfbench/workload.py --workload fleet-vector --seed 0 --seconds 20 \\
        --mode measure --launch-ns <monotonic ns before spawn> --result out.json

Modes:

- ``setup``: import ``repro.cli``, build the workload's inputs, record the
  time from launch to the first timed call, exit.
- ``measure``: the same set-up, then repeat the workload for ``--seconds``
  (at least once), timing each iteration; then run the output checks.
- ``trace``: as ``measure``, but the second half of the time runs with the
  :mod:`tracing` wrappers installed; writes the spans file and the
  per-layer metrics.

Inputs come only from ``--seed``.  Every iteration of a run uses the same
inputs, so its digests must repeat; the checks count attempted and failed
operations and never stop the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from dataclasses import replace
from pathlib import Path

import calibrate
import tracing

POLICIES_VECTOR = ("fixed", "lru")
POLICIES_SCALAR = ("history", "belady")
ALL_POLICIES = POLICIES_VECTOR + POLICIES_SCALAR
#: boards replayed on the reference kernel per policy, outside the timed loop
KERNEL_REPLAY_BOARDS = 3
SNR_POINTS_DB = tuple(float(s) for s in range(0, 21, 2))
LINK_STRATEGIES = ("qpsk", "qam16", "adaptive")
LINK_FRAMES = 300


class Checks:
    """Attempted/failed operation counts; keeps the first few failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(what)


class FleetWorkload:
    """``repro fleet`` over a shared traffic pass, as the CLI runs it."""

    def __init__(self, seed: int, n_boards: int, policies, telemetry_path=None):
        from repro.runtime import fleet

        self.fleet = fleet
        self.policies = policies
        self.base = fleet.FleetConfig(
            n_boards=n_boards, requests_per_board=1000, traffic="poisson", seed=seed,
        )
        self.work = n_boards * 1000 * len(policies)
        self.telemetry_path = telemetry_path
        if telemetry_path is not None:
            from repro.obs.telemetry import SloRule

            # Thresholds no window reaches (per-window hit rates stay near
            # 0.2-0.4 and stalls near the ~4 ms load time), so evaluation runs
            # in full and a breach means the program changed.
            self.slo_rules = [
                SloRule(name="hit-rate-floor", series="fleet.hits", kind="floor",
                        threshold=0.01, denominator="fleet.demands", min_count=100),
                SloRule(name="stall-p99-ceiling", series="fleet.stall_ns", kind="ceiling",
                        threshold=1e9, quantile=0.99, min_count=100),
            ]
        self.first_rows: dict[str, list[dict]] = {}

    def iteration(self) -> dict:
        fleet = self.fleet
        store = monitor = None
        if self.telemetry_path is not None:
            from repro.obs.telemetry import SloMonitor, TimeSeriesStore

            store = TimeSeriesStore(window=5_000_000, clock="sim")
            monitor = SloMonitor(store, self.slo_rules)
        schedules = fleet.generate_fleet_schedules(self.base)
        reports, breaches = {}, []
        for policy in self.policies:
            reports[policy] = fleet.run_fleet(
                replace(self.base, policy=policy), schedules=schedules, telemetry=store,
            )
            if monitor is not None:
                breaches.extend(monitor.evaluate())
        rows = store.write_jsonl(self.telemetry_path) if store is not None else None
        # the CLI prints these; building them is part of the timed report
        summaries = [report.summary() for report in reports.values()]
        digests = {f"fleet.{p}": report.digest() for p, report in reports.items()}
        return {"reports": reports, "breaches": breaches, "rows": rows,
                "summaries": summaries, "digests": digests}

    def check(self, outcome: dict, checks: Checks) -> None:
        n = self.base.requests_per_board
        for policy, report in outcome["reports"].items():
            for index, row in enumerate(report.boards):
                ok = (
                    row["demand_requests"] == n
                    and row["instant_hits"] + row["resident_hits"] <= row["demand_requests"]
                    and row["crc_failures"] == 0
                    and row["readback_failures"] == 0
                    and row["load_retries"] == 0
                )
                checks.check(ok, f"{policy} board {index}: {row}")
            checks.check(len(report.boards) == self.base.n_boards,
                         f"{policy}: {len(report.boards)} board rows")
            self.first_rows.setdefault(policy, report.boards[:KERNEL_REPLAY_BOARDS])
        if self.telemetry_path is not None:
            checks.check(not outcome["breaches"], f"SLO breaches: {outcome['breaches'][:3]}")
            checks.check(bool(outcome["rows"]), "telemetry export wrote no rows")

    def replay(self, checks: Checks) -> None:
        """Re-run the first boards of each policy on the reference kernel."""
        fleet = self.fleet
        small = replace(self.base, n_boards=KERNEL_REPLAY_BOARDS)
        schedules = fleet.generate_fleet_schedules(small)
        for policy in self.policies:
            report = fleet.run_fleet(
                replace(small, policy=policy), engine="kernel", schedules=schedules,
            )
            for index, row in enumerate(report.boards):
                checks.check(row == self.first_rows[policy][index],
                             f"{policy} board {index}: kernel {row} != fast")

    def sim_metrics(self, outcome: dict) -> dict:
        out = {}
        for policy, report in outcome["reports"].items():
            totals = report.totals
            loads = totals["prefetch_loads"]
            out[f"reconfig.hit_rate.{policy}"] = report.hit_rate
            out[f"reconfig.mean_stall_ns.{policy}"] = report.mean_stall_ns
            out[f"reconfig.prefetch_useful_ratio.{policy}"] = (
                totals["useful_prefetches"] / loads if loads else 0.0
            )
        stats = [r.engine_stats for r in outcome["reports"].values()]
        out["runtime.fast.vector_boards"] = sum(s.vector_boards for s in stats)
        out["runtime.fast.scalar_boards"] = sum(s.scalar_boards for s in stats)
        out["runtime.fast.vector_steps"] = sum(s.vector_steps for s in stats)
        if outcome["rows"] is not None:
            out["obs.telemetry.rows"] = outcome["rows"]
        return out


class SearchWorkload:
    """``repro search --method anneal`` on the 4-group x 3-alternative graph.

    A search's cost depends on its trajectory (how often the memo hits), so
    iteration ``i`` anneals with seed ``1000 * seed + i``: a run's median
    then spans many trajectories and runs on different seeds agree.  The
    first iteration's digest is reported, and the replay re-runs it.
    """

    BUDGET = 1000
    RESTARTS = 4

    def __init__(self, seed: int):
        from repro.dfg.generators import multiregion_graph
        from repro.dfg.library import default_library
        from repro.flows import designspace

        self.designspace = designspace
        self.seed = seed
        self.graph = multiregion_graph(n_groups=4, alternatives=3)
        self.library = default_library()
        self.iterations = 0
        self.work = None  # frontier + evaluations of the latest iteration
        self.best = None
        self.first_digest = None

    def _search(self, index: int):
        return self.designspace.search_multiregion(
            self.graph, self.library, method="anneal", budget=self.BUDGET,
            seed=1000 * self.seed + index, restarts=self.RESTARTS,
        )

    def iteration(self) -> dict:
        index = self.iterations
        self.iterations += 1
        report = self._search(index)
        summary = report.render()
        digests = {"search.anneal": report.result.digest()} if index == 0 else {}
        return {"report": report, "summary": summary, "digests": digests}

    def check(self, outcome: dict, checks: Checks) -> None:
        report = outcome["report"]
        evaluations = report.result.evaluations
        # The annealer may end a restart early when its move generator is
        # stuck, so count the evaluations it asked for (the digest pins them).
        self.work = len(report.fixed) + evaluations
        checks.check(report.searched.total_ns <= report.best_fixed_cost_ns,
                     f"searched {report.searched.total_ns} > frontier {report.best_fixed_cost_ns}")
        checks.check(0 < evaluations <= self.BUDGET,
                     f"{evaluations} evaluations for a budget of {self.BUDGET}")
        self.best = (report.result.best_state, report.searched.total_ns)
        if outcome["digests"]:
            self.first_digest = outcome["digests"]["search.anneal"]

    def replay(self, checks: Checks) -> None:
        """Repeat the first search; price the last best state on a fresh evaluator."""
        from repro.search import CostEvaluator, SearchSpace

        digest = self._search(0).result.digest()
        checks.check(digest == self.first_digest,
                     f"first search repeated gives {digest}, not {self.first_digest}")
        state, total_ns = self.best
        fresh = CostEvaluator(SearchSpace(self.graph, self.library)).evaluate(state)
        checks.check(fresh.total_ns == total_ns,
                     f"fresh evaluator prices best state at {fresh.total_ns}, search said {total_ns}")

    def sim_metrics(self, outcome: dict) -> dict:
        if not outcome["digests"]:
            return {}
        return {"search.best_cost_ns": outcome["report"].searched.total_ns}


class LinkWorkload:
    """``repro linklevel`` over qpsk, qam16 and adaptive at 0-20 dB."""

    def __init__(self, seed: int):
        from repro.mccdma.engine import LinkEngineConfig, LinkSimulationEngine
        from repro.mccdma.transmitter import MCCDMAConfig

        self.seed = seed
        self.config = MCCDMAConfig(user_codes=tuple(range(4)))
        self.engine_config = LinkEngineConfig(batch_frames=64)
        self.engine = LinkSimulationEngine(config=self.config, engine=self.engine_config)
        self.work = len(LINK_STRATEGIES) * len(SNR_POINTS_DB) * LINK_FRAMES
        self.results: dict[str, list] = {}

    def iteration(self) -> dict:
        results = {
            strategy: self.engine.sweep_points(
                strategy, SNR_POINTS_DB, LINK_FRAMES, seed=self.seed, jobs=0,
            )
            for strategy in LINK_STRATEGIES
        }
        payload = json.dumps(
            {s: [r.to_dict() for r in rs] for s, rs in results.items()}, sort_keys=True,
        )
        return {"results": results,
                "digests": {"link.sweep": hashlib.sha256(payload.encode()).hexdigest()[:16]}}

    def check(self, outcome: dict, checks: Checks) -> None:
        for strategy, results in outcome["results"].items():
            checks.check(len(results) == len(SNR_POINTS_DB), f"{strategy}: {len(results)} points")
            for snr, result in zip(SNR_POINTS_DB, results):
                checks.check(result.n_frames == LINK_FRAMES,
                             f"{strategy} @ {snr} dB: {result.n_frames} frames")
        self.results = outcome["results"]

    def replay(self, checks: Checks) -> None:
        """One SNR point per strategy on a fresh engine, outside the sweep machinery."""
        import numpy as np
        from repro.mccdma.engine import LinkSimulationEngine

        index = self.seed % len(SNR_POINTS_DB)
        for strategy in LINK_STRATEGIES:
            engine = LinkSimulationEngine(config=self.config, engine=self.engine_config)
            seed = np.random.SeedSequence(self.seed, spawn_key=(index,))
            fresh = engine.simulate_point(strategy, SNR_POINTS_DB[index], LINK_FRAMES, seed=seed)
            checks.check(fresh == self.results[strategy][index],
                         f"{strategy} @ {SNR_POINTS_DB[index]} dB: replay {fresh} differs")

    def sim_metrics(self, outcome: dict) -> dict:
        return {}


def build(workload: str, seed: int, out_dir: Path):
    if workload == "fleet-vector":
        return FleetWorkload(seed, 1000, POLICIES_VECTOR)
    if workload == "fleet-scalar":
        return FleetWorkload(seed, 200, POLICIES_SCALAR,
                             telemetry_path=out_dir / f"telemetry-{seed}.jsonl")
    if workload == "search-anneal":
        return SearchWorkload(seed)
    if workload == "link-sweep":
        return LinkWorkload(seed)
    raise ValueError(f"unknown workload {workload!r}")


#: Span names each workload must record in a traced iteration.
EXPECTED_LAYERS = {
    "fleet-vector": ("runtime.traffic", "runtime.fleet", "runtime.fast",
                     "reconfig.stats_rebuild", "runtime.fleet.digest"),
    "fleet-scalar": ("runtime.traffic", "runtime.fleet", "runtime.fast",
                     "reconfig.stats_rebuild", "runtime.fleet.digest",
                     "obs.telemetry.flush", "obs.telemetry.slo_eval", "obs.telemetry.export"),
    "search-anneal": ("search.driver", "search.space.neighbor", "search.objective",
                      "aaa.adequate", "fabric.boundary_cost", "fabric.floorplan"),
    "link-sweep": ("mccdma.engine", "mccdma.transmitter", "mccdma.channel", "mccdma.receiver"),
}


def layer_metrics(workload, times: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced iteration (zero where a layer did no work)."""
    def busy(name):
        return times.get(name, {}).get("busy_ns", 0) / 1e9

    def self_s(name):
        return times.get(name, {}).get("self_ns", 0) / 1e9

    def calls(name):
        return times.get(name, {}).get("calls", 0)

    fleet = isinstance(workload, FleetWorkload)
    boards_requests = workload.base.n_boards * workload.base.requests_per_board if fleet else 0
    fleet_requests = workload.work if fleet else 0
    adequate_calls = calls("aaa.adequate")
    requested = counts.get("search.objective.requested", 0)
    return {
        "runtime.traffic.busy_s": busy("runtime.traffic"),
        "runtime.traffic.ns_per_request":
            busy("runtime.traffic") * 1e9 / boards_requests if boards_requests else 0.0,
        "runtime.fast.busy_s": busy("runtime.fast"),
        "runtime.fast.ns_per_request":
            busy("runtime.fast") * 1e9 / fleet_requests if fleet_requests else 0.0,
        "reconfig.stats_rebuild_s": busy("reconfig.stats_rebuild"),
        "reconfig.stats_rebuild_calls": calls("reconfig.stats_rebuild"),
        "runtime.fleet.self_s": self_s("runtime.fleet"),
        "runtime.fleet.digest_s": busy("runtime.fleet.digest"),
        "obs.telemetry.flush_s": busy("obs.telemetry.flush"),
        "obs.telemetry.slo_eval_s": busy("obs.telemetry.slo_eval"),
        "obs.telemetry.export_s": busy("obs.telemetry.export"),
        "search.driver.self_s": self_s("search.driver"),
        "search.space.neighbor_s": busy("search.space.neighbor"),
        "search.objective.requested": requested,
        "search.objective.computed": counts.get("search.objective.computed", 0),
        "search.objective.memo_hits": counts.get("search.objective.memo_hits", 0),
        "search.objective.memo_hit_ratio":
            counts.get("search.objective.memo_hits", 0) / requested if requested else 0.0,
        "search.objective.self_s": self_s("search.objective"),
        "aaa.adequate.calls": adequate_calls,
        "aaa.adequate.busy_s": busy("aaa.adequate"),
        "aaa.adequate.ms_per_call":
            busy("aaa.adequate") * 1e3 / adequate_calls if adequate_calls else 0.0,
        "aaa.scheduler.evaluations": counts.get("aaa.scheduler.evaluations", 0),
        "fabric.boundary_cost_s": busy("fabric.boundary_cost"),
        "fabric.floorplan_s": busy("fabric.floorplan"),
        "mccdma.engine.self_s": self_s("mccdma.engine"),
        "mccdma.transmitter.busy_s": busy("mccdma.transmitter"),
        "mccdma.channel.busy_s": busy("mccdma.channel"),
        "mccdma.channel.calls": calls("mccdma.channel"),
        "mccdma.receiver.busy_s": busy("mccdma.receiver"),
        "mccdma.plan_groups": calls("mccdma.transmitter"),
    }


def _sim_defaults() -> dict:
    out = {"runtime.fast.vector_boards": 0, "runtime.fast.scalar_boards": 0,
           "runtime.fast.vector_steps": 0, "obs.telemetry.rows": 0,
           "search.best_cost_ns": 0.0}
    for policy in ALL_POLICIES:
        for stem in ("hit_rate", "mean_stall_ns", "prefetch_useful_ratio"):
            out[f"reconfig.{stem}.{policy}"] = 0.0
    return out


def _install_hooks(recorder: tracing.SpanRecorder, counts: dict, evaluators: dict) -> None:
    def on_adequate(_graph, result):
        counts["aaa.scheduler.evaluations"] = (
            counts.get("aaa.scheduler.evaluations", 0)
            + result.scheduler_stats.get("placements_evaluated", 0)
        )

    def on_evaluate(evaluator, _cost):
        evaluators[id(evaluator)] = evaluator

    recorder.hooks.update({"aaa.adequate": on_adequate, "search.objective": on_evaluate})


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--launch-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    out_dir = Path(args.out_dir)
    # The CLI's import cost is part of every command's set-up.
    import repro.cli  # noqa: F401
    import numpy

    workload = build(args.workload, args.seed, out_dir)
    setup_s = (time.monotonic_ns() - args.launch_ns) / 1e9
    result: dict = {"setup_s": setup_s, "setup_probe": calibrate.probe()}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result))
        return 0

    checks = Checks()
    recorder = tracing.SpanRecorder()
    untraced_s: list[float] = []
    works: list[int] = []
    probes: dict[bool, list[float]] = {False: [], True: []}
    traced: list[dict] = []
    digests: dict = {}
    sim = _sim_defaults()
    half = args.seconds / 2 if args.mode == "trace" else args.seconds
    phases = [(False, half)] + ([(True, args.seconds - half)] if args.mode == "trace" else [])
    probes[False].extend(calibrate.probe())
    for traced_phase, seconds in phases:
        counts: dict = {}
        evaluators: dict = {}
        if traced_phase:
            tracing.install(recorder)
            _install_hooks(recorder, counts, evaluators)
        deadline = time.perf_counter() + seconds
        while True:
            run_id = len(untraced_s) + len(traced)
            counts.clear()
            evaluators.clear()
            if traced_phase:
                with recorder.root(run_id) as root:
                    outcome = workload.iteration()
                wall_s = root.wall_ns / 1e9
            else:
                start = time.perf_counter()
                outcome = workload.iteration()
                wall_s = time.perf_counter() - start
            probes[traced_phase].extend(calibrate.probe())
            workload.check(outcome, checks)
            for name, digest in outcome["digests"].items():
                if name in digests:
                    checks.check(digest == digests[name],
                                 f"iteration {run_id}: {name} {digest} != {digests[name]}")
                else:
                    digests[name] = digest
            sim.update(workload.sim_metrics(outcome))
            if traced_phase:
                for evaluator in evaluators.values():
                    for key, value in evaluator.stats.to_dict().items():
                        counts[f"search.objective.{key}"] = (
                            counts.get(f"search.objective.{key}", 0) + value
                        )
                times = tracing.layer_times(recorder.spans, run_id)
                missing = [n for n in EXPECTED_LAYERS[args.workload] if n not in times]
                checks.check(not missing, f"iteration {run_id}: no spans for {missing}")
                traced.append({"wall_s": wall_s, "times": times, "counts": dict(counts)})
            else:
                untraced_s.append(wall_s)
                works.append(workload.work)
            outcome = None
            if time.perf_counter() >= deadline:
                break
    peak_rss_mb = _peak_rss_mb()
    workload.replay(checks)

    result.update({
        "iterations_s": untraced_s,
        "probe": probes[False],
        "work": works,
        "peak_rss_mb": peak_rss_mb,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "failures": checks.notes,
        "digests": digests,
        "sim": sim,
        "numpy": numpy.__version__,
    })
    if traced:
        # The traced iteration of median wall time carries the per-layer rows.
        walls = [t["wall_s"] for t in traced]
        chosen = traced[walls.index(statistics.median_low(walls))]
        layers = layer_metrics(workload, chosen["times"], chosen["counts"])
        layers.update(sim)
        layers["trace.overhead_ratio"] = (
            chosen["wall_s"] * calibrate.speed(probes[True])
            / (statistics.median(untraced_s) * calibrate.speed(probes[False]))
        )
        layers["trace.unattributed_s"] = chosen["times"][tracing.ROOT]["self_ns"] / 1e9
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        recorder.write(spans_path)
        result.update({
            "layers": layers,
            "ledger": tracing.ledger(chosen["times"]),
            "traced_wall_s": chosen["wall_s"],
            "traced_iterations": len(traced),
            "spans_file": str(spans_path),
        })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
