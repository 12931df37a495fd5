"""X5 — incremental vs naive adequation scaling.

The adequation hot path used to re-filter and re-sort the whole committed
schedule for every candidate placement — O(n^3 log n) over a run.  The
incrementally-indexed machinery (sorted per-resource timelines, ready-time
frontiers, cross-step placement memoization) replaces those rescans; the
naive reference oracle (:func:`oracles.scheduler.naive`, in ``tests/``)
*is* the seed implementation, so this benchmark measures the fix directly
and proves the two byte-identical on every (size, scheduler, seed) point.

Scales: ~50 / ~100 / ~200-operation layered graphs.  Acceptance: at 200
operations the incremental path is >= 5x faster, with identical schedule
digests everywhere.  Set ``SCHED_SCALING_SMOKE=1`` (CI) to run reduced
sizes and skip the wall-clock ratio (timing on shared runners is noise) —
the digest and placement-evaluation-count guards still fail the build on a
regression.

Writes ``BENCH_scheduler_scaling.json`` (full) or
``BENCH_scheduler_scaling_smoke.json`` (smoke) next to the other artefacts.
"""

import os
import time

from conftest import write_bench_json
from oracles.scheduler import naive

from repro.aaa import InsertionScheduler, SynDExScheduler
from repro.aaa.costs import CostModel
from repro.arch import sundance_board
from repro.dfg.generators import layered_random_graph
from repro.dfg.library import default_library

SMOKE = os.environ.get("SCHED_SCALING_SMOKE", "") not in ("", "0")

#: (layers, width, seeds) -> ~layers*width operations.
FULL_SIZES = [(10, 5, (42, 43, 44)), (10, 10, (42, 43)), (20, 10, (42, 43))]
SMOKE_SIZES = [(5, 4, (42, 43)), (10, 5, (42,))]

SCHEDULERS = [SynDExScheduler, InsertionScheduler]

#: The memo must keep serving at least this share of requests (eval-count
#: regression guard — wall-clock-free, so CI can enforce it).
MAX_EVAL_FRACTION = 0.9
#: Acceptance floor for the wall-clock ratio on the largest graphs.
MIN_SPEEDUP_AT_200 = 5.0


def _time_run(graph, architecture, library, scheduler_cls, repeats):
    """Best-of-N wall time of one full scheduling run (construction + run:
    the seed paid for ranks and successor maps too).  Returns the last run's
    schedule and stats so callers can check digests and counters."""
    best = float("inf")
    schedule = stats = None
    for _ in range(repeats):
        costs = CostModel(graph, architecture, library)
        t0 = time.perf_counter()
        scheduler = scheduler_cls(costs)
        schedule = scheduler.run()
        best = min(best, time.perf_counter() - t0)
        stats = scheduler.stats
    return schedule, stats, best


def test_incremental_scheduler_scaling():
    board = sundance_board()
    architecture = board.architecture
    library = default_library()
    sizes = SMOKE_SIZES if SMOKE else FULL_SIZES

    rows = []
    for layers, width, seeds in sizes:
        for seed in seeds:
            graph = layered_random_graph(layers, width, seed=seed)
            n_ops = sum(1 for _ in graph.operations)
            for scheduler_cls in SCHEDULERS:
                fast_schedule, fast_stats, fast_s = _time_run(
                    graph, architecture, library, scheduler_cls, repeats=3
                )
                naive_schedule, naive_stats, naive_s = _time_run(
                    graph, architecture, library, naive(scheduler_cls), repeats=1
                )
                rows.append(
                    {
                        "scheduler": scheduler_cls.__name__,
                        "layers": layers,
                        "width": width,
                        "seed": seed,
                        "operations": n_ops,
                        "incremental_s": round(fast_s, 6),
                        "naive_s": round(naive_s, 6),
                        "speedup": round(naive_s / fast_s, 2),
                        "digest": fast_schedule.digest(),
                        "digests_identical": fast_schedule.digest() == naive_schedule.digest(),
                        "placements_requested": fast_stats.placements_requested,
                        "placements_evaluated": fast_stats.placements_evaluated,
                        "placement_cache_hits": fast_stats.placement_cache_hits,
                        "naive_placements_evaluated": naive_stats.placements_evaluated,
                    }
                )

    # Byte identity on every benchmarked point.
    assert all(row["digests_identical"] for row in rows)
    for row in rows:
        # The requested counter is the naive workload, observable from the
        # incremental run alone; the memo must absorb a real share of it.
        assert row["placements_requested"] == row["naive_placements_evaluated"], row
        assert (
            row["placements_evaluated"]
            <= MAX_EVAL_FRACTION * row["placements_requested"]
        ), row
    if not SMOKE:
        largest = max(row["operations"] for row in rows)
        for row in rows:
            if row["operations"] == largest:
                assert row["speedup"] >= MIN_SPEEDUP_AT_200, row

    name = "BENCH_scheduler_scaling_smoke" if SMOKE else "BENCH_scheduler_scaling"
    payload = {
        "smoke": SMOKE,
        "min_speedup_at_largest": None if SMOKE else MIN_SPEEDUP_AT_200,
        "max_eval_fraction": MAX_EVAL_FRACTION,
        "rows": rows,
    }
    write_bench_json(name, payload)

    width_col = max(len(r["scheduler"]) for r in rows)
    lines = [f"{'scheduler':<{width_col}}  ops  seed  incremental  naive      speedup  evals/requests"]
    for r in rows:
        lines.append(
            f"{r['scheduler']:<{width_col}}  {r['operations']:>3}  {r['seed']:>4}  "
            f"{r['incremental_s']*1e3:>8.1f} ms  {r['naive_s']*1e3:>8.1f} ms  "
            f"{r['speedup']:>5.1f}x  {r['placements_evaluated']}/{r['placements_requested']}"
        )
    print("\n" + "\n".join(lines))
