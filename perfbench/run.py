"""The repository benchmark: one command, four single-process workloads.

    python3 perfbench/run.py --workload fleet-vector --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 5

Run from anywhere; the program is imported from ``src/`` next to this
directory.  Each workload runs in fresh child processes (``workload.py``)
with no worker pool and BLAS/OpenMP threads capped at the CPU count:

- several set-up-only children give ``setup_s`` (launch to first timed call,
  median; one warm-up child before them is discarded);
- every measured time is rescaled to a reference host speed by the
  calibration probe of ``calibrate.py``, timed between the measured
  intervals of the same run; the raw figures are printed too;
- one measuring child repeats the workload for ``--seconds``, checks every
  output and reports iteration walls, digests and ``ru_maxrss``;
- with ``--trace 1`` the child times the second half under span wrappers
  (``tracing.py``) and ``python -X importtime`` children give the import
  breakdown; the per-layer ledger is printed, and the spans file written to
  ``perfbench/out/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the ``end_to_end`` metrics of
``BENCHMARK.json`` with ``--trace 0``, its ``per_layer`` metrics with
``--trace 1``).  Exit status is 0 only when every check passed.
``targets.json`` maps each metric to the workload-specific name and to the
end-to-end metric a layer should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
#: set-up samples per run: the measuring child plus this many minus one
SETUP_RUNS = 5
IMPORTTIME_RUNS = 3
#: every child must end by then, so the whole run ends within 180 s
RUN_BUDGET_S = 170.0


class BenchError(RuntimeError):
    pass


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise BenchError(f"cannot read {path}: {err}") from None


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    return env


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version()}


class Runner:
    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = _child_env()

    def _timeout(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("run budget exhausted")
        return left

    def child(self, workload: str, seed: int, seconds: float, mode: str) -> dict:
        result = OUT / f"result-{workload}-{seed}-{mode}.json"
        result.unlink(missing_ok=True)
        launch_probe = calibrate.probe()
        launch_ns = time.monotonic_ns()
        cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--mode", mode,
               "--launch-ns", str(launch_ns), "--out-dir", str(OUT), "--result", str(result)]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=sys.stderr,
                                  timeout=self._timeout(), check=False)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{workload} {mode} child exceeded the run budget") from None
        if proc.returncode != 0:
            raise BenchError(f"{workload} {mode} child exited {proc.returncode}")
        payload = _load(result)
        payload["launch_probe"] = launch_probe
        return payload

    def import_times(self) -> dict:
        """Cumulative import seconds of repro (CLI), numpy and networkx."""
        samples: dict[str, list[float]] = {"repro": [], "numpy": [], "networkx": []}
        for _ in range(IMPORTTIME_RUNS):
            try:
                proc = subprocess.run(
                    [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
                    env=self.env, capture_output=True, text=True,
                    timeout=self._timeout(), check=False,
                )
            except subprocess.TimeoutExpired:
                raise BenchError("importtime child exceeded the run budget") from None
            if proc.returncode != 0:
                raise BenchError(f"import repro.cli failed:\n{proc.stderr[-2000:]}")
            found = parse_importtime(proc.stderr)
            for key in samples:
                samples[key].append(found.get(key, 0.0))
        return {key: statistics.median(values) for key, values in samples.items()}


_IMPORT_LINE = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(text: str) -> dict:
    """``-X importtime`` output -> cumulative seconds per package.

    ``repro`` sums the top-level ``repro`` entries (the package and
    ``repro.cli``); ``numpy`` and ``networkx`` are their own entries at
    whatever depth the first import happened.
    """
    out: dict[str, float] = {}
    for line in text.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        cumulative_s = int(match.group(2)) / 1e6
        depth, name = len(match.group(3)), match.group(4)
        if depth == 1 and (name == "repro" or name.startswith("repro.")):
            out["repro"] = out.get("repro", 0.0) + cumulative_s
        elif name in ("numpy", "networkx"):
            out[name] = cumulative_s
    return out


def run_workload(runner: Runner, spec: dict, targets: dict, workload: str,
                 seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; print its human-readable block; return the result line."""
    runner.child(workload, seed, 0, "setup")  # warm-up: byte-compile, page cache
    setups = [runner.child(workload, seed, 0, "setup") for _ in range(SETUP_RUNS - 1)]
    measured = runner.child(workload, seed, seconds, "trace" if trace else "measure")
    setups.append(measured)
    walls = measured["iterations_s"]
    speed = calibrate.speed(measured["probe"])
    setup_speed = calibrate.speed([x for r in setups for x in r["launch_probe"] + r["setup_probe"]])
    # times rescaled to the reference host speed (see calibrate.py)
    computed = {
        "setup_s": statistics.median(r["setup_s"] for r in setups) * setup_speed,
        "ops_per_s": statistics.median(n / w for n, w in zip(measured["work"], walls)) / speed,
        "peak_rss_mb": measured["peak_rss_mb"],
        "host.speed_ratio": speed,
    }
    print(f"== {workload} seed {seed}: {len(walls)} timed iterations, "
          f"median wall {statistics.median(walls):.4f} s at host speed {speed:.3f} "
          f"(set-up {setup_speed:.3f}), "
          f"raw {computed['ops_per_s'] * speed:.6g} ops/s, {len(setups)} set-ups")
    for name, digest in sorted(measured["digests"].items()):
        print(f"digest {name} {digest}")
    for name in sorted(targets["end_to_end"]):
        value = computed[name]
        alias = targets["end_to_end"][name]["aliases"].get(workload)
        label = f"{alias['name']} = {value:.6g} {alias['unit']}" if alias else ""
        print(f"metric {name} = {value:.6g}   {label}".rstrip())
    if workload == "search-anneal":
        print(f"metric search_best_cost_ns = {measured['sim']['search.best_cost_ns']:.0f} model_ns")
    if trace:
        imports = runner.import_times()
        computed.update(measured["layers"])
        computed.update({f"setup.import_{key}_s": value for key, value in imports.items()})
        wall = measured["traced_wall_s"]
        print(f"ledger {workload}: traced wall {wall:.6f} s over "
              f"{measured['traced_iterations']} traced iterations (median shown), "
              f"overhead x{computed['trace.overhead_ratio']:.3f}, spans in {measured['spans_file']}")
        total_ns = 0
        for name, self_ns in measured["ledger"]:
            total_ns += self_ns
            print(f"  {name:28s} {self_ns / 1e9:12.6f} s  {100 * self_ns / 1e9 / wall:6.2f}%")
        print(f"  {'sum of rows':28s} {total_ns / 1e9:12.6f} s")
    for note in measured["failures"]:
        print(f"FAILED {note}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in computed:
            raise BenchError(f"{workload} produced no value for {metric['name']}")
        metrics[metric["name"]] = {"value": computed[metric["name"]], "unit": metric["unit"]}
    print("host " + json.dumps({**host_fingerprint(), "numpy": measured["numpy"], "seed": seed},
                               sort_keys=True))
    return {"correct": measured["failed"] == 0, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, help="a workload name or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        if not (SRC / "repro" / "__init__.py").is_file():
            raise BenchError(f"no program sources at {SRC / 'repro'}")
        spec = _load(ROOT / "BENCHMARK.json")
        targets = _load(HERE / "targets.json")
        names = [w["name"] for w in spec["workloads"]]
        workloads = names if args.workload == "all" else [args.workload]
        unknown = [w for w in workloads if w not in names]
        if unknown:
            raise BenchError(f"unknown workload {unknown[0]!r}; known: {', '.join(names)}")
        OUT.mkdir(parents=True, exist_ok=True)
        exit_code = 0
        for workload in workloads:
            # the 180 s limit is per workload run
            budget_start = started if len(workloads) == 1 else time.monotonic()
            runner = Runner(budget_start + RUN_BUDGET_S)
            line = run_workload(runner, spec, targets, workload, args.seed,
                                args.seconds, bool(args.trace))
            print(json.dumps(line), flush=True)
            if not line["correct"]:
                exit_code = 1
        return exit_code
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
