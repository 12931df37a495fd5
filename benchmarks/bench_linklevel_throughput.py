"""X6 — batched vs per-frame link-simulation throughput.

The Monte-Carlo link loop used to push every frame through the scalar
transmit/receive kernels one at a time — one Python-level pass over
modulation, spreading, IFFT and despreading per frame per OFDM symbol.
The batched engine (:class:`repro.mccdma.engine.LinkSimulationEngine`)
runs whole frame batches through the vectorized kernels instead; the
reference oracle (:class:`oracles.link_engine.PerFrameLinkEngine`, in
``tests/``) *is* the per-frame loop, so this benchmark measures the
speedup directly and proves the two field-identical on every
(strategy, SNR) point.

Acceptance (full run): >= 5x single-process speedup at 64-frame batches
with 200 frames per SNR point (the issue's target is 10x).  Set
``LINKLEVEL_SMOKE=1`` (CI) to run reduced frame counts with a relaxed
>= 2x floor — wall-clock on shared runners is noisy, but the result
digests must still match exactly, and that identity guard fails the
build on any numerical regression.

Writes ``BENCH_linklevel_throughput.json`` (full) or
``BENCH_linklevel_throughput_smoke.json`` (smoke) next to the other
artefacts.
"""

import json
import os
import time

from conftest import write_bench_json
from oracles.link_engine import PerFrameLinkEngine

from repro.mccdma.engine import LinkEngineConfig, LinkSimulationEngine
from repro.mccdma.transmitter import MCCDMAConfig

SMOKE = os.environ.get("LINKLEVEL_SMOKE", "") not in ("", "0")

BATCH_FRAMES = 64
FULL_FRAMES = 200
SMOKE_FRAMES = 48

SNR_POINTS_DB = (0.0, 4.0, 8.0)
STRATEGIES = ("qpsk", "qam16", "adaptive")
USER_CODES = (0, 3, 5, 9)

MIN_SPEEDUP = 2.0 if SMOKE else 5.0
TARGET_SPEEDUP = 10.0


def _engine(engine_cls: type[LinkSimulationEngine]) -> LinkSimulationEngine:
    return engine_cls(
        config=MCCDMAConfig(user_codes=USER_CODES),
        engine=LinkEngineConfig(batch_frames=BATCH_FRAMES),
    )


def _time_point(engine, strategy, snr_db, n_frames, seed, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = engine.simulate_point(strategy, snr_db, n_frames, seed=seed)
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_linklevel_throughput():
    n_frames = SMOKE_FRAMES if SMOKE else FULL_FRAMES
    batched_engine = _engine(LinkSimulationEngine)
    reference_engine = _engine(PerFrameLinkEngine)

    rows = []
    for strategy in STRATEGIES:
        for snr_db in SNR_POINTS_DB:
            fast_result, fast_s = _time_point(
                batched_engine, strategy, snr_db, n_frames, seed=42, repeats=3
            )
            ref_result, ref_s = _time_point(
                reference_engine, strategy, snr_db, n_frames, seed=42, repeats=1
            )
            rows.append(
                {
                    "strategy": strategy,
                    "snr_db": snr_db,
                    "frames": n_frames,
                    "batch_frames": BATCH_FRAMES,
                    "batched_s": round(fast_s, 6),
                    "reference_s": round(ref_s, 6),
                    "speedup": round(ref_s / fast_s, 2),
                    "ber": fast_result.ber,
                    "digest": json.dumps(fast_result.to_dict(), sort_keys=True),
                    "digests_identical": fast_result == ref_result,
                }
            )

    # Field identity on every benchmarked point — the real acceptance bar.
    assert all(row["digests_identical"] for row in rows), rows
    overall = sum(r["reference_s"] for r in rows) / sum(r["batched_s"] for r in rows)
    assert overall >= MIN_SPEEDUP, (overall, rows)

    name = "BENCH_linklevel_throughput_smoke" if SMOKE else "BENCH_linklevel_throughput"
    payload = {
        "smoke": SMOKE,
        "min_speedup": MIN_SPEEDUP,
        "target_speedup": TARGET_SPEEDUP,
        "overall_speedup": round(overall, 2),
        "n_users": len(USER_CODES),
        "rows": rows,
    }
    write_bench_json(name, payload)

    lines = [f"{'strategy':<9}  snr     batched     reference  speedup  ber"]
    for r in rows:
        lines.append(
            f"{r['strategy']:<9}  {r['snr_db']:+4.1f}  {r['batched_s']*1e3:>8.1f} ms"
            f"  {r['reference_s']*1e3:>8.1f} ms  {r['speedup']:>5.1f}x  {r['ber']:.3e}"
        )
    lines.append(f"overall: {overall:.1f}x (floor {MIN_SPEEDUP}x, target {TARGET_SPEEDUP}x)")
    print("\n" + "\n".join(lines))
