"""Engine parity: the batched fast path must match the kernel digest-exactly.

The fast engine re-derives manager behaviour as closed forms (vector cores)
and a scalar micro-simulator; these tests are the contract that keeps both
honest.  The property sweep covers every policy bundle x traffic pattern x
seed x region-slot override and asserts bit-identical per-board counters
and end times — the same discipline PR 3 (incremental scheduler) and PR 4
(batched link engine) use for their reference paths.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.reconfig import case_a_standalone
from repro.reconfig.manager import COUNTER_FIELDS, ManagerStats, ReconfigError
from repro.runtime import (
    ENGINES,
    FleetConfig,
    generate_fleet_schedules,
    policy_names,
    run_fleet,
    run_frontier,
    simulate_fast_fleet,
    vector_mode,
)
from repro.runtime.fast import _run_vector_core

ALL_POLICIES = policy_names()

#: Policies the vector cores cover at their bundle-default slots.
VECTORIZED = [p for p in ALL_POLICIES if vector_mode(p) is not None]


def _parity(config: FleetConfig) -> tuple:
    kernel = run_fleet(config, engine="kernel")
    fast = run_fleet(config, engine="fast")
    assert fast.digest() == kernel.digest(), (
        f"engine divergence for {config}: "
        f"kernel={kernel.digest()[:12]} fast={fast.digest()[:12]}"
    )
    assert fast.boards == kernel.boards
    assert fast.end_time_ns == kernel.end_time_ns
    return kernel, fast


@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("traffic", ["poisson", "diurnal", "thrash"])
def test_engines_agree_across_policies_and_traffic(policy, traffic):
    for seed in (0, 11):
        _parity(
            FleetConfig(
                n_boards=3,
                requests_per_board=40,
                policy=policy,
                traffic=traffic,
                seed=seed,
            )
        )


@pytest.mark.parametrize("policy", ["none", "fixed", "history", "lru", "lfu", "belady"])
@pytest.mark.parametrize("slots", [1, 3])
def test_engines_agree_under_region_slot_overrides(policy, slots):
    _parity(
        FleetConfig(
            n_boards=3,
            requests_per_board=50,
            policy=policy,
            region_slots=slots,
            regions=3,
            modules_per_region=5,
            traffic="thrash",
            seed=7,
        )
    )


@pytest.mark.parametrize("mean_gap_ns", [2_000, 200_000, 20_000_000])
def test_engines_agree_across_contention_regimes(mean_gap_ns):
    """Tiny gaps force join/queue paths, huge gaps the idle-hit paths."""
    for policy in ("fixed", "history", "markov"):
        _parity(
            FleetConfig(
                n_boards=3,
                requests_per_board=40,
                policy=policy,
                mean_gap_ns=mean_gap_ns,
                seed=5,
            )
        )


def test_engines_agree_on_alternate_architectures():
    for arch in ("case_b_processor", "case_hybrid_mp", "case_c_jtag"):
        for policy in ("fixed", "history", "lru"):
            _parity(
                FleetConfig(
                    n_boards=2,
                    requests_per_board=30,
                    policy=policy,
                    architecture=arch,
                    mean_gap_ns=50_000,
                    seed=2,
                )
            )


def test_engines_agree_on_lexicographic_name_ties():
    """11 modules per region: 'm10' sorts before 'm2', so eviction
    tie-breaks exercise the name-rank encoding of the vector cores."""
    for policy in ("lru", "lfu", "none", "belady"):
        _parity(
            FleetConfig(
                n_boards=3,
                requests_per_board=60,
                policy=policy,
                modules_per_region=11,
                region_slots=2,
                traffic="thrash",
                mean_gap_ns=3_000,
                seed=9,
            )
        )


def test_belady_never_ties_match_the_kernel():
    """About 12 thrash requests over 11 modules leave most resident
    modules never demanded again, so overflow mostly picks among several
    ``NEVER`` candidates.  Which of them goes cannot show in any counter;
    what parity pins is that ``NEVER`` outranks every real next use and
    that each module's next use starts at its first demand."""
    for seed in (0, 3, 7):
        _, fast = _parity(
            FleetConfig(
                n_boards=6,
                requests_per_board=12,
                policy="belady",
                modules_per_region=11,
                region_slots=3,
                traffic="thrash",
                seed=seed,
            )
        )
        assert fast.engine_stats.mode == "vector:noprefetch-belady"
        assert fast.totals["evictions"] > 0


@pytest.mark.parametrize("policy", VECTORIZED)
@pytest.mark.parametrize("traffic", ["poisson", "thrash"])
def test_vector_cores_conserve_demands(policy, traffic):
    """Conservation laws, as reductions over the core's counter matrix:
    without prefetch every demand is a load, an instant hit or a resident
    hit; on-select claims every speculative load with its own demand, and
    neither can waste a prefetch.  The idle-time speculators leave at most
    one unclaimed prefetch per region, and a demand is never both a load
    and an instant hit.  Rows of flagged boards are the scalar replay's,
    so the laws are asserted on the core's own rows."""
    arch = case_a_standalone()
    mode = vector_mode(policy)
    for seed in (0, 11):
        config = FleetConfig(n_boards=5, requests_per_board=60, policy=policy,
                             traffic=traffic, seed=seed)
        counters, _, flagged = _run_vector_core(
            config, generate_fleet_schedules(config), arch, mode
        )
        counters = counters[~flagged]
        column = {name: counters[:, i] for i, name in enumerate(COUNTER_FIELDS)}
        assert (column["demand_requests"] == config.requests_per_board).all()
        if mode == "idle":
            unclaimed = (
                column["prefetch_loads"]
                - column["useful_prefetches"]
                - column["wasted_prefetches"]
            )
            assert ((unclaimed >= 0) & (unclaimed <= config.regions)).all()
            assert (
                column["demand_loads"] + column["instant_hits"]
                <= column["demand_requests"]
            ).all()
            assert not column["evictions"].any()
            continue
        assert not column["wasted_prefetches"].any()
        if mode == "onselect":
            assert (column["prefetch_loads"] == column["useful_prefetches"]).all()
        else:
            assert (
                column["demand_requests"]
                == column["demand_loads"] + column["instant_hits"] + column["resident_hits"]
            ).all()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    policy=st.sampled_from(["history", "confidence", "markov"]),
    regions=st.integers(1, 6),
    modules=st.integers(1, 12),
    traffic=st.sampled_from(["poisson", "diurnal", "thrash"]),
    mean_gap_ns=st.integers(1_000, 20_000_000),
    architecture=st.sampled_from(
        ["case_a_standalone", "case_b_processor", "case_hybrid_mp", "case_c_jtag"]
    ),
    seed=st.integers(0, 2**16),
)
def test_idle_speculation_core_matches_the_kernel(
    policy, regions, modules, traffic, mean_gap_ns, architecture, seed
):
    """The per-step speculation core (plus the scalar replay of the boards
    it flags) against the kernel, over random layouts, loads and gaps."""
    _, fast = _parity(
        FleetConfig(
            n_boards=3, requests_per_board=40, policy=policy, traffic=traffic,
            regions=regions, modules_per_region=modules, mean_gap_ns=mean_gap_ns,
            architecture=architecture, seed=seed,
        )
    )
    assert fast.engine_stats.mode == "vector:idle"


def test_flagged_boards_replay_with_parity_and_identical_telemetry():
    """A fleet where the speculation core meets an equal-time event it does
    not model: the flagged board is replayed on the scalar path, its
    counters and telemetry replace the core's, and both the digest and the
    telemetry store still match the kernel's."""
    from repro.obs.telemetry import TimeSeriesStore

    config = FleetConfig(n_boards=4, requests_per_board=60, policy="history",
                         mean_gap_ns=2_000, seed=8)
    stores = {}
    for engine in ENGINES:
        stores[engine] = TimeSeriesStore(window=1_000_000, clock="sim")
        report = run_fleet(config, engine=engine, telemetry=stores[engine])
        if engine == "fast":
            fast = report
        else:
            kernel = report
    assert fast.engine_stats.mode == "vector:idle"
    assert fast.engine_stats.scalar_boards > 0
    assert fast.engine_stats.vector_boards + fast.engine_stats.scalar_boards == 4
    assert fast.digest() == kernel.digest()
    assert stores["fast"].to_rows() == stores["kernel"].to_rows()


def test_engines_agree_on_empty_fleet():
    _parity(FleetConfig(n_boards=2, requests_per_board=0, policy="none"))


def test_fast_engine_is_the_default_and_reports_itself():
    config = FleetConfig(n_boards=2, requests_per_board=10, policy="fixed")
    assert config.engine == "fast"
    report = run_fleet(config)
    assert report.engine == "fast"
    assert report.engine_stats is not None
    assert report.engine_stats.mode == "vector:onselect"
    payload = report.to_dict()
    assert payload["engine"] == "fast"
    assert payload["engine_stats"]["vector_boards"] == 2
    kernel = run_fleet(config, engine="kernel")
    assert kernel.engine_stats is None
    assert kernel.to_dict()["engine"] == "kernel"


def test_unknown_engine_is_rejected():
    config = FleetConfig(n_boards=1, requests_per_board=5)
    with pytest.raises(ValueError, match="unknown engine"):
        run_fleet(config, engine="warp")
    assert set(ENGINES) == {"fast", "kernel"}


def test_vector_mode_dispatch_table():
    assert vector_mode("none") == "noprefetch-single"
    assert vector_mode("none", 3) == "noprefetch-fifo"
    assert vector_mode("fixed") == "onselect"
    assert vector_mode("on_select") == "onselect"
    assert vector_mode("lru") == "noprefetch-lru"
    assert vector_mode("lfu") == "noprefetch-lfu"
    # clairvoyance is a precomputed next-use table on the no-prefetch core
    assert vector_mode("belady") == "noprefetch-belady"
    assert vector_mode("belady", 3) == "noprefetch-belady"
    # one slot makes eviction bookkeeping unobservable: plain sequential core
    assert vector_mode("lru", 1) == "noprefetch-single"
    assert vector_mode("belady", 1) == "noprefetch-single"
    # idle-time speculation at one slot: the per-step speculation core
    assert vector_mode("history") == "idle"
    assert vector_mode("confidence") == "idle"
    assert vector_mode("markov") == "idle"
    # a multi-slot override on a prefetching bundle falls back to the
    # scalar micro-simulator
    for policy in ("fixed", "history", "confidence", "markov"):
        assert vector_mode(policy, 2) is None
        assert vector_mode(policy, 3) is None


def test_vectorized_policies_actually_vectorize():
    """Regression guard: the fast engine must not silently fall back to the
    scalar loop for the bundles the vector cores exist for (the analogue of
    the incremental scheduler's eval-count guard).  Every bundle has a core
    at its default slots; prefetch with a multi-slot override has none."""
    for policy in VECTORIZED:
        report = run_fleet(
            FleetConfig(n_boards=4, requests_per_board=25, policy=policy),
            engine="fast",
        )
        stats = report.engine_stats
        assert stats is not None
        assert stats.mode == f"vector:{vector_mode(policy)}"
        assert stats.vector_boards == 4
        assert stats.scalar_boards == 0
        assert stats.vector_steps == 25
    for policy in ("fixed", "history", "markov"):
        report = run_fleet(
            FleetConfig(n_boards=4, requests_per_board=25, policy=policy, region_slots=2),
            engine="fast",
        )
        stats = report.engine_stats
        assert stats is not None
        assert stats.mode == "scalar"
        assert stats.scalar_boards == 4
        assert stats.vector_boards == 0


def test_fast_engine_throughput_floor():
    """The fast path must clearly outrun the kernel even at test scale.

    The floor is deliberately loose (2x; the benchmark enforces 10x at
    headline scale) so a slow CI host never flakes, but a fast path that
    quietly degenerated to kernel speed fails.
    """
    config = FleetConfig(n_boards=24, requests_per_board=200, policy="fixed")
    schedules = generate_fleet_schedules(config)
    kernel = run_fleet(config, engine="kernel", schedules=schedules)
    fast = run_fleet(config, engine="fast", schedules=schedules)
    assert fast.digest() == kernel.digest()
    assert kernel.wall_s > fast.wall_s * 2, (
        f"fast engine too slow: kernel {kernel.wall_s:.3f}s vs "
        f"fast {fast.wall_s:.3f}s"
    )


def test_traced_boards_ride_the_kernel_inside_the_fast_engine():
    config = FleetConfig(
        n_boards=5, requests_per_board=30, policy="history", seed=11, trace_boards=2
    )
    kernel = run_fleet(config, engine="kernel")
    fast = run_fleet(config, engine="fast")
    assert fast.digest() == kernel.digest()
    assert [t.scope for t in fast.traces] == ["b0000", "b0001"]
    for fast_trace, kernel_trace in zip(fast.traces, kernel.traces):
        assert fast_trace.records == kernel_trace.records
        assert fast_trace.spans == kernel_trace.spans


def test_run_fleet_accepts_pregenerated_schedules():
    config = FleetConfig(n_boards=3, requests_per_board=20, policy="fixed")
    schedules = generate_fleet_schedules(config)
    assert run_fleet(config, schedules=schedules).digest() == run_fleet(config).digest()
    with pytest.raises(ValueError, match="schedules"):
        run_fleet(config, schedules=schedules[:-1])


def test_run_frontier_engine_override_preserves_digests():
    base = FleetConfig(n_boards=3, requests_per_board=30, seed=3)
    fast = run_frontier(base, ["none", "fixed", "history"])
    kernel = run_frontier(base, ["none", "fixed", "history"], engine="kernel")
    for name in fast:
        assert fast[name].digest() == kernel[name].digest(), name
        assert fast[name].engine == "fast"
        assert kernel[name].engine == "kernel"


# -- the ManagerStats array bridge the fast engine builds its rows through --


def test_manager_stats_counter_round_trip():
    stats = ManagerStats(
        demand_requests=7, demand_loads=3, prefetch_loads=2, useful_prefetches=1,
        wasted_prefetches=1, instant_hits=4, resident_hits=2, evictions=1,
        stall_ns=12345,
    )
    row = stats.as_counters()
    assert len(row) == len(COUNTER_FIELDS)
    assert ManagerStats.field_names() == COUNTER_FIELDS
    rebuilt = ManagerStats.from_counters(row)
    assert rebuilt == stats
    assert rebuilt.to_dict() == stats.to_dict()
    with pytest.raises(ValueError, match="counters"):
        ManagerStats.from_counters(row[:-1])


def test_manager_state_export_import_round_trip():
    """The manager's quiescent snapshot is lossless and guarded."""
    from repro.reconfig import case_a_standalone
    from repro.runtime import Board, board_rng, generate_schedule
    from repro.sim import Simulator

    arch = case_a_standalone()
    region_map = {"R0": ["m0", "m1", "m2"], "R1": ["m0", "m1"]}

    def build(run_requests: bool):
        sim = Simulator()
        store = arch.make_store()
        for region, modules in region_map.items():
            for module in modules:
                store.register(region, module, 88_000)
        board = Board("b0000", sim, arch, store)
        for region, modules in region_map.items():
            board.preload(region, modules[0])
        if run_requests:
            schedule = generate_schedule(
                "poisson", board_rng(4, "b0000"), region_map, 20
            )
            board.start(schedule)
            sim.run()
        return board

    board = build(run_requests=True)
    snapshot = board.manager.export_state()
    assert snapshot["stats"] == board.manager.stats.as_counters()
    fresh = build(run_requests=False)
    fresh.manager.import_state(snapshot)
    assert fresh.manager.export_state() == snapshot
    assert fresh.manager.stats == board.manager.stats
    for region in region_map:
        assert fresh.manager.loaded_module(region) == board.manager.loaded_module(region)


def test_manager_state_export_refuses_inflight_loads():
    from repro.reconfig import case_a_standalone
    from repro.runtime import Board
    from repro.sim import Simulator

    arch = case_a_standalone()
    sim = Simulator()
    store = arch.make_store()
    for module in ("m0", "m1"):
        store.register("R0", module, 88_000)
    board = Board("b0000", sim, arch, store)
    board.preload("R0", "m0")
    board.manager.ensure_loaded("R0", "m1")  # queued, not yet run
    with pytest.raises(ReconfigError, match="active or queued"):
        board.manager.export_state()


def test_property_sweep_full_matrix_smoke():
    """One broad randomized-ish sweep tying it together: every policy on a
    board mix with per-policy slot overrides, both engines, one digest map."""
    for policy in ALL_POLICIES:
        for slots in (None, 2):
            config = FleetConfig(
                n_boards=2,
                requests_per_board=35,
                policy=policy,
                region_slots=slots,
                traffic="diurnal",
                mean_gap_ns=20_000,
                seed=13,
            )
            _parity(config)


# -- traffic boundaries: shape and vocabulary are checked, edges are exact --


@pytest.mark.parametrize("policy", ["lru", "history"])
def test_engines_agree_when_sorted_region_names_differ_from_map_order(policy):
    """Traffic draws regions over sorted names (R0, R1, R10, R11, R2, ...)
    while the cores index region-map order: both must agree on one index."""
    _parity(
        FleetConfig(
            n_boards=3, requests_per_board=60, policy=policy, regions=12, seed=4,
        )
    )


@pytest.mark.parametrize(
    "overrides",
    [
        {"requests_per_board": 0},
        {"n_boards": 0},
        {"modules_per_region": 1, "traffic": "thrash"},
        {"modules_per_region": 1, "traffic": "poisson"},
    ],
    ids=["no-requests", "no-boards", "single-module-thrash", "single-module-poisson"],
)
@pytest.mark.parametrize("policy", ["fixed", "lru", "history"])
def test_engines_agree_on_traffic_edges(overrides, policy):
    base = FleetConfig(n_boards=3, requests_per_board=30, policy=policy, seed=2)
    _, fast = _parity(dataclasses.replace(base, **overrides))
    assert len(fast.boards) == fast.n_boards


def test_mismatched_traffic_is_rejected_at_the_boundary():
    config = FleetConfig(n_boards=3, requests_per_board=20, policy="lru")
    arch = case_a_standalone()
    mismatched = {
        "steps": generate_fleet_schedules(dataclasses.replace(config, requests_per_board=19)),
        "regions": generate_fleet_schedules(dataclasses.replace(config, regions=3)),
        "modules": generate_fleet_schedules(
            dataclasses.replace(config, modules_per_region=5)
        ),
    }
    for what, traffic in mismatched.items():
        for engine in ENGINES:
            with pytest.raises(ValueError, match="traffic schedules"):
                run_fleet(config, engine=engine, schedules=traffic)
        with pytest.raises(ValueError, match="traffic schedules"):
            simulate_fast_fleet(config, traffic, arch)
    traffic = generate_fleet_schedules(config)
    with pytest.raises(ValueError, match="3 boards"):
        simulate_fast_fleet(dataclasses.replace(config, trace_boards=1), traffic, arch)
    rows, ends, _ = simulate_fast_fleet(
        dataclasses.replace(config, trace_boards=1), traffic[1:], arch
    )
    assert len(rows) == len(ends) == 2


@pytest.mark.parametrize(
    "column,value",
    [("gaps", -5), ("gaps", 0), ("regions", -1), ("regions", 2),
     ("modules", -1), ("modules", 9)],
)
@pytest.mark.parametrize("policy", ["lru", "fixed", "history"])
def test_corrupt_traffic_is_rejected_at_the_boundary(column, value, policy):
    """Gaps below 1 ns and region or module indices outside their tables
    raise ``ValueError`` on both engines, before any core runs; before
    the check, a negative gap moved the digests apart, a -1 index wrapped
    to the last region or module and an index past the table raised a
    bare ``IndexError`` from inside a core."""
    config = FleetConfig(n_boards=3, requests_per_board=20, policy=policy)
    traffic = generate_fleet_schedules(config)
    cells = getattr(traffic, column).copy()
    cells[1, 7] = value
    corrupt = dataclasses.replace(traffic, **{column: cells})
    for engine in ENGINES:
        with pytest.raises(ValueError, match="traffic schedules"):
            run_fleet(config, engine=engine, schedules=corrupt)
    with pytest.raises(ValueError, match="traffic schedules"):
        simulate_fast_fleet(config, corrupt, case_a_standalone())
    traffic.check(config.region_map(), 3, 20)  # the generated original passes
