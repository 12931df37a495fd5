"""Incremental-scheduler equivalence and bookkeeping tests.

The guarantee of the indexed scheduling machinery is *byte identity*: every
scheduler must produce exactly the schedule its naive reference variant
(:func:`oracles.scheduler.naive`, the original full-rescan implementation)
produces — same placements, same transfers, same reconfigurations, same
commit order.  :meth:`repro.aaa.schedule.Schedule.digest` is the oracle.

Alongside the property tests live the adversarial validator fixtures, the
makespan-frontier cache checks and the pickle-round-trip (name-based
equality) checks that pin the supporting bookkeeping down.
"""

import pickle

import pytest
from oracles.scheduler import naive

from repro.aaa import (
    EarliestFinishScheduler,
    InsertionScheduler,
    RandomMappingScheduler,
    ReconfigAwareScheduler,
    Schedule,
    ScheduleValidationError,
    SynDExScheduler,
    adequate,
)
from repro.aaa.costs import CostModel
from repro.aaa.schedule import ScheduledOp
from repro.arch import sundance_board
from repro.dfg.generators import (
    conditioned_chain_graph,
    fork_join_graph,
    layered_random_graph,
)
from repro.dfg.library import default_library

BOARD = sundance_board()
LIBRARY = default_library()

SCHEDULERS = [
    SynDExScheduler,
    InsertionScheduler,
    EarliestFinishScheduler,
    ReconfigAwareScheduler,
]


def _families(seed: int):
    """Three seeded graph families, shapes varied by the seed."""
    return [
        layered_random_graph(4, 3, seed=seed),
        fork_join_graph(2 + seed % 6),
        conditioned_chain_graph(3 + seed % 4, 2 + seed % 3),
    ]


def _run(graph, scheduler_cls):
    costs = CostModel(graph, BOARD.architecture, LIBRARY)
    scheduler = scheduler_cls(costs)
    schedule = scheduler.run()
    return schedule, scheduler.stats


# -- byte-identity property tests ---------------------------------------------


@pytest.mark.parametrize("seed", range(20))
def test_incremental_matches_naive_digest(seed):
    """20 seeds x 3 families x 4 schedulers: digests must be identical, and
    ``placements_requested`` must equal exactly what the naive reference
    computed (that equality is what lets a single incremental run stand in
    for the naive evaluation count in the regression guard)."""
    for graph in _families(seed):
        for scheduler_cls in SCHEDULERS:
            fast_schedule, fast_stats = _run(graph, scheduler_cls)
            naive_schedule, naive_stats = _run(graph, naive(scheduler_cls))
            assert fast_schedule.digest() == naive_schedule.digest(), (
                f"{scheduler_cls.__name__} diverged on {graph.name} (seed {seed})"
            )
            assert fast_stats.placements_requested == naive_stats.placements_evaluated
            assert (
                fast_stats.placements_requested
                == fast_stats.placements_evaluated + fast_stats.placement_cache_hits
            )


def test_random_mapping_matches_naive_digest():
    """The seeded random baseline must also be bit-stable across paths."""
    for seed in range(5):
        graph = layered_random_graph(4, 3, seed=seed)
        fast_schedule, _ = _run(graph, RandomMappingScheduler)
        naive_schedule, _ = _run(graph, naive(RandomMappingScheduler))
        assert fast_schedule.digest() == naive_schedule.digest()


# -- placement-evaluation regression guard ------------------------------------


def test_memo_cuts_evaluations_on_100_op_graph():
    """On a 100-operation layered graph the memo must serve a substantial
    share of the requests, and the absolute savings must grow with graph
    size — the counter-level signature of the quadratic-rescans fix."""
    small = layered_random_graph(10, 5, seed=42)  # ~50 ops
    large = layered_random_graph(10, 10, seed=42)  # ~100 ops

    _, small_stats = _run(small, SynDExScheduler)
    _, large_stats = _run(large, SynDExScheduler)

    assert large_stats.placements_evaluated <= 0.85 * large_stats.placements_requested
    small_saved = small_stats.placements_requested - small_stats.placements_evaluated
    large_saved = large_stats.placements_requested - large_stats.placements_evaluated
    assert large_saved > small_saved

    # The requested count is the naive workload: verify against an actual
    # naive run once, at the 100-op scale the guard targets.
    _, naive_stats = _run(large, naive(SynDExScheduler))
    assert large_stats.placements_requested == naive_stats.placements_evaluated
    assert naive_stats.placement_cache_hits == 0


# -- adversarial validator fixtures -------------------------------------------


def _fork_join_fixture():
    graph = fork_join_graph(2)
    dsp = BOARD.architecture.operator("DSP")
    by_name = {op.name: op for op in graph.operations}
    return graph, dsp, by_name


def test_validator_ignores_zero_length_interval_inside_busy_window():
    """A zero-length interval occupies no time: strictly inside another
    operation's busy window it must not be flagged (the seed's sweep flagged
    this case while accepting the same interval at the window's edge)."""
    graph, dsp, ops = _fork_join_fixture()
    schedule = Schedule(
        ops=[
            ScheduledOp(op=ops["src"], operator=dsp, start=0, end=100),
            ScheduledOp(op=ops["b0"], operator=dsp, start=200, end=300),
            ScheduledOp(op=ops["b1"], operator=dsp, start=250, end=250),
            ScheduledOp(op=ops["sink"], operator=dsp, start=400, end=500),
        ]
    )
    schedule.validate(graph, BOARD.architecture)  # must not raise


def test_validator_ignores_zero_length_interval_at_window_boundary():
    graph, dsp, ops = _fork_join_fixture()
    schedule = Schedule(
        ops=[
            ScheduledOp(op=ops["src"], operator=dsp, start=0, end=100),
            ScheduledOp(op=ops["b0"], operator=dsp, start=200, end=300),
            ScheduledOp(op=ops["b1"], operator=dsp, start=200, end=200),
            ScheduledOp(op=ops["sink"], operator=dsp, start=400, end=500),
        ]
    )
    schedule.validate(graph, BOARD.architecture)  # must not raise


def test_validator_flags_start_tied_overlap():
    """Two non-empty intervals sharing a start must still be an overlap."""
    graph, dsp, ops = _fork_join_fixture()
    schedule = Schedule(
        ops=[
            ScheduledOp(op=ops["src"], operator=dsp, start=0, end=100),
            ScheduledOp(op=ops["b0"], operator=dsp, start=200, end=300),
            ScheduledOp(op=ops["b1"], operator=dsp, start=200, end=300),
            ScheduledOp(op=ops["sink"], operator=dsp, start=400, end=500),
        ]
    )
    with pytest.raises(ScheduleValidationError) as err:
        schedule.validate(graph, BOARD.architecture)
    assert any("overlap" in p for p in err.value.problems)


def test_validator_sees_raw_list_mutations():
    """Fixtures that bypass add_op and append to the raw lists must still be
    validated against the current contents (the index self-heals)."""
    graph, dsp, ops = _fork_join_fixture()
    schedule = Schedule(
        ops=[
            ScheduledOp(op=ops["src"], operator=dsp, start=0, end=100),
            ScheduledOp(op=ops["b0"], operator=dsp, start=200, end=300),
            ScheduledOp(op=ops["sink"], operator=dsp, start=400, end=500),
        ]
    )
    assert schedule.makespan() == 500  # prime the index
    schedule.ops.append(ScheduledOp(op=ops["b1"], operator=dsp, start=250, end=350))
    with pytest.raises(ScheduleValidationError) as err:
        schedule.validate(graph, BOARD.architecture)
    assert any("overlap" in p for p in err.value.problems)


# -- makespan frontier cache ---------------------------------------------------


def test_makespan_tracks_mutations():
    graph, dsp, ops = _fork_join_fixture()
    schedule = Schedule()
    assert schedule.makespan() == 0
    schedule.add_op(ScheduledOp(op=ops["src"], operator=dsp, start=0, end=100))
    assert schedule.makespan() == 100
    schedule.add_op(ScheduledOp(op=ops["b0"], operator=dsp, start=100, end=450))
    assert schedule.makespan() == 450
    # Direct raw-list mutation invalidates the cached frontier too.
    schedule.ops.append(ScheduledOp(op=ops["b1"], operator=dsp, start=450, end=700))
    assert schedule.makespan() == 700


def test_adequation_result_reports_cached_makespan():
    graph = layered_random_graph(4, 3, seed=1)
    result = adequate(graph, BOARD.architecture, LIBRARY, scheduler=SynDExScheduler)
    assert result.makespan_ns == result.schedule.makespan()
    assert result.iteration_period_ns == result.makespan_ns
    assert f"makespan {result.makespan_ns} ns" in result.report()
    before = result.makespan_ns
    dsp = BOARD.architecture.operator("DSP")
    extra = next(iter(graph.operations))
    result.schedule.ops.append(ScheduledOp(op=extra, operator=dsp, start=before, end=before + 10))
    assert result.makespan_ns == before + 10


# -- name-based equality across pickle boundaries ------------------------------


def test_unpickled_graph_schedules_identically():
    graph = conditioned_chain_graph(4, 2)
    fast_schedule, _ = _run(graph, ReconfigAwareScheduler)
    clone = pickle.loads(pickle.dumps(graph))
    clone_schedule, _ = _run(clone, ReconfigAwareScheduler)
    assert fast_schedule.digest() == clone_schedule.digest()


def test_unpickled_schedule_answers_queries_for_resident_objects():
    graph = layered_random_graph(4, 3, seed=5)
    schedule, _ = _run(graph, SynDExScheduler)
    clone = pickle.loads(pickle.dumps(schedule))
    assert clone.digest() == schedule.digest()
    assert clone.makespan() == schedule.makespan()
    for operator in BOARD.architecture.operators:
        assert [s.op.name for s in clone.of_operator(operator)] == [
            s.op.name for s in schedule.of_operator(operator)
        ]
    # Edge lookups key on endpoint names/ports, so the caller's resident
    # edges find the unpickled schedule's equal copies.
    for edge in graph.edges:
        assert [t.hop for t in clone.transfers_of_edge(edge)] == [
            t.hop for t in schedule.transfers_of_edge(edge)
        ]


def test_unpickled_graph_exclusivity_is_preserved():
    graph = conditioned_chain_graph(4, 3)
    clone = pickle.loads(pickle.dumps(graph))
    ops = {op.name: op for op in clone.operations}
    assert clone.exclusive(ops["alt0"], ops["alt1"])
    assert not clone.exclusive(ops["alt0"], ops["alt0"])
    assert not clone.exclusive(ops["select"], ops["alt0"])
