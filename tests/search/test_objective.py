"""Tests for the memoizing cost evaluator."""

import pickle

import numpy as np
import pytest

from repro.dfg.generators import multiregion_graph
from repro.dfg.library import default_library
from repro.flows.pipeline import ArtifactCache
from repro.reconfig.architectures import case_b_processor
from repro.search import CostEvaluator, CostWeights, SearchSpace, SearchState


@pytest.fixture(scope="module")
def space():
    return SearchSpace(multiregion_graph(2, 2), default_library())


def test_initial_state_is_feasible(space):
    cost = CostEvaluator(space).evaluate(space.initial_state())
    assert cost.feasible
    assert cost.violations == ()
    assert cost.penalty_ns == 0.0
    assert cost.makespan_ns > 0
    assert cost.reconfig_busy_ns > 0
    assert cost.boundary_cost_ns > 0
    assert cost.total_ns >= cost.makespan_ns


def test_total_is_the_weighted_sum(space):
    weights = CostWeights(makespan=1.0, reconfig_busy=0.5, boundary=2.0)
    cost = CostEvaluator(space, weights=weights).evaluate(space.initial_state())
    expected = (
        cost.makespan_ns + 0.5 * cost.reconfig_busy_ns + 2.0 * cost.boundary_cost_ns
    )
    assert cost.total_ns == pytest.approx(expected)


def test_overlapping_spans_are_penalized_not_rejected(space):
    ev = CostEvaluator(space)
    bad = SearchState(assign=(0, 0, 1, 1), placements=((10, 2), (10, 2)))
    cost = ev.evaluate(bad)
    assert not cost.feasible
    assert any("overlaps" in v for v in cost.violations)
    assert cost.penalty_ns > 0
    good = ev.evaluate(space.initial_state())
    assert cost.total_ns > good.total_ns


def test_touching_spans_are_not_penalized(space):
    ev = CostEvaluator(space)
    touching = SearchState(assign=(0, 0, 1, 1), placements=((10, 2), (12, 2)))
    cost = ev.evaluate(touching)
    assert not any("overlaps" in v for v in cost.violations)


def test_zero_width_span_is_priced_as_infeasible(space):
    ev = CostEvaluator(space)
    bad = SearchState(assign=(0, 0, 1, 1), placements=((10, 0), (20, 2)))
    cost = ev.evaluate(bad)
    assert not cost.feasible
    assert any("zero-width" in v for v in cost.violations)
    assert cost.penalty_ns > 0


def test_narrow_span_capacity_shortfall_is_graded(space):
    ev = CostEvaluator(space)
    # A span at the device's left edge holds no BRAM column, so a region
    # needing block RAM overflows it — priced as a graded penalty (1 unit
    # plus the fractional shortfall), while the packed fixed-sweep span for
    # the same partition fits cleanly.
    cramped = ev.evaluate(space.canonical([0, 0, 0, 0], [(0, 2)]))
    assert any("exceed span capacity" in v for v in cramped.violations)
    assert cramped.penalty_units > 1.0
    fitting = ev.evaluate(space.initial_state(1))
    assert not any("exceed span capacity" in v for v in fitting.violations)
    assert cramped.penalty_ns > fitting.penalty_ns


def test_memoization_within_one_evaluator(space):
    ev = CostEvaluator(space)
    s = space.initial_state()
    first = ev.evaluate(s)
    second = ev.evaluate(s)
    assert first is second
    assert ev.stats.requested == 2
    assert ev.stats.computed == 1
    assert ev.stats.memo_hits == 1


def test_artifact_cache_shares_evaluations_across_evaluators(space):
    cache = ArtifactCache()
    s = space.initial_state()
    a = CostEvaluator(space, cache=cache)
    first = a.evaluate(s)
    b = CostEvaluator(space, cache=cache)
    second = b.evaluate(s)
    assert b.stats.cache_hits == 1
    assert b.stats.computed == 0
    assert second.total_ns == first.total_ns
    assert second.state_key == first.state_key


def test_cache_key_depends_on_architecture_and_weights(space):
    s = space.initial_state()
    base = CostEvaluator(space)
    other_arch = CostEvaluator(space, architecture=case_b_processor())
    other_weights = CostEvaluator(space, weights=CostWeights(reconfig_busy=0.5))
    assert base.cache_key(s) != other_arch.cache_key(s)
    assert base.cache_key(s) != other_weights.cache_key(s)


def test_architecture_changes_the_reconfig_pricing(space):
    s = space.initial_state()
    a = CostEvaluator(space).evaluate(s)
    b = CostEvaluator(space, architecture=case_b_processor()).evaluate(s)
    assert a.reconfig_busy_ns != b.reconfig_busy_ns


def test_breakdown_round_trips_and_serializes(space):
    cost = CostEvaluator(space).evaluate(space.initial_state())
    clone = pickle.loads(pickle.dumps(cost))
    assert clone == cost
    payload = cost.to_dict()
    assert payload["feasible"] is True
    assert payload["state"] == cost.state_key
    assert payload["total_ns"] == cost.total_ns


def test_whole_device_span_has_no_boundary(space):
    ev = CostEvaluator(space)
    whole = SearchState(
        assign=(0, 0, 0, 0), placements=((0, space.device.clb_cols),)
    )
    cost = ev.evaluate(whole)
    assert any("whole device" in v for v in cost.violations)
    assert cost.boundary_cost_ns == 0


def _walk(space, seed=5, steps=45):
    """A seeded evaluation order for one long-lived evaluator: neighbor
    chains from every region count, interleaved so the board changes from
    one state to the next, with degenerate spans and revisits mixed in."""
    rng = np.random.default_rng(seed)
    chains = []
    for k in range(1, space.max_regions + 1):
        state, chain = space.initial_state(k), []
        for _ in range(steps):
            chain.append(state)
            state = space.neighbor(state, rng)
        chains.append(chain)
    cols = space.device.clb_cols
    degenerate = [
        SearchState(assign=(0, 0, 1, 1), placements=((10, 0), (20, 2))),
        SearchState(assign=(0, 0, 0, 0), placements=((0, cols),)),
        SearchState(assign=(0, 1, 0, 1), placements=((0, cols), (12, 0))),
        SearchState(assign=(0, 1, 2, 3), placements=((4, 0), (8, 2), (0, cols), (30, 2))),
    ]
    order = []
    for step in range(steps):
        order.extend(chain[step] for chain in chains)
        if step % 10 == 0:
            order.extend(degenerate)
        if step % 3 == 0:
            order.extend(order[i] for i in rng.integers(0, len(order), size=2))
    return order


def test_long_lived_evaluator_matches_fresh_evaluators(space):
    """Neither the schedule memo nor the per-board compiled tables may leak
    one state's pins or latencies into another's price."""
    ev = CostEvaluator(space)
    states = _walk(space)
    assert len(states) >= 200
    assert {s.n_regions for s in states} == set(range(1, space.max_regions + 1))
    for state in states:
        assert ev.evaluate(state) == CostEvaluator(space).evaluate(state), state.key()
    stats = ev.stats
    assert stats.schedule_hits > 0
    assert stats.memo_hits > 0
    assert stats.requested == len(states)
    assert stats.requested == stats.computed + stats.memo_hits + stats.cache_hits
    assert stats.schedule_hits < stats.computed
