"""Traffic generators: reproducibility, pattern properties, exactness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.traffic import reference_schedule

from repro.runtime import board_rng, future_from_schedule, generate_schedule, generate_traffic
from repro.runtime import traffic as traffic_module
from repro.runtime.traffic import TRAFFIC_PATTERNS

REGIONS = {"R0": ["m0", "m1", "m2"], "R1": ["m0", "m1"]}


@pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
def test_schedules_are_pure_functions_of_seed_and_board(pattern):
    a = generate_schedule(pattern, board_rng(7, "b0001"), REGIONS, 200)
    b = generate_schedule(pattern, board_rng(7, "b0001"), REGIONS, 200)
    assert a == b
    other_board = generate_schedule(pattern, board_rng(7, "b0002"), REGIONS, 200)
    other_seed = generate_schedule(pattern, board_rng(8, "b0001"), REGIONS, 200)
    assert a != other_board
    assert a != other_seed


@pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
def test_schedule_shape_and_vocabulary(pattern):
    schedule = generate_schedule(pattern, board_rng(0, "b0000"), REGIONS, 150)
    assert len(schedule) == 150
    for gap, region, module in schedule:
        assert gap >= 1
        assert region in REGIONS
        assert module in REGIONS[region]


def test_thrash_always_switches_modules():
    schedule = generate_schedule("thrash", board_rng(3, "b0000"), REGIONS, 300)
    last = {}
    for _gap, region, module in schedule:
        if region in last:
            assert module != last[region], "thrash must never repeat a module"
        last[region] = module


def test_poisson_has_bursts():
    schedule = generate_schedule("poisson", board_rng(1, "b0000"), REGIONS, 500,
                                 mean_gap_ns=100_000)
    gaps = [gap for gap, _r, _m in schedule]
    # Bursts compress gaps by ~10x: the small-gap tail must be well below
    # the overall mean, and plentiful.
    small = [g for g in gaps if g < 20_000]
    assert len(small) > 25


def test_future_from_schedule_groups_per_region():
    schedule = [(10, "R0", "m1"), (5, "R1", "m0"), (7, "R0", "m2")]
    assert future_from_schedule(schedule) == {"R0": ["m1", "m2"], "R1": ["m0"]}


def test_unknown_pattern_and_bad_inputs():
    rng = board_rng(0, "b")
    with pytest.raises(ValueError, match="unknown traffic pattern"):
        generate_schedule("solar-flare", rng, REGIONS, 10)
    with pytest.raises(ValueError, match="at least one module"):
        generate_schedule("poisson", rng, {"R0": []}, 10)
    with pytest.raises(ValueError, match="n_requests"):
        generate_schedule("poisson", rng, REGIONS, -1)


# -- the array generator against the scalar reference loops ----------------

#: sorted names (R0, R1, R10, R11, R2, ...) differ from map order, module
#: counts are unequal and include one-module regions
TWELVE = {f"R{r}": [f"m{m}" for m in range(1 + (5 * r) % 6)] for r in range(12)}
LAYOUTS = {
    "two": {"R0": ["m0", "m1", "m2", "m3"], "R1": ["m0", "m1", "m2", "m3"]},
    "twelve": TWELVE,
    "mixed": {"Z": ["a", "b", "c"], "A": ["d"], "M": ["e", "f"]},
    "single": {"R0": ["m0"]},
}


def _boards(seed, n_boards):
    return [board_rng(seed, f"b{i:04d}") for i in range(n_boards)]


def _assert_matches_oracle(pattern, seed, n_boards, regions, n_requests, mean_gap_ns):
    traffic = generate_traffic(
        pattern, _boards(seed, n_boards), regions, n_requests, mean_gap_ns
    )
    assert traffic.gaps.shape == (n_boards, n_requests)
    assert traffic.regions.shape == traffic.modules.shape == traffic.gaps.shape
    assert traffic.gaps.dtype == traffic.regions.dtype == traffic.modules.dtype == np.int64
    assert traffic.region_names == tuple(regions)
    for board, rng in enumerate(_boards(seed, n_boards)):
        expected = reference_schedule(pattern, rng, regions, n_requests, mean_gap_ns)
        assert traffic.schedule(board) == expected, (pattern, seed, board)


@pytest.mark.parametrize("pattern", TRAFFIC_PATTERNS)
def test_held_out_seed_matches_oracle(pattern):
    _assert_matches_oracle(pattern, 104729, 17, TWELVE, 257, 200_000)


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.sampled_from(TRAFFIC_PATTERNS),
    seed=st.one_of(st.just(104729), st.integers(0, 2**32)),
    n_boards=st.sampled_from([0, 1, 3, 17]),
    n_requests=st.sampled_from([0, 1, 257]),
    layout=st.sampled_from(sorted(LAYOUTS)),
    # tiny means put most gaps in the first few integers
    mean_gap_ns=st.sampled_from([0, 1, 3, 10, 200_000]),
)
def test_generate_traffic_equals_scalar_oracle(
    pattern, seed, n_boards, n_requests, layout, mean_gap_ns
):
    _assert_matches_oracle(
        pattern, seed, n_boards, LAYOUTS[layout], n_requests, mean_gap_ns
    )


def test_word_buffer_overrun_redraws_prefix_consistently(monkeypatch):
    """A one-word-per-request buffer overruns on every board: each is
    replayed on longer buffers continuing its own stream, never cut short."""
    draws = []
    real_draw = traffic_module._draw

    def counting_draw(rngs, n_words, prefix):
        draws.append((len(rngs), n_words, prefix.shape[1]))
        return real_draw(rngs, n_words, prefix)

    monkeypatch.setattr(traffic_module, "_WORDS_PER_REQUEST", 1)
    monkeypatch.setattr(traffic_module, "_draw", counting_draw)
    for pattern in TRAFFIC_PATTERNS:
        draws.clear()
        _assert_matches_oracle(pattern, 3, 5, LAYOUTS["two"], 300, 200_000)
        assert len(draws) > 1, pattern
        for (_, short, _), (_, longer, kept) in zip(draws, draws[1:]):
            assert kept == short and longer == 2 * short


def test_generate_schedule_is_a_one_board_traffic():
    rng = board_rng(5, "b0003")
    schedule = generate_schedule("poisson", rng, REGIONS, 40)
    traffic = generate_traffic("poisson", [board_rng(5, "b0003")], REGIONS, 40)
    assert schedule == traffic.schedule(0)
    # the whole word buffer is consumed: the next draw is not the oracle's
    oracle_rng = board_rng(5, "b0003")
    reference_schedule("poisson", oracle_rng, REGIONS, 40)
    assert rng.random() != oracle_rng.random()


def test_traffic_slices_and_checks_its_shape():
    traffic = generate_traffic("thrash", _boards(1, 4), REGIONS, 12)
    assert len(traffic) == 4 and traffic.steps == 12
    tail = traffic[1:]
    assert tail.n_boards == 3
    assert tail.schedule(0) == traffic.schedule(1)
    traffic.check(REGIONS, 4, 12)
    with pytest.raises(ValueError, match="4 boards x 12"):
        traffic.check(REGIONS, 4, 13)
    with pytest.raises(ValueError, match="regions"):
        traffic.check({"R1": ["m0", "m1"], "R0": ["m0", "m1", "m2"]}, 4, 12)
    with pytest.raises(ValueError, match="regions"):
        traffic.check({"R0": ["m0", "m1", "m2"], "R1": ["m1", "m0"]}, 4, 12)
    with pytest.raises(TypeError):
        traffic[0]


def _python_random(w0, w1):
    return ((w0 >> 5) * 67108864.0 + (w1 >> 6)) * (1.0 / 9007199254740992.0)


@pytest.mark.parametrize("p", [0.1, 0.8])
def test_uniform_threshold_ties_read_the_second_word(p):
    """Words whose top 27 bits equal the threshold's decide on the second
    word (probability 2**-27 per draw, so traffic alone never reaches it)."""
    threshold = traffic_module._uniform_threshold(p)
    hi, lo = threshold
    pairs = [
        (hi << 5, lo << 6), (hi << 5, (lo - 1) << 6), (hi << 5 | 31, lo << 6 | 63),
        ((hi - 1) << 5 | 31, 2**32 - 1), ((hi + 1) << 5, 0), (0, 0), (2**32 - 1, 2**32 - 1),
    ]
    words = np.array([w for pair in pairs for w in pair], dtype=np.uint32)
    at = np.arange(0, len(words), 2)
    below = traffic_module._uniform_below(words, at, threshold)
    assert below.tolist() == [_python_random(w0, w1) < p for w0, w1 in pairs]


def test_rejection_runs_longer_than_a_window():
    """randrange(3) (k = 2) rejects every word whose top two bits are 11."""
    window = traffic_module._WINDOW
    reject, accept = 0xC0000000, 0x80000000
    runs = [0, 1, window - 1, window, 3 * window + 5]
    words = []
    starts = []
    for run in runs:
        starts.append(len(words))
        words += [reject] * run + [accept]
    words = np.array(words + [0] * traffic_module._PAD, dtype=np.uint32)
    windows = traffic_module._windows(words)
    value, after = traffic_module._below(windows, np.array(starts), 3, 30)
    assert value.tolist() == [2] * len(runs)
    assert after.tolist() == [start + run + 1 for start, run in zip(starts, runs)]


def test_traffic_arrays_are_read_only():
    traffic = generate_traffic("poisson", _boards(0, 2), REGIONS, 5)
    for array in (traffic.gaps, traffic.regions, traffic.modules, traffic[1:].gaps):
        with pytest.raises(ValueError):
            array[0, 0] = 1


def test_gap_floats_near_an_integer_take_the_math_value():
    """numpy's log/sin may differ from libm in the last place; a float that
    close to an integer is recomputed, so ``int()`` follows the oracle."""
    words = np.zeros(2 + traffic_module._PAD, dtype=np.uint32)
    gap_at = np.zeros((1, 4), dtype=np.int64)
    numpy_x = np.array([[3.0 - 2e-15, 3.0 + 2e-15, 2.5, 1e-300]])
    math_x = [3.0, 2.9999999999999996, 0.0, 0.0]
    recomputed = []

    def exact(step, u, board):
        recomputed.append(board)
        return math_x[board]

    gaps = traffic_module._gaps(numpy_x, words, gap_at, exact)
    assert recomputed == [0, 1]
    assert gaps.tolist() == [[4, 3, 3, 1]]
