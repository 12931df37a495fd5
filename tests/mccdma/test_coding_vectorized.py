"""Vectorized convolutional coder vs hand-computed and reference outputs."""

import numpy as np
import pytest
from oracles import coding as reference

from repro.mccdma.coding import ConvolutionalCoder, _INF


@pytest.fixture()
def coder():
    return ConvolutionalCoder()


# Hand-computed on the K=3 (7,5) trellis with reg = (b << 2) | state,
# state' = reg >> 1 (two zero tail bits appended):
#   1011 -> 11 10 00 01 | 01 11
#   1101 -> 11 01 01 00 | 10 11
GOLDEN = [
    ([1, 0, 1, 1], [1, 1, 1, 0, 0, 0, 0, 1, 0, 1, 1, 1]),
    ([1, 1, 0, 1], [1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 1]),
    ([1], [1, 1, 1, 0, 1, 1]),
    ([], [0, 0, 0, 0]),
]


@pytest.mark.parametrize("info,coded", GOLDEN)
def test_encode_golden_vectors(coder, info, coded):
    assert coder.encode(np.array(info, dtype=np.uint8)).tolist() == coded


@pytest.mark.parametrize("info,coded", GOLDEN)
def test_decode_golden_vectors(coder, info, coded):
    assert coder.decode(np.array(coded, dtype=np.uint8)).tolist() == info


@pytest.mark.parametrize("n_bits", [1, 2, 7, 64, 255])
def test_encode_matches_reference(coder, n_bits):
    rng = np.random.default_rng(n_bits)
    for _ in range(5):
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        assert np.array_equal(coder.encode(bits), reference.encode(bits))


@pytest.mark.parametrize("n_bits", [1, 7, 64, 255])
def test_decode_matches_reference_on_corrupted_input(coder, n_bits):
    """Same survivors as the scalar decoder, including tie-breaks under noise."""
    rng = np.random.default_rng(1000 + n_bits)
    for _ in range(5):
        coded = coder.encode(rng.integers(0, 2, n_bits).astype(np.uint8))
        noisy = coded.copy()
        flips = rng.integers(0, noisy.size, size=max(1, noisy.size // 10))
        noisy[flips] ^= 1
        assert np.array_equal(coder.decode(noisy), reference.decode(noisy))


def test_decode_batch_rows_match_scalar_decode(coder):
    rng = np.random.default_rng(7)
    frames = np.stack(
        [coder.encode(rng.integers(0, 2, 40).astype(np.uint8)) for _ in range(16)]
    )
    frames[3, 5] ^= 1  # one corrupted frame must not disturb its neighbours
    decoded = coder.decode_batch(frames)
    for i in range(frames.shape[0]):
        assert np.array_equal(decoded[i], coder.decode(frames[i]))


def test_decode_roundtrip_after_encode(coder):
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, 128).astype(np.uint8)
    assert np.array_equal(coder.decode(coder.encode(bits)), bits)


def test_decode_rejects_multidimensional_input(coder):
    with pytest.raises(ValueError, match="decode_batch"):
        coder.decode(np.zeros((2, 8), dtype=np.uint8))


def test_check_survivor_reports_dead_frames():
    """All-INF terminal metrics name the likely cause (not zero-terminated)."""
    metric = np.full((3, 4), _INF, dtype=np.int64)
    metric[1, 0] = 0  # frame 1 survives; frames 0 and 2 are dead
    with pytest.raises(ValueError, match="zero-terminated") as err:
        ConvolutionalCoder._check_survivor(metric)
    assert "0" in str(err.value) and "2" in str(err.value)


def test_check_survivor_passes_on_live_frames():
    metric = np.zeros((2, 4), dtype=np.int64)
    ConvolutionalCoder._check_survivor(metric)
