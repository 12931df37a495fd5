"""Reference convolutional coding: the scalar encoder and Viterbi decoder.

These are the loops the coder shipped before its kernels were vectorized,
one trellis step and one state at a time.
:class:`repro.mccdma.coding.ConvolutionalCoder` must reproduce them bit for
bit, survivor tie-breaks included (``tests/mccdma/test_coding_vectorized.py``).
"""

from __future__ import annotations

import numpy as np

from repro.mccdma.coding import _INF, ConvolutionalCoder

CONSTRAINT = ConvolutionalCoder.CONSTRAINT
G = ConvolutionalCoder.G


def encode(bits: np.ndarray) -> np.ndarray:
    """Shift-register encoding, appending K-1 tail zeros."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 1:
        raise ValueError("bits must be 1-D")
    if bits.size and bits.max() > 1:
        raise ValueError("bits must be 0/1")
    tailed = np.concatenate([bits, np.zeros(CONSTRAINT - 1, dtype=np.uint8)])
    out = np.empty(2 * tailed.size, dtype=np.uint8)
    state = 0
    for i, b in enumerate(tailed):
        reg = (int(b) << (CONSTRAINT - 1)) | state
        out[2 * i] = bin(reg & G[0]).count("1") & 1
        out[2 * i + 1] = bin(reg & G[1]).count("1") & 1
        state = reg >> 1
    return out


def decode(coded: np.ndarray) -> np.ndarray:
    """Hard-decision Viterbi decoding, one state and one input bit at a time."""
    coded = np.asarray(coded, dtype=np.uint8)
    if coded.size % 2:
        raise ValueError("coded length must be even (rate 1/2)")
    n_steps = coded.size // 2
    if n_steps < CONSTRAINT - 1:
        raise ValueError("coded sequence shorter than the tail")
    n_states = 1 << (CONSTRAINT - 1)
    INF = _INF

    # Precompute transitions: (state, input) -> (next_state, out0, out1)
    nxt = np.zeros((n_states, 2), dtype=np.int64)
    outs = np.zeros((n_states, 2, 2), dtype=np.uint8)
    for s in range(n_states):
        for b in (0, 1):
            reg = (b << (CONSTRAINT - 1)) | s
            nxt[s, b] = reg >> 1
            outs[s, b, 0] = bin(reg & G[0]).count("1") & 1
            outs[s, b, 1] = bin(reg & G[1]).count("1") & 1

    metric = np.full(n_states, INF, dtype=np.int64)
    metric[0] = 0
    backptr = np.zeros((n_steps, n_states), dtype=np.uint8)
    prev_state = np.zeros((n_steps, n_states), dtype=np.int64)
    for t in range(n_steps):
        r0, r1 = int(coded[2 * t]), int(coded[2 * t + 1])
        new_metric = np.full(n_states, INF, dtype=np.int64)
        for s in range(n_states):
            if metric[s] >= INF:
                continue
            for b in (0, 1):
                ns = nxt[s, b]
                cost = (outs[s, b, 0] ^ r0) + (outs[s, b, 1] ^ r1)
                cand = metric[s] + cost
                if cand < new_metric[ns]:
                    new_metric[ns] = cand
                    backptr[t, ns] = b
                    prev_state[t, ns] = s
        metric = new_metric

    # Zero-termination: trace back from state 0.
    state = 0
    decoded = np.empty(n_steps, dtype=np.uint8)
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = backptr[t, state]
        state = prev_state[t, state]
    return decoded[: n_steps - (CONSTRAINT - 1)]  # drop the tail
