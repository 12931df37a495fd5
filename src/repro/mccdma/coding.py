"""Channel coding: rate-1/2 convolutional code with Viterbi decoding.

The transmitter chain of Fig. 4 contains a channel-coding block ahead of the
interleaver.  We implement the classic K=3, rate-1/2 code (generators 7, 5
octal) with zero-termination, plus a hard-decision Viterbi decoder for the
reference receiver.

Both directions are vectorized: the encoder turns the shift register into a
sliding window of K bits and assembles both generator outputs with table
lookups; the decoder runs the add-compare-select recursion over *all* states
(and, in :meth:`ConvolutionalCoder.decode_batch`, all frames) per trellis
step.  The original scalar encoder and decoder live with the tests as the
oracle ``tests/oracles/coding.py``, against which these kernels are
bit-exact.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["ConvolutionalCoder"]

#: Path-metric value standing in for "state unreachable".
_INF = 1 << 30


@lru_cache(maxsize=None)
def _trellis_tables(constraint: int, generators: tuple[int, ...]):
    """Precomputed trellis tables, shared by every coder instance.

    Returns ``(out_bits, pred_state, pred_input, pred_out)``:

    - ``out_bits[reg, g]`` — parity of ``reg & generators[g]`` for every
      K-bit register window ``reg`` (newest bit in the MSB);
    - ``pred_state[ns, k]`` / ``pred_input[ns, k]`` / ``pred_out[ns, k, g]``
      — the k-th incoming trellis edge of next-state ``ns``.  Column order
      follows the scalar decoder's visit order (state ascending, input bit
      inner), so ``argmin`` tie-breaking reproduces its survivor choices.
    """
    n_states = 1 << (constraint - 1)
    n_regs = 1 << constraint
    out_bits = np.empty((n_regs, len(generators)), dtype=np.uint8)
    for gi, g in enumerate(generators):
        for reg in range(n_regs):
            out_bits[reg, gi] = bin(reg & g).count("1") & 1
    pred_state = np.empty((n_states, 2), dtype=np.int64)
    pred_input = np.empty((n_states, 2), dtype=np.uint8)
    pred_out = np.empty((n_states, 2, len(generators)), dtype=np.uint8)
    slot = [0] * n_states
    for s in range(n_states):
        for b in (0, 1):
            reg = (b << (constraint - 1)) | s
            ns = reg >> 1
            k = slot[ns]
            slot[ns] = k + 1
            pred_state[ns, k] = s
            pred_input[ns, k] = b
            pred_out[ns, k] = out_bits[reg]
    for arr in (out_bits, pred_state, pred_input, pred_out):
        arr.setflags(write=False)
    return out_bits, pred_state, pred_input, pred_out


class ConvolutionalCoder:
    """K=3 rate-1/2 convolutional code, generators (0o7, 0o5), zero-tailed."""

    CONSTRAINT = 3
    G = (0b111, 0b101)

    @property
    def n_states(self) -> int:
        return 1 << (self.CONSTRAINT - 1)

    # -- encoding ----------------------------------------------------------------

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode (appends K-1 tail zeros): ``n`` bits → ``2*(n+2)`` bits."""
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1:
            raise ValueError("bits must be 1-D")
        if bits.size and bits.max() > 1:
            raise ValueError("bits must be 0/1")
        k = self.CONSTRAINT
        tailed = np.concatenate([bits, np.zeros(k - 1, dtype=np.uint8)])
        n = tailed.size
        # The register at step i is the window (b_i, b_{i-1}, …, b_{i-K+1})
        # with b_{<0} = 0 — a pure sliding window once the state recursion is
        # unrolled, so the whole codeword is two table lookups.
        padded = np.concatenate([np.zeros(k - 1, dtype=np.uint8), tailed]).astype(np.int64)
        regs = np.zeros(n, dtype=np.int64)
        for age in range(k):
            regs |= padded[k - 1 - age : k - 1 - age + n] << (k - 1 - age)
        out_bits, _, _, _ = _trellis_tables(self.CONSTRAINT, self.G)
        out = np.empty(2 * n, dtype=np.uint8)
        out[0::2] = out_bits[regs, 0]
        out[1::2] = out_bits[regs, 1]
        return out

    # -- decoding ----------------------------------------------------------------

    def _check_coded(self, coded: np.ndarray, length: int) -> int:
        if length % 2:
            raise ValueError("coded length must be even (rate 1/2)")
        n_steps = length // 2
        if n_steps < self.CONSTRAINT - 1:
            raise ValueError("coded sequence shorter than the tail")
        return n_steps

    def decode(self, coded: np.ndarray) -> np.ndarray:
        """Hard-decision Viterbi decode; returns the information bits."""
        coded = np.asarray(coded, dtype=np.uint8)
        if coded.ndim != 1:
            raise ValueError("coded input must be 1-D (use decode_batch for frames)")
        self._check_coded(coded, coded.size)
        return self._decode_block(coded[None, :])[0]

    def decode_batch(self, coded: np.ndarray) -> np.ndarray:
        """Decode a ``(n_frames, n_coded)`` block in one trellis sweep.

        Every frame must have the same coded length; the result has shape
        ``(n_frames, n_info)``.  Row ``i`` is bit-identical to
        ``decode(coded[i])``.
        """
        coded = np.asarray(coded, dtype=np.uint8)
        if coded.ndim != 2:
            raise ValueError("decode_batch expects a (n_frames, n_coded) array")
        self._check_coded(coded, coded.shape[1])
        return self._decode_block(coded)

    def _decode_block(self, coded: np.ndarray) -> np.ndarray:
        n_frames, width = coded.shape
        n_steps = width // 2
        n_states = self.n_states
        _, pred_state, pred_input, pred_out = _trellis_tables(self.CONSTRAINT, self.G)
        r = coded.reshape(n_frames, n_steps, 2)
        metric = np.full((n_frames, n_states), _INF, dtype=np.int64)
        metric[:, 0] = 0
        # Chosen predecessor slot (0/1) per (frame, step, state).
        choice = np.empty((n_frames, n_steps, n_states), dtype=np.uint8)
        out0 = pred_out[:, :, 0].astype(np.int64)  # (states, 2)
        out1 = pred_out[:, :, 1].astype(np.int64)
        for t in range(n_steps):
            r0 = r[:, t, 0].astype(np.int64)[:, None, None]  # (frames, 1, 1)
            r1 = r[:, t, 1].astype(np.int64)[:, None, None]
            cost = (out0[None] ^ r0) + (out1[None] ^ r1)  # (frames, states, 2)
            cand = metric[:, pred_state] + cost
            k = np.argmin(cand, axis=2)  # ties → slot 0, the scalar visit order
            choice[:, t, :] = k
            new_metric = np.take_along_axis(cand, k[:, :, None], axis=2)[:, :, 0]
            # Unreachable states stay at exactly _INF, as in the scalar path.
            metric = np.minimum(new_metric, _INF)
        self._check_survivor(metric)
        # Zero-termination: trace every frame back from state 0.
        state = np.zeros(n_frames, dtype=np.int64)
        rows = np.arange(n_frames)
        decoded = np.empty((n_frames, n_steps), dtype=np.uint8)
        for t in range(n_steps - 1, -1, -1):
            k = choice[rows, t, state]
            decoded[:, t] = pred_input[state, k]
            state = pred_state[state, k]
        return decoded[:, : n_steps - (self.CONSTRAINT - 1)]  # drop the tail

    @staticmethod
    def _check_survivor(metric: np.ndarray) -> None:
        """Reject a forward pass that left the traceback state unreachable.

        ``metric`` is the final path-metric matrix ``(n_frames, n_states)``;
        zero-termination means the traceback starts at state 0, so a metric
        of ``_INF`` there leaves no surviving path to follow.
        """
        dead = np.flatnonzero(np.asarray(metric)[:, 0] >= _INF)
        if dead.size:
            raise ValueError(
                "Viterbi decode: no surviving path into state 0 for frame(s) "
                f"{dead.tolist()} — the coded input is likely not "
                "zero-terminated (encode() appends K-1 tail zeros) or was "
                "truncated to an impossible state sequence"
            )

    # -- sizing ------------------------------------------------------------------

    def coded_length(self, n_info_bits: int) -> int:
        """Coded bits produced for ``n_info_bits`` information bits."""
        if n_info_bits < 0:
            raise ValueError("bit count must be >= 0")
        return 2 * (n_info_bits + self.CONSTRAINT - 1)

    def info_length(self, n_coded_bits: int) -> int:
        """Information bits recoverable from ``n_coded_bits`` coded bits."""
        if n_coded_bits % 2:
            raise ValueError("coded length must be even")
        info = n_coded_bits // 2 - (self.CONSTRAINT - 1)
        if info < 0:
            raise ValueError("coded sequence shorter than the tail")
        return info
