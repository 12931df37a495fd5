"""Seeded request streams for the fleet driver, as structure-of-arrays.

A fleet's traffic is one :class:`FleetTraffic`: ``gaps``, ``regions`` and
``modules`` as ``(n_boards, steps)`` int64 arrays (region indices in
region-map order, module indices into that region's module list) plus the
name tables that decode them.  Generating up front (instead of sampling
inside the simulation) keeps the event kernel deterministic regardless of
board interleaving, lets the clairvoyant Belady policy see its future, and
makes a board's traffic a pure function of ``(seed, board_id)``.

Patterns:

- ``poisson`` — exponential inter-arrival gaps with occasional tight bursts;
  module selection follows a noisy cycle (predictable enough that learned
  prefetchers can win, noisy enough that they can lose).
- ``diurnal`` — sinusoidally rate-modulated load (the day/night swing of a
  deployed fleet) over a deterministic module rotation.
- ``thrash`` — adversarial: uniform random module excluding the current one,
  so every request misses and history-based prediction has nothing to learn.

**Exact streams.**  The patterns are specified as scalar loops over one
``random.Random`` per board (kept as the test oracle in
``tests/oracles/traffic.py``).  :func:`generate_traffic` reproduces those
loops bit for bit without calling the RNG per draw: it reads each board's
MT19937 words in one ``getrandbits`` call, then replays the draws for all
boards at once, one request step per loop iteration, mirroring CPython's
definitions — ``random()`` is ``((w0 >> 5) * 2**26 + (w1 >> 6)) / 2**53``,
``expovariate(1)`` is ``-log(1 - random())`` and ``randrange(n)`` rejects
words with ``w >> (32 - n.bit_length()) >= n``.  Gap floats are computed
with numpy; any value within 1e-9 relative of a positive integer is
recomputed with :mod:`math` so numpy's last-ULP differences from libm can
never move an ``int()``.  ``tests/runtime/test_traffic.py`` asserts
equality with the oracle across seeds, fleet sizes, region layouts and gap
scales.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

__all__ = [
    "TRAFFIC_PATTERNS",
    "FleetTraffic",
    "board_rng",
    "generate_traffic",
    "generate_schedule",
    "future_from_schedule",
]

TRAFFIC_PATTERNS = ("poisson", "diurnal", "thrash")

#: MT19937 words read per request before parsing.  Poisson traffic needs
#: about 7.8 on average in the worst region/module layout; a board whose
#: stream runs past its buffer is redrawn with a longer one.
_WORDS_PER_REQUEST = 8.5
_SLACK_WORDS = 64
#: words one rejection-sampling draw inspects at a time
_WINDOW = 16
#: zero words after the last board's buffer keep every read in bounds (a
#: zero word is accepted by any ``randrange``, so rejection scans stop there)
_PAD = 8 * _WINDOW

_TWO_PI = 2 * math.pi
_TWO_26 = 67108864.0
_TWO_53 = 9007199254740992.0
_TWO_NEG_53 = 1.0 / _TWO_53


def _uniform_threshold(p: float) -> tuple[int, int]:
    """``random() < p`` as ``(w0 >> 5, w1 >> 6) < (hi, lo)``, lexicographically."""
    return divmod(math.ceil(p * _TWO_53), 1 << 26)


_BURST_START = _uniform_threshold(0.1)
_CYCLE_FOLLOW = _uniform_threshold(0.8)


def board_rng(seed: int, board_id: str) -> random.Random:
    """Independent, reproducible RNG per board.

    String seeds hash stably in :mod:`random` (unlike ``hash()``), so the
    stream depends only on the values, not the interpreter run.
    """
    return random.Random(f"{seed}:{board_id}")


@dataclass(frozen=True, eq=False)
class FleetTraffic:
    """Every board's request stream as ``(n_boards, steps)`` int64 arrays.

    Request ``j`` of board ``b`` waits ``gaps[b, j]`` ns after the previous
    one completes, then demands module
    ``module_names[regions[b, j]][modules[b, j]]`` in region
    ``region_names[regions[b, j]]``.  Name tables are in region-map order.

    Valid traffic has every gap ``>= 1`` (the generators draw ``1 +
    int(...)``; the engines' closed forms rely on a demand never sharing
    its instant with the previous completion), every region index in
    ``[0, len(region_names))`` and every module index in ``[0, n)`` for
    its region's ``n`` modules.  :meth:`check` enforces this at the
    engines' boundary, so corrupt traffic raises ``ValueError`` instead of
    wrapping a negative index or failing deep inside a core.
    """

    gaps: np.ndarray
    regions: np.ndarray
    modules: np.ndarray
    region_names: tuple[str, ...]
    module_names: tuple[tuple[str, ...], ...]

    @property
    def n_boards(self) -> int:
        return self.gaps.shape[0]

    @property
    def steps(self) -> int:
        return self.gaps.shape[1]

    def __len__(self) -> int:
        return self.n_boards

    def __getitem__(self, boards: slice) -> "FleetTraffic":
        """The traffic of a contiguous range of boards."""
        if not isinstance(boards, slice):
            raise TypeError("index FleetTraffic with a slice of boards")
        return replace(
            self,
            gaps=self.gaps[boards],
            regions=self.regions[boards],
            modules=self.modules[boards],
        )

    def region_map(self) -> dict[str, list[str]]:
        return {r: list(m) for r, m in zip(self.region_names, self.module_names)}

    def schedule(self, board: int) -> list[tuple[int, str, str]]:
        """Board ``board``'s requests as ``[(gap_ns, region, module), ...]``."""
        names = self.region_names
        modules = self.module_names
        return [
            (gap, names[r], modules[r][m])
            for gap, r, m in zip(
                self.gaps[board].tolist(),
                self.regions[board].tolist(),
                self.modules[board].tolist(),
            )
        ]

    def check(self, region_map: dict[str, list[str]], n_boards: int, steps: int) -> None:
        """Raise ``ValueError`` unless this traffic fits a fleet's shape and
        holds valid gaps and indices (see the class docstring)."""
        if (self.n_boards, self.steps) != (n_boards, steps):
            raise ValueError(
                f"traffic schedules cover {self.n_boards} boards x {self.steps} "
                f"requests; expected {n_boards} x {steps}"
            )
        names = tuple(region_map)
        modules = tuple(tuple(region_map[r]) for r in names)
        if (self.region_names, self.module_names) != (names, modules):
            raise ValueError(
                f"traffic schedules use regions {self.region_map()}; "
                f"expected {region_map} (in that order)"
            )
        if not self.gaps.size:
            return
        if self.gaps.min() < 1:
            raise ValueError(
                f"traffic schedules hold a gap of {self.gaps.min()} ns; every gap must be >= 1"
            )
        if self.regions.min() < 0 or self.regions.max() >= len(names):
            raise ValueError(
                f"traffic schedules hold region indices in "
                f"[{self.regions.min()}, {self.regions.max()}]; expected [0, {len(names)})"
            )
        sizes = np.array([len(m) for m in modules], dtype=np.int64)
        # the per-request gather runs only when an index reaches the
        # smallest region's size (never, for valid uniform layouts)
        top = self.modules.max()
        if self.modules.min() < 0 or (
            top >= sizes.min() and (self.modules >= sizes[self.regions]).any()
        ):
            raise ValueError(
                "traffic schedules hold a module index outside its region's "
                f"module list (sizes {sizes.tolist()})"
            )


# ---------------------------------------------------------------------------
# vectorized draws over per-board word streams
# ---------------------------------------------------------------------------


def _uniform_below(words: np.ndarray, at: np.ndarray, threshold: tuple[int, int]) -> np.ndarray:
    """``random() < p`` per row, reading the two words at ``at``."""
    hi, lo = threshold
    first = words[at]
    below = first < (hi << 5)
    tie = (first >> 5) == hi
    if tie.any():
        rows = np.flatnonzero(tie)
        below[rows] = (words[at[rows] + 1] >> 6) < lo
    return below


def _below(windows: np.ndarray, at: np.ndarray, n, shift) -> tuple[np.ndarray, np.ndarray]:
    """``randrange(n)`` per row: ``(value, position after the accepted word)``.

    ``n`` and ``shift`` (``32 - n.bit_length()``) are scalars or ``(rows, 1)``
    columns.  The first word at or after ``at`` with ``w >> shift < n`` wins,
    as in CPython's rejection loop.
    """
    rows = np.arange(len(at))
    drawn = windows[at].view(np.uint32).reshape(len(at), _WINDOW) >> shift
    ok = drawn < n
    offset = ok.argmax(axis=1)
    value = drawn[rows, offset]
    after = at + offset + 1
    found = ok[rows, offset]
    if not found.all():  # a whole window rejected: look at the next one
        miss = np.flatnonzero(~found)
        value[miss], after[miss] = _below(
            windows, at[miss] + _WINDOW,
            n if np.ndim(n) == 0 else n[miss],
            shift if np.ndim(shift) == 0 else shift[miss],
        )
    return value, after


def _windows(words: np.ndarray) -> np.ndarray:
    """Overlapping ``_WINDOW``-word records, one starting at every word.

    A void dtype makes each window one fixed-size item, so gathering windows
    copies whole records instead of iterating their words.
    """
    return np.ndarray(
        (len(words) - _WINDOW + 1,), dtype=np.dtype((np.void, 4 * _WINDOW)),
        buffer=words, strides=(4,),
    )


def _bits_shift(n: np.ndarray) -> np.ndarray:
    """``32 - k`` for ``k = n.bit_length()``: ``getrandbits(k)`` is ``w >> shift``."""
    return np.array([32 - int(v).bit_length() for v in n], dtype=np.int64)


class _Layout:
    """Region tables shared by every pattern's step loop."""

    def __init__(self, regions: dict[str, list[str]]):
        self.region_names = tuple(regions)
        self.module_names = tuple(tuple(regions[r]) for r in self.region_names)
        index = {name: i for i, name in enumerate(self.region_names)}
        #: the oracle draws over *sorted* names; the arrays use map order
        self.order = np.array([index[name] for name in sorted(index)], dtype=np.int64)
        self.n_regions = len(self.region_names)
        self.region_shift = 32 - self.n_regions.bit_length()
        self.n_modules = np.array([len(m) for m in self.module_names], dtype=np.int64)
        self.module_shift = _bits_shift(self.n_modules)[:, None]
        self.n_modules_col = self.n_modules[:, None]
        others = np.maximum(self.n_modules - 1, 1)
        self.others_col = others[:, None]
        self.others_shift = _bits_shift(others)[:, None]


# Each pattern replays its reference loop for every board at once.  ``at``
# holds each board's next word position in ``words``; positions are clamped
# to ``limit`` (the end of the board's buffer) after every step, so a board
# that outruns its buffer reads only its own or padding words and is
# detected afterwards by ``at >= limit``.  Returns ``(gaps, regions,
# modules, at)`` with ``(steps, boards)`` arrays.


def _poisson(words, windows, at, limit, steps, layout, mean_gap_ns):
    n_boards = len(at)
    cursor = np.zeros(n_boards * layout.n_regions, dtype=np.int64)
    cursor_base = np.arange(n_boards) * layout.n_regions
    burst_left = np.zeros(n_boards, dtype=np.int64)
    gap_at = np.empty((steps, n_boards), dtype=np.int64)
    in_burst = np.empty((steps, n_boards), dtype=bool)
    regions = np.empty((steps, n_boards), dtype=np.int64)
    modules = np.empty((steps, n_boards), dtype=np.int64)
    for step in range(steps):
        burst = np.greater(burst_left, 0, out=in_burst[step])
        gap_at[step] = at
        at = at + 2
        burst_left -= burst
        calm = np.flatnonzero(~burst)
        calm_at = at[calm]
        starts = _uniform_below(words, calm_at, _BURST_START)
        at[calm] = calm_at + 2
        if starts.any():
            starters = calm[starts]
            length, at[starters] = _below(windows, at[starters], 6, 29)
            burst_left[starters] = length + 3
        drawn, at = _below(windows, at, layout.n_regions, layout.region_shift)
        region = layout.order[drawn]
        slot = cursor_base + region
        follow = _uniform_below(words, at, _CYCLE_FOLLOW)
        at += 2
        module = cursor[slot] + 1
        module %= layout.n_modules[region]
        jump = np.flatnonzero(~follow)
        if len(jump):
            jumped = region[jump]
            module[jump], at[jump] = _below(
                windows, at[jump],
                layout.n_modules_col[jumped], layout.module_shift[jumped],
            )
        cursor[slot] = module
        regions[step] = region
        modules[step] = module
        np.minimum(at, limit, out=at)
    x = _exponential(words, gap_at) * float(mean_gap_ns)
    np.divide(x, 10, out=x, where=in_burst)

    def exact(step: int, u: float, board: int) -> float:
        e = -math.log(1.0 - u)
        if in_burst[step, board]:
            return e * mean_gap_ns / 10
        return e * mean_gap_ns

    return _gaps(x, words, gap_at, exact), regions, modules, at


def _diurnal(words, windows, at, limit, steps, layout, mean_gap_ns):
    n_boards = len(at)
    cursor = np.zeros(n_boards * layout.n_regions, dtype=np.int64)
    cursor_base = np.arange(n_boards) * layout.n_regions
    period = max(2, steps // 2)
    phase = _uniform(words, at) * 2 * math.pi
    at = at + 2
    gap_at = np.empty((steps, n_boards), dtype=np.int64)
    regions = np.empty((steps, n_boards), dtype=np.int64)
    modules = np.empty((steps, n_boards), dtype=np.int64)
    for step in range(steps):
        gap_at[step] = at
        drawn, at = _below(windows, at + 2, layout.n_regions, layout.region_shift)
        region = layout.order[drawn]
        slot = cursor_base + region
        module = cursor[slot] + 1
        module %= layout.n_modules[region]
        cursor[slot] = module
        regions[step] = region
        modules[step] = module
        np.minimum(at, limit, out=at)
    angle = _TWO_PI * np.arange(steps, dtype=np.float64) / period
    swing = 1.0 + 0.6 * np.sin(angle[:, None] + phase)
    x = _exponential(words, gap_at) * float(mean_gap_ns) * swing

    def exact(step: int, u: float, board: int) -> float:
        swing = 1.0 + 0.6 * math.sin(2 * math.pi * step / period + float(phase[board]))
        return -math.log(1.0 - u) * mean_gap_ns * swing

    return _gaps(x, words, gap_at, exact), regions, modules, at


def _thrash(words, windows, at, limit, steps, layout, mean_gap_ns):
    n_boards = len(at)
    current = np.zeros(n_boards * layout.n_regions, dtype=np.int64)
    current_base = np.arange(n_boards) * layout.n_regions
    single = layout.n_modules == 1
    gap_at = np.empty((steps, n_boards), dtype=np.int64)
    regions = np.empty((steps, n_boards), dtype=np.int64)
    modules = np.empty((steps, n_boards), dtype=np.int64)
    for step in range(steps):
        gap_at[step] = at
        drawn, at = _below(windows, at + 2, layout.n_regions, layout.region_shift)
        region = layout.order[drawn]
        slot = current_base + region
        module = current[slot]
        # one-module regions draw nothing and never switch
        swap = np.flatnonzero(~single[region]) if single.any() else slice(None)
        swapped = region[swap]
        hop, at[swap] = _below(
            windows, at[swap],
            layout.others_col[swapped], layout.others_shift[swapped],
        )
        module[swap] = (module[swap] + hop + 1) % layout.n_modules[swapped]
        current[slot] = module
        regions[step] = region
        modules[step] = module
        np.minimum(at, limit, out=at)
    x = _exponential(words, gap_at) * float(mean_gap_ns)

    def exact(step: int, u: float, board: int) -> float:
        return -math.log(1.0 - u) * mean_gap_ns

    return _gaps(x, words, gap_at, exact), regions, modules, at


def _uniform(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``random()`` read from the two words at each position of ``at``."""
    u = (words[at] >> 5).astype(np.float64)
    u *= _TWO_26
    u += words[at + 1] >> 6
    u *= _TWO_NEG_53
    return u


def _exponential(words: np.ndarray, at: np.ndarray) -> np.ndarray:
    """``expovariate(1.0)`` at each position: ``-log(1 - random())``."""
    x = _uniform(words, at)
    np.subtract(1.0, x, out=x)
    np.log(x, out=x)
    np.negative(x, out=x)
    return x


def _gaps(x: np.ndarray, words: np.ndarray, gap_at: np.ndarray, exact) -> np.ndarray:
    """``1 + int(x)``, recomputing ``x`` near a positive integer with :mod:`math`.

    ``x >= 0`` always, so values below one truncate to 0 however numpy rounds.
    """
    nearest = np.rint(x)
    near = (nearest > 0) & (np.abs(x - nearest) <= 1e-9 * nearest)
    for step, board in zip(*np.nonzero(near)):
        u = float(_uniform(words, gap_at[step, board:board + 1])[0])
        x[step, board] = exact(int(step), u, int(board))
    gaps = x.astype(np.int64)
    gaps += 1
    return gaps


_PATTERNS = {"poisson": _poisson, "diurnal": _diurnal, "thrash": _thrash}


def _draw(rngs: Sequence[random.Random], n_words: int, prefix: np.ndarray) -> np.ndarray:
    """Each rng's next words after ``prefix``, rows laid end to end, zero-padded."""
    words = np.zeros(len(rngs) * n_words + _PAD, dtype=np.uint32)
    rows = words[: len(rngs) * n_words].reshape(len(rngs), n_words)
    drawn = prefix.shape[1]
    rows[:, :drawn] = prefix
    fresh = n_words - drawn
    for row, rng in zip(rows, rngs):
        row[drawn:] = np.frombuffer(
            rng.getrandbits(32 * fresh).to_bytes(4 * fresh, "little"), dtype="<u4"
        )
    return words


def _replay(pattern, rngs, layout, steps, mean_gap_ns, n_words, prefix):
    """``(gaps, regions, modules)`` as ``(steps, boards)`` arrays.

    A board whose draws run past its buffer is replayed on a buffer twice
    as long, drawn by continuing its rng after the words already read, so
    its stream is never truncated.
    """
    n_boards = len(rngs)
    words = _draw(rngs, n_words, prefix)
    start = np.arange(n_boards, dtype=np.int64) * n_words
    gaps, regions, modules, end = _PATTERNS[pattern](
        words, _windows(words), start.copy(),
        start + n_words, steps, layout, mean_gap_ns,
    )
    overrun = np.flatnonzero(end >= start + n_words)
    if len(overrun):
        prefix = words[: n_boards * n_words].reshape(n_boards, n_words)[overrun]
        del words
        redo = _replay(
            pattern, [rngs[i] for i in overrun], layout, steps, mean_gap_ns,
            2 * n_words, prefix,
        )
        for whole, part in zip((gaps, regions, modules), redo):
            whole[:, overrun] = part
    return gaps, regions, modules


def generate_traffic(
    pattern: str,
    rngs: Sequence[random.Random],
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int = 200_000,
) -> FleetTraffic:
    """One board per rng, each drawing ``n_requests`` requests of ``pattern``.

    Board ``b``'s stream equals the scalar reference loop run on
    ``rngs[b]``.  Each rng is advanced by a whole word buffer (more than
    the draws need), not draw by draw.
    """
    if pattern not in _PATTERNS:
        known = ", ".join(TRAFFIC_PATTERNS)
        raise ValueError(f"unknown traffic pattern {pattern!r}; known: {known}")
    if n_requests < 0:
        raise ValueError("n_requests must be >= 0")
    if not regions or any(not mods for mods in regions.values()):
        raise ValueError("every region needs at least one module")
    layout = _Layout(regions)
    n_words = int(_WORDS_PER_REQUEST * n_requests) + _SLACK_WORDS
    gaps, region_idx, module_idx = _replay(
        pattern, list(rngs), layout, n_requests, mean_gap_ns, n_words,
        np.empty((len(rngs), 0), dtype=np.uint32),
    )
    # stored (steps, boards) so a fleet step is one contiguous row, and
    # read-only because one traffic object serves every policy of a frontier
    for array in (gaps, region_idx, module_idx):
        array.setflags(write=False)
    return FleetTraffic(
        gaps=gaps.T,
        regions=region_idx.T,
        modules=module_idx.T,
        region_names=layout.region_names,
        module_names=layout.module_names,
    )


def generate_schedule(
    pattern: str,
    rng: random.Random,
    regions: dict[str, list[str]],
    n_requests: int,
    mean_gap_ns: int = 200_000,
) -> list[tuple[int, str, str]]:
    """One board's schedule ``[(gap_ns, region, module), ...]``.

    A one-board :func:`generate_traffic`: it consumes a whole word buffer
    from ``rng``, so ``rng`` ends further along than a draw-by-draw
    generator would leave it.
    """
    return generate_traffic(pattern, [rng], regions, n_requests, mean_gap_ns).schedule(0)


def future_from_schedule(schedule: Sequence[tuple[int, str, str]]) -> dict[str, list[str]]:
    """Per-region demand sequence, as :class:`BeladyEviction` expects it."""
    future: dict[str, list[str]] = {}
    for _gap, region, module in schedule:
        future.setdefault(region, []).append(module)
    return future
