"""The batched fleet engine: array-state request simulation without a heap.

Fleet boards interact only through the shared calendar's event ordering —
each board owns its store, builder and manager, so per-board outcomes are a
pure function of ``(schedule, policy, architecture)``.  That independence
means fleet results need no global event heap at all: this module replays
the same :class:`~repro.runtime.traffic.FleetTraffic` against the same
management semantics as the kernel path, but advances state per *request
step* instead of per *event*.

Two execution strategies, picked per policy bundle by :func:`vector_mode`:

- **Vectorized cores** hold the whole fleet's manager state as numpy arrays
  (active module per ``(board, region)``, resident sets as boolean cubes,
  recency/frequency/insertion/next-use tables, successor counts) and
  advance all boards one request step at a time.  Closed forms exist
  wherever the request stream is sequential per board:

  * ``noprefetch`` (``none``/``lru``/``lfu``/``belady`` and any
    ``region_slots``): demands never overlap loads, so a step is hit /
    resident-hit / miss with ``stall = latency + transfer`` on a miss, plus
    masked insert/evict updates on the resident cube.  Belady's
    clairvoyance is a next-use table built in one vectorized pass before
    the step loop.
  * ``onselect`` (``fixed``/``on_select`` at one slot): the announcement
    starts a speculative load at the previous completion time ``t_sel``;
    with ``spec_end = t_sel + latency + transfer`` the demand at ``t_req``
    either joins/queues behind the flight (``t_req <= spec_end``: completion
    at ``spec_end``, a useful prefetch, no hit counters) or finds it done
    (``t_req > spec_end``: instant hit + useful prefetch).  Both cases were
    derived from — and are property-tested against — the kernel's cascade
    ordering, including the exact-tie ``t_req == spec_end`` join.
  * ``idle`` (``history``/``confidence``/``markov`` at one slot): the
    predictor's successor counts are per-board integer tables, each region
    holds at most one in-flight speculative load, and port grants are
    reserved eagerly because loads reach the port in the order they
    start.  A step resolves the demand as an instant hit, a join of the
    in-flight speculation, a demand load or a demand behind it, then
    speculates (see :func:`_vector_idle`).  Equal-time events the closed
    form does not order flag the board, and flagged boards are replayed on
    the scalar micro-simulator — the core's one escape hatch.

- **The scalar micro-simulator** (:class:`_BoardSim`) covers prefetch with
  multi-slot overrides and the boards the ``idle`` core flags.  It is
  still ~an order of magnitude faster than the kernel: one tiny per-board
  heap of plain tuples replaces generator processes, mailboxes and resource
  locks, while the *decision* objects (prefetch policy, eviction policy) are
  the real registry classes, so there is no second implementation of policy
  logic to drift.  Event
  sequence numbers are assigned at the same logical points as the kernel
  assigns its enqueue counters, reproducing every tie-break:

  * a demand resolved in region-process context schedules the next latency
    timeout *before* the driver's gap timeout (equal-time loads win);
  * a demand resolved in driver context (instant/resident hit) schedules
    the gap *before* the post-hit speculation's latency window;
  * at a transfer end the cascade runs bookkeeping -> port hand-off ->
    next queued job -> driver continuation, exactly the kernel's
    urgent-completion / FIFO-grant / mailbox-get / stall-chain order.

Both strategies reproduce the kernel's per-board counters and end times
exactly; ``FleetReport.digest()`` is identical between engines (asserted by
``tests/runtime/test_fast.py`` across policies x traffic x seeds x slots).
Counter rows use the :data:`~repro.reconfig.manager.COUNTER_FIELDS` layout
and are rebuilt through :meth:`ManagerStats.from_counters`, so the array
form and the manager's dataclass can never disagree on field order.

The traffic's shape, region/module vocabulary, gaps and indices are checked
against the config on entry.  Preconditions guaranteed by the fleet driver: size-only
bitstream registration (CRC always verifies), no readback verification, no
upset injection — the failure/retry counters stay zero on both paths.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.reconfig.architectures import ReconfigArchitecture
from repro.reconfig.manager import COUNTER_FIELDS, ManagerStats
from repro.reconfig.prefetch import (
    HistoryPrefetchPolicy,
    MarkovPrefetchPolicy,
    NoPrefetchPolicy,
    OnSelectPrefetchPolicy,
)
from repro.runtime.policies import RuntimePolicy, create_policy, get_bundle
from repro.runtime.traffic import FleetTraffic
from repro.sim import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fleet imports fast)
    from repro.runtime.fleet import FleetConfig

__all__ = ["FastRunStats", "simulate_fast_fleet", "vector_mode"]

_IDX = {name: i for i, name in enumerate(COUNTER_FIELDS)}
_I_DEMAND_REQUESTS = _IDX["demand_requests"]
_I_DEMAND_LOADS = _IDX["demand_loads"]
_I_PREFETCH_LOADS = _IDX["prefetch_loads"]
_I_USEFUL = _IDX["useful_prefetches"]
_I_WASTED = _IDX["wasted_prefetches"]
_I_INSTANT = _IDX["instant_hits"]
_I_RESIDENT = _IDX["resident_hits"]
_I_EVICTIONS = _IDX["evictions"]
_I_STALL = _IDX["stall_ns"]
_N_COUNTERS = len(COUNTER_FIELDS)


@dataclass
class FastRunStats:
    """How the fast engine executed one fleet (the regression-guard hooks)."""

    #: vector core used, or "scalar" when the whole fleet fell back
    mode: str
    #: boards whose outcome a vectorized core produced
    vector_boards: int
    #: boards run on the scalar micro-simulator: the whole fleet without a
    #: core, or the boards the core flagged for replay
    scalar_boards: int
    #: per-step vector updates executed (== requests_per_board when vectorized)
    vector_steps: int

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "vector_boards": self.vector_boards,
            "scalar_boards": self.scalar_boards,
            "vector_steps": self.vector_steps,
        }


def vector_mode(policy: str, region_slots: Optional[int] = None) -> Optional[str]:
    """The vector core handling ``policy`` at ``region_slots``, or None.

    Three strategies: every eviction-only bundle, ``belady`` included, has
    a ``noprefetch-*`` core (at one slot eviction is unobservable and they
    all share the plain sequential one); announcement prefetch at one slot
    has ``onselect``; the idle-time speculators at one slot have ``idle``.
    None means prefetch with a multi-slot override, whose boards run
    through the scalar micro-simulator.  The class checks are exact
    (``type is``): a subclassed policy may override behaviour the closed
    forms assume, so it falls back safely.
    """
    bundle = get_bundle(policy)
    slots = region_slots if region_slots is not None else bundle.region_slots
    prefetch_type = type(bundle.prefetch_factory())
    if prefetch_type is NoPrefetchPolicy and bundle.eviction_name in (None, "lru", "lfu", "belady"):
        if slots == 1 or bundle.eviction_name is None:
            kind = "fifo" if slots > 1 else "single"
        else:
            kind = bundle.eviction_name
        return f"noprefetch-{kind}"
    if bundle.eviction_name is not None or slots != 1:
        return None
    if prefetch_type is OnSelectPrefetchPolicy:
        return "onselect"
    if prefetch_type is HistoryPrefetchPolicy or prefetch_type is MarkovPrefetchPolicy:
        return "idle"
    return None


# ---------------------------------------------------------------------------
# shared setup helpers
# ---------------------------------------------------------------------------


def _load_table(
    config: "FleetConfig",
    arch: ReconfigArchitecture,
    region_map: dict[str, list[str]],
) -> dict[tuple[str, str], int]:
    """Per-(region, module) transfer durations through the real builder."""
    sim = Simulator()
    store = arch.make_store()
    for region, modules in region_map.items():
        for module in modules:
            store.register(region, module, config.bitstream_bytes)
    builder = arch.make_builder(sim, store)
    return {
        (region, module): builder.estimate_for(region, module)
        for region, modules in region_map.items()
        for module in modules
    }


# ---------------------------------------------------------------------------
# vectorized cores
# ---------------------------------------------------------------------------


def _next_use_table(
    regs: np.ndarray, mods: np.ndarray, n_regions: int, n_modules: int
) -> tuple[np.ndarray, np.ndarray]:
    """Belady's clairvoyance as arrays: ``(next_same, first_use)``.

    ``next_same[step, board]`` is the step of the board's next demand for
    the same ``(region, module)`` pair, or ``NEVER = steps`` when there is
    none; ``first_use[board, region, module]`` is each pair's first demand
    (``NEVER`` when it has none).  One stable argsort of the per-board
    ``region * M + module`` keys lines every pair's demands up in step
    order, so each entry's successor is its right neighbour within the
    group.  Steps stand in for :class:`BeladyEviction`'s per-region
    sequence positions: within one region both orders agree, and only
    modules of one region are ever compared.
    """
    n_boards, steps = regs.shape
    keys = regs * n_modules + mods
    order = np.argsort(keys, axis=1, kind="stable")
    sorted_keys = np.take_along_axis(keys, order, axis=1)
    same_pair = sorted_keys[:, 1:] == sorted_keys[:, :-1]
    next_same = np.full((n_boards, steps), steps, dtype=np.int64)
    np.put_along_axis(
        next_same, order[:, :-1], np.where(same_pair, order[:, 1:], steps), axis=1
    )
    first = np.ones((n_boards, steps), dtype=bool)
    first[:, 1:] = ~same_pair
    fb, fpos = np.nonzero(first)
    first_use = np.full((n_boards, n_regions * n_modules), steps, dtype=np.int64)
    first_use[fb, sorted_keys[fb, fpos]] = order[fb, fpos]
    # step-major, so the loop reads one contiguous row per step
    return (
        np.ascontiguousarray(next_same.T),
        first_use.reshape(n_boards, n_regions, n_modules),
    )


def _vector_noprefetch(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    slots: int,
    eviction: Optional[str],
    load_arr: np.ndarray,
    rank_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray]:
    """none / lru / lfu / belady at any ``region_slots``: sequential demands.

    Without prefetch the region is always idle when a demand arrives, so a
    step is: hit (active module), resident hit (shared area), or a blocking
    load of ``latency + transfer``.  Multi-slot inserts may overflow the
    area; the victim is the masked argmin of ``metric * (M+1) + name_rank``
    — reproducing ``min(candidates, key=(metric, name))`` with LRU recency,
    LFU frequency, or FIFO insertion order as the metric.  Belady's metric
    is the step of each module's next demand (:func:`_next_use_table`) and
    its victim the masked *argmax* — ``max(candidates, key=(next_use,
    name))``, so of two never-again modules the larger name goes.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    counters = np.zeros((n_boards, _N_COUNTERS), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    # preload: every region ships its first module (index 0) at power-up
    loaded = np.zeros((n_boards, n_regions), dtype=np.int64)
    bi = np.arange(n_boards)
    multi = slots > 1
    if multi:
        resident = np.zeros((n_boards, n_regions, n_modules), dtype=bool)
        resident[:, :, 0] = True
        if eviction == "lru":
            # the LRU clock ticks once per preload in region-map order
            metric_arr = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
            clock = np.zeros(n_boards, dtype=np.int64)
            for region in range(n_regions):
                clock += 1
                metric_arr[:, region, 0] = clock
        elif eviction == "lfu":
            metric_arr = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
        elif eviction == "belady":
            next_same, metric_arr = _next_use_table(regs, mods, n_regions, n_modules)
        else:  # FIFO: per-board insertion sequence (order within a region)
            metric_arr = np.zeros((n_boards, n_regions, n_modules), dtype=np.int64)
            clock = np.zeros(n_boards, dtype=np.int64)
            for region in range(n_regions):
                clock += 1
                metric_arr[:, region, 0] = clock
    belady = multi and eviction == "belady"
    huge = np.iinfo(np.int64).max
    if recorder is not None:
        # recorded durations include the request latency; the recorder
        # strips it in bulk: each transfer starts at t_req + latency
        recorder.mode = "noprefetch"
        recorder.latency_ns = latency_ns
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gap
        counters[:, _I_DEMAND_REQUESTS] += 1
        if multi and eviction == "lru":
            clock += 1
            metric_arr[bi, region, module] = clock
        elif multi and eviction == "lfu":
            metric_arr[bi, region, module] += 1
        elif belady:
            metric_arr[bi, region, module] = next_same[step]
        active = loaded[bi, region]
        hit = active == module
        if multi:
            res_hit = resident[bi, region, module] & ~hit
        else:
            res_hit = np.zeros(n_boards, dtype=bool)
        miss = ~(hit | res_hit)
        duration = latency_ns + load_arr[region, module]
        stall = np.where(miss, duration, 0)
        counters[:, _I_INSTANT] += hit
        counters[:, _I_RESIDENT] += res_hit
        counters[:, _I_DEMAND_LOADS] += miss
        counters[:, _I_STALL] += stall
        if recorder is not None:
            # every array here already exists for this step, so recording
            # is one tuple append; stalls (duration where miss), hits
            # (~miss) and port occupancy (duration - latency where miss)
            # are derived lazily at the store's first read — counters/t
            # are untouched and digest parity cannot move
            recorder.record_step(t_req, miss, duration)
        t = t_req + stall
        loaded[bi, region] = module
        if multi:
            resident[bi, region, module] = True
            if eviction is None:
                clock = clock + miss
                metric_arr[bi, region, module] = np.where(
                    miss, clock, metric_arr[bi, region, module]
                )
            over = miss & (resident[bi, region].sum(axis=1) > slots)
            if over.any():
                ob, orr, om = bi[over], region[over], module[over]
                candidates = resident[ob, orr].copy()
                candidates[np.arange(len(ob)), om] = False  # keep the new module
                key = metric_arr[ob, orr] * (n_modules + 1) + rank_arr[orr]
                if belady:
                    victim = np.where(candidates, key, -1).argmax(axis=1)
                else:
                    victim = np.where(candidates, key, huge).argmin(axis=1)
                resident[ob, orr, victim] = False
                counters[ob, _I_EVICTIONS] += 1
                if eviction == "lru":
                    # LRU forgets evicted recency (get(..., 0) after pop)
                    metric_arr[ob, orr, victim] = 0
    return counters, t


def _vector_onselect(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    load_arr: np.ndarray,
    latency_ns: int,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray]:
    """fixed / on_select at one slot: announcement-driven speculation.

    The select announcement at ``t_sel`` (the previous completion) starts a
    speculative load unless the module is already active.  The demand a gap
    later joins or queues behind the flight (``t_req <= spec_end``) or finds
    it already swapped in (``t_req > spec_end``).  Either way the prefetch
    is claimed by its own demand, so no prefetch is ever wasted and the
    region returns to idle before the next step.
    """
    n_boards, steps = gaps.shape
    n_regions = load_arr.shape[0]
    counters = np.zeros((n_boards, _N_COUNTERS), dtype=np.int64)
    t = np.zeros(n_boards, dtype=np.int64)
    loaded = np.zeros((n_boards, n_regions), dtype=np.int64)
    bi = np.arange(n_boards)
    if recorder is not None:
        # each speculative transfer starts at t_sel + latency
        recorder.mode = "onselect"
        recorder.latency_ns = latency_ns
    for step in range(steps):
        gap = gaps[:, step]
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gap
        counters[:, _I_DEMAND_REQUESTS] += 1
        same = loaded[bi, region] == module
        load = load_arr[region, module]
        spec_end = t + latency_ns + load
        early = ~same & (t_req <= spec_end)
        late = ~same & ~early
        counters[:, _I_INSTANT] += same | late
        counters[:, _I_USEFUL] += ~same
        counters[:, _I_PREFETCH_LOADS] += ~same
        stall = np.where(early, spec_end - t_req, 0)
        counters[:, _I_STALL] += stall
        if recorder is not None:
            # arrays already exist for this step (see _vector_noprefetch);
            # hits are same | late == ~early, and every ~same step runs
            # one speculative transfer of ``load`` from ``t + latency``
            recorder.record_step(t_req, stall, early, same, load, t)
        t = np.where(early, spec_end, t_req)
        loaded[bi, region] = module
    return counters, t


class _Successors:
    """Per-board successor counts, one ``(rows, M)`` table row per context.

    A cell holds ``count * (M + 1) + name_rank``, so a row's argmax is
    ``max(counts.items(), key=(count, name))`` over the successors seen —
    a count-0 cell (its bare rank) never beats a counted one.
    """

    def __init__(self, rows: int, rank: np.ndarray):
        self.n_modules = len(rank)
        self.stride = self.n_modules + 1
        self.key = np.tile(rank, (rows, 1))
        self.cells = self.key.ravel()
        self.total = np.zeros(rows, dtype=np.int64)

    def add(self, row: np.ndarray, nxt: np.ndarray, valid: np.ndarray) -> None:
        """Count ``row -> nxt`` where ``valid`` (rows are disjoint per board)."""
        self.cells[row * self.n_modules + nxt] += valid * self.stride
        self.total[row] += valid

    def predict(self, row: np.ndarray, min_confidence: float) -> tuple[np.ndarray, np.ndarray]:
        """``(successor, confident)``: the best successor of each ``row``,
        and whether it carries at least ``min_confidence`` of the row's
        observations (False on an empty row)."""
        keys = self.key[row]
        count = keys.max(axis=1) // self.stride
        total = np.maximum(self.total[row], 1)
        return keys.argmax(axis=1), ~(count / total < min_confidence)


def _vector_idle(
    gaps: np.ndarray,
    regs: np.ndarray,
    mods: np.ndarray,
    *,
    load_arr: np.ndarray,
    rank_arr: np.ndarray,
    latency_ns: int,
    min_confidence: float,
    second_order: bool,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """history / confidence / markov at one slot: idle-time speculation.

    Per ``(board, region)`` the state is the loaded module, whether it is
    an unclaimed prefetch and at most one in-flight speculative load
    (module, latency end ``a``, transfer end ``e``); per board, the port's
    free time, each region's last demand and the predictor's successor
    tables (:class:`_Successors`, keyed by module index: every region of a
    fleet shares one module vocabulary, as the policy's name-keyed tables
    do).

    Port grants are eager: each load reserves ``max(start + latency,
    port_free)`` when it starts.  Loads start in strictly increasing time
    order (gaps are >= 1, and only the demanded region acts while the
    driver waits), so they reach the FIFO port in that order too.

    A step at ``T = previous completion + gap`` first retires the demanded
    region's speculation if it ended before ``T``; then the demand is an
    instant hit (the loaded module, region idle or its speculation still
    in latency), a join (the speculation is the demanded module and past
    its latency: completes at ``e``), a demand load on an idle region, or
    a demand behind the in-flight speculation (which retires at ``e``; the
    demand completes there if it is the same module, else loads next).
    Every completion but a join then speculates the predicted successor.

    Equal-time events whose kernel order the closed form does not model
    flag the board: the demanded region's latency or transfer ending
    exactly at ``T``.  So does an instant hit in a latency window whose
    speculation would queue behind the flight, unless it names the
    flight's own module: that job is a no-op, and any later speculation in
    the same window waits behind it (the core does not track it, so such a
    board is flagged too, never mis-simulated).

    Returns the counter matrix, the per-board end times (the last event:
    the final completion or a later speculative transfer end) and the flag
    mask; the caller replays flagged boards on :class:`_BoardSim`.
    """
    n_boards, steps = gaps.shape
    n_regions, n_modules = load_arr.shape
    # counter-major, so each per-step update writes one contiguous row
    counters = np.zeros((_N_COUNTERS, n_boards), dtype=np.int64)
    flagged = np.zeros(n_boards, dtype=bool)
    t = np.zeros(n_boards, dtype=np.int64)
    port_free = np.zeros(n_boards, dtype=np.int64)
    base = np.arange(n_boards, dtype=np.int64)
    region_base = base * n_regions
    module_base = base * n_modules
    cells = n_boards * n_regions
    # per (board, region); every region starts with module 0 loaded
    loaded = np.zeros(cells, dtype=np.int64)
    unclaimed = np.zeros(cells, dtype=bool)
    spec_module = np.full(cells, -1, dtype=np.int64)
    spec_a = np.zeros(cells, dtype=np.int64)
    spec_e = np.zeros(cells, dtype=np.int64)
    last_demand = np.full(cells, -1, dtype=np.int64)
    load_flat = load_arr.ravel()
    first = _Successors(n_boards * n_modules, rank_arr[0])
    if second_order:
        second = _Successors(n_boards * n_modules * n_modules, rank_arr[0])
        # the policy's board-wide last (before, current) pair; -1 = None
        pair_before = np.zeros(n_boards, dtype=np.int64)
        pair_current = np.full(n_boards, -1, dtype=np.int64)
    if recorder is not None:
        recorder.mode = "idle"
    for step in range(steps):
        region = regs[:, step]
        module = mods[:, step]
        t_req = t + gaps[:, step]
        cell = region_base + region
        # observe the demand, then predict its successor (the speculation
        # follows this demand's completion; no other demand comes between)
        prev = last_demand[cell]
        last_demand[cell] = module
        seen = prev >= 0
        prev = np.where(seen, prev, 0)
        first.add(module_base + prev, module, seen)
        pred, confident = first.predict(module_base + module, min_confidence)
        if second_order:
            # the pair (before, prev) learns when it chains onto this demand
            chained = seen & (pair_current == prev)
            before = np.where(chained, pair_before, 0)
            second.add((module_base + before) * n_modules + prev, module, chained)
            pair_before = prev
            pair_current = np.where(seen, module, -1)
            # the pair context (prev, module) first, the single module next
            pred2, confident2 = second.predict(
                (module_base + pair_before) * n_modules + module, min_confidence
            )
            use2 = seen & confident2
            pred = np.where(use2, pred2, pred)
            confident |= use2
        # the demanded region's state; retire a speculation that ended
        # before the demand (a prefetch load; the module turns unclaimed)
        loaded_r = loaded[cell]
        was_unclaimed = unclaimed[cell]
        spec = spec_module[cell]
        a = spec_a[cell]
        e = spec_e[cell]
        has = spec >= 0
        flagged |= has & ((e == t_req) | (a == t_req))
        retired = has & (e < t_req)
        loaded_r = np.where(retired, spec, loaded_r)
        unclaimed_r = was_unclaimed | retired
        flying = has & ~retired
        past = flying & (a < t_req)
        hit = (loaded_r == module) & ~past
        join = past & (spec == module)
        behind = flying & ~hit & ~join
        same = behind & (spec == module)
        behind_other = behind & ~same
        demand_load = ~(hit | join | same)
        # the demand's load starts now, or after the speculation ahead of it
        grant = np.maximum(np.where(behind_other, e, t_req) + latency_ns, port_free)
        load = load_flat[region * n_modules + module]
        load_end = grant + load
        port_free = np.where(demand_load, load_end, port_free)
        done = np.where(hit, t_req, np.where(demand_load, load_end, e))
        counters[_I_INSTANT] += hit
        counters[_I_DEMAND_LOADS] += demand_load
        counters[_I_PREFETCH_LOADS] += retired
        counters[_I_PREFETCH_LOADS] += join | behind
        counters[_I_USEFUL] += hit & unclaimed_r
        counters[_I_USEFUL] += join | same
        # every transfer end into the region wastes a still-unclaimed module
        counters[_I_WASTED] += retired & was_unclaimed
        counters[_I_WASTED] += (demand_load | same) & unclaimed_r
        counters[_I_WASTED] += behind_other
        loaded[cell] = module
        unclaimed[cell] = False
        # speculate after the completion (not after a join); an instant
        # hit inside a latency window can only queue behind the flight
        waiting = hit & flying
        wanted = confident & (pred != module)
        start = wanted & ~join & ~waiting
        flagged |= waiting & wanted & (pred != spec)
        spec_start = done + latency_ns
        spec_grant = np.maximum(spec_start, port_free)
        spec_load = load_flat[region * n_modules + pred]
        spec_end = spec_grant + spec_load
        port_free = np.where(start, spec_end, port_free)
        spec_module[cell] = np.where(start, pred, np.where(waiting, spec, -1))
        spec_a[cell] = np.where(start, spec_start, a)
        spec_e[cell] = np.where(start, spec_end, e)
        if recorder is not None:
            recorder.record_step(
                t_req, done - t_req, hit,
                grant, np.where(demand_load, load, 0),
                spec_grant, np.where(start, spec_load, 0),
            )
        t = done
    counters[_I_DEMAND_REQUESTS] = steps
    # each stall is its completion less its request time, and each request
    # comes a gap after the previous completion: the stalls telescope
    counters[_I_STALL] = t - gaps.sum(axis=1)
    # loads still in flight complete after the last demand
    flying = (spec_module >= 0).reshape(n_boards, n_regions)
    counters[_I_PREFETCH_LOADS] += flying.sum(axis=1)
    counters[_I_WASTED] += (flying & unclaimed.reshape(n_boards, n_regions)).sum(axis=1)
    return counters.T, np.maximum(t, port_free), flagged


# ---------------------------------------------------------------------------
# scalar micro-simulator (the exact fallback for speculative policies)
# ---------------------------------------------------------------------------

_IDLE, _LATENCY, _PORT_WAIT, _XFER = range(4)
_EV_DRIVER, _EV_WAKE, _EV_LAT, _EV_XFER = range(4)


class _MicroJob:
    __slots__ = ("module", "demand", "cancelled", "called_at", "joined", "handed")

    def __init__(self, module: str, demand: bool):
        self.module = module
        self.demand = demand
        self.cancelled = False
        self.called_at = 0
        self.joined = False
        #: handed straight to a parked region process (kernel mailboxes skip
        #: the queue then, so demand cancel-scans never see this job)
        self.handed = False


class _MicroRegion:
    __slots__ = ("name", "modules", "loaded", "loading", "phase", "job", "items",
                 "unclaimed", "inflight_unclaimed", "last_demand", "resident",
                 "history", "wake_scheduled")

    def __init__(self, name: str, modules: Sequence[str]):
        self.name = name
        self.modules = frozenset(modules)
        self.loaded: Optional[str] = None
        self.loading: Optional[str] = None
        self.phase = _IDLE
        self.job: Optional[_MicroJob] = None
        self.items: deque[_MicroJob] = deque()
        self.unclaimed: Optional[str] = None
        self.inflight_unclaimed = False
        self.last_demand: Optional[str] = None
        self.resident: dict[str, None] = {}
        self.history: list[str] = []
        self.wake_scheduled = False


class _BoardSim:
    """One board, replayed on a tiny (time, seq) heap with exact tie-breaks.

    Decision logic (prefetch prediction, victim selection) runs through the
    *real* policy objects; only the event plumbing is re-implemented.  Seq
    numbers are assigned where the kernel assigns its enqueue counters, so
    equal-time events resolve in the same order (see the module docstring).
    """

    def __init__(
        self,
        schedule: Sequence[tuple[int, str, str]],
        runtime_policy: RuntimePolicy,
        region_map: dict[str, list[str]],
        latency_ns: int,
        load_ns: dict[tuple[str, str], int],
        telemetry: Optional[tuple[list, list]] = None,
    ):
        self.policy = runtime_policy.prefetch
        self.eviction = runtime_policy.eviction
        self.observe = getattr(self.policy, "observe", None)
        self.slots = runtime_policy.region_slots
        self.multi = self.slots > 1
        self.latency_ns = latency_ns
        self.load_ns = load_ns
        self.schedule = schedule
        self.regions: dict[str, _MicroRegion] = {}
        for name, modules in region_map.items():
            region = _MicroRegion(name, modules)
            # preload: the first module ships in the startup bitstream
            region.loaded = modules[0]
            region.history.append(modules[0])
            if self.multi:
                region.resident[modules[0]] = None
                if self.eviction is not None:
                    self.eviction.on_insert(name, modules[0])
            self.regions[name] = region
        self.heap: list[tuple[int, int, int, Optional[_MicroRegion]]] = []
        self.seq = 0
        self.port_holder: Optional[_MicroRegion] = None
        self.port_fifo: deque[_MicroRegion] = deque()
        self.index = 0
        self.counters = [0] * _N_COUNTERS
        self.last = 0
        # telemetry event sinks (shared across the fleet's boards): demand
        # completions as (t_req, stall_ns, hit) and port transfers as
        # (start_ns, duration_ns).  None = telemetry off, zero appends.
        self.tel_demands, self.tel_port = telemetry if telemetry else (None, None)

    # -- event plumbing ----------------------------------------------------

    def _sched(self, when: int, kind: int, region: Optional[_MicroRegion]) -> None:
        heapq.heappush(self.heap, (when, self.seq, kind, region))
        self.seq += 1

    def run(self) -> tuple[list[int], int]:
        self._driver_continue(0)
        heap = self.heap
        while heap:
            now, _seq, kind, region = heapq.heappop(heap)
            self.last = now
            if kind == _EV_DRIVER:
                self._driver_wake(now)
            elif kind == _EV_WAKE:
                self._proc_wake(region, now)
            elif kind == _EV_LAT:
                self._latency_end(region, now)
            else:
                self._transfer_end(region, now)
        return self.counters, self.last

    # -- the request driver (Board._drive) ---------------------------------

    def _driver_continue(self, now: int) -> None:
        while True:
            if self.index >= len(self.schedule):
                return
            gap, region_name, module = self.schedule[self.index]
            region = self.regions[region_name]
            target = self.policy.on_select(region_name, module)
            if (
                target is not None
                and target != region.loaded
                and target != region.loading
                and not (self.multi and target in region.resident)
                and target in region.modules
            ):
                self._post(region, _MicroJob(target, demand=False), now)
            if gap:
                self._sched(now + gap, _EV_DRIVER, None)
                return
            if not self._issue_demand(now):
                return
            self.index += 1

    def _driver_wake(self, now: int) -> None:
        if not self._issue_demand(now):
            return
        self.index += 1
        self._driver_continue(now)

    def _issue_demand(self, now: int) -> bool:
        """ensure_loaded(); True when the demand completed immediately."""
        _, region_name, module = self.schedule[self.index]
        region = self.regions[region_name]
        counters = self.counters
        counters[_I_DEMAND_REQUESTS] += 1
        if self.observe is not None:
            self.observe(region.last_demand, module)
        if self.eviction is not None:
            self.eviction.on_demand(region_name, module)
        region.last_demand = module
        if region.loaded == module and region.loading is None:
            if region.unclaimed == module:
                counters[_I_USEFUL] += 1
                region.unclaimed = None
            counters[_I_INSTANT] += 1
            if self.tel_demands is not None:
                self.tel_demands.append((now, 0, True))
            if not region.items:
                self._speculate(region, now)
            return True
        if self.multi and module in region.resident and region.loading is None:
            if region.unclaimed == module:
                counters[_I_USEFUL] += 1
                region.unclaimed = None
            counters[_I_RESIDENT] += 1
            if self.tel_demands is not None:
                self.tel_demands.append((now, 0, True))
            self._activate(region, module)
            if not region.items:
                self._speculate(region, now)
            return True
        if region.loading == module:
            # join the in-flight load; useful only while still unclaimed
            region.unclaimed = None
            if region.inflight_unclaimed:
                counters[_I_USEFUL] += 1
                region.inflight_unclaimed = False
            assert region.job is not None
            region.job.joined = True
            region.job.called_at = now
            return False
        for pending in region.items:
            if not pending.handed and not pending.demand and pending.module != module:
                pending.cancelled = True
        job = _MicroJob(module, demand=True)
        job.called_at = now
        self._post(region, job, now)
        return False

    # -- the region process (manager._region_proc) -------------------------

    def _post(self, region: _MicroRegion, job: _MicroJob, now: int) -> None:
        if region.phase == _IDLE and not region.wake_scheduled:
            job.handed = True
            region.wake_scheduled = True
            self._sched(now, _EV_WAKE, region)
        region.items.append(job)

    def _proc_wake(self, region: _MicroRegion, now: int) -> None:
        region.wake_scheduled = False
        if region.phase != _IDLE:
            return
        if self._pick(region, now):
            self.index += 1
            self._driver_continue(now)

    def _activate(self, region: _MicroRegion, module: str) -> None:
        region.loaded = module
        region.history.append(module)

    def _speculate(self, region: _MicroRegion, now: int) -> None:
        target = self.policy.on_idle(region.name, region.loaded, region.history)
        if (
            target
            and target not in (region.loaded, region.loading)
            and target in region.modules
        ):
            if self.multi and target in region.resident:
                return
            self._post(region, _MicroJob(target, demand=False), now)

    def _pick(self, region: _MicroRegion, now: int) -> bool:
        """Consume queued jobs until one needs a load; True on demand completion."""
        completed = False
        counters = self.counters
        while region.items:
            job = region.items.popleft()
            if job.cancelled or job.module == region.loaded:
                if job.demand and job.module == region.loaded and region.unclaimed == job.module:
                    counters[_I_USEFUL] += 1
                    region.unclaimed = None
                if job.demand:
                    counters[_I_STALL] += now - job.called_at
                    if self.tel_demands is not None:
                        self.tel_demands.append(
                            (job.called_at, now - job.called_at, False)
                        )
                    completed = True
                    if not region.items:
                        self._speculate(region, now)
                continue
            if self.multi and job.module in region.resident:
                if job.demand:
                    if region.unclaimed == job.module:
                        counters[_I_USEFUL] += 1
                        region.unclaimed = None
                    counters[_I_RESIDENT] += 1
                    self._activate(region, job.module)
                    counters[_I_STALL] += now - job.called_at
                    if self.tel_demands is not None:
                        self.tel_demands.append(
                            (job.called_at, now - job.called_at, True)
                        )
                    completed = True
                    if not region.items:
                        self._speculate(region, now)
                continue
            region.job = job
            region.phase = _LATENCY
            self._sched(now + self.latency_ns, _EV_LAT, region)
            return completed
        region.phase = _IDLE
        return completed

    def _latency_end(self, region: _MicroRegion, now: int) -> None:
        job = region.job
        assert job is not None
        region.loading = job.module
        region.inflight_unclaimed = not job.demand
        if self.port_holder is None:
            self.port_holder = region
            region.phase = _XFER
            self._sched(now + self.load_ns[(region.name, job.module)], _EV_XFER, region)
        else:
            region.phase = _PORT_WAIT
            self.port_fifo.append(region)

    def _transfer_end(self, region: _MicroRegion, now: int) -> None:
        counters = self.counters
        job = region.job
        assert job is not None
        if self.tel_port is not None:
            # the transfer that just released the port, attributed to the
            # window it started in (demand and speculative loads alike)
            duration = self.load_ns[(region.name, job.module)]
            self.tel_port.append((now - duration, duration))
        # 1. the region process's post-load bookkeeping (urgent completion)
        previous = region.loaded
        if not self.multi and region.unclaimed is not None and region.unclaimed == previous:
            counters[_I_WASTED] += 1
            region.unclaimed = None
        region.loaded = job.module
        region.loading = None
        region.history.append(job.module)
        if self.multi:
            region.resident[job.module] = None
            if self.eviction is not None:
                self.eviction.on_insert(region.name, job.module)
            self._evict_overflow(region, keep=job.module)
        if job.demand:
            counters[_I_DEMAND_LOADS] += 1
        else:
            counters[_I_PREFETCH_LOADS] += 1
            if region.inflight_unclaimed:
                region.unclaimed = job.module
        region.inflight_unclaimed = False
        completed = job.demand or job.joined
        if completed:
            counters[_I_STALL] += now - job.called_at
            if self.tel_demands is not None:
                self.tel_demands.append((job.called_at, now - job.called_at, False))
        if job.demand and not region.items:
            self._speculate(region, now)
        # 2. port hand-off: the FIFO head's transfer starts inside this
        #    cascade, before the next queued job or the driver resume
        if self.port_fifo:
            waiter = self.port_fifo.popleft()
            self.port_holder = waiter
            waiter.phase = _XFER
            assert waiter.job is not None
            self._sched(now + self.load_ns[(waiter.name, waiter.job.module)], _EV_XFER, waiter)
        else:
            self.port_holder = None
        # 3. the region process takes its next queued job
        region.job = None
        if self._pick(region, now):
            completed = True
        # 4. the driver's stall chain resumes last
        if completed:
            self.index += 1
            self._driver_continue(now)

    def _evict_overflow(self, region: _MicroRegion, keep: str) -> None:
        while len(region.resident) > self.slots:
            candidates = [m for m in region.resident if m != keep]
            if not candidates:
                return
            if self.eviction is not None:
                victim = self.eviction.choose_victim(region.name, candidates)
                self.eviction.on_evict(region.name, victim)
            else:
                victim = candidates[0]
            del region.resident[victim]
            self.counters[_I_EVICTIONS] += 1
            if region.unclaimed == victim:
                self.counters[_I_WASTED] += 1
                region.unclaimed = None


# ---------------------------------------------------------------------------
# fleet-level entry point
# ---------------------------------------------------------------------------


def _run_vector_core(
    config: "FleetConfig",
    traffic: FleetTraffic,
    arch: ReconfigArchitecture,
    mode: str,
    recorder=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run ``traffic`` through the vector core ``mode``.

    Returns the core's ``(boards, COUNTER_FIELDS)`` counter matrix, the
    per-board end times and the escape mask: boards whose rows the core
    cannot vouch for and the caller must replay on :class:`_BoardSim`
    (only the ``idle`` core ever sets it).
    """
    bundle = get_bundle(config.policy)
    region_map = config.region_map()
    load_ns = _load_table(config, arch, region_map)
    n_modules = max(len(mods) for mods in region_map.values())
    load_arr = np.zeros((len(region_map), n_modules), dtype=np.int64)
    rank_arr = np.zeros((len(region_map), n_modules), dtype=np.int64)
    for r, (name, modules) in enumerate(region_map.items()):
        for i, module in enumerate(modules):
            load_arr[r, i] = load_ns[(name, module)]
        for rank, module in enumerate(sorted(modules)):
            rank_arr[r, modules.index(module)] = rank
    gaps, regs, mods = traffic.gaps, traffic.regions, traffic.modules
    latency_ns = arch.request_latency_ns
    if mode == "idle":
        policy = bundle.prefetch_factory()
        return _vector_idle(
            gaps, regs, mods, load_arr=load_arr, rank_arr=rank_arr,
            latency_ns=latency_ns, min_confidence=policy.min_confidence,
            second_order=type(policy) is MarkovPrefetchPolicy, recorder=recorder,
        )
    if mode == "onselect":
        counters, ends = _vector_onselect(
            gaps, regs, mods, load_arr=load_arr, latency_ns=latency_ns,
            recorder=recorder,
        )
    else:
        slots = config.region_slots if config.region_slots is not None else bundle.region_slots
        counters, ends = _vector_noprefetch(
            gaps, regs, mods,
            slots=slots,
            eviction=bundle.eviction_name,
            load_arr=load_arr,
            rank_arr=rank_arr,
            latency_ns=latency_ns,
            recorder=recorder,
        )
    return counters, ends, np.zeros(len(ends), dtype=bool)


def simulate_fast_fleet(
    config: "FleetConfig",
    traffic: FleetTraffic,
    arch: ReconfigArchitecture,
    recorder=None,
) -> tuple[list[dict], list[int], FastRunStats]:
    """Replay ``traffic`` under ``config``'s policy without the kernel.

    ``traffic`` holds the fleet's untraced boards — all of them, less the
    first ``config.trace_boards`` that the driver runs on the kernel — and
    must match ``config``'s request count and region map and hold valid
    gaps and indices (``ValueError`` otherwise, see
    :meth:`FleetTraffic.check`).  The vector cores read its arrays
    directly; the scalar micro-simulator materializes one board's rows at
    a time, for a whole fleet without a core or for the boards a core
    flagged.

    Returns per-board stats dicts (``ManagerStats.to_dict()`` form, in
    board order), per-board end times (the last event on each board),
    and the engine's execution stats.

    ``recorder`` (a :class:`repro.runtime.fleet.FleetTelemetryRecorder`)
    collects windowed telemetry as per-step array references on the vector
    cores and per-event tuples on the scalar path; flagged boards' vector
    rows are masked out in favour of their replay's.  All aggregation is
    deferred to the recorder's flush, so the simulated outcome is
    bit-identical with or without it.
    """
    region_map = config.region_map()
    untraced = config.n_boards - min(config.trace_boards, config.n_boards)
    traffic.check(region_map, untraced, config.requests_per_board)
    mode = vector_mode(config.policy, config.region_slots)
    n_boards = traffic.n_boards
    vectorized = mode is not None and n_boards > 0
    if vectorized:
        counters, ends, flagged = _run_vector_core(config, traffic, arch, mode, recorder)
        rows = [ManagerStats.from_counters(row).to_dict() for row in counters]
        end_times = [int(e) for e in ends]
        replay = np.flatnonzero(flagged).tolist()
        if replay and recorder is not None:
            recorder.board_mask = ~flagged
    else:
        rows, end_times = [{}] * n_boards, [0] * n_boards
        replay = list(range(n_boards))
    if replay:
        latency_ns = arch.request_latency_ns
        load_ns = _load_table(config, arch, region_map)
        telemetry = (recorder.demands, recorder.port) if recorder is not None else None
        for board in replay:
            runtime_policy = create_policy(config.policy, region_slots=config.region_slots)
            sim = _BoardSim(
                traffic.schedule(board), runtime_policy, region_map, latency_ns, load_ns,
                telemetry=telemetry,
            )
            board_counters, end = sim.run()
            rows[board] = ManagerStats.from_counters(board_counters).to_dict()
            end_times[board] = end
    stats = FastRunStats(
        mode="scalar" if mode is None else f"vector:{mode}",
        vector_boards=n_boards - len(replay),
        scalar_boards=len(replay),
        vector_steps=traffic.steps if vectorized else 0,
    )
    return rows, end_times, stats
