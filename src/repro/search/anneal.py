"""Seeded search drivers: simulated annealing plus two baselines.

All three drivers walk the joint partition/schedule/floorplan space through
the same :class:`~repro.search.space.SearchSpace` move generator and the
same memoizing :class:`~repro.search.objective.CostEvaluator`, so their
results are directly comparable:

- :func:`anneal` — Metropolis acceptance under a geometric cooling
  schedule, with random restarts drawing fresh starting points;
- :func:`greedy` — first-improvement hill climbing with a patience
  counter (restarts make it the classic random-restart baseline);
- :func:`random_search` — independent uniform samples (the sanity floor).

Every driver draws *all* randomness from one
:class:`numpy.random.SeedSequence` rooted at ``config.seed``, with one
spawned child per restart — the same idiom
:func:`repro.mccdma.engine.frame_seed_sequences` uses — so equal seeds
reproduce identical trajectories bit-for-bit, which
:meth:`SearchResult.digest` asserts across processes.  Progress emits
``repro.obs`` spans (``search:<method>`` / ``search:restart``) and
counters, and every improvement lands on the best-so-far trajectory.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.obs import get_tracer
from repro.obs.telemetry import get_telemetry
from repro.search.objective import CostBreakdown, CostEvaluator
from repro.search.space import SearchSpace, SearchState

__all__ = [
    "SearchConfig",
    "SearchResult",
    "anneal",
    "greedy",
    "random_search",
    "run_search",
    "SEARCH_METHODS",
]


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by every driver (annealing-specific ones are ignored
    by the baselines, so one config sweeps all methods fairly)."""

    #: Total evaluation budget across all restarts.
    budget: int = 400
    #: Root seed of the run's :class:`numpy.random.SeedSequence`.
    seed: int = 0
    #: Independent restarts; each gets a spawned child sequence.
    restarts: int = 2
    #: Global index of this config's *first* restart.  Restart ``i`` of a
    #: run always draws from ``SeedSequence(seed, spawn_key=(offset + i,))``
    #: — identical to child ``offset + i`` of a sequential run rooted at the
    #: same seed — so :func:`repro.search.parallel.run_search_sharded` can
    #: farm restarts out as ``restarts=1`` shards that reproduce the exact
    #: per-restart trajectories of an unsharded run.
    restart_offset: int = 0
    #: Starting temperature in cost units (ns); ``None`` auto-scales to a
    #: fraction of the initial state's cost.
    initial_temperature: Optional[float] = None
    #: Geometric cooling factor per iteration.
    cooling: float = 0.97
    #: Floor temperature — keeps ``exp`` arguments finite late in the run.
    min_temperature: float = 1.0
    #: Greedy only: consecutive non-improving moves before giving up a restart.
    patience: int = 40

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0.0 < self.cooling < 1.0:
            raise ValueError("cooling must be in (0, 1)")
        if self.restart_offset < 0:
            raise ValueError("restart_offset must be >= 0")


@dataclass
class SearchResult:
    """Outcome of one driver run (trajectory included for plotting/digests)."""

    method: str
    best_state: SearchState
    best_cost: CostBreakdown
    #: ``(evaluation_index, best_total_ns)`` at every improvement.
    trajectory: list[tuple[int, float]] = field(default_factory=list)
    evaluations: int = 0
    accepted: int = 0
    improved: int = 0
    seed: int = 0
    restarts: int = 1

    def digest(self) -> str:
        """Content hash of the run — equal seeds must produce equal digests."""
        payload = json.dumps(
            {
                "method": self.method,
                "seed": self.seed,
                "restarts": self.restarts,
                "best": self.best_state.key(),
                "total_ns": self.best_cost.total_ns,
                "trajectory": self.trajectory,
                "evaluations": self.evaluations,
                "accepted": self.accepted,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "seed": self.seed,
            "restarts": self.restarts,
            "evaluations": self.evaluations,
            "accepted": self.accepted,
            "improved": self.improved,
            "best_state": self.best_state.key(),
            "best": self.best_cost.to_dict(),
            "trajectory": self.trajectory,
            "digest": self.digest(),
        }

    def summary(self) -> str:
        cost = self.best_cost
        feasibility = "feasible" if cost.feasible else f"{len(cost.violations)} violation(s)"
        return (
            f"{self.method}: best {cost.total_ns / 1e3:.1f} us over {self.evaluations} "
            f"evaluation(s) ({cost.n_regions} region(s), {feasibility}; digest {self.digest()})"
        )


def _restart_rngs(config: SearchConfig) -> list[np.random.Generator]:
    """One child generator per restart from a single rooted sequence.

    ``SeedSequence(seed, spawn_key=(i,))`` is exactly child ``i`` of
    ``SeedSequence(seed).spawn(...)``, so addressing children explicitly
    through ``restart_offset`` gives a sharded run (each shard covering a
    slice of the global restart range) bit-identical per-restart streams.
    """
    return [
        np.random.default_rng(
            np.random.SeedSequence(config.seed, spawn_key=(config.restart_offset + i,))
        )
        for i in range(config.restarts)
    ]


class _Run:
    """Shared bookkeeping: budget, best-so-far, trajectory, obs counters.

    When an ambient telemetry hub is installed, the run also streams
    windowed series over the *evaluation index* axis (the ``search``
    domain): ``search.evaluations`` / ``search.accepted`` /
    ``search.improved`` counters and a ``search.cost_ns`` sketch of
    candidate costs — acceptance and improvement *rates per evaluation
    window* are then ratio SLOs, and a stalled search (acceptance collapse
    under a cold temperature) is visible as the series flatlining rather
    than as a single end-of-run total.
    """

    def __init__(self, method: str, evaluator: CostEvaluator, config: SearchConfig):
        self.method = method
        self.evaluator = evaluator
        self.config = config
        self.evaluations = 0
        self.accepted = 0
        self.improved = 0
        self.trajectory: list[tuple[int, float]] = []
        self.best_state: Optional[SearchState] = None
        self.best_cost: Optional[CostBreakdown] = None
        hub = get_telemetry()
        self._tstore = hub.store("search") if hub is not None else None

    @property
    def exhausted(self) -> bool:
        return self.evaluations >= self.config.budget

    def evaluate(self, state: SearchState) -> CostBreakdown:
        cost = self.evaluator.evaluate(state)
        self.evaluations += 1
        improved = self.best_cost is None or cost.total_ns < self.best_cost.total_ns
        if improved:
            self.best_state, self.best_cost = state, cost
            self.improved += 1
            self.trajectory.append((self.evaluations, cost.total_ns))
        if self._tstore is not None:
            t = self.evaluations
            self._tstore.counter_add("search.evaluations", t, 1, method=self.method)
            self._tstore.observe("search.cost_ns", t, cost.total_ns, method=self.method)
            if improved:
                self._tstore.counter_add("search.improved", t, 1, method=self.method)
        return cost

    def accept(self) -> None:
        """One accepted move (the telemetry-aware ``accepted += 1``)."""
        self.accepted += 1
        if self._tstore is not None:
            self._tstore.counter_add(
                "search.accepted", self.evaluations, 1, method=self.method
            )

    def result(self) -> SearchResult:
        assert self.best_state is not None and self.best_cost is not None
        return SearchResult(
            method=self.method,
            best_state=self.best_state,
            best_cost=self.best_cost,
            trajectory=self.trajectory,
            evaluations=self.evaluations,
            accepted=self.accepted,
            improved=self.improved,
            seed=self.config.seed,
            restarts=self.config.restarts,
        )


def _start_state(
    space: SearchSpace, restart: int, rng: np.random.Generator
) -> SearchState:
    """*Global* restart 0 starts from the deterministic fixed-sweep point;
    later restarts scatter uniformly so the search escapes that basin.
    ``restart`` is the global index (``config.restart_offset`` included),
    so exactly one shard of a sharded run anchors to the frontier."""
    return space.initial_state() if restart == 0 else space.random_state(rng)


def anneal(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Simulated annealing with Metropolis acceptance and restarts."""
    run = _Run("anneal", evaluator, config)
    tracer = get_tracer()
    with tracer.span("search:anneal", attributes={"seed": config.seed, "budget": config.budget}):
        for restart, rng in enumerate(_restart_rngs(config)):
            # Budget is sliced across restarts (the last slice absorbs
            # rounding) so every spawned child actually walks.
            limit = config.budget * (restart + 1) // config.restarts
            if run.evaluations >= limit:
                continue
            global_restart = config.restart_offset + restart
            with tracer.span("search:restart", attributes={"restart": global_restart}):
                current = _start_state(space, global_restart, rng)
                current_cost = run.evaluate(current)
                temperature = config.initial_temperature
                if temperature is None:
                    temperature = max(config.min_temperature, 0.05 * current_cost.total_ns)
                while run.evaluations < limit:
                    candidate = space.neighbor(current, rng)
                    if candidate == current:
                        break  # move generator is stuck; spend budget elsewhere
                    cost = run.evaluate(candidate)
                    delta = cost.total_ns - current_cost.total_ns
                    if delta <= 0 or rng.random() < math.exp(
                        -delta / max(temperature, config.min_temperature)
                    ):
                        current, current_cost = candidate, cost
                        run.accept()
                    temperature = max(config.min_temperature, temperature * config.cooling)
    return run.result()


def greedy(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Random-restart first-improvement hill climbing."""
    run = _Run("greedy", evaluator, config)
    tracer = get_tracer()
    with tracer.span("search:greedy", attributes={"seed": config.seed, "budget": config.budget}):
        for restart, rng in enumerate(_restart_rngs(config)):
            limit = config.budget * (restart + 1) // config.restarts
            if run.evaluations >= limit:
                continue
            global_restart = config.restart_offset + restart
            with tracer.span("search:restart", attributes={"restart": global_restart}):
                current = _start_state(space, global_restart, rng)
                current_cost = run.evaluate(current)
                stale = 0
                while run.evaluations < limit and stale < config.patience:
                    candidate = space.neighbor(current, rng)
                    if candidate == current:
                        break
                    cost = run.evaluate(candidate)
                    if cost.total_ns < current_cost.total_ns:
                        current, current_cost = candidate, cost
                        run.accept()
                        stale = 0
                    else:
                        stale += 1
    return run.result()


def random_search(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
) -> SearchResult:
    """Independent uniform samples — the floor every driver must beat."""
    run = _Run("random", evaluator, config)
    tracer = get_tracer()
    with tracer.span("search:random", attributes={"seed": config.seed, "budget": config.budget}):
        rngs = _restart_rngs(config)
        run.evaluate(space.initial_state())
        index = 0
        while not run.exhausted:
            rng = rngs[index % len(rngs)]
            index += 1
            run.evaluate(space.random_state(rng))
    return run.result()


SEARCH_METHODS: dict[str, Callable[[SearchSpace, CostEvaluator, SearchConfig], SearchResult]] = {
    "anneal": anneal,
    "greedy": greedy,
    "random": random_search,
}


def run_search(
    space: SearchSpace,
    evaluator: CostEvaluator,
    config: SearchConfig = SearchConfig(),
    method: str = "anneal",
) -> SearchResult:
    """Dispatch to a driver by name (``anneal`` / ``greedy`` / ``random``)."""
    try:
        driver = SEARCH_METHODS[method]
    except KeyError:
        raise ValueError(
            f"unknown search method {method!r}; expected one of {sorted(SEARCH_METHODS)}"
        ) from None
    return driver(space, evaluator, config)
