"""Baseline schedulers for the adequation benchmarks.

- :class:`EarliestFinishScheduler` — a myopic dynamic list scheduler in the
  spirit of Noguera & Badia's HW/SW partitioning for dynamically
  reconfigurable architectures (DATE 2001): operations are taken in
  data-flow order and greedily assigned to whichever operator finishes them
  first, with no global pressure metric and no reconfiguration lookahead.
- :class:`RandomMappingScheduler` — a seeded random feasible mapping with
  ASAP scheduling; the sanity floor every heuristic must beat.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.aaa.scheduler import ListSchedulerBase, Placement
from repro.dfg.operations import Operation

__all__ = ["EarliestFinishScheduler", "RandomMappingScheduler"]


class EarliestFinishScheduler(ListSchedulerBase):
    """FIFO candidate order + earliest-finish operator choice (myopic)."""

    def __init__(self, costs: CostModel, constraints: Optional[MappingConstraints] = None):
        super().__init__(costs, constraints)
        self._order = {op.name: i for i, op in enumerate(self._topo)}

    def _select(self, ready: list[Operation]) -> Operation:
        return min(ready, key=lambda op: self._order[op.name])


class RandomMappingScheduler(ListSchedulerBase):
    """Random feasible operator per operation, FIFO order, ASAP placement."""

    def __init__(
        self,
        costs: CostModel,
        constraints: Optional[MappingConstraints] = None,
        seed: int = 0,
    ):
        super().__init__(costs, constraints)
        self._order = {op.name: i for i, op in enumerate(self._topo)}
        self._rng = random.Random(seed)

    def _select(self, ready: list[Operation]) -> Operation:
        return min(ready, key=lambda op: self._order[op.name])

    def _best_placement(self, op: Operation) -> Placement:
        choice = self._rng.choice(sorted(self._candidates(op), key=lambda p: p.name))
        return self._placement_for(op, choice)
