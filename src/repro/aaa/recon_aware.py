"""Reconfiguration-aware adequation — the extension the paper calls for.

The paper's conclusion: "SynDEx's heuristic needs additional developments to
optimize time reconfiguration."  This scheduler is that development: when a
conditioned operation is placed on a dynamic FPGA operator, the module swap
is modelled as a *sequence-dependent setup time* and scheduled explicitly.

Two policies:

- **prefetch** (default): the reconfiguration starts as soon as both the
  condition value is known (selector finished + control-word transfer) and
  the region is free — overlapping the upstream pipeline's computations, so
  most of the ≈4 ms latency is hidden.
- **reactive** (``prefetch=False``): the reconfiguration starts only when the
  operation is otherwise ready to run, exposing the full latency on the
  critical path.  This is what a reconfiguration-blind flow gets at runtime
  and is the baseline in the prefetch benchmarks.
"""

from __future__ import annotations

from typing import Optional

from repro.aaa.costs import CostModel
from repro.aaa.mapping import MappingConstraints
from repro.aaa.schedule import ScheduledReconfig
from repro.aaa.scheduler import SynDExScheduler
from repro.arch.operator import Operator
from repro.dfg.operations import Operation

__all__ = ["ReconfigAwareScheduler", "SELECT_WORD_BYTES"]

#: Size of the control word carrying the condition value to the manager.
SELECT_WORD_BYTES = 4


class ReconfigAwareScheduler(SynDExScheduler):
    """SynDEx heuristic + explicit reconfiguration scheduling."""

    def __init__(
        self,
        costs: CostModel,
        constraints: Optional[MappingConstraints] = None,
        prefetch: bool = True,
    ):
        super().__init__(costs, constraints)
        self.prefetch = prefetch
        #: (operation name, operator name) -> control-word arrival time; the
        #: selector never moves once placed, so this is a constant per pair
        #: within a run (the word's transfer time is compiled per board).
        self._select_ready_cache: dict[tuple[str, str], int] = {}

    # -- selector availability -----------------------------------------------------

    def _selector_value_ready(self, op: Operation, operator: Operator) -> int:
        """When the condition value reaches the region's manager."""
        assert op.condition is not None
        key = (op.name, operator.name)
        cached = self._select_ready_cache.get(key)
        if cached is not None:
            return cached
        group = self.graph.condition_groups[op.condition.group]
        sel_placed = self._placed.get(group.selector.name)
        if sel_placed is None:
            # The implicit selector->conditioned-op precedence guarantees this
            # never happens during run(); be conservative if called directly.
            return 0
        value = sel_placed.end + self._tables.transfer_ns(
            sel_placed.operator, operator, SELECT_WORD_BYTES
        )
        self._select_ready_cache[key] = value
        return value

    def _region_free_for_reconfig(self, op: Operation, operator: Operator) -> int:
        """Earliest time the region can start loading ``op``'s module:
        after every non-exclusive computation and every reconfiguration
        targeting the *same* case (different-case reconfigurations belong to
        mutually exclusive iterations and may overlap)."""
        assert op.condition is not None
        # Computation frontier: identical to the base operator-ready query.
        ready = self._operator_ready(op, operator)
        rec = self._rec_frontier.get(operator.name)
        if rec is not None:
            ready = max(ready, rec.get(op.condition.value, 0))
        return ready

    # -- the setup-time hook ------------------------------------------------------------

    def _setup_for(
        self, op: Operation, operator: Operator, raw_start: int
    ) -> tuple[int, Optional[ScheduledReconfig]]:
        if not operator.is_reconfigurable or op.condition is None:
            return raw_start, None
        latency = self.costs.reconfiguration_ns(operator)
        if latency == 0:
            return raw_start, None
        select_ready = self._selector_value_ready(op, operator)
        region_free = self._region_free_for_reconfig(op, operator)
        if self.prefetch:
            reconfig_start = max(select_ready, region_free)
        else:
            # Reactive: the manager only notices at the operation's own start.
            reconfig_start = max(raw_start, select_ready, region_free)
        reconfig_end = reconfig_start + latency
        start = max(raw_start, reconfig_end)
        reconfig = ScheduledReconfig(
            operator=operator,
            module=op.name,
            condition_value=op.condition.value,
            start=reconfig_start,
            end=reconfig_end,
            prefetched=self.prefetch,
        )
        return start, reconfig
