"""Reference list scheduling: full timeline rescans, no placement memo.

This is how the schedulers worked before their timelines were indexed: every
timeline query re-filters and re-sorts the whole committed schedule, every
candidate placement re-derives its routes and durations, and nothing is
cached across commit steps.  The reference reads none of the cost model's
compiled tables: routes come from the architecture, durations from the
library, and the precedence map, tail ranks and candidate lists are
re-derived on every run.  It reproduces that behaviour (and its cost) verbatim, so the
byte-identity tests (``tests/aaa/test_incremental.py``) and the scaling
benchmark (``benchmarks/bench_scheduler_scaling.py``) compare the product
against the true original, not an accidentally index-accelerated hybrid.

:func:`naive` turns any product scheduler class into its reference variant.
The :class:`~repro.aaa.scheduler.SchedulerStats` accounting is kept: every
request is also an evaluation, so ``placements_evaluated`` of a naive run is
the workload the product's ``placements_requested`` must report.
"""

from __future__ import annotations

from repro.aaa.insertion import InsertionScheduler
from repro.aaa.recon_aware import SELECT_WORD_BYTES
from repro.aaa.schedule import ScheduledOp, ScheduledReconfig, ScheduledTransfer
from repro.aaa.scheduler import ListSchedulerBase, Placement
from repro.arch.operator import Operator
from repro.dfg.graph import Edge
from repro.dfg.operations import Operation


class NaiveScheduling:
    """Mixin placed ahead of a product scheduler class (see :func:`naive`).

    The selector and region queries only run under
    :class:`~repro.aaa.recon_aware.ReconfigAwareScheduler` and ``_pressure``
    only under :class:`~repro.aaa.scheduler.SynDExScheduler` subclasses, so
    one mixin serves every scheduler.
    """

    # -- full-rescan timeline sweeps -------------------------------------------

    def _naive_of_operator(self, name: str) -> list[ScheduledOp]:
        return sorted(
            (s for s in self.schedule.ops if s.operator.name == name),
            key=lambda s: (s.start, s.end),
        )

    def _naive_of_medium(self, name: str) -> list[ScheduledTransfer]:
        return sorted(
            (t for t in self.schedule.transfers if t.medium.name == name),
            key=lambda t: (t.start, t.end),
        )

    def _naive_reconfigs_of(self, name: str) -> list[ScheduledReconfig]:
        return sorted(
            (r for r in self.schedule.reconfigs if r.operator.name == name),
            key=lambda r: (r.start, r.end),
        )

    def _operator_ready(self, op: Operation, operator: Operator) -> int:
        ready = 0
        for s in self._naive_of_operator(operator.name):
            if not self.graph.exclusive(op, s.op):
                ready = max(ready, s.end)
        return ready

    def _medium_ready(self, edge: Edge, medium_name: str) -> int:
        ready = 0
        for t in self._naive_of_medium(medium_name):
            if self.graph.exclusive(edge.src, t.edge.src):
                continue
            if self.graph.exclusive(edge.dst, t.edge.dst):
                continue
            ready = max(ready, t.end)
        return ready

    # -- static inputs, re-derived instead of read from compiled tables --------

    def _naive_duration(self, op: Operation, operator: Operator) -> int:
        return operator.duration_ns(self.costs.library.cycles(op.kind, operator.operator_class))

    def _candidates(self, op: Operation) -> list[Operator]:
        return [
            p
            for p in self.costs.architecture.operators
            if self.costs.can_map(op, p) and self.constraints.allows(op, p)
        ]

    def _tail_ranks(self) -> dict[str, int]:
        tail: dict[str, int] = {}
        for op in reversed(self.graph.topological_order()):
            best = 0
            for succ in self.graph.successors(op):
                fastest = min(
                    self._naive_duration(succ, p)
                    for p in self.costs.architecture.operators
                    if self.costs.can_map(succ, p)
                )
                best = max(best, fastest + tail[succ.name])
            tail[op.name] = best
        return tail

    def _successor_map(self) -> dict[str, list[Operation]]:
        """Data successors plus the implicit selector -> (alternative or
        alternative's producer) precedences, minus the selector's ancestors."""
        succs = {op.name: list(self.graph.successors(op)) for op in self.graph.operations}
        for group in self.graph.condition_groups.values():
            selector = group.selector
            blocked = {selector.name}
            stack = [selector]
            while stack:
                for pred in self.graph.predecessors(stack.pop()):
                    if pred.name not in blocked:
                        blocked.add(pred.name)
                        stack.append(pred)
            targets: dict[str, Operation] = {}
            for case_op in group.operations:
                targets.setdefault(case_op.name, case_op)
                for producer in self.graph.predecessors(case_op):
                    targets.setdefault(producer.name, producer)
            existing = {s.name for s in succs[selector.name]}
            for name, op in targets.items():
                if name not in blocked and name not in existing:
                    succs[selector.name].append(op)
        return succs

    # -- placement: re-derive routes, rescan timelines, cache nothing ----------

    def _try_place(self, op: Operation, operator: Operator) -> Placement:
        self.stats.placements_evaluated += 1
        transfers: list[ScheduledTransfer] = []
        local_medium_ready: dict[str, int] = {}  # reservations within this placement
        data_ready = 0
        for edge in self.graph.in_edges(op):
            src = self._placed[edge.src.name]
            if src.operator.name == operator.name:
                data_ready = max(data_ready, src.end)
                continue
            route = self.costs.architecture.route(src.operator, operator)
            t = src.end
            for hop, medium in enumerate(route.media):
                ready = max(
                    self._medium_ready(edge, medium.name),
                    local_medium_ready.get(medium.name, 0),
                )
                hop_start = max(t, ready)
                hop_end = hop_start + medium.transfer_ns(edge.size_bytes)
                transfers.append(
                    ScheduledTransfer(edge=edge, medium=medium, start=hop_start, end=hop_end, hop=hop)
                )
                local_medium_ready[medium.name] = hop_end
                t = hop_end
            data_ready = max(data_ready, t)
        raw_start = self._earliest_start(op, operator, data_ready)
        start, reconfig = self._setup_for(op, operator, raw_start)
        end = start + self._naive_duration(op, operator)
        return Placement(
            op=op, operator=operator, start=start, end=end, transfers=transfers, reconfig=reconfig
        )

    def _placement_for(self, op: Operation, operator: Operator) -> Placement:
        self.stats.placements_requested += 1
        return self._try_place(op, operator)

    def _advance_frontiers(self, placement: Placement, scheduled: ScheduledOp) -> None:
        """No frontiers: every ready-time query rescans the schedule."""

    def _invalidate_placements(self, placement: Placement) -> None:
        """No placement memo, so nothing goes stale."""

    def _pressure(self, op: Operation) -> int:
        return self._best_placement(op).end + self._tails[op.name]

    # -- reconfiguration-aware queries -----------------------------------------

    def _selector_value_ready(self, op: Operation, operator: Operator) -> int:
        assert op.condition is not None
        group = self.graph.condition_groups[op.condition.group]
        sel_placed = self._placed.get(group.selector.name)
        if sel_placed is None:
            return 0
        route = self.costs.architecture.route(sel_placed.operator, operator)
        return sel_placed.end + route.transfer_ns(SELECT_WORD_BYTES)

    def _region_free_for_reconfig(self, op: Operation, operator: Operator) -> int:
        assert op.condition is not None
        ready = self._operator_ready(op, operator)
        for r in self._naive_reconfigs_of(operator.name):
            if r.condition_value == op.condition.value:
                ready = max(ready, r.end)
        return ready


class NaiveInsertion(NaiveScheduling):
    """The gap sweep over a freshly filtered and sorted operator timeline."""

    def _earliest_start(self, op: Operation, operator: Operator, data_ready: int) -> int:
        duration = self._naive_duration(op, operator)
        timeline = self._naive_of_operator(operator.name)
        busy = [(s.start, s.end) for s in timeline if not self.graph.exclusive(op, s.op)]
        t = data_ready
        for start, end in busy:
            if t + duration <= start:
                return t  # fits in the gap before this interval
            t = max(t, end)
        return t


def naive(scheduler_cls: type[ListSchedulerBase]) -> type[ListSchedulerBase]:
    """The reference variant of a product scheduler class.

    Same constructor, same selection rule, same tie-breaks; only the
    timeline and placement machinery is swapped for the rescanning one.
    """
    mixin = NaiveInsertion if issubclass(scheduler_cls, InsertionScheduler) else NaiveScheduling
    return type(f"Naive{scheduler_cls.__name__}", (mixin, scheduler_cls), {})
