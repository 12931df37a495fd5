"""Insertion-based (gap-filling) list scheduling.

The append-only heuristic can leave idle windows on an operator when a
later-selected operation's data was ready before an earlier-selected one's.
The insertion variant places each operation in the *earliest idle gap* that
fits it (respecting exclusivity), in the spirit of the insertion-based
extension of HEFT — one concrete answer to the paper's call for "additional
developments" to the heuristic.

The resulting schedule still satisfies every invariant of
:meth:`repro.aaa.schedule.Schedule.validate` (gap insertion never reorders
data dependencies: the candidate start is bounded below by data arrival).
"""

from __future__ import annotations

from repro.aaa.scheduler import SynDExScheduler
from repro.arch.operator import Operator
from repro.dfg.operations import Operation

__all__ = ["InsertionScheduler"]


class InsertionScheduler(SynDExScheduler):
    """Schedule-pressure selection + gap-filling placement."""

    def _earliest_start(self, op: Operation, operator: Operator, data_ready: int) -> int:
        duration = self.costs.duration(op, operator)
        # The maintained per-operator timeline is already sorted by
        # (start, end); the per-element exclusivity filter is O(1) through
        # the factored condition index.  The gap sweep keeps the placement
        # cacheable: its only mutable input is the operator's timeline,
        # which the commit-time dirty set tracks.
        timeline = self.schedule.of_operator(operator)
        busy = [(s.start, s.end) for s in timeline if not self.graph.exclusive(op, s.op)]
        t = data_ready
        for start, end in busy:
            if t + duration <= start:
                return t  # fits in the gap before this interval
            t = max(t, end)
        return t
