"""Schedule data model and validator.

The adequation result is "a synchronized executive": per-operator ordered
operation lists, per-medium ordered transfer lists, and (for dynamic
operators) reconfiguration intervals.  The validator checks the invariants
every correct schedule must satisfy — it is the oracle for the scheduler
property tests and for the executive generator.

Timeline bookkeeping is **incremental**: the schedule maintains per-operator
and per-medium timelines sorted by ``(start, end)`` (plus per-operator
reconfiguration timelines and a cached makespan frontier), updated on each
:meth:`Schedule.add_op` / :meth:`Schedule.add_transfer` /
:meth:`Schedule.add_reconfig`.  ``of_operator`` / ``of_medium`` /
``reconfigs_of`` / ``makespan`` are then cheap lookups instead of full
re-filter-and-sort sweeps over the committed schedule — the fix for the
quadratic rescans that dominated the adequation hot path.  Insertion into a
sorted timeline uses ``bisect.insort`` (right-biased), which places an
equal-key interval after the existing ones — exactly where the old stable
``sorted()`` of append order put it, so query results are identical.

Code that mutates the raw ``ops`` / ``transfers`` / ``reconfigs`` lists
directly (tests building adversarial fixtures) is still supported: every
query revalidates the index against the list lengths and rebuilds it when
they diverge.  All operator/medium lookups compare **names**, never object
identity, so schedules that crossed a pickle boundary (the artifact cache,
a sweep-worker pipe) behave exactly like resident ones.
"""

from __future__ import annotations

import hashlib
import json
from bisect import insort
from dataclasses import dataclass, field
from typing import Hashable

from repro.arch.graph import ArchitectureGraph
from repro.arch.media import Medium
from repro.arch.operator import Operator
from repro.dfg.graph import AlgorithmGraph, Edge
from repro.dfg.operations import Operation

__all__ = [
    "ScheduledOp",
    "ScheduledTransfer",
    "ScheduledReconfig",
    "Schedule",
    "ScheduleValidationError",
]


@dataclass(frozen=True, slots=True)
class ScheduledOp:
    """An operation placed in time on an operator."""

    op: Operation
    operator: Operator
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class ScheduledTransfer:
    """One hop of a data transfer on a medium."""

    edge: Edge
    medium: Medium
    start: int
    end: int
    hop: int = 0  # index along a multi-hop route

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class ScheduledReconfig:
    """A reconfiguration interval on a dynamic operator."""

    operator: Operator
    module: str  # target configuration (e.g. "mod_qam16")
    condition_value: Hashable
    start: int
    end: int
    prefetched: bool = False

    @property
    def duration(self) -> int:
        return self.end - self.start


class ScheduleValidationError(AssertionError):
    """A schedule invariant was violated; carries all found problems."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


def _overlap(a_start: int, a_end: int, b_start: int, b_end: int) -> bool:
    """True when the two half-open intervals share a non-empty window.

    Zero-length (and malformed) intervals occupy no time and overlap
    nothing; the naive ``b.start < a.end`` sweep used to flag a zero-length
    interval sitting strictly inside a busy one as an overlap while ignoring
    the same interval at the busy one's end — inconsistent tie handling the
    adversarial validator fixtures pin down.
    """
    return a_start < a_end and b_start < b_end and b_start < a_end and a_start < b_end


@dataclass
class Schedule:
    """The complete adequation output for one iteration of the algorithm."""

    ops: list[ScheduledOp] = field(default_factory=list)
    transfers: list[ScheduledTransfer] = field(default_factory=list)
    reconfigs: list[ScheduledReconfig] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._reindex()

    # -- pickling (index state is derived, rebuild on load) --------------------

    def __getstate__(self) -> dict:
        # Persist only the authoritative lists: cached artifacts stay
        # byte-identical to the pre-index era and to each other regardless
        # of which process (or code path) built the schedule.
        return {"ops": self.ops, "transfers": self.transfers, "reconfigs": self.reconfigs}

    def __setstate__(self, state: dict) -> None:
        self.ops = state["ops"]
        self.transfers = state["transfers"]
        self.reconfigs = state["reconfigs"]
        self._reindex()

    # -- incremental index ------------------------------------------------------

    def _reindex(self) -> None:
        self._by_operator: dict[str, list[ScheduledOp]] = {}
        self._by_medium: dict[str, list[ScheduledTransfer]] = {}
        self._by_edge: dict[tuple[str, str, str, str], list[ScheduledTransfer]] = {}
        self._recs_by_operator: dict[str, list[ScheduledReconfig]] = {}
        self._max_end = 0
        for s in self.ops:
            self._index_op(s)
        for t in self.transfers:
            self._index_transfer(t)
        for r in self.reconfigs:
            self._index_reconfig(r)
        self._indexed_counts = (len(self.ops), len(self.transfers), len(self.reconfigs))

    def _ensure_index(self) -> None:
        """Rebuild when the raw lists were mutated behind the index's back."""
        if self._indexed_counts != (len(self.ops), len(self.transfers), len(self.reconfigs)):
            self._reindex()

    def _index_op(self, s: ScheduledOp) -> None:
        insort(self._by_operator.setdefault(s.operator.name, []), s, key=lambda x: (x.start, x.end))
        if s.end > self._max_end:
            self._max_end = s.end

    def _index_transfer(self, t: ScheduledTransfer) -> None:
        insort(self._by_medium.setdefault(t.medium.name, []), t, key=lambda x: (x.start, x.end))
        e = t.edge
        self._by_edge.setdefault((e.src.name, e.src_port, e.dst.name, e.dst_port), []).append(t)
        if t.end > self._max_end:
            self._max_end = t.end

    def _index_reconfig(self, r: ScheduledReconfig) -> None:
        insort(
            self._recs_by_operator.setdefault(r.operator.name, []),
            r,
            key=lambda x: (x.start, x.end),
        )
        if r.end > self._max_end:
            self._max_end = r.end

    # -- mutation ---------------------------------------------------------------

    def add_op(self, s: ScheduledOp) -> ScheduledOp:
        """Commit one placed operation, keeping the timeline index current."""
        self._ensure_index()
        self.ops.append(s)
        self._index_op(s)
        self._indexed_counts = (len(self.ops), len(self.transfers), len(self.reconfigs))
        return s

    def add_transfer(self, t: ScheduledTransfer) -> ScheduledTransfer:
        self._ensure_index()
        self.transfers.append(t)
        self._index_transfer(t)
        self._indexed_counts = (len(self.ops), len(self.transfers), len(self.reconfigs))
        return t

    def add_reconfig(self, r: ScheduledReconfig) -> ScheduledReconfig:
        self._ensure_index()
        self.reconfigs.append(r)
        self._index_reconfig(r)
        self._indexed_counts = (len(self.ops), len(self.transfers), len(self.reconfigs))
        return r

    # -- queries -------------------------------------------------------------

    def makespan(self) -> int:
        self._ensure_index()
        return self._max_end

    def of_operator(self, operator: Operator | str) -> list[ScheduledOp]:
        name = operator if isinstance(operator, str) else operator.name
        self._ensure_index()
        return list(self._by_operator.get(name, ()))

    def of_medium(self, medium: Medium | str) -> list[ScheduledTransfer]:
        name = medium if isinstance(medium, str) else medium.name
        self._ensure_index()
        return list(self._by_medium.get(name, ()))

    def reconfigs_of(self, operator: Operator | str) -> list[ScheduledReconfig]:
        name = operator if isinstance(operator, str) else operator.name
        self._ensure_index()
        return list(self._recs_by_operator.get(name, ()))

    def placement(self, op: Operation | str) -> ScheduledOp:
        name = op if isinstance(op, str) else op.name
        for s in self.ops:
            if s.op.name == name:
                return s
        raise KeyError(f"operation {name!r} not in schedule")

    def mapping(self) -> dict[str, str]:
        """Operation name → operator name."""
        return {s.op.name: s.operator.name for s in self.ops}

    def operators_used(self) -> list[str]:
        seen: dict[str, None] = {}
        for s in self.ops:
            seen.setdefault(s.operator.name)
        return list(seen)

    def transfers_of_edge(self, edge: Edge) -> list[ScheduledTransfer]:
        # Keyed by endpoint names and ports, not Edge identity: the schedule
        # may have crossed a process or cache boundary, so its Edge objects
        # can be equal copies of the caller's graph edges.
        self._ensure_index()
        key = (edge.src.name, edge.src_port, edge.dst.name, edge.dst_port)
        return sorted(self._by_edge.get(key, ()), key=lambda t: t.hop)

    def digest(self) -> str:
        """Content digest of the schedule, sensitive to commit order.

        Two schedules share a digest iff every scheduled operation, transfer
        and reconfiguration is identical *and* was committed in the same
        order — the oracle behind the incremental-vs-naive byte-identity
        property tests.
        """
        payload = {
            "ops": [(s.op.name, s.operator.name, s.start, s.end) for s in self.ops],
            "transfers": [
                (str(t.edge), t.medium.name, t.start, t.end, t.hop) for t in self.transfers
            ],
            "reconfigs": [
                (r.operator.name, r.module, repr(r.condition_value), r.start, r.end, r.prefetched)
                for r in self.reconfigs
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # -- validation ------------------------------------------------------------

    def validate(self, graph: AlgorithmGraph, architecture: ArchitectureGraph) -> None:
        """Raise :class:`ScheduleValidationError` on any invariant violation."""
        self._ensure_index()
        problems: list[str] = []

        scheduled_names = {s.op.name for s in self.ops}
        for op in graph.operations:
            if op.name not in scheduled_names:
                problems.append(f"operation {op.name!r} is not scheduled")
        if len(scheduled_names) != len(self.ops):
            problems.append("an operation is scheduled more than once")

        for s in self.ops:
            if s.start < 0 or s.end < s.start:
                problems.append(f"operation {s.op.name!r} has invalid interval [{s.start}, {s.end})")

        # Precedence: consumer starts after producer output arrives.
        by_name = {s.op.name: s for s in self.ops}
        for edge in graph.edges:
            src = by_name.get(edge.src.name)
            dst = by_name.get(edge.dst.name)
            if src is None or dst is None:
                continue
            if src.operator.name == dst.operator.name:
                if dst.start < src.end:
                    problems.append(
                        f"edge {edge}: consumer starts at {dst.start} before producer ends at {src.end}"
                    )
                continue
            hops = self.transfers_of_edge(edge)
            if not hops:
                problems.append(f"edge {edge}: crosses operators but has no scheduled transfer")
                continue
            if hops[0].start < src.end:
                problems.append(f"edge {edge}: transfer starts before producer ends")
            if dst.start < hops[-1].end:
                problems.append(f"edge {edge}: consumer starts before transfer completes")
            for a, b in zip(hops, hops[1:]):
                if b.start < a.end:
                    problems.append(f"edge {edge}: hop {b.hop} starts before hop {a.hop} ends")

        # Operator exclusivity (conditioned alternatives may overlap).  The
        # sweep walks the maintained sorted timeline; since starts are
        # non-decreasing, once b.start clears a's busy window no later
        # interval can re-enter it.
        for operator in architecture.operators:
            timeline = self.of_operator(operator)
            for i, a in enumerate(timeline):
                for b in timeline[i + 1 :]:
                    if b.start >= a.end:
                        break
                    if not _overlap(a.start, a.end, b.start, b.end):
                        continue
                    if not graph.exclusive(a.op, b.op):
                        problems.append(
                            f"operations {a.op.name!r} and {b.op.name!r} overlap on {operator.name!r}"
                        )

        # Media serialization (transfers of exclusive producers may overlap).
        for medium in architecture.media:
            timeline = self.of_medium(medium)
            for i, a in enumerate(timeline):
                for b in timeline[i + 1 :]:
                    if b.start >= a.end:
                        break
                    if not _overlap(a.start, a.end, b.start, b.end):
                        continue
                    if not graph.exclusive(a.edge.src, b.edge.src) and not graph.exclusive(
                        a.edge.dst, b.edge.dst
                    ):
                        problems.append(
                            f"transfers {a.edge} and {b.edge} overlap on medium {medium.name!r}"
                        )

        # Reconfigurations: only on dynamic operators; serialized; never
        # overlapping a computation on the same operator.
        for r in self.reconfigs:
            if not r.operator.is_reconfigurable:
                problems.append(f"reconfiguration scheduled on non-dynamic operator {r.operator.name!r}")
            if r.end < r.start:
                problems.append(f"reconfiguration of {r.module!r} has negative duration")
        # Reconfigurations targeting different cases of one group belong to
        # mutually exclusive iterations, so they (and the other case's
        # computations) may legitimately overlap in the schedule template.
        # Both checks sweep the sorted per-operator timelines, so a valid
        # schedule costs O(R + S) per operator.
        for operator in architecture.dynamic_operators():
            recs = self._recs_by_operator.get(operator.name, ())
            if not recs:
                continue
            by_case: dict[Hashable, list[ScheduledReconfig]] = {}
            for r in recs:
                by_case.setdefault(r.condition_value, []).append(r)
            for same_case in by_case.values():
                for i, a in enumerate(same_case):
                    for j in range(i + 1, len(same_case)):
                        b = same_case[j]
                        if b.start >= a.end:
                            break  # starts are sorted: no later b reaches a
                        if _overlap(a.start, a.end, b.start, b.end):
                            problems.append(
                                f"reconfigurations to {a.module!r} and {b.module!r} overlap "
                                f"on {operator.name!r}"
                            )
            timeline = self._by_operator.get(operator.name, ())
            # ``active`` holds the operations that started before the current
            # reconfiguration ends and are still busy when it starts; an
            # operation that ended by then cannot reach any later one either.
            active: list[ScheduledOp] = []
            nxt = 0
            for r in recs:
                while nxt < len(timeline) and timeline[nxt].start < r.end:
                    active.append(timeline[nxt])
                    nxt += 1
                active = [s for s in active if s.end > r.start]
                for s in active:
                    if _overlap(r.start, r.end, s.start, s.end):
                        cond = s.op.condition
                        if cond is not None and cond.value != r.condition_value:
                            continue  # exclusive futures
                        problems.append(
                            f"reconfiguration to {r.module!r} overlaps operation {s.op.name!r} "
                            f"on {operator.name!r}"
                        )

        if problems:
            raise ScheduleValidationError(problems)

    # -- presentation ------------------------------------------------------------

    def table(self) -> str:
        """Human-readable schedule table, grouped per operator and medium."""
        lines = [f"Schedule (makespan {self.makespan()} ns)"]
        for name in sorted(self.operators_used()):
            lines.append(f"  operator {name}:")
            for s in self.of_operator(name):
                cond = f" [if {s.op.condition}]" if s.op.condition else ""
                lines.append(f"    {s.start:>10} .. {s.end:>10}  {s.op.name}{cond}")
            for r in self.reconfigs_of(name):
                tag = " (prefetched)" if r.prefetched else ""
                lines.append(f"    {r.start:>10} .. {r.end:>10}  <reconfig to {r.module}>{tag}")
        media = sorted({t.medium.name for t in self.transfers})
        for name in media:
            lines.append(f"  medium {name}:")
            for t in self.of_medium(name):
                lines.append(f"    {t.start:>10} .. {t.end:>10}  {t.edge}")
        return "\n".join(lines)
