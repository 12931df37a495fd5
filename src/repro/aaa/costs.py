"""Duration and cost model used by the adequation heuristics.

Everything a list scheduler derives from ``(graph, architecture, library)``
alone — feasible operators, durations, routes, per-hop transfer templates,
the precedence map and the tail ranks — lives in :class:`CompiledTables`.
A :class:`CostModel` is those tables plus one run's per-region
reconfiguration latencies, so models that differ only in latencies (the
co-optimizer re-schedules one board hundreds of times) share one table set
and each scheduler run supplies just its pins and ``reconfig_ns``.
"""

from __future__ import annotations

from functools import cached_property
from typing import Hashable, Optional

from repro.arch.graph import ArchitectureGraph, Route
from repro.arch.operator import Operator, OperatorKind
from repro.dfg.graph import AlgorithmGraph, Edge
from repro.dfg.library import OperationLibrary
from repro.dfg.operations import Operation

__all__ = ["CostError", "CostModel", "CompiledTables"]

#: Condition key of an operation: ``None`` or ``(group name, case value)``.
CondKey = Optional[tuple[str, Hashable]]


class CostError(ValueError):
    """Raised when a cost is requested for an infeasible mapping."""


class CompiledTables:
    """The static tables of one ``(graph, architecture, library)`` triple.

    Every entry is a pure function of the triple, built lazily on first use
    and then shared by every :class:`CostModel` (and so every scheduler run)
    holding this object.  All keys are *names*: lookups must not
    distinguish resident objects from cache-round-tripped equal copies.
    Callers treat returned containers as read-only.
    """

    def __init__(
        self, graph: AlgorithmGraph, architecture: ArchitectureGraph, library: OperationLibrary
    ):
        self.graph = graph
        self.architecture = architecture
        self.library = library
        self._candidates: dict[str, list[Operator]] = {}
        self._durations: dict[tuple[str, str], int] = {}
        self._best_durations: dict[str, int] = {}
        self._routes: dict[tuple[str, str], Route] = {}
        self._transfer_ns: dict[tuple[str, str, int], int] = {}
        self._hops: dict[tuple[int, str, str], tuple[tuple, frozenset[str]]] = {}

    # -- mapping feasibility and durations ---------------------------------------

    def can_map(self, op: Operation, operator: Operator) -> bool:
        """Dynamic FPGA operators host only *conditioned* operations: an
        unconditioned operation would occupy the region forever, defeating
        reconfiguration (the paper maps exactly the conditioned modulation
        alternatives to Op_Dyn)."""
        if not self.library.supports(op.kind, operator.operator_class):
            return False
        if operator.kind is OperatorKind.FPGA_DYNAMIC and not op.is_conditioned:
            return False
        return True

    def candidates(self, op: Operation) -> list[Operator]:
        cached = self._candidates.get(op.name)
        if cached is None:
            cached = [p for p in self.architecture.operators if self.can_map(op, p)]
            self._candidates[op.name] = cached
        return cached

    def duration(self, op: Operation, operator: Operator) -> int:
        key = (op.name, operator.name)
        cached = self._durations.get(key)
        if cached is not None:
            return cached
        if not self.can_map(op, operator):
            raise CostError(f"operation {op.name!r} cannot run on operator {operator.name!r}")
        cycles = self.library.cycles(op.kind, operator.operator_class)
        value = operator.duration_ns(cycles)
        self._durations[key] = value
        return value

    def best_duration(self, op: Operation) -> int:
        cached = self._best_durations.get(op.name)
        if cached is not None:
            return cached
        durations = [self.duration(op, p) for p in self.candidates(op)]
        if not durations:
            raise CostError(f"operation {op.name!r} has no feasible operator")
        value = min(durations)
        self._best_durations[op.name] = value
        return value

    # -- routes and transfers --------------------------------------------------

    def route(self, src: Operator, dst: Operator) -> Route:
        key = (src.name, dst.name)
        route = self._routes.get(key)
        if route is None:
            route = self.architecture.route(src, dst)
            self._routes[key] = route
        return route

    def transfer_ns(self, src: Operator, dst: Operator, nbytes: int) -> int:
        """End-to-end time of ``nbytes`` from ``src`` to ``dst``."""
        key = (src.name, dst.name, nbytes)
        value = self._transfer_ns.get(key)
        if value is None:
            value = self.route(src, dst).transfer_ns(nbytes)
            self._transfer_ns[key] = value
        return value

    def hops(
        self, edge_id: int, edge: Edge, src: Operator, dst: Operator
    ) -> tuple[tuple, frozenset[str]]:
        """The hop template of ``edge`` routed from ``src`` to ``dst``.

        One ``(edge, medium, medium name, duration, src cond key, dst cond
        key, hop index)`` tuple per medium along the route, plus the set of
        media names the transfer reads.  ``edge_id`` is the edge's id from
        :attr:`in_edges`."""
        key = (edge_id, src.name, dst.name)
        entry = self._hops.get(key)
        if entry is None:
            cond = self.cond
            src_ck, dst_ck = cond[edge.src.name], cond[edge.dst.name]
            size = edge.size_bytes
            media = self.route(src, dst).media
            entry = (
                tuple(
                    (edge, medium, medium.name, medium.transfer_ns(size), src_ck, dst_ck, hop)
                    for hop, medium in enumerate(media)
                ),
                frozenset(medium.name for medium in media),
            )
            self._hops[key] = entry
        return entry

    # -- graph-level tables ------------------------------------------------------

    @cached_property
    def topo(self) -> list[Operation]:
        """One topological order, shared by ranks, ready-list seeding and
        selection order."""
        return list(self.graph.topological_order())

    @cached_property
    def cond(self) -> dict[str, CondKey]:
        """Operation name -> condition key (the factored exclusivity index)."""
        return {
            op.name: (op.condition.group, op.condition.value) if op.condition else None
            for op in self.graph.operations
        }

    @cached_property
    def in_edges(self) -> dict[str, tuple[tuple[int, Edge], ...]]:
        """Operation name -> its in-edges in graph order, each with an id
        unique across the graph (the key of :meth:`hops`)."""
        table: dict[str, tuple[tuple[int, Edge], ...]] = {}
        next_id = 0
        for op in self.graph.operations:
            edges = self.graph.in_edges(op)
            table[op.name] = tuple(enumerate(edges, start=next_id))
            next_id += len(edges)
        return table

    @cached_property
    def successors(self) -> dict[str, list[Operation]]:
        """Data successors plus the implicit conditioning edges.

        A conditioned operation cannot start before its group's selector has
        produced the condition value — and neither can the *producers that
        feed* the conditioned alternatives, because their sends are routed
        by the very same value (the executive's conditional ``send_`` guards
        on it).  Both become implicit selector→X precedences, skipping any X
        that is an ancestor of the selector (cycle guard)."""
        graph = self.graph
        succs: dict[str, list[Operation]] = {
            op.name: list(graph.successors(op)) for op in graph.operations
        }

        def ancestors_of(op: Operation) -> set[str]:
            seen: set[str] = set()
            stack = [op]
            while stack:
                current = stack.pop()
                for pred in graph.predecessors(current):
                    if pred.name not in seen:
                        seen.add(pred.name)
                        stack.append(pred)
            return seen

        for group in graph.condition_groups.values():
            selector = group.selector
            blocked = ancestors_of(selector) | {selector.name}
            targets: dict[str, Operation] = {}
            for case_op in group.operations:
                targets.setdefault(case_op.name, case_op)
                for producer in graph.predecessors(case_op):
                    targets.setdefault(producer.name, producer)
            existing = {s.name for s in succs[selector.name]}
            for name, op in targets.items():
                if name not in blocked and name not in existing:
                    succs[selector.name].append(op)
        return succs

    @cached_property
    def tails(self) -> dict[str, int]:
        """Remaining critical path *after* each operation (best-case durations)."""
        tail: dict[str, int] = {}
        for op in reversed(self.topo):
            best = 0
            for succ in self.graph.successors(op):
                best = max(best, self.best_duration(succ) + tail[succ.name])
            tail[op.name] = best
        return tail


class CostModel:
    """Durations of computations, communications and reconfigurations.

    Computation durations come from the operation library (cycles) scaled by
    the operator clock.  Communication durations come from the media along
    the route.  Reconfiguration durations are provided per dynamic operator
    (the design flow computes them from the partial-bitstream size and the
    configuration-port bandwidth; a default is used before floorplanning).

    Everything but the latencies is read from :attr:`tables`; pass
    ``tables=`` to share one :class:`CompiledTables` between models of the
    same ``(graph, architecture, library)``.
    """

    #: Pre-floorplan estimate of one partial reconfiguration, in ns (≈4 ms,
    #: the paper's measured value for the 8 % module).
    DEFAULT_RECONFIG_NS = 4_000_000

    def __init__(
        self,
        graph: AlgorithmGraph,
        architecture: ArchitectureGraph,
        library: OperationLibrary,
        reconfig_ns: Optional[dict[str, int]] = None,
        tables: Optional[CompiledTables] = None,
    ):
        if tables is None:
            tables = CompiledTables(graph, architecture, library)
        elif (
            tables.graph is not graph
            or tables.architecture is not architecture
            or tables.library is not library
        ):
            raise CostError("compiled tables belong to a different (graph, architecture, library)")
        self.graph = graph
        self.architecture = architecture
        self.library = library
        #: region name -> reconfiguration latency (ns)
        self.reconfig_ns = dict(reconfig_ns or {})
        self.tables = tables

    def __getstate__(self) -> dict:
        # The compiled tables are derived state: keep them out of pickled
        # artifacts so the cached bytes do not depend on which queries a
        # particular run (or an earlier run sharing the tables) made.
        state = self.__dict__.copy()
        del state["tables"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.tables = CompiledTables(self.graph, self.architecture, self.library)

    # -- mapping feasibility --------------------------------------------------

    def can_map(self, op: Operation, operator: Operator) -> bool:
        """Feasibility of running ``op`` on ``operator`` (see
        :meth:`CompiledTables.can_map`)."""
        return self.tables.can_map(op, operator)

    def candidates(self, op: Operation) -> list[Operator]:
        """All operators that can host ``op``."""
        return list(self.tables.candidates(op))

    # -- durations ----------------------------------------------------------------

    def duration(self, op: Operation, operator: Operator) -> int:
        """Execution time of ``op`` on ``operator`` in ns."""
        return self.tables.duration(op, operator)

    def best_duration(self, op: Operation) -> int:
        """The fastest feasible execution time of ``op`` (used for ranks)."""
        return self.tables.best_duration(op)

    def route(self, src: Operator, dst: Operator) -> Route:
        return self.tables.route(src, dst)

    def comm_duration(self, edge: Edge, src_op: Operator, dst_op: Operator) -> int:
        """Transfer time for ``edge`` between two placed operations, in ns."""
        return self.tables.transfer_ns(src_op, dst_op, edge.size_bytes)

    # -- reconfiguration --------------------------------------------------------------

    def reconfiguration_ns(self, operator: Operator) -> int:
        """Latency of swapping the module configured on a dynamic operator."""
        if not operator.is_reconfigurable:
            raise CostError(f"operator {operator.name!r} is not reconfigurable")
        assert operator.region is not None
        return self.reconfig_ns.get(operator.region, self.DEFAULT_RECONFIG_NS)

    def set_reconfiguration_ns(self, region: str, latency_ns: int) -> None:
        """Install a floorplan-derived latency for ``region``."""
        if latency_ns < 0:
            raise CostError("reconfiguration latency must be >= 0")
        self.reconfig_ns[region] = latency_ns
