"""Runtime system simulation — the flow's dynamic verification.

Wires a :class:`~repro.flows.flow.FlowResult` to the real runtime
reconfiguration manager and runs the synchronized executive for many
iterations: the DSP's selector drives ``Select``, the manager loads partial
bitstreams through the configured Fig. 2 architecture, the ``In_Reconf``
signal locks the region during swaps, and every stall is accounted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Optional

from typing import Union

from repro.executive.interpreter import ExecutionReport
from repro.flows.flow import FlowResult
from repro.obs import get_telemetry, get_tracer, record_manager_stats, spans_from_sim_trace
from repro.reconfig.eviction import EvictionPolicy
from repro.reconfig.manager import ManagerStats
from repro.reconfig.memory import BitstreamStore
from repro.reconfig.prefetch import NoPrefetchPolicy, PrefetchPolicy
from repro.runtime.board import Board
from repro.sim import Simulator, Trace

__all__ = ["RuntimeResult", "SystemSimulation"]


@dataclass
class RuntimeResult:
    """Outcome of a runtime simulation."""

    execution: ExecutionReport
    manager_stats: ManagerStats
    n_iterations: int
    end_time_ns: int
    policy_name: str
    switches: int
    #: region -> In_Reconf signal (full toggle history), for VCD export.
    in_reconf_signals: dict = field(default_factory=dict)

    def to_vcd(self, design_name: str = "repro") -> str:
        """The whole run as a VCD waveform (operators, media, In_Reconf)."""
        from repro.sim.vcd import trace_to_vcd

        signals = {
            f"In_Reconf.{region}": sig for region, sig in self.in_reconf_signals.items()
        }
        return trace_to_vcd(self.execution.trace, signals=signals, design_name=design_name)

    @property
    def total_stall_ns(self) -> int:
        return self.manager_stats.stall_ns

    def stall_per_switch_ns(self) -> float:
        return self.total_stall_ns / self.switches if self.switches else 0.0

    def mean_iteration_ns(self) -> float:
        return self.end_time_ns / self.n_iterations

    def throughput_iterations_per_s(self) -> float:
        mean = self.mean_iteration_ns()
        return 1e9 / mean if mean else float("inf")

    def summary(self) -> str:
        return (
            f"runtime[{self.policy_name}]: {self.n_iterations} iterations in "
            f"{self.end_time_ns / 1e6:.2f} ms — {self.switches} reconfigurations, "
            f"stall {self.total_stall_ns / 1e6:.2f} ms "
            f"({self.stall_per_switch_ns() / 1e6:.2f} ms/switch), "
            f"{self.manager_stats.useful_prefetches} useful prefetches"
        )


class SystemSimulation:
    """Builds and runs the simulated platform for a flow result."""

    def __init__(
        self,
        flow: FlowResult,
        n_iterations: int,
        selector_values: Optional[dict[str, Callable[[int], Hashable]]] = None,
        policy: Optional[Union[str, PrefetchPolicy]] = None,
        bindings: Optional[dict[str, Any]] = None,
        capture: Optional[set[str]] = None,
        region_slots: Optional[int] = None,
        eviction: Optional[EvictionPolicy] = None,
    ):
        self.flow = flow
        self.n_iterations = n_iterations
        self.selector_values = selector_values or {}
        # Default: no manager-side speculation.  Prefetching proper is the
        # *executive's* early reconfigure placement (region-issued, ordering
        # safe); manager policies add speculative loads on top and can thrash
        # in deep pipelines (see tests/flows/test_flow.py).
        if isinstance(policy, str):
            # A registry name selects a whole bundle; explicit kwargs win
            # over whatever the bundle would set.
            from repro.runtime.policies import create_policy

            bundle = create_policy(policy)
            self.policy = bundle.prefetch
            if eviction is None:
                eviction = bundle.eviction
            if region_slots is None:
                region_slots = bundle.region_slots
        else:
            self.policy = policy if policy is not None else NoPrefetchPolicy()
        self.region_slots = region_slots if region_slots is not None else 1
        self.eviction = eviction
        self.bindings = bindings
        self.capture = capture

    def _build_store(self) -> BitstreamStore:
        arch = self.flow.modular.reconfig_architecture
        store = arch.make_store()
        netlist = self.flow.modular.netlist
        for (region, module_name), bitstream in self.flow.modular.bitstreams.items():
            # The executive requests configurations by *operation* name.
            variant = netlist.module(module_name)
            op_name = variant.implements[0] if variant.implements else module_name
            store.register(region, op_name, bitstream)
        return store

    def run(self) -> RuntimeResult:
        sim = Simulator()
        trace = Trace()
        arch = self.flow.modular.reconfig_architecture
        store = self._build_store()
        # One platform = one Board on a private kernel.  Board builds the
        # protocol builder and manager in the same order this method used
        # to, so single-board results are identical to the pre-Board stack.
        board = Board(
            "board", sim, arch, store,
            policy=self.policy,
            eviction=self.eviction,
            region_slots=self.region_slots,
            trace=trace,
        )
        manager = board.manager
        # Modules declared "loading = startup" ship in the initial full
        # bitstream — no first-use reconfiguration for them.
        for region, op_name in self.flow.startup_modules().items():
            board.preload(region, op_name)
        runner = board.attach_executive(
            self.flow.executive,
            n_iterations=self.n_iterations,
            bindings=self.bindings,
            selector_values=self.selector_values,
            capture=self.capture,
        )
        tracer = get_tracer()
        with tracer.span("runtime:simulate") as rt_span:
            report = runner.run()
        # "Switches" = configuration loads actually performed (includes the
        # initial load unless the module shipped in the startup bitstream).
        switches = manager.stats.demand_loads + manager.stats.prefetch_loads
        if tracer.enabled:
            # Flush still-open residency intervals into closed spans, then
            # re-base the kernel's virtual-time trace under this run's span.
            trace.close_open(report.end_time_ns)
            rt_span.set_attribute("n_iterations", self.n_iterations)
            rt_span.set_attribute("switches", switches)
            rt_span.set_attribute(
                "policy", getattr(self.policy, "name", type(self.policy).__name__)
            )
            tracer.add_spans(spans_from_sim_trace(trace, parent=rt_span.context))
        hub = get_telemetry()
        if hub is not None:
            record_manager_stats(hub.store("run"), manager.stats)
        return RuntimeResult(
            execution=report,
            manager_stats=manager.stats,
            n_iterations=self.n_iterations,
            end_time_ns=report.end_time_ns,
            policy_name=getattr(self.policy, "name", type(self.policy).__name__),
            switches=switches,
            in_reconf_signals=dict(manager.in_reconf),
        )
