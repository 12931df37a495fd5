"""The protocol configuration builder.

Turns a configuration request into "a valid reconfiguration stream in
agreement with the used protocol mode": reads frame data from the external
store, wraps it in the port protocol's command words, and drives the port.

The data path is pipelined chunk by chunk (the builder is a small FSM with a
FIFO), so the transfer time is bounded by the slower of memory and port,
plus fixed protocol overhead — exactly the analytic model the latency
benchmarks sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.reconfig.memory import BitstreamStore
from repro.reconfig.ports import ConfigPort
from repro.sim import Resource, Simulator, Trace
from repro.sim.units import transfer_time_ns

__all__ = ["ProtocolError", "ProtocolConfigurationBuilder"]

#: Command words wrapped around the frame data (sync, FAR, CMD, CRC, desync),
#: modelled as extra bytes through the port.
COMMAND_OVERHEAD_BYTES = 128


class ProtocolError(RuntimeError):
    """Configuration stream construction or verification failed."""


@dataclass
class LoadOutcome:
    """Result of one completed configuration transfer."""

    region: str
    module: str
    size_bytes: int
    #: when the transfer took the port (after any wait for it)
    start_ns: int
    duration_ns: int


class ProtocolConfigurationBuilder:
    """Streams partial bitstreams from the store into a configuration port."""

    def __init__(
        self,
        sim: Simulator,
        port: ConfigPort,
        store: BitstreamStore,
        trace: Optional[Trace] = None,
        verify_crc: bool = True,
    ):
        self.sim = sim
        self.port = port
        self.store = store
        self.trace = trace
        self.verify_crc = verify_crc
        #: One configuration at a time: the port is exclusive.
        self.port_lock = Resource(sim, name=f"port.{port.name}")
        self.loads: list[LoadOutcome] = []
        #: Test hook / upset model: called after each write with
        #: (region, module); returning True marks the written configuration
        #: as corrupted on the fabric (detected only by readback).
        self.upset_injector = None
        #: region -> (module, content_ok) actually present on the fabric.
        self._device_content: dict[str, tuple[str, bool]] = {}

    # -- analytic model -----------------------------------------------------------

    def estimate_ns(self, nbytes: int) -> int:
        """Closed-form transfer estimate (chunk-pipelined memory + port)."""
        total = nbytes + COMMAND_OVERHEAD_BYTES
        memory_ns = self.store.access_ns + transfer_time_ns(total, self.store.bandwidth)
        port_ns = self.port.write_ns(total)
        return max(memory_ns, port_ns)

    def estimate_for(self, region: str, module: str) -> int:
        return self.estimate_ns(self.store.get(region, module).size_bytes)

    def readback(self, region: str, module: str) -> Generator:
        """Process body: read the region's frames back and verify them.

        Virtex-II configuration readback streams the frames out through the
        same port, so verification costs about another full transfer.
        Returns True when the fabric content matches the golden bitstream.
        """
        entry = self.store.get(region, module)
        token = yield self.port_lock.request()
        actor = f"port.{self.port.name}"
        try:
            if self.trace:
                self.trace.begin(self.sim.now, actor, "readback", detail=f"{region}:{module}")
            yield self.sim.timeout(self.estimate_ns(entry.size_bytes))
            content = self._device_content.get(region)
            return content is not None and content[0] == module and content[1]
        finally:
            if self.trace:
                self.trace.end(self.sim.now, actor, "readback")
            self.port_lock.release(token)

    def build_stream(self, region: str, module: str) -> list[int]:
        """The valid configuration word stream for a stored bitstream.

        Only available when the store holds the full :class:`Bitstream`
        object (not a bare size); raises :class:`ProtocolError` otherwise.
        """
        entry = self.store.get(region, module)
        if entry.bitstream is None:
            raise ProtocolError(
                f"{region}/{module}: only the size is registered; no frame data to stream"
            )
        return list(entry.bitstream.words())

    # -- simulated transfer ------------------------------------------------------------

    def load(self, region: str, module: str) -> Generator:
        """Process body: perform the configuration transfer.

        Acquires the port, checks the stored CRC, then spends the pipelined
        transfer time.  Raises :class:`ProtocolError` on CRC mismatch (the
        device would reject the stream and the old module stays active).
        """
        entry = self.store.get(region, module)
        token = yield self.port_lock.request()
        start = self.sim.now
        actor = f"port.{self.port.name}"
        try:
            if self.trace:
                self.trace.begin(start, actor, "reconfig", detail=f"{region}<-{module}")
            if self.verify_crc and not entry.verify():
                raise ProtocolError(
                    f"bitstream CRC check failed for {region}/{module}; configuration aborted"
                )
            yield self.sim.timeout(self.estimate_ns(entry.size_bytes))
            upset = bool(self.upset_injector(region, module)) if self.upset_injector else False
            self._device_content[region] = (module, not upset)
            outcome = LoadOutcome(
                region=region,
                module=module,
                size_bytes=entry.size_bytes,
                start_ns=start,
                duration_ns=self.sim.now - start,
            )
            self.loads.append(outcome)
            return outcome
        finally:
            if self.trace:
                self.trace.end(self.sim.now, actor, "reconfig")
            self.port_lock.release(token)
