"""Reference link simulation: one frame at a time through the scalar kernels.

This is the Monte-Carlo loop the link engine ran before frames were batched.
:class:`repro.mccdma.engine.LinkSimulationEngine` must stay field-identical
to it on every :class:`~repro.mccdma.engine.LinkResult`
(``tests/mccdma/test_link_engine.py``,
``benchmarks/bench_linklevel_throughput.py``).  Planning, seeding, batch
boundaries, early stopping and events are inherited unchanged; only the
simulation of a batch is swapped.
"""

from __future__ import annotations

import numpy as np

from repro.mccdma.channel import AWGNChannel
from repro.mccdma.engine import LinkSimulationEngine


class PerFrameLinkEngine(LinkSimulationEngine):
    """:class:`LinkSimulationEngine` with the per-frame batch loop."""

    def _run_batch(self, indices, trace, plans, streams, acc) -> None:
        n_users = self.config.n_users
        for i in indices:
            plan = list(plans[i])
            data_ss, noise_ss = streams[i]
            nbits = self.tx.frame_bits(plan)
            bits = np.random.default_rng(data_ss).integers(
                0, 2, size=(n_users, nbits)
            ).astype(np.uint8)
            frame = self.tx.transmit_frame(bits, plan)
            channel = AWGNChannel(float(trace[i]), seed=noise_ss)
            received = self.rx.receive_frame(frame, samples=channel.transmit(frame.samples))
            acc.add_frame(bits.size, int(np.sum(received != bits)))
