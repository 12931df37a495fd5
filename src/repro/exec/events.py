"""Structured sweep-engine lifecycle events.

The :class:`~repro.exec.engine.ParallelSweepEngine` narrates a sweep with
:class:`SweepEvent` records: one per job lifecycle step (dispatched,
started, finished, retried, timed out, failed), per worker lifecycle step
(spawned, crashed, stopped) and one summary when the sweep completes.  The
engine keeps them in :attr:`~repro.exec.engine.SweepReport.events`; timing
and cache traffic are recorded as spans (``sweep:``, ``job:``,
``attempt:`` and the workers' ``stage:`` spans) when a tracer is installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional

__all__ = ["SweepEvent", "SWEEP_EVENT_KINDS"]

#: Every kind a :class:`SweepEvent` may carry.
SWEEP_EVENT_KINDS = (
    "job_dispatched",
    "job_started",
    "job_finished",
    "job_failed",
    "job_retried",
    "job_timeout",
    "worker_spawned",
    "worker_respawned",
    "worker_crashed",
    "worker_stopped",
    "pool_reused",
    "cache_warning",
    "sweep_completed",
)


@dataclass(frozen=True)
class SweepEvent:
    """One step in the life of a parallel sweep."""

    kind: str  #: one of :data:`SWEEP_EVENT_KINDS`
    sweep: str = "sweep"  #: sweep identity (the engine's ``sweep_name``)
    job: str = ""  #: job id, empty for worker/sweep-level events
    worker: Optional[int] = None  #: worker index, when attributable
    attempt: int = 0  #: 1-based attempt number for job events
    wall_time_s: float = 0.0  #: job wall time where known
    detail: str = ""  #: human-readable context (error text, reason)
    metrics: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_EVENT_KINDS:
            raise ValueError(f"unknown sweep event kind {self.kind!r}")
