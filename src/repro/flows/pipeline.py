"""The staged flow pipeline: content-addressed artefact caching.

The paper's Fig. 3 methodology is an explicit multi-stage flow.  This module
gives it a first-class representation:

- :func:`fingerprint` and the ``fingerprint_*`` helpers reduce the flow's
  inputs (algorithm graph, architecture graph, operation library, mapping
  and dynamic-module constraints, reconfiguration architecture, device,
  scheduler) to stable SHA-256 digests.  Digests are computed over canonical
  JSON, never over ``hash()``/``repr`` of live objects, so they are
  identical across processes and Python invocations.
- :class:`ArtifactCache` is a content-addressed store (in-memory LRU with an
  optional on-disk pickle tier) keyed by those digests.
- :class:`Stage` + :class:`FlowPipeline` run a sequence of stages through
  the cache, emitting one :class:`~repro.flows.observe.FlowEvent` per stage.

Stage keys are *derivation keys*: each stage's key digests its own direct
inputs plus the keys of the upstream stages it consumes, so any upstream
change invalidates everything downstream — and nothing else.  Notably the
adequation key digests the architecture graph's scheduling-relevant features
(operator classes, clocks, regions, media) but **not** the FPGA device
identity, so a design-space sweep that only swaps the device reuses the
modelisation and first-pass adequation artefacts.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Mapping, Optional, Sequence, Type

from repro.arch.graph import ArchitectureGraph
from repro.dfg.graph import AlgorithmGraph
from repro.dfg.library import OperationLibrary
from repro.fabric.device import VirtexIIDevice
from repro.flows.observe import FlowEvent, FlowObserver, LoggingObserver

__all__ = [
    "fingerprint",
    "fingerprint_graph",
    "fingerprint_architecture",
    "fingerprint_library",
    "fingerprint_mapping",
    "fingerprint_dynamic_constraints",
    "fingerprint_reconfig_architecture",
    "fingerprint_device",
    "fingerprint_scheduler",
    "CacheStats",
    "ArtifactCache",
    "Stage",
    "FlowPipeline",
]


# -- fingerprints ------------------------------------------------------------------


def fingerprint(*parts: Any) -> str:
    """SHA-256 over the canonical JSON encoding of ``parts``.

    Parts must already be JSON-serializable (strings — typically upstream
    fingerprints — numbers, bools, lists, dicts).  ``sort_keys`` makes the
    digest independent of dict insertion order.
    """
    payload = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def fingerprint_graph(graph: AlgorithmGraph) -> str:
    """Digest of the algorithm graph via its stable JSON serialization."""
    from repro.dfg import io as dfg_io

    return fingerprint("algorithm-graph", dfg_io.to_dict(graph))


def fingerprint_architecture(arch: ArchitectureGraph) -> str:
    """Digest of the architecture graph's *scheduling-relevant* features.

    Deliberately excludes each operator's physical ``device`` reference:
    adequation depends on operator classes, clocks, regions and media — not
    on which Virtex-II part hosts them — so sweeps across devices can reuse
    the adequation artefacts.  The device enters the modular-back-end key
    through :func:`fingerprint_device` instead.
    """
    operators = [
        {
            "name": op.name,
            "kind": op.kind.value,
            "operator_class": op.operator_class,
            "clock_mhz": op.clock_mhz,
            "region": op.region,
        }
        for op in arch.operators
    ]
    media = [
        {
            "name": m.name,
            "kind": m.kind.value,
            "bandwidth_mbps": m.bandwidth_mbps,
            "latency_ns": m.latency_ns,
        }
        for m in arch.media
    ]
    links = sorted(
        (op.name, medium.name) for medium in arch.media for op in arch.operators_on(medium)
    )
    return fingerprint("architecture-graph", arch.name, operators, media, links)


def fingerprint_library(library: OperationLibrary) -> str:
    specs = [
        {
            "kind": spec.kind,
            "cycles": dict(spec.cycles),
            "fpga_resources": dict(spec.fpga_resources),
        }
        for spec in (library.get(kind) for kind in sorted(library.kinds()))
    ]
    return fingerprint("operation-library", specs)


def fingerprint_mapping(constraints) -> str:
    """Digest of :class:`~repro.aaa.mapping.MappingConstraints` pins/filters."""
    return fingerprint("mapping-constraints", constraints.snapshot())


def fingerprint_dynamic_constraints(constraints) -> str:
    """Digest of a parsed dynamic-module constraints file (or ``None``)."""
    if constraints is None:
        return fingerprint("dynamic-constraints", None)
    modules = [
        {
            "name": m.name,
            "region": m.region,
            "operation": m.operation,
            "loading": m.loading,
            "unloading": m.unloading,
        }
        for m in sorted(constraints.modules.values(), key=lambda m: m.name)
    ]
    regions = [
        {"name": r.name, "sharing": r.sharing, "exclusive": sorted(r.exclusive)}
        for r in sorted(constraints.regions.values(), key=lambda r: r.name)
    ]
    return fingerprint("dynamic-constraints", modules, regions)


def fingerprint_reconfig_architecture(arch) -> str:
    """Digest of a Fig. 2 :class:`~repro.reconfig.architectures.ReconfigArchitecture`."""
    return fingerprint(
        "reconfig-architecture",
        arch.name,
        arch.manager_location,
        arch.builder_location,
        {
            "name": arch.port.name,
            "width_bits": arch.port.width_bits,
            "clock_mhz": arch.port.clock_mhz,
            "setup_ns": arch.port.setup_ns,
            "internal": arch.port.internal,
        },
        arch.memory_bandwidth_bytes_per_s,
        arch.memory_access_ns,
        arch.request_latency_ns,
    )


def fingerprint_device(device: VirtexIIDevice) -> str:
    return fingerprint(
        "device",
        device.name,
        device.clb_rows,
        device.clb_cols,
        device.full_bitstream_bits,
        list(device.bram_cols),
        device.brams_per_col,
    )


def fingerprint_scheduler(scheduler: Type, kwargs: Optional[Mapping[str, Any]] = None) -> str:
    return fingerprint(
        "scheduler",
        f"{scheduler.__module__}.{scheduler.__qualname__}",
        dict(kwargs or {}),
    )


# -- the content-addressed artefact cache ------------------------------------------


@dataclass
class CacheStats:
    """Hit/miss accounting for one :class:`ArtifactCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    corruptions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "corruptions": self.corruptions,
            "hit_rate": self.hit_rate(),
        }


class ArtifactCache:
    """Content-addressed store for stage artefacts.

    In-memory LRU (``max_entries``) with an optional on-disk pickle tier
    (``disk_dir``): a memory miss falls through to disk and promotes the
    artefact back into memory, so a fresh process pointed at the same
    directory starts warm.  Keys are the stage derivation fingerprints, so
    one cache can safely be shared by many flows over many design points —
    identical inputs address identical artefacts.

    The disk tier is safe for **concurrent multi-process access** (the
    parallel sweep engine points every worker at one directory):

    - writes go through :func:`repro.exec.locks.atomic_write_bytes`
      (unique temp + ``os.replace``) under a per-key advisory
      :class:`~repro.exec.locks.FileLock`, so readers never observe a
      partial file and concurrent writers of the same content-addressed
      entry race harmlessly;
    - reads are corruption-tolerant: a truncated or garbage entry (e.g.
      a crash mid-write on a non-atomic filesystem) is treated as a miss,
      the bad file is deleted under its key lock, and a warning is
      recorded (``stats.corruptions``, ``warnings``, the ``repro.flows``
      logging channel and the optional ``on_warning`` callback) instead of
      raising into the flow.

    Instances pickle safely (the in-memory tier and thread lock are
    process-local and dropped), so a cache object may appear inside a
    spawn-context job description; each process then re-opens the same
    disk directory with a cold memory tier.
    """

    def __init__(
        self,
        max_entries: int = 256,
        disk_dir: Optional[str | Path] = None,
        on_warning: Optional[Callable[[str], None]] = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
        self.on_warning = on_warning
        self.stats = CacheStats()
        self.warnings: list[str] = []
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries or self._disk_path(key) is not None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        # Process-local pieces: the thread lock cannot cross a spawn
        # boundary and the memory tier should not be shipped wholesale.
        state["_lock"] = None
        state["_entries"] = OrderedDict()
        state["on_warning"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def _disk_path(self, key: str) -> Optional[Path]:
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{key}.pkl"
        return path if path.exists() else None

    def _key_lock(self, key: str):
        from repro.exec.locks import FileLock

        assert self.disk_dir is not None
        return FileLock(self.disk_dir / ".locks" / f"{key}.lock")

    def _warn(self, message: str) -> None:
        self.stats.corruptions += 1
        self.warnings.append(message)
        logging.getLogger("repro.flows").warning("%s", message)
        if self.on_warning is not None:
            self.on_warning(message)

    def _drop_corrupt(self, key: str, path: Path, err: BaseException) -> None:
        """Delete a bad disk entry (under its key lock) and record a warning."""
        try:
            with self._key_lock(key):
                path.unlink(missing_ok=True)
        except OSError:
            pass
        self._warn(
            f"artifact cache: dropped corrupt entry {path.name} "
            f"({type(err).__name__}: {err}); treated as a miss"
        )

    def get(self, key: str) -> Optional[Any]:
        """The artefact for ``key``, or ``None`` on a miss."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return self._entries[key]
            path = self._disk_path(key)
            if path is not None:
                # No read lock needed: writers swap entries in atomically,
                # so we see either the old or the new complete file.
                try:
                    value = pickle.loads(path.read_bytes())
                except FileNotFoundError:
                    pass  # raced a concurrent corrupt-entry deletion
                except Exception as err:  # truncated/garbage pickle: self-heal
                    self._drop_corrupt(key, path, err)
                else:
                    self.stats.hits += 1
                    self._insert(key, value)
                    return value
            self.stats.misses += 1
            return None

    def put(self, key: str, value: Any) -> Any:
        """Store ``value``; returns the cache's canonical copy of it.

        With a disk tier the canonical copy is the pickle round-trip of
        ``value`` — the same object graph any other process will observe —
        and the memory tier keeps that copy too.  Consumers (the pipeline)
        continue with the returned value, so a stage's downstream inputs
        are identical whether its artefact was computed here, promoted from
        disk, or computed by a sibling worker: byte-identical artefacts
        regardless of hit/miss scheduling.  Without a disk tier the value
        is returned (and kept) as-is.
        """
        from repro.exec.locks import atomic_write_bytes

        with self._lock:
            self.stats.stores += 1
            if self.disk_dir is not None:
                try:
                    payload = pickle.dumps(value)
                except (pickle.PickleError, TypeError, AttributeError) as err:
                    self._warn(
                        f"artifact cache: {key[:12]} not persisted "
                        f"({type(err).__name__}: {err}); kept in memory only"
                    )
                    self._insert(key, value)
                    return value
                value = pickle.loads(payload)  # canonical round-tripped copy
                try:
                    with self._key_lock(key):
                        atomic_write_bytes(self.disk_dir / f"{key}.pkl", payload)
                except OSError as err:
                    self._warn(
                        f"artifact cache: {key[:12]} not persisted "
                        f"({type(err).__name__}: {err}); kept in memory only"
                    )
            self._insert(key, value)
            return value

    def _insert(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier, if any, is kept)."""
        with self._lock:
            self._entries.clear()


# -- stages and the pipeline -------------------------------------------------------


@dataclass(frozen=True)
class Stage:
    """One step of the flow.

    ``key`` and ``execute`` both receive the mapping of upstream artefacts
    (stage name → artefact), so a stage's derivation key can chain on its
    predecessors' keys and its body can consume their results.  ``metrics``
    optionally extracts a small JSON-safe summary from the artefact for the
    stage's :class:`~repro.flows.observe.FlowEvent`.
    """

    name: str
    key: Callable[[Mapping[str, Any]], str]
    execute: Callable[[Mapping[str, Any]], Any]
    metrics: Optional[Callable[[Any], Mapping[str, Any]]] = None


class FlowPipeline:
    """Run stages in order through an (optional) content-addressed cache.

    Each stage computes its derivation key, consults the cache, executes on
    a miss, stores the artefact, and emits a :class:`FlowEvent` to the
    observer.  With no cache every stage executes; with no observer events
    go to the default :class:`~repro.flows.observe.LoggingObserver` (silent
    unless the application configures logging).
    """

    def __init__(
        self,
        stages: Sequence[Stage],
        cache: Optional[ArtifactCache] = None,
        observer: Optional[FlowObserver] = None,
        flow_name: str = "flow",
    ):
        names = [s.name for s in stages]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate stage names: {names}")
        self.stages = list(stages)
        self.cache = cache
        self.observer = observer if observer is not None else LoggingObserver()
        self.flow_name = flow_name
        self.events: list[FlowEvent] = []
        self.keys: dict[str, str] = {}

    def run(self) -> dict[str, Any]:
        """Execute every stage; returns stage name → artefact.

        When a recording tracer is installed (:func:`repro.obs.get_tracer`),
        the run becomes a ``flow:`` span with one ``stage:`` child span per
        stage; when a telemetry hub is installed
        (:func:`repro.obs.get_telemetry`), the stage/cache traffic is
        counted into its ``"run"`` domain.  The :class:`FlowEvent` stream is
        unchanged either way — observation wraps the events, it never
        rewrites them.
        """
        from repro.obs import get_telemetry, get_tracer, record_counts

        tracer = get_tracer()
        hub = get_telemetry()
        run_store = hub.store("run") if hub is not None else None
        artifacts: dict[str, Any] = {}
        with tracer.span(f"flow:{self.flow_name}"):
            for stage in self.stages:
                stage_span = tracer.span(f"stage:{stage.name}").start()
                started = perf_counter()
                key = stage.key(artifacts)
                artifact = self.cache.get(key) if self.cache is not None else None
                hit = artifact is not None
                if not hit:
                    artifact = stage.execute(artifacts)
                    if self.cache is not None and artifact is not None:
                        # Continue with the cache's canonical copy so downstream
                        # stages see the same object graph in every process.
                        artifact = self.cache.put(key, artifact)
                artifacts[stage.name] = artifact
                self.keys[stage.name] = key
                wall_time_s = perf_counter() - started
                event = FlowEvent(
                    flow=self.flow_name,
                    stage=stage.name,
                    cache_hit=hit,
                    wall_time_s=wall_time_s,
                    fingerprint=key,
                    metrics=dict(stage.metrics(artifact)) if stage.metrics is not None else {},
                )
                if tracer.enabled:
                    stage_span.set_attribute("flow", self.flow_name)
                    stage_span.set_attribute("cache_hit", hit)
                    stage_span.set_attribute("fingerprint", key[:16])
                    for name, value in event.metrics.items():
                        stage_span.set_attribute(f"metric.{name}", value)
                if run_store is not None:
                    run_store.counter_add("flow.stages_total", 0)
                    run_store.counter_add(
                        "flow.stage_cache_hits" if hit else "flow.stage_cache_misses", 0
                    )
                    run_store.observe("flow.stage_seconds", 0, wall_time_s)
                    # Numeric stage metrics (e.g. the adequation stages'
                    # SchedulerStats placement accounting) become counters.
                    record_counts(run_store, f"stage.{stage.name}", event.metrics)
                stage_span.end()
                self.events.append(event)
                self.observer.on_event(event)
        return artifacts
