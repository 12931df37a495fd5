"""Unified observability: hierarchical tracing, numeric telemetry and exporters.

The flow spans many cooperating layers — the staged pipeline, the parallel
sweep engine and its spawn workers, the adequation schedulers and the
runtime reconfiguration manager running on the discrete-event kernel.  This
package gives them one vocabulary with two ambients: spans for *when*
(:func:`get_tracer`) and one telemetry hub for *how much*
(:func:`get_telemetry`):

- :mod:`repro.obs.tracer` — trace-id/span-id/parent-id spans with attribute
  bags; a zero-cost no-op tracer is the ambient default
  (:func:`get_tracer`), a recording :class:`Tracer` is installed per traced
  run (:func:`use_tracer`).  :class:`SpanContext` pickles cleanly so the
  sweep engine propagates it over worker pipes and worker stage spans
  parent under their job span across the process boundary.
- :mod:`repro.obs.telemetry` — the one counter/gauge/quantile
  implementation: streaming dimensionally-labeled time-series
  (:class:`TimeSeriesStore`: windowed counters/gauges/quantile sketches
  keyed by label sets) and declarative SLO rules
  (:class:`SloRule`/:class:`SloMonitor`) with typed breach events.  The
  ambient :class:`Telemetry` hub (:func:`get_telemetry`/:func:`use_telemetry`,
  ``None`` by default) keeps one store per clock domain; run totals (stage
  counts, link frames, sweep jobs, reconfiguration stats) go to its
  ``"run"`` domain at ``t=0``.  Sweep workers ship their run store's rows
  back over the pipe and the engine folds them in with
  :meth:`TimeSeriesStore.merge`.
- :mod:`repro.obs.sketch` — the mergeable DDSketch-style
  :class:`QuantileSketch` behind quantile series.
- :mod:`repro.obs.bridge` — re-bases the sim kernel's virtual-time trace
  onto the same span model and feeds the pre-existing stat bags
  (``ManagerStats``/``ReconfigStats``, fleet and search totals) into a
  store.
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto-loadable,
  including ``ph:"C"`` counter tracks unrolled from telemetry stores), the
  Fig. 4 per-region residency Gantt (text and SVG) and run manifests whose
  ``metrics`` block is the hub's telemetry rows.
- :mod:`repro.obs.validate` — the trace-schema validator CI gates on.
- :mod:`repro.obs.history` — benchmark headline history
  (``benchmarks/results/HISTORY.jsonl``) and the :func:`bench_check`
  regression gate the CLI exposes as ``repro bench-check``.
- :mod:`repro.obs.dashboard` — the ``fleet --live`` terminal dashboard
  renderers.
"""

from repro.obs.tracer import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    SpanContext,
    Tracer,
    get_tracer,
    new_trace_id,
    set_tracer,
    use_tracer,
)
from repro.obs.bridge import (
    record_counts,
    record_fleet_stats,
    record_manager_stats,
    record_search_stats,
    spans_from_sim_trace,
)
from repro.obs.export import (
    build_manifest,
    chrome_trace,
    counter_events_from_store,
    manifest_path_for,
    region_timeline,
    render_region_gantt,
    render_region_gantt_svg,
    write_chrome_trace,
    write_manifest,
)
from repro.obs.validate import validate_chrome_trace, validate_trace_file
from repro.obs.sketch import (
    DEFAULT_RELATIVE_ACCURACY,
    QuantileSketch,
)
from repro.obs.telemetry import (
    SloBreach,
    SloMonitor,
    SloRule,
    Telemetry,
    TimeSeriesStore,
    get_telemetry,
    set_telemetry,
    use_telemetry,
)
from repro.obs.history import (
    DEFAULT_HISTORY_PATH,
    CheckResult,
    HistoryEntry,
    append_from_result,
    backfill,
    bench_check,
    extract_headline,
    load_history,
)
from repro.obs.dashboard import render_dashboard, render_fleet_panel, sparkline

__all__ = [
    "NOOP_TRACER",
    "NoopTracer",
    "Span",
    "SpanContext",
    "Tracer",
    "get_tracer",
    "new_trace_id",
    "set_tracer",
    "use_tracer",
    "record_counts",
    "record_fleet_stats",
    "record_manager_stats",
    "record_search_stats",
    "spans_from_sim_trace",
    "build_manifest",
    "chrome_trace",
    "manifest_path_for",
    "region_timeline",
    "render_region_gantt",
    "render_region_gantt_svg",
    "write_chrome_trace",
    "write_manifest",
    "validate_chrome_trace",
    "validate_trace_file",
    "counter_events_from_store",
    "DEFAULT_RELATIVE_ACCURACY",
    "QuantileSketch",
    "SloBreach",
    "SloMonitor",
    "SloRule",
    "Telemetry",
    "TimeSeriesStore",
    "get_telemetry",
    "set_telemetry",
    "use_telemetry",
    "DEFAULT_HISTORY_PATH",
    "CheckResult",
    "HistoryEntry",
    "append_from_result",
    "backfill",
    "bench_check",
    "extract_headline",
    "load_history",
    "render_dashboard",
    "render_fleet_panel",
    "sparkline",
]
