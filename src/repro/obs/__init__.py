"""Observability layer over the simulator and the experiment harness.

The paper's headline diagnostics are *event-level* claims — ~60 000
context switches per compressed MB under the OS baseline vs ~10 under
CStream, ondemand DVFS thrashing between levels, fusion winning exactly
when ``l_comm > l_comp``. This package makes those mechanisms visible
the way CStream's own perf-based profiling and INA226 sampling did on
real hardware:

* :class:`~repro.obs.trace.TraceRecorder` — structured span / instant /
  counter events hooked into the DES engine, the pipeline executor, the
  DVFS governors, the EAS placement model and the energy meter. Tracing
  defaults *off* and never perturbs a simulated number: every hook is a
  guarded read-only observer (``if trace is not None``), so a traced run
  is byte-identical to an untraced one.
* :class:`~repro.obs.trace.TraceSummary` — the compact per-run digest
  (context switches/MB, migrations, DVFS transitions, per-core
  occupancy, queue-depth highwater) attached to
  :class:`~repro.runtime.metrics.RunResult` and cacheable alongside it.
* :mod:`~repro.obs.export` — Chrome trace-event / Perfetto JSON export
  (open the file in https://ui.perfetto.dev or ``chrome://tracing``).
* :mod:`~repro.obs.registry` — a process-wide metrics registry (wall
  clock timers + counters + sample series with total-edge-case
  percentiles) used by the scheduler search, the result cache and the
  harness to expose where *real* time goes.
* :mod:`~repro.obs.residuals` — the model-vs-measured residual ledger:
  per-window decomposition of the latency/energy residual to
  stage × core × interconnect-path components, with EWMA baselines and
  seeded deterministic anomaly scoring. The same zero-overhead
  contract as tracing: every executor hook is behind an
  ``if telemetry is not None`` guard (lint rule CSA009).
* :mod:`~repro.obs.health` — :class:`~repro.obs.health.SessionHealth`
  reports naming the most-implicated component per window (degraded
  link, retry-heavy stage, underperforming core) with confidence; the
  controller consumes these as its ``reason="diagnosis"`` trigger.
  Its dataclasses are the one schema of the session (v1) and fleet
  (v2) reports: JSON, parsing, finiteness and validation all derive
  from their field types.
* :mod:`~repro.obs.live` — live telemetry export: NDJSON tail
  (``cstream top``) and Prometheus-style text exposition.
* :mod:`~repro.obs.check` — the validator for the exported trace
  files and health reports (used by CI on the traced smoke run and the
  chaos and fleet health artifacts).
"""

from repro.obs.registry import (
    REGISTRY,
    MetricsRegistry,
    diff_snapshots,
    quantile,
)
from repro.obs.trace import (
    TraceEvent,
    TraceRecorder,
    TraceSummary,
    active_recorder,
    set_active_recorder,
)
from repro.obs.export import chrome_trace, write_chrome_trace
from repro.obs.residuals import (
    LedgerConfig,
    ResidualLedger,
    TelemetryCollector,
    WindowTelemetry,
)
from repro.obs.health import Attribution, SessionHealth, WindowHealth
from repro.obs.live import NdjsonTail, prometheus_text, read_ndjson, render_top

__all__ = [
    "Attribution",
    "LedgerConfig",
    "MetricsRegistry",
    "NdjsonTail",
    "REGISTRY",
    "ResidualLedger",
    "SessionHealth",
    "TelemetryCollector",
    "TraceEvent",
    "TraceRecorder",
    "TraceSummary",
    "WindowHealth",
    "WindowTelemetry",
    "active_recorder",
    "chrome_trace",
    "diff_snapshots",
    "prometheus_text",
    "quantile",
    "read_ndjson",
    "render_top",
    "set_active_recorder",
    "write_chrome_trace",
]
