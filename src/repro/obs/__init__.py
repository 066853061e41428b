"""``repro.obs`` — the unified telemetry layer.

One subsystem carries every quantitative claim the repo makes:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms (p50/p95/max), a :func:`time.perf_counter`-based
  :class:`~repro.obs.metrics.Timer` whose spans feed a Chrome trace,
  and flat event records over the run-scoped schema
  :data:`~repro.obs.metrics.EVENT_KINDS` (``proposal_round``,
  ``quantile_match``, ``outer_iteration``, ``congest_round``, ...) on
  the spans' clock, with a near-zero-overhead no-op mode when
  disabled;
* :class:`~repro.obs.manifest.RunManifest` — provenance embedded in
  every exported artifact;
* :class:`~repro.obs.telemetry.Telemetry` — the bundle instrumented
  components accept (ASM engine, CONGEST simulator, dynamic engine,
  trial pool, CLI) and write into directly, defaulting to the shared
  no-op :data:`~repro.obs.telemetry.NULL_TELEMETRY`.

Exports flow through :func:`repro.io.save_metrics`, one versioned
artifact holding counters, gauges, histogram summaries, event records,
the timer spans as Chrome ``traceEvents`` and, for traced runs, the
causal trace; the CLI exposes it as ``--metrics-out`` on ``run``,
``congest``, ``trace`` and ``dynamic``.
See ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.manifest import RunManifest, git_describe
from repro.obs.metrics import (
    EVENT_KINDS,
    MetricsRegistry,
    Timer,
    histogram_summary,
    percentile,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "EVENT_KINDS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "RunManifest",
    "Telemetry",
    "Timer",
    "git_describe",
    "histogram_summary",
    "percentile",
]

