"""``repro.obs`` — the unified telemetry layer.

One subsystem carries every quantitative claim the repo makes:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges,
  histograms (p50/p95/max), and a :func:`time.perf_counter`-based
  :class:`~repro.obs.metrics.Timer`, with a near-zero-overhead no-op
  mode when disabled;
* :class:`~repro.obs.events.EventLog` — JSONL-able structured records
  over the run-scoped schema :data:`~repro.obs.events.EVENT_KINDS`
  (``proposal_round``, ``quantile_match``, ``outer_iteration``,
  ``congest_round``, ``message_batch``);
* :class:`~repro.obs.manifest.RunManifest` — provenance embedded in
  every exported artifact;
* :class:`~repro.obs.telemetry.Telemetry` — the bundle instrumented
  components accept (ASM engine, CONGEST simulator, dynamic engine,
  trial pool, CLI) and write into directly, defaulting to the shared
  no-op :data:`~repro.obs.telemetry.NULL_TELEMETRY`.

Exports flow through :func:`repro.io.save_metrics` /
:func:`repro.io.save_events`; the CLI exposes them as
``--metrics-out`` / ``--events-out`` on ``run`` and ``congest``.
See ``docs/observability.md``.
"""

from __future__ import annotations

from repro.obs.events import EVENT_KINDS, Event, EventLog
from repro.obs.manifest import RunManifest, git_describe
from repro.obs.metrics import (
    MetricsRegistry,
    Timer,
    histogram_summary,
    percentile,
)
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "RunManifest",
    "Telemetry",
    "Timer",
    "git_describe",
    "histogram_summary",
    "percentile",
]

