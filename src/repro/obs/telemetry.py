"""The :class:`Telemetry` bundle: metrics + events + manifest.

Instrumented components (:class:`~repro.core.asm.ASMEngine`,
:class:`~repro.congest.simulator.Simulator`, the CLI) take one
``telemetry`` object instead of three separate sinks.  The module-level
:data:`NULL_TELEMETRY` is the shared disabled instance every component
defaults to — all of its operations are no-ops, so uninstrumented runs
pay (nearly) nothing.

Example
-------
>>> tel = Telemetry.create()
>>> with tel.metrics.timer("phase.example"):
...     pass
>>> tel.events.emit("congest_round", round=1, messages=0, bits=0)
>>> tel.enabled, NULL_TELEMETRY.enabled
(True, False)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.events import EventLog
from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry

__all__ = ["Telemetry", "NULL_TELEMETRY"]


@dataclass
class Telemetry:
    """One run's telemetry sinks: registry, event log, manifest.

    The registry is the one sink for timings and op counts: its timers
    feed both the phase histograms and the wall-clock spans a Chrome
    trace is read from.  ``tracer`` is the ``repro.trace`` hook
    (:class:`~repro.trace.span.CausalTracer`), typed loosely because
    importing ``repro.trace`` here would cycle through
    ``repro.core.asm``.  Components test it against ``None`` and skip
    every hook when absent, so untraced runs pay nothing.
    """

    metrics: MetricsRegistry
    events: EventLog
    manifest: Optional[RunManifest] = None
    tracer: Optional[Any] = None

    @property
    def enabled(self) -> bool:
        """Whether either classic sink records anything."""
        return self.metrics.enabled or self.events.enabled

    @classmethod
    def create(
        cls,
        manifest: Optional[RunManifest] = None,
        tracer: Optional[Any] = None,
    ) -> "Telemetry":
        """A fresh enabled bundle (one per run)."""
        return cls(
            metrics=MetricsRegistry(enabled=True),
            events=EventLog(enabled=True),
            manifest=manifest,
            tracer=tracer,
        )

    @classmethod
    def tracing(cls, tracer: Optional[Any] = None) -> "Telemetry":
        """A bundle carrying only the causal tracer hook.

        Metrics and events stay disabled (``enabled`` is ``False``), so
        the classic counter paths keep their no-op cost while the
        tracer hooks fire.
        """
        return cls(
            metrics=MetricsRegistry(enabled=False),
            events=EventLog(enabled=False),
            manifest=None,
            tracer=tracer,
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A fresh disabled bundle (prefer :data:`NULL_TELEMETRY`)."""
        return cls(
            metrics=MetricsRegistry(enabled=False),
            events=EventLog(enabled=False),
            manifest=None,
        )


#: Shared no-op bundle; the default for every instrumented component.
NULL_TELEMETRY = Telemetry.disabled()
