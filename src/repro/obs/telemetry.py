"""The :class:`Telemetry` bundle: metrics registry + manifest + tracer.

Instrumented components (:class:`~repro.core.asm.ASMEngine`,
:class:`~repro.congest.simulator.Simulator`, the CLI) take one
``telemetry`` object instead of separate sinks.  The module-level
:data:`NULL_TELEMETRY` is the shared disabled instance every component
defaults to — all of its operations are no-ops, so uninstrumented runs
pay (nearly) nothing.

Example
-------
>>> tel = Telemetry.create()
>>> with tel.metrics.timer("phase.example"):
...     pass
>>> tel.metrics.emit("congest_round", round=1, messages=0, bits=0)
>>> tel.enabled, NULL_TELEMETRY.enabled
(True, False)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.obs.manifest import RunManifest
from repro.obs.metrics import MetricsRegistry

__all__ = ["Telemetry", "NULL_TELEMETRY"]


@dataclass
class Telemetry:
    """One run's telemetry: registry, manifest, causal tracer hook.

    The registry is the one sink for timings, op counts and event
    records: its timers feed both the phase histograms and the
    wall-clock spans a Chrome trace is read from, and its
    :meth:`~repro.obs.metrics.MetricsRegistry.emit` records share the
    spans' clock.  ``tracer`` is the ``repro.trace`` hook
    (:class:`~repro.trace.span.CausalTracer`), typed loosely because
    importing ``repro.trace`` here would cycle through
    ``repro.core.asm``.  Components test it against ``None`` and skip
    every hook when absent, so untraced runs pay nothing.
    """

    metrics: MetricsRegistry
    manifest: Optional[RunManifest] = None
    tracer: Optional[Any] = None

    @property
    def enabled(self) -> bool:
        """Whether the registry records anything."""
        return self.metrics.enabled

    @classmethod
    def create(
        cls,
        manifest: Optional[RunManifest] = None,
        tracer: Optional[Any] = None,
    ) -> "Telemetry":
        """A fresh enabled bundle (one per run)."""
        return cls(
            metrics=MetricsRegistry(enabled=True),
            manifest=manifest,
            tracer=tracer,
        )

    @classmethod
    def tracing(cls, tracer: Optional[Any] = None) -> "Telemetry":
        """A bundle carrying only the causal tracer hook.

        The registry stays disabled (``enabled`` is ``False``), so the
        counter and event paths keep their no-op cost while the tracer
        hooks fire.
        """
        return cls(
            metrics=MetricsRegistry(enabled=False),
            manifest=None,
            tracer=tracer,
        )

    @classmethod
    def disabled(cls) -> "Telemetry":
        """A fresh disabled bundle (prefer :data:`NULL_TELEMETRY`)."""
        return cls(
            metrics=MetricsRegistry(enabled=False),
            manifest=None,
        )


#: Shared no-op bundle; the default for every instrumented component.
NULL_TELEMETRY = Telemetry.disabled()
