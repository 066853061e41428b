"""Metrics primitives: counters, gauges, histograms, timers and events.

A :class:`MetricsRegistry` is a named bag of

* **counters** — monotonically increasing integers (messages sent,
  rounds executed),
* **gauges** — last-write-wins scalars (final matching size), and
* **histograms** — streams of float observations summarized as
  count / sum / min / mean / p50 / p95 / max (phase wall-times).

Every enabled :meth:`MetricsRegistry.timer` also appends one
``{name, ts, dur, depth}`` wall-clock span to
:attr:`MetricsRegistry.spans`, which :func:`chrome_trace_document`
turns into the Chrome trace events of the run's artifact.  :meth:`MetricsRegistry.emit`
appends one flat ``{kind, seq, t, **fields}`` record to
:attr:`MetricsRegistry.events`; ``t`` is seconds on the spans' clock,
so a record emitted inside a timer falls within its span, and
``kind`` is one of the run-scoped schema :data:`EVENT_KINDS` (each
kind's emitter and fields are tabled in ``docs/observability.md``).
:meth:`MetricsRegistry.summary` is the wall-free view: counters plus
the number of observations per histogram, bit-identical across runs
and worker counts for the same seeded work.

A disabled registry (``MetricsRegistry(enabled=False)``) turns every
operation into a near-zero-cost no-op — ``timer()`` returns a shared
do-nothing context manager and ``inc``/``set_gauge``/``observe``/
``emit`` return immediately — so instrumented hot paths cost almost
nothing when telemetry is off (the benchmark guard in
``tests/test_obs_overhead.py`` enforces this).

Example
-------
>>> reg = MetricsRegistry()
>>> reg.inc("messages", 3)
>>> with reg.timer("phase.work"):
...     _ = sum(range(100))
>>> reg.counters["messages"]
3
>>> reg.to_dict()["histograms"]["phase.work"]["count"]
1
>>> reg.emit("congest_round", round=1, messages=4, bits=48)
>>> [(r["kind"], r["seq"], r["messages"]) for r in reg.events]
[('congest_round', 0, 4)]
>>> reg.emit("nonsense")  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
    ...
InvalidParameterError: unknown event kind 'nonsense'
"""

from __future__ import annotations

import time
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Union

from repro.errors import InvalidParameterError

__all__ = [
    "EVENT_KINDS",
    "MetricsRegistry",
    "Timer",
    "chrome_trace_document",
    "histogram_summary",
    "percentile",
]


#: The run-scoped schema: every event kind :meth:`MetricsRegistry.emit`
#: accepts.
EVENT_KINDS: FrozenSet[str] = frozenset(
    {
        "proposal_round",
        "quantile_match",
        "outer_iteration",
        "congest_round",
        "trial_chunk",
        "fault",
        "slo_sample",
        "slo_violation",
        "dynamic_delta",
        "dynamic_fallback",
    }
)


def _us(seconds: float) -> float:
    """Seconds → microseconds, rounded (Chrome's ``ts``/``dur`` unit)."""
    return round(seconds * 1e6, 3)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted non-empty list."""
    if not sorted_values:
        raise ValueError("percentile of empty list")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    rank = max(1, round(q / 100.0 * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


def histogram_summary(values: List[float]) -> Dict[str, float]:
    """Summary statistics of one histogram's observations."""
    ordered = sorted(values)
    count = len(ordered)
    total = sum(ordered)
    return {
        "count": count,
        "sum": total,
        "min": ordered[0],
        "mean": total / count,
        "p50": percentile(ordered, 50.0),
        "p95": percentile(ordered, 95.0),
        "max": ordered[-1],
    }


class _NullTimer:
    """Shared no-op context manager for disabled registries."""

    __slots__ = ()

    def __enter__(self) -> "_NullTimer":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class Timer:
    """Context manager recording a wall-time observation on exit.

    Built on :func:`time.perf_counter`; the elapsed seconds land in the
    registry histogram named at construction, and one span (start and
    duration in microseconds since the registry was created, nesting
    depth among the registry's open timers) lands in its ``spans``.
    """

    __slots__ = ("_registry", "_name", "_t0", "elapsed")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._t0 = 0.0
        self.elapsed: Optional[float] = None

    def __enter__(self) -> "Timer":
        self._registry._depth += 1
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.elapsed = time.perf_counter() - self._t0
        registry = self._registry
        registry._depth -= 1
        registry.record_span(self._name, self._t0, self.elapsed)
        return False


class MetricsRegistry:
    """Named counters, gauges, histograms and event records with a
    no-op mode.

    Parameters
    ----------
    enabled:
        When False, every mutation is a no-op and ``timer()`` hands
        back a shared null context manager.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, List[float]] = {}
        #: Completed timer spans; merged registries tag theirs with a
        #: Chrome ``tid`` lane (see :meth:`merge`).
        self.spans: List[Dict[str, Any]] = []
        #: Emitted event records, in emission (or merge) order.
        self.events: List[Dict[str, Any]] = []
        self._t0 = time.perf_counter()
        self._depth = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def inc(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        if not self.enabled:
            return
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Append one observation to histogram ``name``."""
        if not self.enabled:
            return
        self.histograms.setdefault(name, []).append(value)

    def timer(self, name: str) -> Union[Timer, _NullTimer]:
        """A context manager timing its body into histogram ``name``
        and one span."""
        if not self.enabled:
            return _NULL_TIMER
        return Timer(self, name)

    def record_span(self, name: str, t0: float, elapsed: float) -> None:
        """Record a timing taken by hand: ``elapsed`` seconds from the
        :func:`time.perf_counter` reading ``t0``, as one observation of
        histogram ``name`` and one span at the current timer depth.

        What a :meth:`timer` records on exit, for callers that decide
        only after the work whether it is worth a record.
        """
        if not self.enabled:
            return
        self.observe(name, elapsed)
        self.spans.append(
            {
                "name": name,
                "ts": _us(t0 - self._t0),
                "dur": _us(elapsed),
                "depth": self._depth,
            }
        )

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event record of schema ``kind``: ``{"kind",
        "seq", "t", **fields}``, ``t`` in seconds since the registry
        was created (the clock its spans' ``ts`` count from)."""
        if not self.enabled:
            return
        if kind not in EVENT_KINDS:
            raise InvalidParameterError(
                f"unknown event kind {kind!r}; known kinds: "
                f"{', '.join(sorted(EVENT_KINDS))}"
            )
        record: Dict[str, Any] = {
            "kind": kind,
            "seq": len(self.events),
            "t": round(time.perf_counter() - self._t0, 9),
        }
        record.update(fields)
        self.events.append(record)

    # ------------------------------------------------------------------
    # Merging (repro.parallel worker -> parent aggregation)
    # ------------------------------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry.

        Counters add, gauges are last-write-wins (``other`` wins),
        histogram observation streams are concatenated.  The result is
        deterministic for a deterministic *merge order* — the parallel
        layer always merges worker registries in trial-spec order, so a
        sweep's merged metrics are identical for any worker count.
        ``other``'s spans follow this registry's on lanes of their own:
        its lane ``t`` becomes lane ``lanes + t``, where ``lanes`` is
        one past the highest lane already here, so registries merged
        one per trial keep one Chrome ``tid`` lane each.  ``other``'s
        event records follow this registry's, renumbered in merge
        order (their ``t`` stays on ``other``'s clock).
        """
        if not self.enabled:
            return
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        self.gauges.update(other.gauges)
        for name, values in other.histograms.items():
            self.histograms.setdefault(name, []).extend(values)
        lanes = 1 + max((s.get("tid", 0) for s in self.spans), default=-1)
        for span in other.spans:
            self.spans.append({**span, "tid": lanes + span.get("tid", 0)})
        for record in other.events:
            self.events.append({**record, "seq": len(self.events)})

    def raw_state(self) -> Dict[str, Any]:
        """Lossless JSON/pickle-safe state (histograms keep raw values).

        Unlike :meth:`to_dict` (which summarizes histograms), this is
        the exact mutable state — what a worker process ships back to
        the parent so :meth:`merge` can fold it in.
        """
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: list(v) for k, v in self.histograms.items()},
            "spans": [dict(span) for span in self.spans],
            "events": [dict(record) for record in self.events],
        }

    @classmethod
    def from_raw_state(cls, state: Dict[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`raw_state` output."""
        registry = cls(enabled=True)
        registry.counters = {
            str(k): int(v) for k, v in state.get("counters", {}).items()
        }
        registry.gauges = {
            str(k): v for k, v in state.get("gauges", {}).items()
        }
        registry.histograms = {
            str(k): list(v) for k, v in state.get("histograms", {}).items()
        }
        registry.spans = [dict(span) for span in state.get("spans", ())]
        registry.events = [
            dict(record) for record in state.get("events", ())
        ]
        return registry

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------

    def histogram_summaries(self) -> Dict[str, Dict[str, float]]:
        """Every histogram reduced to its summary statistics."""
        return {
            name: histogram_summary(values)
            for name, values in sorted(self.histograms.items())
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot: counters, gauges, histogram summaries
        and the event records."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": self.histogram_summaries(),
            "events": [dict(record) for record in self.events],
        }

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Counters and per-histogram call counts; **no wall-clock data**.

        Bit-identical across runs and worker counts for the same seeded
        work, so it is what the profile and trace commands print and
        what the parallel bit-identity tests diff.
        """
        return {
            "calls": {
                name: len(values)
                for name, values in sorted(self.histograms.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


def chrome_trace_document(spans: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Timer spans (:attr:`MetricsRegistry.spans`) as the keys of a
    Chrome trace-event document: ``traceEvents`` and
    ``displayTimeUnit``.

    :func:`repro.io.save_metrics` writes them at the top level of the
    run's artifact, which then loads in ``chrome://tracing`` or
    https://ui.perfetto.dev as it is.  A span's lane is its ``tid`` (0
    unless a merge assigned one).
    """
    events = [
        {
            "name": span["name"],
            "cat": "repro",
            "ph": "X",
            "ts": span["ts"],
            "dur": span["dur"],
            "pid": 0,
            "tid": span.get("tid", 0),
        }
        for span in spans
    ]
    return {"traceEvents": events, "displayTimeUnit": "ms"}
