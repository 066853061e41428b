"""Structured, run-scoped event log.

An :class:`EventLog` accumulates :class:`Event` records — ``(kind,
seq, t, fields)`` — where ``t`` is seconds since the log was created
(``time.perf_counter`` based, so monotone within a run) and ``kind``
names a record of the run-scoped schema:

====================  ===============================================
kind                  emitted by / meaning
====================  ===============================================
``proposal_round``    :class:`repro.core.asm.ASMEngine` — one
                      executed ProposalRound (Algorithm 1)
``quantile_match``    one executed QuantileMatch (Algorithm 2)
``outer_iteration``   one outer-loop iteration (Algorithm 3)
``congest_round``     :class:`repro.congest.simulator.Simulator` —
                      one synchronous round (messages/bits/seconds)
``message_batch``     per-round message counts grouped by kind
``trial_chunk``       :class:`repro.parallel.pool.TrialPool` — one
                      executed chunk of a sharded trial sweep
``fault``             :class:`repro.faults.injector.FaultInjector` —
                      one injected fault (drop/delay/duplicate/crash)
``slo_sample``        :class:`repro.trace.slo.SLOMonitor` — one
                      ε(round) measurement against the declared SLO
``slo_violation``     :class:`repro.trace.slo.SLOMonitor` — a binding
                      SLO round whose ε exceeded the target
====================  ===============================================

Every record is a flat JSON object (see :meth:`Event.to_dict`), so a
log serializes naturally as JSONL via :func:`repro.io.save_events`.
A disabled log (``EventLog(enabled=False)``) drops everything at
near-zero cost.

Example
-------
>>> log = EventLog()
>>> log.emit("congest_round", round=1, messages=4, bits=48)
>>> [e.kind for e in log.events]
['congest_round']
>>> log.emit("nonsense")  # doctest: +IGNORE_EXCEPTION_DETAIL
Traceback (most recent call last):
    ...
InvalidParameterError: unknown event kind 'nonsense'
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List

from repro.errors import InvalidParameterError

__all__ = ["EVENT_KINDS", "Event", "EventLog"]

#: The run-scoped schema: every event kind the subsystem emits.
EVENT_KINDS: FrozenSet[str] = frozenset(
    {
        "proposal_round",
        "quantile_match",
        "outer_iteration",
        "congest_round",
        "message_batch",
        "trial_chunk",
        "fault",
        "slo_sample",
        "slo_violation",
        "dynamic_delta",
        "dynamic_fallback",
    }
)


def _check_kind(kind: str) -> None:
    if kind not in EVENT_KINDS:
        raise InvalidParameterError(
            f"unknown event kind {kind!r}; known kinds: "
            f"{', '.join(sorted(EVENT_KINDS))}"
        )


@dataclass(frozen=True)
class Event:
    """One structured record: schema kind, sequence number, timestamp,
    and the kind-specific payload fields."""

    kind: str
    seq: int
    t: float
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON-safe record (one JSONL line)."""
        record: Dict[str, Any] = {
            "kind": self.kind,
            "seq": self.seq,
            "t": round(self.t, 9),
        }
        record.update(self.fields)
        return record


class EventLog:
    """Append-only, schema-checked event stream for one run.

    Parameters
    ----------
    enabled:
        When False, :meth:`emit` is a no-op.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.events: List[Event] = []
        self._t0 = time.perf_counter()

    def emit(self, kind: str, **fields: Any) -> None:
        """Append one event of schema ``kind`` with payload ``fields``."""
        if not self.enabled:
            return
        _check_kind(kind)
        self.events.append(
            Event(
                kind=kind,
                seq=len(self.events),
                t=time.perf_counter() - self._t0,
                fields=fields,
            )
        )

    def merge(self, other: "EventLog") -> None:
        """Append every event of ``other``, renumbering sequence ids.

        Events keep their original relative timestamps (each log's
        ``t`` is measured from its own creation) and are concatenated
        in *merge order*, never re-sorted by wall time — wall time
        differs across worker processes, so time-ordering would make
        the merged stream depend on scheduling.  The parallel layer
        merges worker logs in trial-spec order, which makes the merged
        event sequence identical for any worker count.
        """
        if not self.enabled:
            return
        for event in other.events:
            self.events.append(
                Event(
                    kind=event.kind,
                    seq=len(self.events),
                    t=event.t,
                    fields=dict(event.fields),
                )
            )

    @classmethod
    def from_records(cls, records: Iterable[Dict[str, Any]]) -> "EventLog":
        """Rebuild a log from :meth:`to_records` output.

        Used to reconstitute a worker process's event stream in the
        parent before :meth:`merge`, and to reload an exported
        ``--events-out`` file.  Records are trusted (they were
        schema-checked at emission), but unknown kinds still raise.
        """
        log = cls(enabled=True)
        for record in records:
            payload = dict(record)
            kind = payload.pop("kind")
            payload.pop("seq", None)
            t = payload.pop("t", 0.0)
            _check_kind(kind)
            log.events.append(
                Event(kind=kind, seq=len(log.events), t=t, fields=payload)
            )
        return log

    def __len__(self) -> int:
        return len(self.events)

    def by_kind(self, kind: str) -> List[Event]:
        """All events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]

    def count_by_kind(self) -> Dict[str, int]:
        """``{kind: number of events}`` over the whole log."""
        counts: Dict[str, int] = {}
        for e in self.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        return counts

    def to_records(self) -> List[Dict[str, Any]]:
        """Every event as a flat JSON-safe dict (JSONL lines)."""
        return [e.to_dict() for e in self.events]
