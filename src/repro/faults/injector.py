"""Runtime side of fault injection: the simulator's delivery filter.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
for one simulation run.  The simulator consults it at three points:

* :meth:`begin_round` — at the start of every round, to learn which
  nodes permanently crash now (and to log down/restart window edges);
* :meth:`filter_send` — for every validated outgoing message, to
  decide whether it is delivered this round, dropped, delayed, or
  scheduled for duplication;
* :meth:`due` — to collect previously delayed/duplicated messages
  whose delivery round has arrived.

Every injected fault appends one plain-dict record to :attr:`records`
— round, action, link, message kind, and (for deferrals) the delivery
round.  The record list is the run's *fault trace*: it carries no
timestamps or process identity, so the same plan over the same
simulation serializes byte-identically everywhere.  Telemetry counters
and ``fault`` events are emitted only when a fault actually fires,
keeping zero-rate plans invisible to metrics; each ``fault`` event is
one record, field for field, so a run's ``--metrics-out`` artifact
carries its fault trace.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Container, Dict, List, Optional, Tuple

from repro.faults.plan import FaultPlan
from repro.graphs import NodeId
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["FaultStats", "FaultInjector"]

#: Actions that count as a lost message.
_DROP_ACTIONS = frozenset(
    {"drop", "drop_partition", "drop_crashed", "drop_late", "omit_send", "omit_recv"}
)


@dataclass
class FaultStats:
    """Counters summarizing one run's injected faults."""

    faults_injected: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    messages_delayed: int = 0
    nodes_crashed: int = 0
    nodes_restarted: int = 0


class FaultInjector:
    """Applies one :class:`FaultPlan` to one simulation run."""

    def __init__(
        self, plan: FaultPlan, *, telemetry: Optional[Telemetry] = None
    ) -> None:
        self.plan = plan
        self.stats = FaultStats()
        #: The deterministic fault trace (see module docstring).
        self.records: List[Dict[str, Any]] = []
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Deferred deliveries: delivery round -> [(sender, recipient, msg)].
        self._pending: Dict[int, List[Tuple[NodeId, NodeId, Any]]] = {}
        # Logical message identity: per-round, per-link sequence
        # counters so repeated filter_send calls on the same link in
        # the same round draw independent decisions (the transport
        # layer may legitimately produce them; the sync loop never
        # does, so seq stays 0 there and traces are unchanged).
        self._seq_round = 0
        self._link_seq: Dict[Tuple[str, str], int] = {}
        # Omission windows per node: (start, restart) pairs.
        self._windows: Dict[NodeId, List[Tuple[int, int]]] = {}
        for crash in plan.crashes:
            if crash.restart_round is not None:
                self._windows.setdefault(crash.node, []).append(
                    (crash.round, crash.restart_round)
                )

    # ------------------------------------------------------------------
    # Trace recording
    # ------------------------------------------------------------------

    def _emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)
        self.stats.faults_injected += 1
        action = record["action"]
        if action in _DROP_ACTIONS:
            self.stats.messages_dropped += 1
        elif action == "delay":
            self.stats.messages_delayed += 1
        elif action == "duplicate":
            self.stats.messages_duplicated += 1
        elif action in ("crash", "down"):
            self.stats.nodes_crashed += 1
        elif action == "restart":
            self.stats.nodes_restarted += 1
        if self.telemetry.enabled:
            metrics = self.telemetry.metrics
            metrics.inc("congest.faults_injected")
            if action in _DROP_ACTIONS:
                metrics.inc("congest.messages_dropped")
            elif action == "delay":
                metrics.inc("congest.messages_delayed")
            elif action == "duplicate":
                metrics.inc("congest.messages_duplicated")
            elif action in ("crash", "down"):
                metrics.inc("congest.nodes_crashed")
            elif action == "restart":
                metrics.inc("congest.nodes_restarted")
            metrics.emit("fault", **record)

    def _record_message(
        self,
        round_index: int,
        action: str,
        sender: NodeId,
        recipient: NodeId,
        message: Any,
        until: Optional[int] = None,
        seq: int = 0,
    ) -> None:
        record: Dict[str, Any] = {
            "round": round_index,
            "action": action,
            "from": repr(sender),
            "to": repr(recipient),
            "message": message.kind,
        }
        if until is not None:
            record["until"] = until
        # seq identifies the Nth message on this link this round; the
        # common (and, under sync delivery, only) value 0 is omitted so
        # committed traces stay byte-identical.
        if seq:
            record["seq"] = seq
        self._emit(record)

    # ------------------------------------------------------------------
    # Simulator hooks
    # ------------------------------------------------------------------

    def is_down(self, node: NodeId, round_index: int) -> bool:
        """Whether ``node`` is inside a crash-restart omission window."""
        for start, restart in self._windows.get(node, ()):
            if start <= round_index < restart:
                return True
        return False

    def begin_round(self, round_index: int) -> List[NodeId]:
        """Nodes permanently crashing now; logs window edges as a side
        effect.  Called once at the start of every round."""
        crashed_now: List[NodeId] = []
        for crash in self.plan.crashes:
            if crash.restart_round is None:
                if crash.round == round_index:
                    crashed_now.append(crash.node)
                    self._emit(
                        {
                            "round": round_index,
                            "action": "crash",
                            "node": repr(crash.node),
                        }
                    )
            else:
                if crash.round == round_index:
                    self._emit(
                        {
                            "round": round_index,
                            "action": "down",
                            "node": repr(crash.node),
                            "until": crash.restart_round,
                        }
                    )
                if crash.restart_round == round_index:
                    self._emit(
                        {
                            "round": round_index,
                            "action": "restart",
                            "node": repr(crash.node),
                        }
                    )
        return crashed_now

    def filter_send(
        self,
        round_index: int,
        sender: NodeId,
        recipient: NodeId,
        message: Any,
        crashed: Container[NodeId],
    ) -> bool:
        """Decide one validated message's fate; True = deliver now.

        Dropped/deferred messages are recorded; deferred ones surface
        later through :meth:`due`.  The decision order (omission,
        crash, partition, drop, delay, duplicate) is part of the trace
        contract — do not reorder.

        Decisions are keyed by logical message identity ``(round,
        sender, recipient, seq)`` — seq counts calls per link per
        round — never by call order across links, so any transport's
        iteration order reproduces the same trace.
        """
        if round_index != self._seq_round:
            self._seq_round = round_index
            self._link_seq.clear()
        link = (repr(sender), repr(recipient))
        seq = self._link_seq.get(link, 0)
        self._link_seq[link] = seq + 1
        plan = self.plan
        if self.is_down(sender, round_index):
            self._record_message(
                round_index, "omit_send", sender, recipient, message, seq=seq
            )
            return False
        if recipient in crashed:
            self._record_message(
                round_index, "drop_crashed", sender, recipient, message,
                seq=seq,
            )
            return False
        if self.is_down(recipient, round_index):
            self._record_message(
                round_index, "omit_recv", sender, recipient, message, seq=seq
            )
            return False
        if plan.partitioned(round_index, sender, recipient):
            self._record_message(
                round_index, "drop_partition", sender, recipient, message,
                seq=seq,
            )
            return False
        if plan.drops(round_index, sender, recipient, seq):
            self._record_message(
                round_index, "drop", sender, recipient, message, seq=seq
            )
            return False
        deliver_now = True
        delay = plan.delay_of(round_index, sender, recipient, seq)
        if delay > 0:
            until = round_index + delay
            self._pending.setdefault(until, []).append(
                (sender, recipient, message)
            )
            self._record_message(
                round_index, "delay", sender, recipient, message, until=until,
                seq=seq,
            )
            deliver_now = False
        if plan.duplicates(round_index, sender, recipient, seq):
            until = round_index + 1
            self._pending.setdefault(until, []).append(
                (sender, recipient, message)
            )
            self._record_message(
                round_index, "duplicate", sender, recipient, message,
                until=until, seq=seq,
            )
        return deliver_now

    def due(
        self, round_index: int, crashed: Container[NodeId]
    ) -> List[Tuple[NodeId, NodeId, Any]]:
        """Deferred messages deliverable this round (in deferral order).

        Messages whose recipient crashed or went down in the meantime
        are dropped here, with a ``drop_late`` trace record.
        """
        out: List[Tuple[NodeId, NodeId, Any]] = []
        for sender, recipient, message in self._pending.pop(round_index, ()):
            if recipient in crashed or self.is_down(recipient, round_index):
                self._record_message(
                    round_index, "drop_late", sender, recipient, message
                )
                continue
            out.append((sender, recipient, message))
        return out
