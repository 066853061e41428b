"""Runtime side of fault injection: the simulator's delivery filter.

A :class:`FaultInjector` wraps one :class:`~repro.faults.plan.FaultPlan`
for one simulation run.  The simulator consults it at three points:

* :meth:`begin_round` — at the start of every round, to learn which
  nodes permanently crash now (and to log down/restart window edges);
* :meth:`filter_send` — for every validated outgoing message, to
  decide whether it is delivered this round and in which later rounds
  its fault copies (a delay, a duplicate) land;
* :meth:`due` — when a fault copy's round comes, to decide whether it
  still lands.

The injector decides and records; it holds no messages.  The
transport queues every fault copy with its other messages in flight
(:mod:`repro.congest.transport`).

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
from typing import Any, Container, Dict, List, Mapping, Optional, Tuple

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
        self,
        plan: FaultPlan,
        *,
        labels: Mapping[NodeId, str],
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.plan = plan
        self.stats = FaultStats()
        #: The deterministic fault trace (see module docstring).
        self.records: List[Dict[str, Any]] = []
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Each node's label (its repr), the simulator's for the run:
        # decisions hash it and records carry it.
        self._labels = labels
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
    ) -> None:
        record: Dict[str, Any] = {
            "round": round_index,
            "action": action,
            "from": self._labels[sender],
            "to": self._labels[recipient],
            "message": message.kind,
        }
        if until is not None:
            record["until"] = until
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
    ) -> Tuple[bool, Tuple[int, ...]]:
        """Decide one validated message's fate.

        Returns whether it lands now and the rounds in which its fault
        copies land (a delayed copy, then a duplicate), and records
        every fault it decides.  The decision order (omission, crash,
        partition, drop, delay, duplicate) is part of the trace
        contract — do not reorder.  Each decision is keyed by the
        message's ``(round, sender, recipient)``; an outbox holds one
        message per link, so that identifies it.
        """
        plan = self.plan
        windows = self._windows
        s, r = self._labels[sender], self._labels[recipient]
        if windows and self.is_down(sender, round_index):
            action = "omit_send"
        elif recipient in crashed:
            action = "drop_crashed"
        elif windows and self.is_down(recipient, round_index):
            action = "omit_recv"
        elif plan.partitions and plan.partitioned(
            round_index, sender, recipient
        ):
            action = "drop_partition"
        elif plan.drops(round_index, s, r):
            action = "drop"
        else:
            copies: Tuple[int, ...] = ()
            delay = plan.delay_of(round_index, s, r)
            if delay > 0:
                copies = (round_index + delay,)
                self._record_message(
                    round_index, "delay", sender, recipient, message,
                    until=copies[0],
                )
            if plan.duplicates(round_index, s, r):
                self._record_message(
                    round_index, "duplicate", sender, recipient, message,
                    until=round_index + 1,
                )
                copies += (round_index + 1,)
            return delay == 0, copies
        self._record_message(round_index, action, sender, recipient, message)
        return False, ()

    def due(
        self,
        round_index: int,
        sender: NodeId,
        recipient: NodeId,
        message: Any,
        crashed: Container[NodeId],
    ) -> bool:
        """Whether a fault copy landing this round reaches its recipient.

        A copy whose recipient crashed or went down in the meantime is
        dropped, with a ``drop_late`` trace record.
        """
        if recipient in crashed or (
            self._windows and self.is_down(recipient, round_index)
        ):
            self._record_message(
                round_index, "drop_late", sender, recipient, message
            )
            return False
        return True
