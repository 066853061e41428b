"""Pluggable message transports for the CONGEST simulator.

The simulator owns *computation* — advancing node programs in
lockstep — and delegates *delivery* to a :class:`Transport`: given one
round's validated outboxes, the transport decides **when** each
message lands in its recipient's inbox.  Every round is executed for
every node — an awaiting node (``yield Await(n)``) is not resumed, but
its mail is delivered here like anyone's, and the deposit wakes it for
the next round — so a transport changes message timing, never the
round structure.

Two implementations:

:class:`SyncTransport`
    Today's canonical-order lockstep delivery — every message lands in
    the round it was sent.  This class *is* the delivery loop that
    used to live inline in ``Simulator.step``; runs through it are
    bit-identical to the pre-refactor simulator (matchings, telemetry
    counters, causal trace ids, fault traces), which the equivalence
    suite pins.
:class:`AsyncEventTransport`
    Event-driven delivery with seeded per-link latency
    (:mod:`repro.workloads.latency`).  A message drawn latency ``L``
    lands at the start of *virtual round* ``send_round + L`` — rounds
    remain the clock, so Theorem-3 ε accounting, trace spans, and the
    per-round timings keep their meaning.  With zero latency every
    message takes the synchronous fast path and the transport is
    bit-identical to :class:`SyncTransport`.

Every message that lands in a later round than it was sent — a fault
copy (an injector ``delay`` or ``duplicate``) or a latency copy — waits
in the base class's one in-flight queue, a heap keyed ``(landing
round, origin, enqueue order)``.  Fault copies sort before latency
copies and the enqueue order follows the canonical send order, so a
round delivers fault copies first, then latency copies, then fresh
sends in canonical node order, and a fresh send overwrites a stale
copy from the same sender (last-write-wins, exactly like the lockstep
loop).  A run is therefore a pure function of ``(programs, plan,
transport kind, latency model, link_seed)`` (``docs/transport.md``).
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidParameterError, SimulationError
from repro.graphs import NodeId
from repro.workloads.latency import ZERO_LATENCY

__all__ = [
    "Transport",
    "SyncTransport",
    "AsyncEventTransport",
]

# Origin of an in-flight copy; a round lands fault copies first.
_FAULT, _LATENCY = 0, 1


class Transport:
    """Delivery policy for one simulator run.

    The base class implements the full delivery loop and holds the
    one queue of messages in flight; subclasses override only
    :meth:`_route`, which places each fresh send, and inherit
    everything else: validation, canonical ordering, fault filtering,
    the in-flight queue, causal tracing, and stats accounting.

    ``deferred``, ``delivered_late``, ``dropped_late`` and
    ``latency_counts`` count latency copies only, so they stay zero
    under :class:`SyncTransport`; fault copies are counted by the
    injector's :class:`~repro.faults.injector.FaultStats`.

    A transport instance is bound to exactly one simulator
    (:meth:`bind`); it is a friend of the :class:`~repro.congest.
    simulator.Simulator` and reaches into its inbox pools and stats.
    """

    kind = "sync"

    def __init__(self) -> None:
        self._sim: Optional[Any] = None
        # Messages in flight: (landing round, origin, enqueue order,
        # sender, recipient, msg, trace id).  The enqueue order is
        # unique, so heap order never compares messages.
        self._queue: List[
            Tuple[int, int, int, Any, Any, Any, Optional[str]]
        ] = []
        self._enqueued = 0
        #: Latency copies queued (fresh sends drawn a nonzero latency).
        self.deferred = 0
        #: Latency copies that landed.
        self.delivered_late = 0
        #: Latency copies dropped because their recipient crashed or
        #: went down before the landing round.
        self.dropped_late = 0
        #: Draw histogram {latency: count}, nonzero draws only.
        self.latency_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def bind(self, sim: Any) -> None:
        """Attach to the simulator that will drive :meth:`deliver_round`."""
        if self._sim is not None and self._sim is not sim:
            raise SimulationError(
                f"{type(self).__name__} is already bound to a simulator; "
                f"create one transport per run"
            )
        self._sim = sim

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def reorders(self) -> bool:
        """Whether delivery can cross round boundaries.

        :func:`repro.congest.driver.run_protocol` consults this to
        decide between strict and tolerant result assembly, exactly as
        it does for fault plans.
        """
        return False

    def in_flight(self) -> int:
        """Latency copies queued but not yet landed or dropped."""
        return self.deferred - self.delivered_late - self.dropped_late

    def describe(self) -> Dict[str, Any]:
        """JSON-safe description (manifest provenance)."""
        return {"kind": self.kind}

    # ------------------------------------------------------------------
    # The delivery loop (one call per simulated round)
    # ------------------------------------------------------------------

    def deliver_round(
        self,
        executing_round: int,
        outboxes: Dict[NodeId, Dict[NodeId, Any]],
        kind_counts: Optional[Dict[str, int]] = None,
    ) -> Tuple[int, int]:
        """Deliver one round's traffic; returns ``(messages, bits)``.

        ``messages``/``bits`` count *fresh sends* at send time (after
        validation), matching the pre-transport stats contract: fault
        injection and latency never change them for the same protocol
        evolution.  ``kind_counts``, when given, accumulates per-kind
        send counts (the simulator passes a dict only when telemetry
        is on).
        """
        sim = self._sim
        if sim is None:
            raise SimulationError("transport used before bind()")
        injector = sim.faults
        tracer = sim.telemetry.tracer
        # Copies due now land before fresh sends, so a fresh message
        # from the same sender overwrites a stale copy — deterministic
        # last-write-wins, like the lockstep delivery below.  They
        # were counted at send time.
        queue = self._queue
        while queue and queue[0][0] <= executing_round:
            _, origin, _, sender, recipient, msg, tid = heapq.heappop(queue)
            if origin == _FAULT:
                lands = injector.due(
                    executing_round, sender, recipient, msg, sim.crashed
                )
            else:
                # A latency copy to a dead node is lost, like a fault
                # copy, but leaves no fault record.
                lands = recipient not in sim.crashed and (
                    injector is None
                    or not injector.is_down(recipient, executing_round)
                )
                if lands:
                    self.delivered_late += 1
                else:
                    self.dropped_late += 1
            if not lands:
                if tracer is not None:
                    tracer.on_late_drop(tid)
                continue
            sim._deposit(sender, recipient, msg)
            if tracer is not None:
                tracer.on_redelivery(
                    executing_round, tid, sim._labels[recipient],
                    "transport" if origin == _LATENCY else None,
                )
        # Deliver each outbox in node-registration order, not dict
        # insertion order: programs that broadcast from a set (e.g. the
        # pointer-MM MM_TAKEN fan-out) would otherwise send in an order
        # that varies with hash randomization, which breaks the
        # byte-stable trace guarantee across worker processes.
        node_order = sim._order
        round_messages = 0
        round_bits = 0
        stats = sim.stats
        for sender, outbox in outboxes.items():
            for recipient in sorted(outbox, key=node_order.__getitem__):
                msg = outbox[recipient]
                bits = sim._validate(executing_round, sender, recipient, msg)
                tid = (
                    tracer.on_send(
                        executing_round, sender, recipient, msg.kind
                    )
                    if tracer is not None
                    else None
                )
                if injector is None:
                    delivered = True
                else:
                    # Slice the injector trace around the decision so
                    # the faults that touched this message annotate its
                    # trace record.
                    fault_mark = len(injector.records)
                    delivered, copies = injector.filter_send(
                        executing_round, sender, recipient, msg, sim.crashed
                    )
                    if tid is not None:
                        for record in injector.records[fault_mark:]:
                            tracer.on_fault(tid, record)
                    for until in copies:
                        self._enqueue(
                            until, _FAULT, sender, recipient, msg, tid
                        )
                if delivered:
                    self._route(executing_round, sender, recipient, msg, tid)
                round_messages += 1
                stats.messages += 1
                stats.total_bits += bits
                stats.max_message_bits = max(stats.max_message_bits, bits)
                if kind_counts is not None:
                    round_bits += bits
                    kind_counts[msg.kind] = kind_counts.get(msg.kind, 0) + 1
        return round_messages, round_bits

    def _enqueue(
        self,
        until: int,
        origin: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Any,
        tid: Optional[str],
    ) -> None:
        """Hold one copy of ``msg`` until round ``until``."""
        self._enqueued += 1
        heapq.heappush(
            self._queue,
            (until, origin, self._enqueued, sender, recipient, msg, tid),
        )

    # ------------------------------------------------------------------
    # Subclass hook
    # ------------------------------------------------------------------

    def _route(
        self,
        executing_round: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Any,
        tid: Optional[str],
    ) -> None:
        """Accept one fresh send the injector let through.

        The synchronous policy: deposit immediately, close the causal
        edge in the same round.
        """
        sim = self._sim
        sim._deposit(sender, recipient, msg)
        if tid is not None:
            sim.telemetry.tracer.on_delivered(recipient, tid)


class SyncTransport(Transport):
    """Lockstep delivery: every message lands in its send round."""


class AsyncEventTransport(Transport):
    """Event-driven delivery with seeded per-link latency.

    Parameters
    ----------
    latency:
        A latency model from :mod:`repro.workloads.latency`
        (default :data:`~repro.workloads.latency.ZERO_LATENCY`, which
        makes this transport bit-identical to :class:`SyncTransport`).
    link_seed:
        Root seed of the latency draws (an ``int``); together with the
        model it fully determines the delivery schedule.  The model's
        prebuilt head of it (``latency.head(link_seed)``) is made here,
        once per run, and every draw takes it in place of the seed.
    """

    kind = "async"

    def __init__(self, latency: Any = ZERO_LATENCY, *, link_seed: int = 0):
        super().__init__()
        if not isinstance(link_seed, int) or isinstance(link_seed, bool):
            raise InvalidParameterError(
                f"link_seed must be an int, got {link_seed!r}"
            )
        self.latency = latency
        self.link_seed = link_seed
        self._head = latency.head(link_seed)

    @property
    def reorders(self) -> bool:
        return self.latency.bound() > 0

    def describe(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "latency": self.latency.to_dict(),
            "link_seed": self.link_seed,
        }

    def _route(
        self,
        executing_round: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Any,
        tid: Optional[str],
    ) -> None:
        sim = self._sim
        labels = sim._labels
        lat = self.latency.draw(
            self._head, executing_round, labels[sender], labels[recipient]
        )
        if lat <= 0:
            # Synchronous fast path: byte-identical to SyncTransport,
            # including the causal-head update timing.
            super()._route(executing_round, sender, recipient, msg, tid)
            return
        until = executing_round + lat
        self._enqueue(until, _LATENCY, sender, recipient, msg, tid)
        self.deferred += 1
        self.latency_counts[lat] = self.latency_counts.get(lat, 0) + 1
        if tid is not None:
            sim.telemetry.tracer.on_transport_defer(tid, until, lat)
        if sim.telemetry.enabled:
            # Guarded on nonzero latency by construction, so a
            # zero-latency async run leaves telemetry untouched.
            metrics = sim.telemetry.metrics
            metrics.inc("congest.transport_deferred")
            metrics.observe("congest.transport_latency", lat)
