"""The synchronous CONGEST round simulator.

Drives a set of node *programs* — generators whose every
``inbox = yield outbox`` statement is one synchronous communication
round.  The simulator:

* advances all programs in lockstep,
* validates that every message targets a neighbor and respects the
  configured bit cap (:class:`~repro.errors.ProtocolViolationError`
  otherwise),
* delivers each round's messages as ``{sender: Message}`` dicts,
  through a :class:`~repro.congest.transport.Transport` (lockstep by
  default, seeded per-link latency with
  :class:`~repro.congest.transport.AsyncEventTransport`),
* collects per-run statistics (rounds, messages, bits), and
* captures each program's return value as the node's local output.

Per-message records (round, sender, recipient, kind, fate) are kept by
a :class:`~repro.trace.span.CausalTracer` on the telemetry bundle.

Round semantics: the outbox a program yields in round ``t`` is
delivered at the *same* yield's return — i.e. ``inbox = yield outbox``
sends ``outbox`` and then receives everything the neighbors sent in
that round.  A program that needs to "think" without sending yields an
empty dict.

Waiting: a program that will send nothing until mail reaches it, for
up to ``n`` rounds, yields :class:`~repro.congest.message.Await`
``(n)`` instead of ``yield {}`` round after round.  The two are
observably the same run — every round is still executed and counted,
and mail to the node passes through the transport, the fault injector
and the tracer — but the simulator does not resume an awaiting
program until the round after its inbox first becomes non-empty, or
round ``t + n`` (for an ``Await(n)`` yielded in round ``t``) if none
does.  The program then resumes with ``(inbox, rounds_waited)``:
mail delivered in round ``t + i - 1`` wakes it in round ``t + i`` with
``rounds_waited == i``, and the timer with that round's inbox (``{}``
if silent) and ``rounds_waited == n``.  A crash while awaiting closes
the program at the crash round, as it would any other.  ``n`` must be
a positive ``int`` (:class:`~repro.errors.ProtocolViolationError`
otherwise).  Each round thus costs one resumption per program that
has something to do rather than one per node.
"""

from __future__ import annotations

from time import perf_counter
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Mapping, Optional

from repro.congest.message import Await, Message, _id_bits, _size_bits
from repro.congest.transport import SyncTransport, Transport
from repro.errors import (
    InvalidParameterError,
    ProtocolViolationError,
    SimulationError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphs import Graph, NodeId
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["NodeProgram", "SimulationStats", "Simulator"]

# A node program yields {neighbor: Message} (or an Await) and receives
# {sender: Message} (after an Await, an (inbox, rounds waited) pair).
NodeProgram = Generator[Any, Any, Any]


@dataclass
class SimulationStats:
    """Aggregate statistics of one simulation run.

    ``messages``/``total_bits``/``messages_per_round`` count messages
    at *send* time (after validation), so fault injection — which may
    drop or defer a sent message — never changes them for the same
    protocol evolution.  ``outcome`` distinguishes how the run ended:
    ``"converged"`` (every program returned), ``"degraded"`` (every
    surviving program returned but nodes crashed), or ``"timeout"``
    (the ``max_rounds`` cap elapsed with programs still running).
    """

    rounds: int = 0
    messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    messages_per_round: List[int] = field(default_factory=list)
    outcome: str = "running"
    crashed_nodes: int = 0
    unfinished_nodes: int = 0


class Simulator:
    """Runs node programs over a communication graph in lockstep.

    Parameters
    ----------
    graph:
        The communication graph; every program's node id must be a node.
    programs:
        ``{node_id: generator}`` — exactly one program per node of the
        graph; a program for an unknown node, or a node without one,
        raises :class:`SimulationError`.
    bit_cap_factor:
        The ``O(·)`` constant of the ``O(log n)`` cap: messages may use
        at most ``bit_cap_factor · (⌈log₂ n⌉ + 1)`` bits (the
        ``max_message_bits`` attribute); violations raise
        :class:`ProtocolViolationError`.
    telemetry:
        Optional :class:`~repro.obs.telemetry.Telemetry` bundle; when
        enabled, round/message/bit totals accumulate as counters over
        every round, and each round that carries a message is timed
        (a ``congest.round_seconds`` span and observation) and leaves
        one ``congest_round`` record (its messages, bits and per-kind
        counts).  A bundle carrying a
        :class:`~repro.trace.span.CausalTracer` gets every validated
        send recorded with a causal trace id (fault fates included);
        the hook is skipped entirely when absent.
    faults:
        Optional :class:`~repro.faults.plan.FaultPlan`; when given, a
        :class:`~repro.faults.injector.FaultInjector` mediates every
        delivery (drop/duplicate/delay/partition) and applies node
        crashes at round starts.  A plan with zero rates and no
        crashes leaves the run bit-identical to ``faults=None``.
    transport:
        Optional :class:`~repro.congest.transport.Transport` governing
        *when* sent messages land in inboxes (default
        :class:`~repro.congest.transport.SyncTransport`, the lockstep
        semantics above).  See ``docs/transport.md``.
    """

    def __init__(
        self,
        graph: Graph,
        programs: Mapping[NodeId, NodeProgram],
        *,
        bit_cap_factor: int = 8,
        telemetry: Optional[Telemetry] = None,
        faults: Optional[FaultPlan] = None,
        transport: Optional[Transport] = None,
    ) -> None:
        self.graph = graph
        for v in programs:
            if not graph.has_node(v):
                raise SimulationError(f"program for unknown node {v!r}")
        missing = [v for v in graph.nodes() if v not in programs]
        if missing:
            raise SimulationError(
                f"{len(missing)} node(s) have no program, e.g. {missing[0]!r}"
            )
        self.programs: Dict[NodeId, NodeProgram] = dict(programs)
        self.n = graph.num_nodes
        # Bits of one player id, made once per run: every message's
        # size is _size_bits of it and the payload length.
        self._id_bits = _id_bits(self.n)
        self.max_message_bits = bit_cap_factor * self._id_bits
        self.stats = SimulationStats()
        self.results: Dict[NodeId, Any] = {}
        # Persistent per-node inbox pools: one dict per node for the
        # whole run, cleared lazily (only nodes that received messages
        # last round) instead of rebuilding {v: {}} every round.  An
        # inbox dict is therefore only valid until the receiving
        # program's next ``yield`` — programs must consume it before
        # yielding again, which the round semantics already imply.
        self._inboxes: Dict[NodeId, Dict[NodeId, Message]] = {
            v: {} for v in self.programs
        }
        self._touched_inboxes: List[NodeId] = []
        # Each node's label (its repr), made once per run: the
        # transport hands labels to latency draws and the tracer, and
        # the fault injector hashes and records them.
        self._labels: Dict[NodeId, str] = {v: repr(v) for v in self.programs}
        # Deterministic scheduling order, precomputed once: step() used
        # to re-sort the live set by repr every round.
        self._order: Dict[NodeId, int] = {
            v: i
            for i, v in enumerate(
                sorted(self.programs, key=self._labels.__getitem__)
            )
        }
        # The schedule.  ``_awake``: programs resumed with last round's
        # inbox, in canonical order.  An awaiting program has its Await
        # round in ``_since`` and, until mail wakes it, its deadline in
        # ``_deadline`` and a place in that round's ``_wake`` bucket;
        # ``_deposit`` moves it to ``_woken``, resumed next round.  A
        # bucket entry whose program left ``_deadline`` or re-awaited
        # to another deadline is stale and skipped when its round comes.
        # Every program starts as an Await from round 0, which step()
        # reads as "fresh generator, send None".
        self._awake: List[NodeId] = list(self._order)
        self._since: Dict[NodeId, int] = dict.fromkeys(self._order, 0)
        self._deadline: Dict[NodeId, int] = {}
        self._wake: Dict[int, List[NodeId]] = {}
        self._woken: List[NodeId] = []
        # Optional telemetry bundle (see repro.obs): per-round timings,
        # message counts and round events flow into its registry.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        # Optional fault injection (see repro.faults): crashes close
        # programs, and every delivery is routed through the injector.
        self.faults: Optional[FaultInjector] = (
            FaultInjector(
                faults, labels=self._labels, telemetry=self.telemetry
            )
            if faults is not None
            else None
        )
        # Crashed nodes in crash order (node -> round it crashed in).
        # An insertion-ordered dict, not a set: membership and len are
        # what the hot path needs, and anything that iterates it (crash
        # reports, result assembly) sees a deterministic order instead
        # of a PYTHONHASHSEED-dependent one — the bug shape the lint
        # FLOW rules exist to catch.
        self.crashed: Dict[NodeId, int] = {}
        # Delivery policy; the default is the lockstep semantics this
        # module documents.  bind() makes the transport a friend of
        # this simulator for the duration of the run.
        self.transport: Transport = (
            transport if transport is not None else SyncTransport()
        )
        self.transport.bind(self)

    @property
    def finished(self) -> bool:
        """Whether every surviving program has returned."""
        return len(self.results) + len(self.crashed) == len(self.programs)

    def _await(self, v: NodeId, wait: Await, executing_round: int) -> None:
        """Park ``v`` until mail reaches it or its ``Await`` runs out."""
        rounds = wait.rounds
        if type(rounds) is not int or rounds < 1:
            raise ProtocolViolationError(
                f"round {executing_round}: node {v!r} yielded "
                f"Await({rounds!r}); a wait lasts a positive int number "
                f"of rounds"
            )
        deadline = executing_round + rounds
        self._since[v] = executing_round
        self._deadline[v] = deadline
        self._wake.setdefault(deadline, []).append(v)

    def _unschedule(self, v: NodeId) -> None:
        """Drop a crashed program from the schedule.

        Its wake-bucket entry, if any, goes stale and is skipped.
        """
        for queue in (self._awake, self._woken):
            if v in queue:
                queue.remove(v)
        self._since.pop(v, None)
        self._deadline.pop(v, None)

    def _deposit(
        self, sender: NodeId, recipient: NodeId, msg: Message
    ) -> None:
        """Place one message in the recipient's inbox.

        The first message of a round to an awaiting program wakes it
        for the next round.  ``recipient`` passed :meth:`_validate`'s
        edge check, and every graph node has a program and so an inbox.
        """
        box = self._inboxes[recipient]
        if not box:
            self._touched_inboxes.append(recipient)
            if self._deadline.pop(recipient, None) is not None:
                self._woken.append(recipient)
        box[sender] = msg

    def _validate(
        self,
        executing_round: int,
        sender: NodeId,
        recipient: NodeId,
        msg: Message,
    ) -> int:
        """Check one outgoing message; returns its size in bits.

        Raises :class:`ProtocolViolationError` on a non-Message
        payload, a non-neighbor recipient, or a bit-cap violation —
        the three CONGEST-model invariants, each pointing at the
        static rule that would have caught it pre-run.
        """
        if not isinstance(msg, Message):
            raise ProtocolViolationError(
                f"round {executing_round}: node {sender!r} sent a "
                f"non-Message object ({type(msg).__name__}) to "
                f"{recipient!r} [static check: repro.lint rule "
                f"MSG001; see docs/static_analysis.md]"
            )
        if not self.graph.has_edge(sender, recipient):
            raise ProtocolViolationError(
                f"round {executing_round}: node {sender!r} sent a "
                f"message to non-neighbor {recipient!r} — CONGEST "
                f"locality violation [static check: repro.lint rule "
                f"CONGEST002; see docs/static_analysis.md]"
            )
        bits = _size_bits(self._id_bits, len(msg.payload))
        if bits > self.max_message_bits:
            raise ProtocolViolationError(
                f"round {executing_round}: message {msg.kind!r} "
                f"from {sender!r} to {recipient!r} uses {bits} "
                f"bits; cap is {self.max_message_bits} (O(log n)) "
                f"[static check: repro.lint rule MSG002/MSG003 "
                f"bounds payloads against MESSAGE_SCHEMAS; see "
                f"docs/static_analysis.md]"
            )
        return bits

    def step(self) -> bool:
        """Execute one synchronous round; returns False once all done."""
        injector = self.faults
        telemetry = self.telemetry
        tracer = telemetry.tracer
        # 1-based index of the round being executed, used so runtime
        # diagnostics can name where the protocol went wrong and point
        # at the static rule that would have caught it pre-run.
        executing_round = self.stats.rounds + 1
        if injector is not None:
            # Permanent crashes take effect at the start of the round:
            # the node's program is closed before it can send.
            fault_mark = len(injector.records)
            for v in injector.begin_round(executing_round):
                if (
                    v in self.programs
                    and v not in self.results
                    and v not in self.crashed
                ):
                    self.programs[v].close()
                    self.crashed[v] = executing_round
                    self._unschedule(v)
                    # Detach the inbox so nothing queued there leaks
                    # into a captured result.
                    self._inboxes[v] = {}
            if tracer is not None:
                for record in injector.records[fault_mark:]:
                    tracer.on_node_fault(record)
        awake = self._awake
        woken = self._woken
        bucket = self._wake.pop(executing_round, None)
        if bucket is not None:
            deadline = self._deadline
            for v in bucket:
                if deadline.get(v) == executing_round:
                    del deadline[v]
                    woken.append(v)
        if woken:
            awake = awake + woken
            awake.sort(key=self._order.__getitem__)
            self._woken = []
        elif not awake and not self._deadline:
            return False
        observing = telemetry.enabled
        if observing:
            t0 = perf_counter()
        outboxes: Dict[NodeId, Dict[NodeId, Message]] = {}
        programs = self.programs
        inboxes = self._inboxes
        since_of = self._since
        still_awake: List[NodeId] = []
        for v in awake:
            since = since_of.pop(v, None)
            if since is None:
                value: Any = inboxes[v]
            elif since:
                value = (inboxes[v], executing_round - since)
            else:
                value = None  # a fresh generator
            try:
                out = programs[v].send(value)
            except StopIteration as stop:
                self.results[v] = stop.value
                # The program may have returned (a structure
                # holding) its final inbox dict; detach it from the
                # pool so recycling never mutates a captured result.
                inboxes[v] = {}
                continue
            if isinstance(out, Await):
                self._await(v, out, executing_round)
                continue
            still_awake.append(v)
            if out:
                outboxes[v] = out
        self._awake = still_awake
        # Last round's messages have now been consumed (every live
        # program they reached was resumed past the yield that
        # received them — mail wakes an awaiting one); recycle the
        # touched inbox pools before delivering this round.
        for v in self._touched_inboxes:
            inboxes[v].clear()
        self._touched_inboxes.clear()
        # Delivery is the transport's job (docs/transport.md): fault
        # copies land first, then latency copies, then fresh sends in
        # canonical node order.
        kind_counts: Optional[Dict[str, int]] = (
            {} if observing else None
        )
        round_messages, round_bits = self.transport.deliver_round(
            executing_round, outboxes, kind_counts
        )
        self.stats.rounds += 1
        self.stats.messages_per_round.append(round_messages)
        if tracer is not None:
            tracer.end_round(executing_round)
        if observing:
            elapsed = perf_counter() - t0
            metrics = telemetry.metrics
            metrics.inc("congest.rounds")
            metrics.inc("congest.messages", round_messages)
            metrics.inc("congest.bits", round_bits)
            # Only a round that carries a message leaves a span and a
            # record: most rounds of a paper schedule move nothing, and
            # the telemetry should grow with the work, not the schedule.
            if round_messages:
                metrics.record_span("congest.round_seconds", t0, elapsed)
                metrics.observe("congest.messages_per_round", round_messages)
                metrics.emit(
                    "congest_round",
                    round=self.stats.rounds,
                    messages=round_messages,
                    bits=round_bits,
                    kinds=kind_counts,
                )
        return not self.finished

    def run(
        self,
        max_rounds: Optional[int] = None,
        *,
        on_timeout: str = "raise",
    ) -> SimulationStats:
        """Run rounds until every surviving program returns.

        The returned stats carry a distinct ``outcome``: hitting the
        ``max_rounds`` cap records ``"timeout"`` (previously
        indistinguishable from convergence in the stats), a clean
        finish records ``"converged"``, and a finish with crashed
        nodes records ``"degraded"``.

        Parameters
        ----------
        max_rounds:
            Round cap (``>= 0``); ``None`` runs to completion.
        on_timeout:
            ``"raise"`` (default) raises :class:`SimulationError` when
            the cap elapses with programs still running; ``"stop"``
            returns the stats instead (``outcome == "timeout"``), for
            drivers that degrade gracefully under fault injection.

        Raises
        ------
        SimulationError
            If ``max_rounds`` elapses with programs still running and
            ``on_timeout == "raise"``.
        """
        if on_timeout not in ("raise", "stop"):
            raise InvalidParameterError(
                f"on_timeout must be 'raise' or 'stop', got {on_timeout!r}"
            )
        if max_rounds is not None and max_rounds < 0:
            raise InvalidParameterError(
                f"max_rounds must be >= 0, got {max_rounds}"
            )
        # The cap is checked before each round, so a run never
        # executes more than max_rounds of them.
        while True:
            if max_rounds is not None and self.stats.rounds >= max_rounds:
                unfinished = [
                    v
                    for v in self.programs
                    if v not in self.results and v not in self.crashed
                ]
                if unfinished:
                    self.stats.outcome = "timeout"
                    self.stats.unfinished_nodes = len(unfinished)
                    self.stats.crashed_nodes = len(self.crashed)
                    if on_timeout == "raise":
                        raise SimulationError(
                            f"{len(unfinished)} program(s) still "
                            f"running after {max_rounds} rounds, e.g. "
                            f"{unfinished[0]!r}"
                        )
                    return self.stats
            if not self.step():
                break
        self.stats.outcome = "degraded" if self.crashed else "converged"
        self.stats.crashed_nodes = len(self.crashed)
        return self.stats
