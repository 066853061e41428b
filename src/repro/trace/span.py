"""Causal message tracing for CONGEST simulations.

Every message the simulator validates gets a deterministic **trace
id**: a SHA-256 chain (same :func:`~repro.parallel.spec.derive_seed`
discipline as the parallel and fault layers) over the id of its causal
parent — the last message its *sender* received before sending — plus
the message's own coordinates ``(round, sender, recipient, kind)``.
Walking ``parent`` links therefore reconstructs the exact
propose/accept/reject chain that produced any final state, which is
the object the paper's trajectory claims (Theorem 3's ε-bound emerges
from those chains) are about.

A :class:`CausalTracer` records three kinds of flat, timestamp-free
dicts — byte-identical across runs, worker counts, and processes:

``message``
    One validated send: id, parent id, round, link, kind, and its
    ``fate`` (``delivered`` / ``deferred`` / ``dropped``).  Fault
    injections (:mod:`repro.faults`) annotate the record with the
    ``fault`` action that touched it — the fault that killed a chain.
``redelivery``
    A copy of a message landing in a later round than it was sent: a
    fault copy (delay or duplicate) or, marked ``via: "transport"``, a
    latency copy.
``crash`` / ``down`` / ``restart``
    A node-level fault event, so chains ending at a dead node are
    explainable.

The simulator and transport drive the ``on_*`` hooks: a send, the
faults that decided its fate, a same-round delivery, a latency copy
queued, and — for a queued copy of either origin — one hook when it
lands (:meth:`CausalTracer.on_redelivery`) and one when it is lost to
a dead recipient (:meth:`CausalTracer.on_late_drop`).

The trace holds causes only.  How much each round carried and how long
it took live in the metrics registry (a ``congest_round`` record and a
``congest.round_seconds`` span per round that carries a message), and
a run's outcome and round count in
:class:`~repro.congest.simulator.SimulationStats`.

The tracer is **disabled by absence**: components reach it via
``telemetry.tracer`` and skip every hook when it is ``None``, so
untraced runs pay nothing (the ``test_obs_overhead`` guard covers the
engine path).
"""

from __future__ import annotations

from hashlib import sha256
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.parallel.spec import _SEP, _canonical

__all__ = ["derive_trace_id", "CausalTracer", "ROOT_PARENT"]

#: Parent id used for chain roots (messages sent before receiving any).
ROOT_PARENT = "root"

#: Hex digits kept per trace id; 64 bits of SHA-256 — collisions across
#: one run's message set are negligible and ids stay grep-friendly.
_ID_HEX = 16

#: Fault actions that terminate a message's delivery (mirror of
#: ``repro.faults.injector._DROP_ACTIONS``, inlined to keep this module
#: import-light; the cross-check test pins the two sets equal).
DROP_ACTIONS = frozenset(
    {
        "drop",
        "drop_partition",
        "drop_crashed",
        "drop_late",
        "omit_send",
        "omit_recv",
    }
)


def derive_trace_id(parent: str, *components: Any) -> str:
    """A stable 16-hex-digit trace id from a parent id and coordinates.

    Same discipline as :func:`repro.parallel.spec.derive_seed`: SHA-256
    over the canonical text of the inputs, so the id is a pure function
    of the causal history — independent of worker identity, wall time,
    and ``PYTHONHASHSEED``.

    >>> derive_trace_id("root", 1, "('M', 0)", "('W', 1)", "PROPOSE") \
        == derive_trace_id("root", 1, "('M', 0)", "('W', 1)", "PROPOSE")
    True
    >>> derive_trace_id("root", 1) == derive_trace_id("root", 2)
    False
    """
    return _trace_id(parent, *map(_canonical, components))


def _trace_id(parent: str, *texts: str) -> str:
    """The trace id of ``parent`` and components already canonical."""
    text = _SEP.join((parent, *texts))
    return sha256(text.encode("utf-8")).hexdigest()[:_ID_HEX]


class CausalTracer:
    """Deterministic causal trace of one simulated run.

    The simulator drives the ``on_*`` hooks.  All records are flat
    JSON-safe dicts with no timestamps — see the module docstring for
    the schema.
    """

    def __init__(self) -> None:
        #: Flat record list, in deterministic emission order.
        self.records: List[Dict[str, Any]] = []
        self._by_id: Dict[str, Dict[str, Any]] = {}
        # Causal head per node (repr string): id of the last message
        # delivered to it.  Head updates are buffered per round and
        # applied at end_round(), so a round-r delivery can only parent
        # round-r+1 sends — matching the simulator's yield semantics.
        self._heads: Dict[str, str] = {}
        self._pending_heads: List[Tuple[str, str]] = []
        # Each node's label (its repr) and that label's canonical text,
        # made on first use: records carry the first, ids hash the second.
        # The tracer keeps its own rather than reading the simulator's
        # labels: it is built before and apart from any run, and its
        # hooks take node ids.
        self._labels: Dict[Any, Tuple[str, str]] = {}

    def _label(self, node: Any) -> Tuple[str, str]:
        """``node``'s label and the label's canonical text."""
        label = self._labels.get(node)
        if label is None:
            text = repr(node)
            label = self._labels[node] = (text, _canonical(text))
        return label

    # ------------------------------------------------------------------
    # Message hooks (driven by the simulator)
    # ------------------------------------------------------------------

    def on_send(
        self, round_index: int, sender: Any, recipient: Any, kind: str
    ) -> str:
        """Record one validated send; returns its trace id.

        The id is ``derive_trace_id(parent or ROOT_PARENT, round_index,
        repr(sender), repr(recipient), kind)``, hashed from the labels'
        kept canonical texts.
        """
        s, s_text = self._label(sender)
        r, r_text = self._label(recipient)
        parent = self._heads.get(s, "")
        tid = _trace_id(
            parent or ROOT_PARENT, _canonical(round_index), s_text, r_text,
            _canonical(kind),
        )
        record: Dict[str, Any] = {
            "type": "message",
            "round": round_index,
            "id": tid,
            "parent": parent,
            "from": s,
            "to": r,
            "kind": kind,
            "fate": "delivered",
        }
        self.records.append(record)
        self._by_id[tid] = record
        return tid

    def on_fault(self, tid: str, fault_record: Dict[str, Any]) -> None:
        """Annotate message ``tid`` with one injector trace record.

        ``fault_record`` is a :attr:`repro.faults.injector.
        FaultInjector.records` entry produced while deciding this
        message's fate (the simulator slices the injector trace around
        ``filter_send``).
        """
        record = self._by_id.get(tid)
        if record is None:
            return
        action = fault_record["action"]
        if action in DROP_ACTIONS:
            record["fate"] = "dropped"
            record["fault"] = action
        elif action == "delay":
            record["fate"] = "deferred"
            record["fault"] = action
            record["until"] = fault_record["until"]
        elif action == "duplicate":
            # Original copy still lands now; the duplicate lands later.
            record["fault"] = action
            record["until"] = fault_record["until"]

    def on_delivered(self, recipient: Any, tid: str) -> None:
        """Queue a same-round delivery's causal-head update."""
        self._pending_heads.append((self._label(recipient)[0], tid))

    def on_transport_defer(
        self, tid: str, until: int, latency: int
    ) -> None:
        """Mark message ``tid`` as in flight until round ``until``.

        Driven by latency-bearing transports; the message record keeps
        fate ``deferred`` (the injector-delay vocabulary) plus the
        drawn ``latency``, and :meth:`on_redelivery` records its
        landing.
        """
        record = self._by_id.get(tid)
        if record is None:
            return
        record["fate"] = "deferred"
        record["until"] = until
        record["latency"] = latency

    def on_redelivery(
        self,
        round_index: int,
        tid: str,
        to_repr: str,
        via: Optional[str] = None,
    ) -> None:
        """Record a copy of message ``tid`` landing this round.

        ``via`` is ``"transport"`` for a latency copy and ``None`` for
        a fault copy.  Like a same-round delivery, the recipient's
        head update is buffered and applied at ``end_round``, so a
        round-``r`` arrival parents round-``r+1`` sends.
        """
        record: Dict[str, Any] = {
            "type": "redelivery", "round": round_index, "id": tid,
            "to": to_repr,
        }
        if via is not None:
            record["via"] = via
        self.records.append(record)
        self._pending_heads.append((to_repr, tid))

    def on_late_drop(self, tid: str) -> None:
        """Mark message ``tid`` lost: its copy reached a dead node."""
        record = self._by_id.get(tid)
        if record is not None:
            record["fate"] = "dropped"
            record["fault"] = "drop_late"

    def on_node_fault(self, record: Dict[str, Any]) -> None:
        """Record a node-level injector event (crash/down/restart)."""
        entry = {"type": record["action"], "round": record["round"],
                 "node": record["node"]}
        if "until" in record:
            entry["until"] = record["until"]
        self.records.append(entry)

    def end_round(self, round_index: int) -> None:
        """Close the round: apply its buffered causal-head updates."""
        for node, tid in self._pending_heads:
            self._heads[node] = tid
        self._pending_heads.clear()

    # ------------------------------------------------------------------
    # Introspection / serialization
    # ------------------------------------------------------------------

    def head_of(self, node: Any) -> str:
        """The causal head (last delivered message id) of ``node``."""
        return self._heads.get(repr(node), "")

    def message(self, tid: str) -> Optional[Dict[str, Any]]:
        """The message record with trace id ``tid``, if any."""
        return self._by_id.get(tid)

    def to_records(self) -> List[Dict[str, Any]]:
        """The trace as a fresh list of fresh dicts (JSON-safe)."""
        return [dict(record) for record in self.records]

    @classmethod
    def from_records(
        cls, records: Iterable[Dict[str, Any]]
    ) -> "CausalTracer":
        """Rebuild a tracer's record state from :meth:`to_records`."""
        tracer = cls()
        for record in records:
            entry = dict(record)
            tracer.records.append(entry)
            if entry.get("type") == "message":
                tracer._by_id[entry["id"]] = entry
        return tracer

    def merge(
        self, other_records: Iterable[Dict[str, Any]], **tags: Any
    ) -> None:
        """Append another trace's records, stamping ``tags`` onto each.

        Merge order is the caller's responsibility; the parallel layer
        merges in trial-spec order so the result is identical for any
        worker count (see ``docs/parallel.md``).
        """
        for record in other_records:
            entry = dict(record)
            entry.update(tags)
            self.records.append(entry)
            if entry.get("type") == "message":
                self._by_id.setdefault(entry["id"], entry)

    def __len__(self) -> int:
        return len(self.records)

