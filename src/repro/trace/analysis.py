"""Analysis over causal traces: chains, critical paths, fault impact.

Operates on the flat record lists a :class:`~repro.trace.span.
CausalTracer` produces (or the ``trace`` section of a
:func:`repro.io.load_metrics` artifact holds).  The
central object is :class:`CausalTrace`, which indexes messages by id
and by link and answers the questions the paper's trajectory claims
raise:

* :meth:`CausalTrace.chain` — the root→leaf propose/accept/reject
  chain behind any message.
* :meth:`CausalTrace.explain_blocking_pair` — why ``(m, w)`` blocks:
  every message that crossed the ``(m, w)`` link, its fate, the fault
  that killed it if one did, and a verdict string.
* :meth:`CausalTrace.critical_path` — the longest causal chain in the
  run (the trace-level analogue of the round bound).
* :meth:`CausalTrace.fault_impact` — per fault action, how many
  messages it touched and how much downstream traffic each dropped
  message would have been parent to.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile

__all__ = ["CausalTrace", "explain_blocking_pairs"]


def _man_repr(m: int) -> str:
    return repr(("M", m))


def _woman_repr(w: int) -> str:
    return repr(("W", w))


class CausalTrace:
    """An indexed, queryable view over causal-trace records."""

    def __init__(self, records: Sequence[Dict[str, Any]]) -> None:
        self.records: List[Dict[str, Any]] = [dict(r) for r in records]
        self._messages: Dict[str, Dict[str, Any]] = {}
        self._children: Dict[str, List[str]] = {}
        self._by_link: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
        self._node_faults: Dict[str, List[Dict[str, Any]]] = {}
        for record in self.records:
            rtype = record.get("type")
            if rtype == "message":
                tid = record["id"]
                self._messages[tid] = record
                parent = record.get("parent") or ""
                if parent:
                    self._children.setdefault(parent, []).append(tid)
                link = (record["from"], record["to"])
                self._by_link.setdefault(link, []).append(record)
            elif rtype in ("crash", "down", "restart"):
                self._node_faults.setdefault(record["node"], []).append(
                    record
                )

    # -- basic access --------------------------------------------------

    def message(self, tid: str) -> Optional[Dict[str, Any]]:
        return self._messages.get(tid)

    def messages(self) -> List[Dict[str, Any]]:
        """All message records, in emission (= causal) order."""
        return [r for r in self.records if r.get("type") == "message"]

    def messages_between(self, a: Any, b: Any) -> List[Dict[str, Any]]:
        """Messages crossing the ``a``–``b`` link, either direction.

        ``a``/``b`` may be node tuples (``("M", 0)``) or their reprs.
        """
        ra = a if isinstance(a, str) else repr(a)
        rb = b if isinstance(b, str) else repr(b)
        out = list(self._by_link.get((ra, rb), []))
        out.extend(self._by_link.get((rb, ra), []))
        out.sort(key=lambda r: (r["round"], r["id"]))
        return out

    def node_faults(self, node: Any) -> List[Dict[str, Any]]:
        """Crash/down/restart records for ``node``."""
        key = node if isinstance(node, str) else repr(node)
        return list(self._node_faults.get(key, []))

    # -- chain reconstruction ------------------------------------------

    def chain(self, tid: str) -> List[Dict[str, Any]]:
        """The causal chain ending at ``tid``, root first.

        Follows ``parent`` links until a chain root (empty parent) or a
        message absent from this trace (merged sub-traces keep ids but
        a truncated trace may lack ancestors).
        """
        out: List[Dict[str, Any]] = []
        seen = set()
        current: Optional[str] = tid
        while current and current not in seen:
            seen.add(current)
            record = self._messages.get(current)
            if record is None:
                break
            out.append(record)
            current = record.get("parent") or None
        out.reverse()
        return out

    def descendants(self, tid: str) -> List[str]:
        """Ids of every message causally downstream of ``tid``."""
        out: List[str] = []
        stack = list(self._children.get(tid, []))
        seen = set()
        while stack:
            nxt = stack.pop()
            if nxt in seen:
                continue
            seen.add(nxt)
            out.append(nxt)
            stack.extend(self._children.get(nxt, []))
        out.sort(key=lambda t: (self._messages[t]["round"], t))
        return out

    def critical_path(self) -> List[Dict[str, Any]]:
        """The longest causal chain in the trace, root first.

        Ties break toward the lexicographically smallest leaf id, so
        the result is deterministic.
        """
        depth: Dict[str, int] = {}

        def depth_of(tid: str) -> int:
            # Iterative: chains can be as long as the round count.
            stack = [tid]
            while stack:
                top = stack[-1]
                if top in depth:
                    stack.pop()
                    continue
                record = self._messages.get(top)
                parent = (record or {}).get("parent") or ""
                if not parent or parent not in self._messages:
                    depth[top] = 1
                    stack.pop()
                elif parent in depth:
                    depth[top] = depth[parent] + 1
                    stack.pop()
                else:
                    stack.append(parent)
            return depth[tid]

        best_tid = ""
        best_depth = 0
        for tid in self._messages:
            d = depth_of(tid)
            if d > best_depth or (d == best_depth and tid < best_tid):
                best_depth = d
                best_tid = tid
        return self.chain(best_tid) if best_tid else []

    # -- fault accounting ----------------------------------------------

    def dropped(self) -> List[Dict[str, Any]]:
        """Message records whose fate is ``dropped``."""
        return [
            r for r in self.messages() if r.get("fate") == "dropped"
        ]

    def fault_impact(self) -> Dict[str, Any]:
        """Per-fault causal-impact report.

        ``by_action`` counts messages annotated with each fault action;
        ``dropped_messages`` lists every dropped message with the depth
        of the chain it terminated and how many downstream messages its
        sender's earlier traffic went on to cause (descendants of its
        *parent* — the chain that had to route around the drop).
        """
        by_action: Dict[str, int] = {}
        for record in self.messages():
            action = record.get("fault")
            if action:
                by_action[action] = by_action.get(action, 0) + 1
        dropped_report: List[Dict[str, Any]] = []
        for record in self.dropped():
            chain = self.chain(record["id"])
            dropped_report.append(
                {
                    "id": record["id"],
                    "round": record["round"],
                    "from": record["from"],
                    "to": record["to"],
                    "kind": record["kind"],
                    "fault": record.get("fault"),
                    "chain_depth": len(chain),
                    "descendants": len(self.descendants(record["id"])),
                }
            )
        return {
            "by_action": dict(sorted(by_action.items())),
            "dropped_messages": dropped_report,
            "node_faults": {
                node: [dict(r) for r in events]
                for node, events in sorted(self._node_faults.items())
            },
        }

    # -- blocking-pair explanation -------------------------------------

    def explain_blocking_pair(self, m: int, w: int) -> Dict[str, Any]:
        """Why does ``(m, w)`` block?  The causal story of their link.

        Returns the full message history on the ``(M m)``–``(W w)``
        link with fates and faults, the causal chain behind the last
        message, node-fault events for both endpoints, and a verdict:

        ``"no-contact"``
            No message ever crossed the link — ``m`` never reached
            ``w`` (e.g. his PROPOSE chain died upstream, or the
            schedule ended first).
        ``"dropped:<KIND>"``
            The last message on the link was killed by a fault —
            the injected fault explains the blocking pair.
        ``"delivered:<KIND>"``
            The last message arrived; the pair blocks because of the
            protocol's own quantile/truncation behavior (Theorem 3's
            ε-slack), not a fault.
        """
        mr, wr = _man_repr(m), _woman_repr(w)
        history = self.messages_between(mr, wr)
        faults = self.node_faults(mr) + self.node_faults(wr)
        if not history:
            verdict = "no-contact"
            last_chain: List[Dict[str, Any]] = []
        else:
            last = history[-1]
            last_chain = self.chain(last["id"])
            state = (
                "dropped" if last.get("fate") == "dropped" else "delivered"
            )
            verdict = f"{state}:{last['kind']}"
        return {
            "pair": [m, w],
            "verdict": verdict,
            "messages": [dict(r) for r in history],
            "last_chain": [dict(r) for r in last_chain],
            "node_faults": [dict(r) for r in faults],
        }


def explain_blocking_pairs(
    trace: CausalTrace,
    prefs: PreferenceProfile,
    matching: Matching,
) -> List[Dict[str, Any]]:
    """Explain every blocking pair of ``matching`` from ``trace``.

    Convenience wrapper: finds the blocking pairs with the full-scan
    oracle and runs :meth:`CausalTrace.explain_blocking_pair` on each,
    in sorted pair order.
    """
    from repro.analysis.stability import find_blocking_pairs

    return [
        trace.explain_blocking_pair(m, w)
        for m, w in sorted(find_blocking_pairs(prefs, matching))
    ]
