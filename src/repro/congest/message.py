"""CONGEST messages, their declared schemas, and bit-size accounting.

The CONGEST model allows ``O(log n)``-bit messages.  Our protocols only
ever send a short tag plus at most a couple of player ids, so each
message costs ``TAG_BITS + payload·(⌈log₂ n⌉ + 1)`` bits; the simulator
enforces a configurable cap at runtime, and the static analyzer
(``repro.lint`` rules ``MSG001–MSG003``) checks every construction
site against :data:`MESSAGE_SCHEMAS` before a round ever runs.

Every message kind a protocol sends must be declared here with its
maximum payload field count; that makes
:meth:`MessageSchema.max_size_bits` a static upper bound for any ``n``,
which is exactly what the ``O(log n)`` claim of the paper requires.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["TAG_BITS", "Message", "MessageSchema", "MESSAGE_SCHEMAS", "Await"]

# A small fixed tag space suffices for all protocol message kinds.
TAG_BITS = 8


def _id_bits(n: int) -> int:
    """Bits to encode one player id in a system of ``n`` players."""
    return max(1, math.ceil(math.log2(max(2, n)))) + 1


def _size_bits(id_bits: int, fields: int) -> int:
    """Encoded size of a message carrying ``fields`` ids of ``id_bits`` bits."""
    return TAG_BITS + id_bits * fields


@dataclass(frozen=True)
class MessageSchema:
    """The declared shape of one message kind.

    ``max_fields`` is the maximum number of player-id payload fields a
    message of this kind may carry — the quantity that makes its size
    statically boundable at ``TAG_BITS + max_fields · O(log n)`` bits.
    """

    kind: str
    max_fields: int
    doc: str = ""

    def max_size_bits(self, n: int) -> int:
        """Static size bound for a system with id space ``{0, …, n−1}``.

        >>> MESSAGE_SCHEMAS["PROPOSE"].max_size_bits(1024)
        8
        >>> MESSAGE_SCHEMAS["POINT"].max_size_bits(1024)
        19
        """
        return _size_bits(_id_bits(n), self.max_fields)


# Every message kind the protocols may construct, with its payload
# arity.  The static analyzer (rule MSG003) rejects construction sites
# using undeclared kinds or payloads exceeding the declared arity.
MESSAGE_SCHEMAS: Dict[str, MessageSchema] = {
    schema.kind: schema
    for schema in (
        # ASM / Gale–Shapley proposal slots.
        MessageSchema("PROPOSE", 0, "man proposes to an active woman"),
        MessageSchema("ACCEPT", 0, "woman accepts her best proposing quantile"),
        MessageSchema("REJECT", 0, "woman rejects a weakly-worse suitor"),
        # Maximal-matching fragments.
        MessageSchema("MM_POINT", 0, "pointer-matching: point at min neighbor"),
        MessageSchema("MM_TAKEN", 0, "pointer-matching: married, withdraw"),
        MessageSchema("MM_FREE", 0, "almost-regular: woman left unmatched"),
        MessageSchema("PORT_PROPOSE", 0, "port-order: propose along port i"),
        MessageSchema("PORT_ACCEPT", 0, "port-order: accept min proposer"),
        MessageSchema("II_CHOICE", 0, "Israeli–Itai step 1: random choice"),
        MessageSchema("II_KEEP", 0, "Israeli–Itai step 2: keep one edge"),
        MessageSchema("II_PICK", 0, "Israeli–Itai step 3: pick a G' edge"),
        MessageSchema("II_TAKEN", 0, "Israeli–Itai step 4: married, withdraw"),
        # Sentinel used for absent-message defaults in fragments.
        MessageSchema("NONE", 0, "sentinel: no message"),
        # One-id payload example (docs and future protocols).
        MessageSchema("POINT", 1, "generic single-id payload"),
    )
}


@dataclass(frozen=True)
class Message:
    """One CONGEST message: a kind tag plus a tuple of integer fields.

    Examples
    --------
    >>> Message("PROPOSE").size_bits(1024)
    8
    >>> Message("POINT", (17,)).size_bits(1024)
    19
    """

    kind: str
    payload: Tuple[int, ...] = ()

    def size_bits(self, n: int) -> int:
        """Encoded size for a system with id space ``{0, …, n−1}``."""
        return _size_bits(_id_bits(n), len(self.payload))

    @property
    def schema(self) -> MessageSchema:
        """The declared schema for this message's kind.

        Raises ``KeyError`` for undeclared kinds — the runtime twin of
        static rule ``MSG003``.
        """
        return MESSAGE_SCHEMAS[self.kind]


@dataclass(frozen=True)
class Await:
    """Yielded by a node program to listen for up to ``rounds`` rounds.

    ``yield Await(n)`` stands for up to ``n`` consecutive ``yield {}``
    that stop after the first round whose inbox is non-empty: the node
    sends nothing meanwhile, and the simulator resumes it only in the
    round after mail reaches it or after its ``n``-th round, whichever
    comes first.  The ``yield`` evaluates to ``(inbox, rounds_waited)``
    — the inbox of the last round waited (``{}`` when the timer fired
    on a silent round) and how many rounds the wait lasted, ``1`` to
    ``n``.  ``n`` must be a positive ``int`` (not a ``bool``); the
    simulator raises :class:`~repro.errors.ProtocolViolationError`
    otherwise.

    >>> Await(3)
    Await(rounds=3)
    """

    rounds: int
