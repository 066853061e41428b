"""Deterministic fault schedules for the CONGEST simulator.

A :class:`FaultPlan` describes *what goes wrong* in a simulated run:
per-message drop / duplication / delay, node crashes (permanent or
crash-restart omission windows), and link partitions.  Every
per-message decision is a pure function of ``(plan seed, fault kind,
round, repr(sender), repr(recipient))`` through the same SHA-256
:func:`~repro.parallel.spec.derive_seed` discipline the parallel layer
uses — no mutable RNG state, no dependence on delivery order, worker
count, or process identity.  The same plan over the same simulation
therefore produces a byte-identical fault trace everywhere (the
determinism contract of ``docs/robustness.md``).

A plan with all rates zero and no crashes/partitions makes *no*
decisions and leaves a run bit-identical to a plan-free one; the
test suite pins that property.

The plan builds the ``(seed, kind)`` head of each decision's derivation
once, when it is constructed (a :class:`~repro.parallel.spec.SeedHead`),
so a decision hashes the message's round and link and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidParameterError
from repro.graphs import NodeId
from repro.parallel.spec import SeedHead, derive_seed

__all__ = [
    "NodeCrash",
    "PartitionWindow",
    "FaultPlan",
    "RetryTally",
    "sample_nodes",
]

#: Seeds are 63-bit integers; dividing maps them to a uniform [0, 1).
_UNIT = float(2**63)

#: Each per-message decision's head: (plan attribute, derivation tag).
_HEADS = (
    ("_drop_head", "drop"),
    ("_duplicate_head", "duplicate"),
    ("_delay_head", "delay"),
    ("_amount_head", "delay-amount"),
)


@dataclass(frozen=True)
class NodeCrash:
    """One node failure.

    ``restart_round is None`` means a permanent crash: the node's
    program is closed at the start of ``round`` and it neither sends
    nor receives again.  With a restart round, the node instead goes
    *down* for rounds ``[round, restart_round)`` — its program keeps
    running on the round clock (awaiting or not, as it chose) but every
    message it sends or should receive in the window is dropped, the
    classic crash-restart-with-amnesia-free model.
    """

    node: NodeId
    round: int
    restart_round: Optional[int] = None

    def __post_init__(self) -> None:
        if self.round < 1:
            raise InvalidParameterError(
                f"crash round must be >= 1, got {self.round}"
            )
        if self.restart_round is not None and self.restart_round <= self.round:
            raise InvalidParameterError(
                f"restart_round {self.restart_round} must be after "
                f"crash round {self.round}"
            )


@dataclass(frozen=True)
class PartitionWindow:
    """A link partition active for rounds ``[start, end)``.

    Messages crossing the cut between ``group`` and its complement are
    dropped while the window is active; messages within either side
    flow normally.
    """

    start: int
    end: int
    group: FrozenSet[NodeId] = frozenset()

    def __post_init__(self) -> None:
        if self.start < 1 or self.end <= self.start:
            raise InvalidParameterError(
                f"partition window [{self.start}, {self.end}) is empty "
                f"or starts before round 1"
            )
        # Accept any iterable of node ids for convenience.
        object.__setattr__(self, "group", frozenset(self.group))

    def severs(
        self, round_index: int, sender: NodeId, recipient: NodeId
    ) -> bool:
        """Whether this window drops a ``sender -> recipient`` message."""
        if not self.start <= round_index < self.end:
            return False
        return (sender in self.group) != (recipient in self.group)


@dataclass(frozen=True)
class FaultPlan:
    """A complete, seeded fault schedule for one simulated run.

    Rates are per-message probabilities in ``[0, 1]``; each message's
    fate is decided statelessly from ``seed`` (see module docstring).
    ``max_delay`` bounds how many rounds a delayed message is held
    (the delay amount is itself seed-derived in ``[1, max_delay]``).
    """

    seed: int = 0
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: int = 2
    crashes: Tuple[NodeCrash, ...] = ()
    partitions: Tuple[PartitionWindow, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidParameterError(
                f"fault plan seed must be an int, got {self.seed!r}"
            )
        for name in ("drop_rate", "duplicate_rate", "delay_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidParameterError(
                    f"{name} must be in [0, 1], got {value}"
                )
        if self.max_delay < 1:
            raise InvalidParameterError(
                f"max_delay must be >= 1, got {self.max_delay}"
            )
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        # Not fields: the decisions' prebuilt heads, derived from
        # ``seed`` and rebuilt by ``dataclasses.replace``.
        for attr, tag in _HEADS:
            object.__setattr__(self, attr, SeedHead(self.seed, tag))

    # ------------------------------------------------------------------
    # Stateless per-message decisions
    #
    # Each decision names the link by its nodes' ``repr`` labels, the
    # text it hashes; the injector keeps them for the run.
    # ------------------------------------------------------------------

    def drops(self, round_index: int, sender: str, recipient: str) -> bool:
        """Whether the message sent this round on this link is lost."""
        if self.drop_rate <= 0.0:
            return False
        u = self._drop_head.derive(round_index, sender, recipient)
        return u / _UNIT < self.drop_rate

    def duplicates(
        self, round_index: int, sender: str, recipient: str
    ) -> bool:
        """Whether the message is delivered a second time next round."""
        if self.duplicate_rate <= 0.0:
            return False
        u = self._duplicate_head.derive(round_index, sender, recipient)
        return u / _UNIT < self.duplicate_rate

    def delay_of(self, round_index: int, sender: str, recipient: str) -> int:
        """How many rounds the message is held (0 = delivered on time)."""
        if self.delay_rate <= 0.0:
            return 0
        u = self._delay_head.derive(round_index, sender, recipient)
        if u / _UNIT >= self.delay_rate:
            return 0
        amount = self._amount_head.derive(round_index, sender, recipient)
        return 1 + amount % self.max_delay

    def partitioned(
        self, round_index: int, sender: NodeId, recipient: NodeId
    ) -> bool:
        """Whether an active partition window severs this link now."""
        for window in self.partitions:
            if window.severs(round_index, sender, recipient):
                return True
        return False

    @property
    def is_null(self) -> bool:
        """True when the plan can never inject a fault."""
        return (
            self.drop_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.delay_rate == 0.0
            and not self.crashes
            and not self.partitions
        )


@dataclass
class RetryTally:
    """Counts protocol-level retransmissions triggered by fault evidence.

    Protocol programs only retransmit on evidence that never occurs in
    a fault-free run (a stale suitor, a re-proposing fiancé), so a
    tally of zero is the common case and keeps fault-free telemetry
    untouched.
    """

    count: int = 0


def sample_nodes(
    nodes: Iterable[NodeId], count: int, seed: int, tag: str = "crash"
) -> List[NodeId]:
    """Pick ``count`` nodes deterministically by seed-derived score.

    Order- and platform-independent: each node's score depends only on
    ``(seed, tag, repr(node))``, ties broken by repr.
    """
    scored = sorted(
        nodes, key=lambda v: (derive_seed(seed, tag, repr(v)), repr(v))
    )
    return scored[: max(0, count)]
