"""Seeded per-link latency models for the transport layer.

A latency model answers one question: *how many rounds does this
message spend in flight?*  Every draw is a pure function of
``(link_seed, model parameters, send round, sender, recipient)``
through the same SHA-256 :func:`~repro.parallel.spec.derive_seed`
discipline the fault and parallel layers use — no mutable RNG state,
no dependence on delivery order, worker count, or process identity.
The same model over the same simulation therefore produces a
byte-identical delivery schedule everywhere, which is what lets
:class:`~repro.congest.transport.AsyncEventTransport` keep the
determinism contract of ``docs/transport.md``.

The zoo:

``FixedLatency(rounds)``
    Every message takes exactly ``rounds`` extra rounds.  ``rounds=0``
    (the :data:`ZERO_LATENCY` singleton) is the synchronous model —
    an async transport running it is bit-identical to the lockstep
    one, which the equivalence suite pins.
``UniformLatency(low, high)``
    Independent per-message draw, uniform on ``[low, high]`` rounds.
``PerLinkLatency(low, high)``
    One draw per *link* (no round component): each edge gets a fixed
    latency for the whole run — heterogeneous link speeds.
``GeometricLatency(rate, cap)``
    Per-message geometric tail: each extra round is added with
    probability ``rate``, truncated at ``cap``.  Implemented with one
    seeded integer comparison per candidate round (never a float
    ``log``), so draws are platform-stable.

Probabilities are compared in integer space (``derive_seed`` yields a
63-bit integer; the threshold is ``int(rate * 2**63)``) — the only
float operation is the one-time threshold conversion, mirroring
the per-message decisions of :class:`repro.faults.plan.FaultPlan`.

Each hashing model's :meth:`head` builds the ``(link_seed, tag)`` part
of its derivation once (a :class:`~repro.parallel.spec.SeedHead`); a
transport holds it for the run and passes it to ``draw`` in place of
the seed, which draws exactly what the seed itself would.  A model
whose draw cannot vary — ``UniformLatency(a, a)``,
``PerLinkLatency(a, a)``, ``GeometricLatency`` with a zero threshold —
returns its constant without hashing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Union

from repro.errors import InvalidParameterError
from repro.parallel.spec import SeedHead

__all__ = [
    "FixedLatency",
    "UniformLatency",
    "PerLinkLatency",
    "GeometricLatency",
    "ZERO_LATENCY",
    "parse_latency",
    "LATENCY_KINDS",
]

#: derive_seed yields 63-bit integers; thresholds live in that space.
_UNIT = 2**63


#: What ``draw`` takes as its seed: the root seed or its prebuilt head.
LinkSeed = Union[int, SeedHead]


def _threshold(rate: float) -> int:
    """The integer acceptance threshold for probability ``rate``."""
    return int(rate * _UNIT)


@dataclass(frozen=True)
class FixedLatency:
    """Every message spends exactly ``rounds`` extra rounds in flight."""

    rounds: int = 0
    kind = "fixed"

    def __post_init__(self) -> None:
        if self.rounds < 0:
            raise InvalidParameterError(
                f"latency rounds must be >= 0, got {self.rounds}"
            )

    def head(self, link_seed: int) -> Optional[SeedHead]:
        """Nothing to prebuild: a fixed draw hashes nothing."""
        return None

    def draw(
        self, link_seed: Any, round_index: int, sender: str, recipient: str
    ) -> int:
        """Rounds in flight for one message (deterministic constant)."""
        return self.rounds

    def bound(self) -> int:
        """The largest latency this model can ever draw."""
        return self.rounds

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe description (for manifests)."""
        return {"kind": self.kind, "rounds": self.rounds}


@dataclass(frozen=True)
class UniformLatency:
    """Independent uniform draw on ``[low, high]`` rounds per message."""

    low: int = 0
    high: int = 2
    kind = "uniform"

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise InvalidParameterError(
                f"uniform latency needs 0 <= low <= high, got "
                f"[{self.low}, {self.high}]"
            )

    def head(self, link_seed: int) -> SeedHead:
        """The prebuilt ``(link_seed, tag)`` head of this model's draws."""
        return SeedHead(link_seed, "latency-uniform")

    def draw(
        self, link_seed: LinkSeed, round_index: int, sender: str,
        recipient: str,
    ) -> int:
        if self.high == self.low:
            return self.low
        if type(link_seed) is not SeedHead:
            link_seed = self.head(link_seed)
        u = link_seed.derive(round_index, sender, recipient)
        return self.low + u % (self.high - self.low + 1)

    def bound(self) -> int:
        return self.high

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "low": self.low, "high": self.high}


@dataclass(frozen=True)
class PerLinkLatency:
    """One uniform draw per link, fixed for the whole run.

    The derivation omits the round index, so every message on the same
    directed edge sees the same latency — a run over heterogeneous
    links rather than a jittery network.
    """

    low: int = 0
    high: int = 2
    kind = "perlink"

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise InvalidParameterError(
                f"per-link latency needs 0 <= low <= high, got "
                f"[{self.low}, {self.high}]"
            )

    def head(self, link_seed: int) -> SeedHead:
        """The prebuilt ``(link_seed, tag)`` head of this model's draws."""
        return SeedHead(link_seed, "latency-perlink")

    def draw(
        self, link_seed: LinkSeed, round_index: int, sender: str,
        recipient: str,
    ) -> int:
        if self.high == self.low:
            return self.low
        if type(link_seed) is not SeedHead:
            link_seed = self.head(link_seed)
        u = link_seed.derive(sender, recipient)
        return self.low + u % (self.high - self.low + 1)

    def bound(self) -> int:
        return self.high

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "low": self.low, "high": self.high}


@dataclass(frozen=True)
class GeometricLatency:
    """Geometric in-flight tail: +1 round w.p. ``rate``, capped.

    The draw makes one seeded integer comparison per candidate round
    (at most ``cap``), never a float logarithm, so it is byte-stable
    across platforms and libms.
    """

    rate: float = 0.5
    cap: int = 4
    kind = "geometric"

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate < 1.0:
            raise InvalidParameterError(
                f"geometric latency rate must be in [0, 1), got {self.rate}"
            )
        if self.cap < 1:
            raise InvalidParameterError(
                f"geometric latency cap must be >= 1, got {self.cap}"
            )
        # Not a field: derived from ``rate`` once, never compared.
        object.__setattr__(self, "_below", _threshold(self.rate))

    def head(self, link_seed: int) -> SeedHead:
        """The prebuilt ``(link_seed, tag)`` head of this model's draws."""
        return SeedHead(link_seed, "latency-geom")

    def draw(
        self, link_seed: LinkSeed, round_index: int, sender: str,
        recipient: str,
    ) -> int:
        threshold = self._below
        if threshold == 0:
            # No 63-bit draw is below a zero threshold.
            return 0
        if type(link_seed) is not SeedHead:
            link_seed = self.head(link_seed)
        latency = 0
        while latency < self.cap and (
            link_seed.derive(round_index, sender, recipient, latency)
            < threshold
        ):
            latency += 1
        return latency

    def bound(self) -> int:
        # At rate 0 no draw ever passes the first comparison.
        return self.cap if self.rate > 0.0 else 0

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "rate": self.rate, "cap": self.cap}


#: The synchronous model: every message arrives in its send round.
ZERO_LATENCY = FixedLatency(0)

#: Spec prefixes :func:`parse_latency` understands.
LATENCY_KINDS = ("zero", "fixed", "uniform", "perlink", "geometric")


def _int_pair(body: str, spec: str) -> "tuple[int, int]":
    lo, sep, hi = body.partition("-")
    if not sep:
        raise InvalidParameterError(
            f"latency spec {spec!r} needs a LOW-HIGH range, e.g. "
            f"'uniform:0-3'"
        )
    try:
        return int(lo), int(hi)
    except ValueError:
        raise InvalidParameterError(
            f"latency spec {spec!r}: {body!r} is not an integer range"
        ) from None


def parse_latency(spec: str):
    """A latency model from a CLI spec string.

    Grammar (see :data:`LATENCY_KINDS`)::

        zero                 FixedLatency(0)
        fixed:K              FixedLatency(K)
        uniform:LO-HI        UniformLatency(LO, HI)
        perlink:LO-HI        PerLinkLatency(LO, HI)
        geometric:P:CAP      GeometricLatency(P, CAP)

    >>> parse_latency("zero").bound()
    0
    >>> parse_latency("uniform:1-3").to_dict()
    {'kind': 'uniform', 'low': 1, 'high': 3}
    """
    head, _, body = spec.strip().partition(":")
    head = head.lower()
    if head == "zero":
        if body:
            raise InvalidParameterError(
                f"latency spec {spec!r}: 'zero' takes no parameters"
            )
        return ZERO_LATENCY
    if head == "fixed":
        try:
            return FixedLatency(int(body))
        except ValueError:
            raise InvalidParameterError(
                f"latency spec {spec!r}: 'fixed' needs an integer, e.g. "
                f"'fixed:2'"
            ) from None
    if head == "uniform":
        low, high = _int_pair(body, spec)
        return UniformLatency(low, high)
    if head == "perlink":
        low, high = _int_pair(body, spec)
        return PerLinkLatency(low, high)
    if head == "geometric":
        rate_text, sep, cap_text = body.partition(":")
        if not sep:
            raise InvalidParameterError(
                f"latency spec {spec!r} needs RATE:CAP, e.g. "
                f"'geometric:0.3:4'"
            )
        try:
            return GeometricLatency(float(rate_text), int(cap_text))
        except ValueError:
            raise InvalidParameterError(
                f"latency spec {spec!r}: rate must be a float and cap an "
                f"integer"
            ) from None
    raise InvalidParameterError(
        f"unknown latency model {head!r}; valid kinds: "
        f"{', '.join(LATENCY_KINDS)}"
    )
