"""The set model of one player's quantized list, kept as a test oracle.

:class:`QuantizedList` holds a player's quantiles ``Q_1, …, Q_k``
(Section 3.1) as a rank → quantile map, a present map and ``k`` member
sets.  The engines keep a list as offsets with a present flag and read
a quantile through :func:`repro.core.quantile.offset_quantile` and
:func:`~repro.core.quantile.quantile_run`; this class computes
``q(u) = ⌈P(u)·k / deg(v)⌉`` itself, so the seed oracles built on it
(``tests/reference_asm.py``, ``tests/reference_protocols.py``) share no
quantile code with the engines they check.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.errors import InvalidParameterError

__all__ = ["QuantizedList"]


class QuantizedList:
    """A player's quantized preference list with removal support.

    Implements the per-player state of Section 3.1: the quantile sets
    ``Q_1, …, Q_k`` and their union ``Q``.  Elements can be removed (on
    rejection) but never added, matching the paper's invariant.

    Parameters
    ----------
    ordered_partners:
        The player's preference list, most preferred first.
    k:
        Number of quantiles.

    Examples
    --------
    >>> ql = QuantizedList([10, 11, 12, 13], k=2)
    >>> ql.quantile_of(10), ql.quantile_of(13)
    (1, 2)
    >>> ql.best_nonempty_quantile()
    1
    >>> ql.remove(10); ql.remove(11)
    >>> ql.best_nonempty_quantile()
    2
    """

    __slots__ = ("_k", "_degree", "_quantile_of", "_members", "_present", "_best")

    def __init__(self, ordered_partners: Sequence[int], k: int) -> None:
        if k < 1:
            raise InvalidParameterError(f"quantile count k must be >= 1, got {k}")
        self._k = k
        self._degree = len(ordered_partners)
        quantile_of: Dict[int, int] = {}
        members: List[Set[int]] = [set() for _ in range(k + 1)]  # 1-based
        degree = self._degree
        # q(u) = ⌈P(u)·k / deg⌉ for the 1-based rank P(u), computed here
        # rather than by repro.core.quantile, whose formulas this checks.
        for rank, u in enumerate(ordered_partners, 1):
            q = -(-rank * k // degree)
            quantile_of[u] = q
            members[q].add(u)
        if len(quantile_of) != degree:
            seen: Set[int] = set()
            for u in ordered_partners:
                if u in seen:
                    raise InvalidParameterError(
                        f"duplicate partner {u} in preference list"
                    )
                seen.add(u)
        self._quantile_of = quantile_of
        # Present (non-removed) partners only: u -> quantile.  One dict
        # probe answers both "still in Q?" and "which quantile?" — the
        # pair of questions Step 2 of ProposalRound asks per suitor.
        self._present: Dict[int, int] = dict(quantile_of)
        self._members = members
        # Cursor for best_nonempty_quantile: partners are only ever
        # removed, so the least nonempty quantile index never decreases
        # and the cursor advances monotonically (amortized O(k) total).
        self._best = 1

    @property
    def k(self) -> int:
        """The number of quantiles."""
        return self._k

    @property
    def degree(self) -> int:
        """The original list length ``deg(v)`` (removals do not change it)."""
        return self._degree

    @property
    def remaining(self) -> int:
        """``|Q|`` — how many partners have not been removed."""
        return len(self._present)

    def quantile_of(self, u: int) -> int:
        """The quantile index of partner ``u`` (raises ``KeyError`` if absent).

        The quantile of a partner is fixed at construction; it is
        queryable even after ``u`` has been removed from ``Q``.
        """
        return self._quantile_of[u]

    def contains(self, u: int) -> bool:
        """Whether ``u`` is still in ``Q`` (not yet removed)."""
        return u in self._present

    def members_of(self, q: int) -> FrozenSet[int]:
        """The current (post-removal) members of quantile ``Q_q``."""
        if not 1 <= q <= self._k:
            raise InvalidParameterError(f"quantile index {q} not in [1, {self._k}]")
        return frozenset(self._members[q])

    def best_nonempty_quantile(self) -> Optional[int]:
        """``min {i | Q_i ≠ ∅}`` or ``None`` when ``Q`` is empty.

        Amortized O(1): removals never re-populate a quantile, so the
        scan resumes from where the previous call stopped.
        """
        q = self._best
        members = self._members
        while q <= self._k and not members[q]:
            q += 1
        self._best = q
        return q if q <= self._k else None

    def best_nonempty_among(self, candidates: Iterable[int]) -> Optional[int]:
        """The best (smallest) quantile index containing any of ``candidates``.

        Only candidates still present in ``Q`` count.  Used by women in
        Step 2 of ``ProposalRound`` to find their best proposing
        quantile.
        """
        best: Optional[int] = None
        present = self._present
        for u in candidates:
            q = present.get(u)
            if q is not None and (best is None or q < best):
                best = q
        return best

    def members_up_to(self, q: int) -> FrozenSet[int]:
        """All current members in quantiles ``Q_1, …, Q_q`` (inclusive).

        Used by women in Step 4 of ``ProposalRound`` to reject every man
        in a lesser-or-equal quantile to their new partner.
        """
        out: Set[int] = set()
        for i in range(1, min(q, self._k) + 1):
            out |= self._members[i]
        return frozenset(out)

    def members_at_least(self, q: int) -> FrozenSet[int]:
        """All current members in quantiles ``Q_q, …, Q_k`` (inclusive).

        "At least q" means *at most as preferred* — larger quantile
        indices are worse.  Step 4 of ``ProposalRound`` has a newly
        matched woman reject exactly ``members_at_least(q(p₀)) − {p₀}``:
        every remaining man in a lesser-or-equal (desirability) quantile
        to her new partner.
        """
        out: Set[int] = set()
        for i in range(max(q, 1), self._k + 1):
            out |= self._members[i]
        return frozenset(out)

    def remove(self, u: int) -> None:
        """Remove ``u`` from ``Q`` (no-op if already removed or unknown)."""
        q = self._present.pop(u, None)
        if q is not None:
            self._members[q].discard(u)

    def all_members(self) -> FrozenSet[int]:
        """The current contents of ``Q`` (union of all quantiles)."""
        out: Set[int] = set()
        for q in range(1, self._k + 1):
            out |= self._members[q]
        return frozenset(out)

    def __len__(self) -> int:
        return len(self._present)

    def __repr__(self) -> str:
        return (
            f"QuantizedList(k={self._k}, degree={self._degree}, "
            f"remaining={len(self._present)})"
        )
