"""Mutable market state for the online dynamic matching engine.

:class:`~repro.core.preferences.PreferenceProfile` is deliberately
immutable — validation, rank tables, and the edge cache are computed
once and shared.  A long-lived market with churn needs the opposite
trade-off: preference lists that mutate in ``O(deg)`` per delta while
keeping the same invariants (integer ids, symmetry, duplicate-free
lists, 1-based rank tables equal to list position + 1).

:class:`DynamicMarket` is that mutable twin.  It owns four structures
with exactly the shapes the blocking-pair index iterates —
``men_lists`` / ``women_lists`` (preference order, best first) and
``men_rank`` / ``women_rank`` (1-based rank dicts) — so
:class:`~repro.dynamic.index.DynamicBlockingIndex` can alias them
directly instead of copying per delta.  Departed players are
*tombstoned* (their lists emptied, their dense index retained), which
keeps every id stable for the lifetime of the market — the property
the delta stream, telemetry keys, and matching pairs all rely on.

The invariants are enforced where they could break: every mutator
checks its ids and positions (``int``, not ``bool``, in range) and,
for arrivals, the whole incoming list, before it touches any list.
So :meth:`DynamicMarket.freeze` — the bridge to the static ASM solver
used by the engine's full-restabilization fallback — only copies the
lists into CSR buffers and hands them to the profile without
re-validating them, and :meth:`DynamicMarket.verify` is the audit:
it runs the profile's full validation over the live lists.
"""

from __future__ import annotations

import operator
from array import array
from itertools import accumulate, chain
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError, InvalidPreferencesError

__all__ = ["DynamicMarket"]


def _rank_table(lst: Sequence[int]) -> Dict[int, int]:
    """1-based rank dict for one preference list (rank = position + 1)."""
    return {u: r + 1 for r, u in enumerate(lst)}


def _as_int(value: object, label: str) -> int:
    """``value`` as a plain ``int``; ``bool`` and non-integers are refused.

    ``operator.index`` takes ints and numpy integers and refuses floats
    and strings; ``bool`` passes it, so it is screened by type, as the
    validating ``PreferenceProfile`` constructor does.
    """
    if type(value) is not bool:
        try:
            return operator.index(value)  # type: ignore[arg-type]
        except TypeError:
            pass
    raise InvalidParameterError(f"{label} must be an integer, got {value!r}")


def _csr_side(lists: List[List[int]]) -> Tuple[array, array]:
    """``(indptr, targets)`` of one side, copied without any check."""
    return (
        array("q", accumulate(map(len, lists), initial=0)),
        array("q", chain.from_iterable(lists)),
    )


class DynamicMarket:
    """Mutable preference lists + rank tables with O(deg) edits.

    Parameters
    ----------
    prefs:
        Optional starting profile; ``None`` starts an empty market.

    Examples
    --------
    >>> market = DynamicMarket()
    >>> m = market.add_man([], [])
    >>> w = market.add_woman([], [])
    >>> market.add_edge(m, w)
    >>> market.freeze().num_edges
    1
    """

    __slots__ = ("men_lists", "women_lists", "men_rank", "women_rank",
                 "_num_edges")

    def __init__(self, prefs: Optional[PreferenceProfile] = None) -> None:
        if prefs is None:
            self.men_lists: List[List[int]] = []
            self.women_lists: List[List[int]] = []
            self.men_rank: List[Dict[int, int]] = []
            self.women_rank: List[Dict[int, int]] = []
            self._num_edges = 0
            return
        lists = prefs.to_dict()  # fresh lists, read from the flat arrays
        self.men_lists = lists["men_prefs"]
        self.women_lists = lists["women_prefs"]
        self.men_rank = [_rank_table(lst) for lst in self.men_lists]
        self.women_rank = [_rank_table(lst) for lst in self.women_lists]
        self._num_edges = prefs.num_edges

    # -- shape ---------------------------------------------------------

    @property
    def n_men(self) -> int:
        return len(self.men_lists)

    @property
    def n_women(self) -> int:
        return len(self.women_lists)

    @property
    def num_edges(self) -> int:
        """``|E|`` — maintained incrementally across deltas."""
        return self._num_edges

    def deg_man(self, m: int) -> int:
        return len(self.men_lists[m])

    def deg_woman(self, w: int) -> int:
        return len(self.women_lists[w])

    def has_edge(self, m: int, w: int) -> bool:
        """Whether ``(m, w)`` is an edge; ``False`` for out-of-range ids.

        Ids go through the mutators' integer check, so ``True`` or
        ``1.0`` raise rather than alias player 1.
        """
        m = _as_int(m, "man")
        w = _as_int(w, "woman")
        return 0 <= m < self.n_men and w in self.men_rank[m]

    def __repr__(self) -> str:
        return (
            f"DynamicMarket(n_men={self.n_men}, n_women={self.n_women}, "
            f"num_edges={self.num_edges})"
        )

    # -- validation helpers --------------------------------------------

    def _check_man(self, m: object) -> int:
        m = _as_int(m, "man")
        if not 0 <= m < self.n_men:
            raise InvalidParameterError(
                f"man {m} out of range (n_men={self.n_men})"
            )
        return m

    def _check_woman(self, w: object) -> int:
        w = _as_int(w, "woman")
        if not 0 <= w < self.n_women:
            raise InvalidParameterError(
                f"woman {w} out of range (n_women={self.n_women})"
            )
        return w

    @staticmethod
    def _check_pos(pos: object, length: int, label: str) -> int:
        if pos is None:
            return length
        pos = _as_int(pos, f"{label} insertion position")
        if not 0 <= pos <= length:
            raise InvalidParameterError(
                f"{label} insertion position {pos} out of range "
                f"[0, {length}]"
            )
        return pos

    def _check_arrival(
        self,
        prefs: Sequence[object],
        positions: Sequence[object],
        check: Callable[[object], int],
        opposite_lists: List[List[int]],
        side: str,
        opposite: str,
    ) -> Tuple[List[int], List[int]]:
        """An arriving player's list and slots, checked and as ints."""
        if len(prefs) != len(positions):
            raise InvalidParameterError(
                f"prefs/positions length mismatch: "
                f"{len(prefs)} vs {len(positions)}"
            )
        ranked: Dict[int, None] = {}
        for u in map(check, prefs):
            if u in ranked:
                raise InvalidPreferencesError(
                    f"arriving {side} ranks {opposite} {u} more than once"
                )
            ranked[u] = None
        slots = [
            self._check_pos(pos, len(opposite_lists[u]), opposite)
            for u, pos in zip(ranked, positions)
        ]
        return list(ranked), slots

    # -- edge deltas ---------------------------------------------------

    def add_edge(
        self,
        m: int,
        w: int,
        man_pos: Optional[int] = None,
        woman_pos: Optional[int] = None,
    ) -> None:
        """Make ``(m, w)`` mutually acceptable.

        ``man_pos`` is the 0-based position ``w`` takes in ``m``'s list
        (``None`` appends — least preferred), symmetrically for
        ``woman_pos``.  Cost: O(deg(m) + deg(w)) to rebuild the two
        rank tables.
        """
        m = self._check_man(m)
        w = self._check_woman(w)
        if w in self.men_rank[m]:
            raise InvalidPreferencesError(f"edge ({m}, {w}) already exists")
        mpos = self._check_pos(man_pos, len(self.men_lists[m]), "man")
        wpos = self._check_pos(woman_pos, len(self.women_lists[w]), "woman")
        self.men_lists[m].insert(mpos, w)
        self.women_lists[w].insert(wpos, m)
        self.men_rank[m] = _rank_table(self.men_lists[m])
        self.women_rank[w] = _rank_table(self.women_lists[w])
        self._num_edges += 1

    def remove_edge(self, m: int, w: int) -> None:
        """Delete the edge ``(m, w)``.  Cost: O(deg(m) + deg(w))."""
        m = self._check_man(m)
        w = self._check_woman(w)
        if w not in self.men_rank[m]:
            raise InvalidPreferencesError(f"edge ({m}, {w}) does not exist")
        self.men_lists[m].remove(w)
        self.women_lists[w].remove(m)
        self.men_rank[m] = _rank_table(self.men_lists[m])
        self.women_rank[w] = _rank_table(self.women_lists[w])
        self._num_edges -= 1

    # -- preference edits ----------------------------------------------

    def swap_man_adjacent(self, m: int, pos: int) -> Tuple[int, int]:
        """Swap positions ``pos`` and ``pos + 1`` in man ``m``'s list.

        Adjacent transpositions are the atomic preference edit: any
        reordering decomposes into them, and each one changes the
        relative order of exactly one pair of women — which is what
        keeps the blocking-index delta O(1) rechecks.  Returns the two
        women swapped (new order).
        """
        m = self._check_man(m)
        return self._swap(self.men_lists[m], self.men_rank[m], pos,
                          f"man {m}")

    def swap_woman_adjacent(self, w: int, pos: int) -> Tuple[int, int]:
        """Swap positions ``pos`` and ``pos + 1`` in woman ``w``'s list."""
        w = self._check_woman(w)
        return self._swap(self.women_lists[w], self.women_rank[w], pos,
                          f"woman {w}")

    @staticmethod
    def _swap(
        lst: List[int], rank: Dict[int, int], pos: object, owner: str
    ) -> Tuple[int, int]:
        pos = _as_int(pos, "swap position")
        if not 0 <= pos < len(lst) - 1:
            raise InvalidParameterError(
                f"swap position {pos} out of range for {owner} "
                f"(deg={len(lst)})"
            )
        lst[pos], lst[pos + 1] = lst[pos + 1], lst[pos]
        rank[lst[pos]] = pos + 1
        rank[lst[pos + 1]] = pos + 2
        return lst[pos], lst[pos + 1]

    # -- player arrivals / departures ----------------------------------

    def add_man(
        self, prefs: Sequence[int], positions: Sequence[int]
    ) -> int:
        """A new man arrives; returns his (dense) index.

        ``prefs`` is his preference list over existing women (best
        first, duplicate-free); ``positions[i]`` is the 0-based slot he
        takes in ``prefs[i]``'s list.  Symmetry is restored atomically:
        every id and slot is checked before any list is touched.
        """
        women, slots = self._check_arrival(
            prefs, positions, self._check_woman, self.women_lists,
            "man", "woman",
        )
        m = self.n_men
        self.men_lists.append(women)
        self.men_rank.append(_rank_table(women))
        for w, pos in zip(women, slots):
            self.women_lists[w].insert(pos, m)
            self.women_rank[w] = _rank_table(self.women_lists[w])
        self._num_edges += len(women)
        return m

    def add_woman(
        self, prefs: Sequence[int], positions: Sequence[int]
    ) -> int:
        """A new woman arrives; returns her (dense) index."""
        men, slots = self._check_arrival(
            prefs, positions, self._check_man, self.men_lists,
            "woman", "man",
        )
        w = self.n_women
        self.women_lists.append(men)
        self.women_rank.append(_rank_table(men))
        for m, pos in zip(men, slots):
            self.men_lists[m].insert(pos, w)
            self.men_rank[m] = _rank_table(self.men_lists[m])
        self._num_edges += len(men)
        return w

    def clear_man(self, m: int) -> List[int]:
        """Tombstone man ``m`` (departure): drop all his edges.

        His dense index stays allocated with an empty list, so every
        other id is unaffected.  Returns the women he was connected to
        (in his preference order) for the caller's pool cleanup.
        """
        m = self._check_man(m)
        women = list(self.men_lists[m])
        for w in women:
            self.women_lists[w].remove(m)
            self.women_rank[w] = _rank_table(self.women_lists[w])
        self.men_lists[m] = []
        self.men_rank[m] = {}
        self._num_edges -= len(women)
        return women

    def clear_woman(self, w: int) -> List[int]:
        """Tombstone woman ``w`` (departure): drop all her edges."""
        w = self._check_woman(w)
        men = list(self.women_lists[w])
        for m in men:
            self.men_lists[m].remove(w)
            self.men_rank[m] = _rank_table(self.men_lists[m])
        self.women_lists[w] = []
        self.women_rank[w] = {}
        self._num_edges -= len(men)
        return men

    # -- snapshot ------------------------------------------------------

    def freeze(self) -> PreferenceProfile:
        """An immutable snapshot of the current market.

        O(|E|) — the bridge to the static solver (full-restabilization
        fallback) and the oracle cross-checks.  It copies the lists
        into CSR buffers and adopts them without re-validating: the
        mutators keep the invariants at every edit, and
        :meth:`verify` audits them.  Tombstoned players appear with
        empty lists, keeping indices aligned.
        """
        return PreferenceProfile._adopt(
            *_csr_side(self.men_lists), *_csr_side(self.women_lists)
        )

    def verify(self) -> None:
        """Audit the live structures against every profile invariant.

        Builds the lists through the validating ``PreferenceProfile``
        constructor (integer ids, ranges, duplicates, symmetry; it
        raises ``InvalidPreferencesError``), then requires its buffers
        to equal :meth:`freeze`'s, :attr:`num_edges` to count them and
        every rank table to be list position + 1.  O(|E| log |E|) —
        the check :meth:`freeze` leaves out.
        """
        checked = PreferenceProfile(self.men_lists, self.women_lists)
        # Explicit raises, not ``assert``: the audit must survive -O.
        if checked != self.freeze():
            raise AssertionError(
                "freeze() buffers differ from the validated profile's"
            )
        if checked.num_edges != self._num_edges:
            raise AssertionError(
                f"num_edges is {self._num_edges}, the lists hold "
                f"{checked.num_edges} edges"
            )
        for side, lists, ranks in (
            ("man", self.men_lists, self.men_rank),
            ("woman", self.women_lists, self.women_rank),
        ):
            if len(ranks) != len(lists) or any(
                map(operator.ne, ranks, map(_rank_table, lists))
            ):
                raise AssertionError(
                    f"a {side} rank table is not list position + 1"
                )
