"""Mutable market state for the online dynamic matching engine.

:class:`~repro.core.preferences.PreferenceProfile` is deliberately
immutable — validation, rank tables, and the edge cache are computed
once and shared.  A long-lived market with churn needs the opposite
trade-off: preference lists that mutate in ``O(deg)`` per delta while
keeping the same invariants (symmetry, duplicate-free lists, 1-based
rank tables equal to list position + 1).

:class:`DynamicMarket` is that mutable twin.  It owns four structures
with exactly the shapes the blocking-pair index iterates —
``men_lists`` / ``women_lists`` (preference order, best first) and
``men_rank`` / ``women_rank`` (1-based rank dicts) — so
:class:`~repro.dynamic.index.DynamicBlockingIndex` can alias them
directly instead of copying per delta.  Departed players are
*tombstoned* (their lists emptied, their dense index retained), which
keeps every id stable for the lifetime of the market — the property
the delta stream, telemetry keys, and matching pairs all rely on.

:meth:`DynamicMarket.freeze` snapshots the current state into a fully
validated ``PreferenceProfile`` — the bridge to the static ASM solver
used by the engine's full-restabilization fallback and by the
equivalence tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError, InvalidPreferencesError

__all__ = ["DynamicMarket"]


def _rank_table(lst: Sequence[int]) -> Dict[int, int]:
    """1-based rank dict for one preference list (rank = position + 1)."""
    return {u: r + 1 for r, u in enumerate(lst)}


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
        return 0 <= m < self.n_men and w in self.men_rank[m]

    def __repr__(self) -> str:
        return (
            f"DynamicMarket(n_men={self.n_men}, n_women={self.n_women}, "
            f"num_edges={self.num_edges})"
        )

    # -- validation helpers --------------------------------------------

    def _check_man(self, m: int) -> None:
        if not 0 <= m < self.n_men:
            raise InvalidParameterError(
                f"man {m} out of range (n_men={self.n_men})"
            )

    def _check_woman(self, w: int) -> None:
        if not 0 <= w < self.n_women:
            raise InvalidParameterError(
                f"woman {w} out of range (n_women={self.n_women})"
            )

    @staticmethod
    def _check_pos(pos: Optional[int], length: int, label: str) -> int:
        if pos is None:
            return length
        if not 0 <= pos <= length:
            raise InvalidParameterError(
                f"{label} insertion position {pos} out of range "
                f"[0, {length}]"
            )
        return pos

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
        self._check_man(m)
        self._check_woman(w)
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
        self._check_man(m)
        self._check_woman(w)
        if w not in self.men_rank[m]:
            raise InvalidPreferencesError(f"edge ({m}, {w}) does not exist")
        self.men_lists[m].remove(w)
        self.women_lists[w].remove(m)
        self.men_rank[m] = _rank_table(self.men_lists[m])
        self.women_rank[w] = _rank_table(self.women_lists[w])
        self._num_edges -= 1

    # -- preference edits ----------------------------------------------

    def swap_man_adjacent(self, m: int, pos: int) -> tuple:
        """Swap positions ``pos`` and ``pos + 1`` in man ``m``'s list.

        Adjacent transpositions are the atomic preference edit: any
        reordering decomposes into them, and each one changes the
        relative order of exactly one pair of women — which is what
        keeps the blocking-index delta O(1) rechecks.  Returns the two
        women swapped (new order).
        """
        self._check_man(m)
        lst = self.men_lists[m]
        if not 0 <= pos < len(lst) - 1:
            raise InvalidParameterError(
                f"swap position {pos} out of range for man {m} "
                f"(deg={len(lst)})"
            )
        lst[pos], lst[pos + 1] = lst[pos + 1], lst[pos]
        rank = self.men_rank[m]
        rank[lst[pos]] = pos + 1
        rank[lst[pos + 1]] = pos + 2
        return lst[pos], lst[pos + 1]

    def swap_woman_adjacent(self, w: int, pos: int) -> tuple:
        """Swap positions ``pos`` and ``pos + 1`` in woman ``w``'s list."""
        self._check_woman(w)
        lst = self.women_lists[w]
        if not 0 <= pos < len(lst) - 1:
            raise InvalidParameterError(
                f"swap position {pos} out of range for woman {w} "
                f"(deg={len(lst)})"
            )
        lst[pos], lst[pos + 1] = lst[pos + 1], lst[pos]
        rank = self.women_rank[w]
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
        validation happens before any list is touched.
        """
        if len(prefs) != len(positions):
            raise InvalidParameterError(
                f"prefs/positions length mismatch: "
                f"{len(prefs)} vs {len(positions)}"
            )
        seen: Dict[int, None] = {}
        for w in prefs:
            self._check_woman(w)
            if w in seen:
                raise InvalidPreferencesError(
                    f"arriving man ranks woman {w} more than once"
                )
            seen[w] = None
        for w, pos in zip(prefs, positions):
            self._check_pos(pos, len(self.women_lists[w]), "woman")
        m = self.n_men
        self.men_lists.append(list(prefs))
        self.men_rank.append(_rank_table(prefs))
        for w, pos in zip(prefs, positions):
            self.women_lists[w].insert(pos, m)
            self.women_rank[w] = _rank_table(self.women_lists[w])
        self._num_edges += len(prefs)
        return m

    def add_woman(
        self, prefs: Sequence[int], positions: Sequence[int]
    ) -> int:
        """A new woman arrives; returns her (dense) index."""
        if len(prefs) != len(positions):
            raise InvalidParameterError(
                f"prefs/positions length mismatch: "
                f"{len(prefs)} vs {len(positions)}"
            )
        seen: Dict[int, None] = {}
        for m in prefs:
            self._check_man(m)
            if m in seen:
                raise InvalidPreferencesError(
                    f"arriving woman ranks man {m} more than once"
                )
            seen[m] = None
        for m, pos in zip(prefs, positions):
            self._check_pos(pos, len(self.men_lists[m]), "man")
        w = self.n_women
        self.women_lists.append(list(prefs))
        self.women_rank.append(_rank_table(prefs))
        for m, pos in zip(prefs, positions):
            self.men_lists[m].insert(pos, w)
            self.men_rank[m] = _rank_table(self.men_lists[m])
        self._num_edges += len(prefs)
        return w

    def clear_man(self, m: int) -> List[int]:
        """Tombstone man ``m`` (departure): drop all his edges.

        His dense index stays allocated with an empty list, so every
        other id is unaffected.  Returns the women he was connected to
        (in his preference order) for the caller's pool cleanup.
        """
        self._check_man(m)
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
        self._check_woman(w)
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
        """A fully validated immutable snapshot of the current market.

        O(|E|) — the bridge to the static solver (full-restabilization
        fallback) and the oracle cross-checks.  Tombstoned players
        appear with empty lists, keeping indices aligned.
        """
        return PreferenceProfile(self.men_lists, self.women_lists)
