"""Blocking-pair index maintained across *structural* market deltas.

The PR-3 :class:`~repro.perf.blocking_index.BlockingPairIndex` keeps
the blocking-pair set exact under *matching* deltas on a fixed
profile.  The dynamic engine also mutates the *market*: edges appear
and disappear, players arrive and depart, preference lists reorder.
:class:`DynamicBlockingIndex` extends the index to that regime while
keeping every update O(deg).

Why O(deg) is enough — the locality argument the whole subsystem
rests on: a pair ``(m, w)`` blocks iff both rank each other *above*
their current partners (unmatched = deg + 1, Definition 1).  That is
a predicate over **relative** ranks only.  Inserting or deleting one
list entry, or transposing two adjacent entries, preserves the
relative order of every untouched pair of entries, so only the pairs
whose entries were touched can change status:

* edge add/remove     → recheck that one pair;
* adjacent swap       → recheck the two transposed pairs;
* arrival             → rescan the one new player;
* departure           → unmatch + discard the departed player's pairs.

(One subtlety: deletions shrink ``deg``, which *shifts* the unmatched
rank ``deg + 1`` — but "unmatched" stays strictly worse than every
list member under any shift, so no recheck is needed for that either.)

The index *aliases* the market's list/rank structures rather than
copying them — the parent's rescan loops only index and iterate, so
they run unchanged over mutable state.  Mutations go through this
class (market + pool updated together) so the two can never diverge;
:meth:`DynamicBlockingIndex.verify` cross-checks against a fresh
full-scan index on a frozen snapshot, and the equivalence suite runs
it after every delta of seeded churn streams.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError
from repro.perf.blocking_index import BlockingPairIndex, _PairPool

from repro.dynamic.market import DynamicMarket

__all__ = ["DynamicBlockingIndex"]


class DynamicBlockingIndex(BlockingPairIndex):
    """A :class:`BlockingPairIndex` over a mutable :class:`DynamicMarket`.

    Matching deltas (``satisfy``, ``unmatch_*``,
    ``update_from_partner_lists``) are inherited unchanged.  The
    structural deltas below mutate the market and the pool together.

    Examples
    --------
    >>> from repro.workloads.generators import complete_uniform
    >>> market = DynamicMarket(complete_uniform(4, seed=0))
    >>> index = DynamicBlockingIndex(market)
    >>> index.remove_edge(0, 1)
    False
    >>> index.verify()
    """

    __slots__ = ("_market",)

    def __init__(
        self,
        market: DynamicMarket,
        matching: Optional[Matching] = None,
    ) -> None:
        self._market = market
        # Alias, don't copy: the market mutates these in place and the
        # inherited rescans only index/iterate them.
        self._prefs = None
        self._man_lists = market.men_lists
        self._woman_lists = market.women_lists
        self._men_rank = market.men_rank
        self._women_rank = market.women_rank
        self._man_partner: List[Optional[int]] = [None] * market.n_men
        self._woman_partner: List[Optional[int]] = [None] * market.n_women
        if matching is not None:
            for m, w in matching.pairs():
                if not market.has_edge(m, w):
                    raise InvalidParameterError(
                        f"({m}, {w}) is not an edge of the market"
                    )
                self._man_partner[m] = w
                self._woman_partner[w] = m
        self._pool = _PairPool()
        for m in range(market.n_men):
            self._rescan_man(m)

    # -- read access ---------------------------------------------------

    @property
    def market(self) -> DynamicMarket:
        return self._market

    @property
    def prefs(self) -> PreferenceProfile:
        """A frozen snapshot of the live market (O(|E|) per call)."""
        return self._market.freeze()

    def eps(self) -> float:
        """Current instability ε = blocking_pairs / |E| (0 if no edges)."""
        edges = self._market.num_edges
        return len(self._pool) / edges if edges else 0.0

    def __repr__(self) -> str:
        return (
            f"DynamicBlockingIndex(n_men={self._market.n_men}, "
            f"n_women={self._market.n_women}, "
            f"blocking={len(self._pool)})"
        )

    # -- single-pair recheck -------------------------------------------

    def _recheck_pair(self, m: int, w: int) -> None:
        """Recompute the blocking status of one (existing) edge."""
        if self._men_rank[m][w] < self._man_cur(m):
            if self._women_rank[w][m] < self._woman_cur(w):
                self._pool.add((m, w))
                return
        self._pool.discard((m, w))

    # -- structural deltas ---------------------------------------------

    def add_edge(
        self,
        m: int,
        w: int,
        man_pos: Optional[int] = None,
        woman_pos: Optional[int] = None,
    ) -> bool:
        """Insert the edge ``(m, w)``; returns whether it now blocks."""
        self._market.add_edge(m, w, man_pos, woman_pos)
        self._recheck_pair(m, w)
        return self._pool.contains((m, w))

    def remove_edge(self, m: int, w: int) -> bool:
        """Delete the edge ``(m, w)``; returns whether they were matched.

        A matched pair is divorced first (with the usual O(deg)
        rescans, run while the edge still exists so rank lookups hold),
        then the edge and its pool entry are dropped.
        """
        # Check the ids before the divorce touches partner state.
        m = self._market._check_man(m)
        w = self._market._check_woman(w)
        was_matched = self._man_partner[m] == w
        if was_matched:
            self.unmatch_man(m)
        self._market.remove_edge(m, w)
        self._pool.discard((m, w))
        return was_matched

    def swap_man_prefs(self, m: int, pos: int) -> Tuple[int, int]:
        """Transpose positions ``pos``/``pos+1`` in man ``m``'s list.

        Returns the two women whose pairs were rechecked.
        """
        w_up, w_down = self._market.swap_man_adjacent(m, pos)
        self._recheck_pair(m, w_up)
        self._recheck_pair(m, w_down)
        return w_up, w_down

    def swap_woman_prefs(self, w: int, pos: int) -> Tuple[int, int]:
        """Transpose positions ``pos``/``pos+1`` in woman ``w``'s list."""
        m_up, m_down = self._market.swap_woman_adjacent(w, pos)
        self._recheck_pair(m_up, w)
        self._recheck_pair(m_down, w)
        return m_up, m_down

    def add_man(self, prefs: List[int], positions: List[int]) -> int:
        """A new (single) man arrives; returns his index."""
        m = self._market.add_man(prefs, positions)
        self._man_partner.append(None)
        self._rescan_man(m)
        return m

    def add_woman(self, prefs: List[int], positions: List[int]) -> int:
        """A new (single) woman arrives; returns her index."""
        w = self._market.add_woman(prefs, positions)
        self._woman_partner.append(None)
        self._rescan_woman(w)
        return w

    def depart_man(self, m: int) -> Optional[int]:
        """Man ``m`` departs (tombstoned); returns his ex-partner."""
        m = self._market._check_man(m)
        ex = self._man_partner[m]
        if ex is not None:
            self.unmatch_man(m)
        for w in self._market.clear_man(m):
            self._pool.discard((m, w))
        return ex

    def depart_woman(self, w: int) -> Optional[int]:
        """Woman ``w`` departs (tombstoned); returns her ex-partner."""
        w = self._market._check_woman(w)
        ex = self._woman_partner[w]
        if ex is not None:
            self.unmatch_woman(w)
        for m in self._market.clear_woman(w):
            self._pool.discard((m, w))
        return ex

    # -- oracle cross-check --------------------------------------------

    def verify(self) -> None:
        """Assert exact agreement with a fresh index on a frozen snapshot.

        First audits the market itself (:meth:`DynamicMarket.verify`:
        the profile's full validation, which :meth:`DynamicMarket.freeze`
        skips).  Also checks that :meth:`blocking_women` is the pool
        grouped by man (departed men included: theirs must be empty).
        O(|E| log |E|) — the equivalence suite runs this after every
        delta.
        """
        self._market.verify()
        frozen = self._market.freeze()
        fresh = BlockingPairIndex(frozen, self.current_matching())
        mine = self.pairs()
        theirs = fresh.pairs()
        # An explicit raise, not ``assert``: the check must survive -O.
        if mine != theirs:
            raise AssertionError(
                f"DynamicBlockingIndex diverged from fresh index: "
                f"dynamic={mine[:10]}..., fresh={theirs[:10]}..."
            )
        self._pool.verify_by_man()
        fresh.verify()
