"""Incrementally maintained blocking-pair index.

A pair ``(m, w)`` blocks a matching iff the edge exists, the two are
not matched to each other, and both strictly prefer each other to
their current state (``P_v(∅) = deg(v) + 1``, Definition 1).  The
status of ``(m, w)`` depends only on the partners of ``m`` and ``w``,
so when a player's partner changes only the edges incident to that
player can change status — an update costs ``O(deg)`` with the rank
tables, against the ``O(|E|)`` of re-running
:func:`repro.analysis.stability.find_blocking_pairs`.

The full scan stays the *oracle*: :meth:`BlockingPairIndex.verify`
cross-checks the index against it, and the equivalence tests assert
exact agreement along whole trajectories.

The rescan discipline (men ascending at build; ``m``, ``w``, then the
two ex-partners on :meth:`satisfy`) reproduces the seed behavior of
``baselines/random_dynamics.py`` exactly, so seeded dynamics
trajectories are bit-identical to the pre-index implementation.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import (
    Dict,
    KeysView,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError

__all__ = ["BlockingPairIndex"]

#: What :meth:`BlockingPairIndex.blocking_women` views for a man who
#: blocks with no one.
_NO_WOMEN: Mapping[int, None] = MappingProxyType({})


class _PairPool:
    """A set of pairs supporting O(1) add / discard / uniform choice.

    ``by_man`` groups the pool by man: ``m`` → an insertion-ordered
    dict whose keys are the women ``m`` currently blocks with.  It
    changes only when the pool does, and a man whose last pair leaves
    loses his entry, so ``m not in by_man`` iff ``m`` blocks with no
    one.  The flat ``_items`` order (what :meth:`choose` draws from)
    is independent of it.
    """

    __slots__ = ("_items", "_pos", "by_man")

    def __init__(self) -> None:
        self._items: List[Tuple[int, int]] = []
        self._pos: Dict[Tuple[int, int], int] = {}
        self.by_man: Dict[int, Dict[int, None]] = {}

    def add(self, pair: Tuple[int, int]) -> None:
        if pair in self._pos:
            return
        self._pos[pair] = len(self._items)
        self._items.append(pair)
        m, w = pair
        women = self.by_man.get(m)
        if women is None:
            self.by_man[m] = {w: None}
        else:
            women[w] = None

    def discard(self, pair: Tuple[int, int]) -> None:
        idx = self._pos.pop(pair, None)
        if idx is None:
            return
        last = self._items.pop()
        if idx < len(self._items):
            self._items[idx] = last
            self._pos[last] = idx
        m, w = pair
        women = self.by_man[m]
        del women[w]
        if not women:
            del self.by_man[m]

    def contains(self, pair: Tuple[int, int]) -> bool:
        return pair in self._pos

    def choose(self, rng: random.Random) -> Tuple[int, int]:
        return self._items[rng.randrange(len(self._items))]

    def items(self) -> List[Tuple[int, int]]:
        return self._items

    def verify_by_man(self) -> None:
        """Raise ``AssertionError`` unless ``by_man`` groups the pool."""
        grouped: Dict[int, set] = {}
        for m, w in self._items:
            grouped.setdefault(m, set()).add(w)
        mine = {m: set(women) for m, women in self.by_man.items()}
        # An explicit raise, not ``assert``: the check must survive -O.
        if mine != grouped:
            raise AssertionError(
                "per-man view disagrees with the pool: "
                f"view={sorted(mine.items())[:5]}..., "
                f"pool={sorted(grouped.items())[:5]}..."
            )

    def __len__(self) -> int:
        return len(self._items)


class BlockingPairIndex:
    """The blocking-pair set of a matching, maintained from deltas.

    The index owns its partner state; mutate it through
    :meth:`satisfy`, :meth:`unmatch_man` / :meth:`unmatch_woman`, or
    bulk-diff against an external matching with :meth:`update_to` /
    :meth:`update_from_partner_lists`.

    Parameters
    ----------
    prefs:
        The preference profile (fixes the edge set and rank tables).
    matching:
        Optional starting matching; default empty.

    Examples
    --------
    >>> from repro.workloads.generators import complete_uniform
    >>> prefs = complete_uniform(6, seed=0)
    >>> index = BlockingPairIndex(prefs)
    >>> len(index) == prefs.num_edges  # empty matching: every edge blocks
    True
    >>> index.verify()
    """

    __slots__ = (
        "_prefs",
        "_man_lists",
        "_woman_lists",
        "_men_rank",
        "_women_rank",
        "_man_partner",
        "_woman_partner",
        "_pool",
    )

    def __init__(
        self,
        prefs: PreferenceProfile,
        matching: Optional[Matching] = None,
    ) -> None:
        self._prefs = prefs
        self._man_lists = prefs.men_lists()
        self._woman_lists = prefs.women_lists()
        self._men_rank = prefs.men_rank_tables()
        self._women_rank = prefs.women_rank_tables()
        self._man_partner: List[Optional[int]] = [None] * prefs.n_men
        self._woman_partner: List[Optional[int]] = [None] * prefs.n_women
        if matching is not None:
            for m, w in matching.pairs():
                self._man_partner[m] = w
                self._woman_partner[w] = m
        self._pool = _PairPool()
        for m in range(prefs.n_men):
            self._rescan_man(m)

    # -- read access ---------------------------------------------------

    @property
    def prefs(self) -> PreferenceProfile:
        return self._prefs

    def man_partner(self, m: int) -> Optional[int]:
        return self._man_partner[m]

    def woman_partner(self, w: int) -> Optional[int]:
        return self._woman_partner[w]

    def current_matching(self) -> Matching:
        """The matching the index currently reflects."""
        return Matching(
            (m, w)
            for m, w in enumerate(self._man_partner)
            if w is not None
        )

    def contains(self, m: int, w: int) -> bool:
        """Whether ``(m, w)`` currently blocks."""
        return self._pool.contains((m, w))

    def pairs(self) -> List[Tuple[int, int]]:
        """The current blocking pairs, sorted."""
        return sorted(self._pool.items())

    def blocking_women(self, m: int) -> KeysView[int]:
        """The women ``m`` currently blocks with, as a live view.

        Insertion-ordered (the order the pairs entered the pool), not
        preference-ordered; empty for a man who blocks with no one.
        Costs one dict probe, against ``O(deg)`` probes of
        :meth:`contains` over ``m``'s list.
        """
        return self._pool.by_man.get(m, _NO_WOMEN).keys()

    def blocking_men(self) -> KeysView[int]:
        """The men in at least one blocking pair, as a live view.

        A man enters when his first pair enters the pool and leaves
        with his last, so ``m in blocking_men()`` iff
        :meth:`blocking_women` of ``m`` is nonempty.
        """
        return self._pool.by_man.keys()

    def choose(self, rng: random.Random) -> Tuple[int, int]:
        """A uniformly random current blocking pair."""
        if not self._pool:
            raise InvalidParameterError("no blocking pairs to choose from")
        return self._pool.choose(rng)

    def __len__(self) -> int:
        return len(self._pool)

    def __repr__(self) -> str:
        return (
            f"BlockingPairIndex(n_men={self._prefs.n_men}, "
            f"n_women={self._prefs.n_women}, blocking={len(self._pool)})"
        )

    # -- rank helpers (paper convention: unmatched = deg + 1) ----------

    def _man_cur(self, m: int) -> int:
        w = self._man_partner[m]
        if w is None:
            return len(self._man_lists[m]) + 1
        return self._men_rank[m][w]

    def _woman_cur(self, w: int) -> int:
        m = self._woman_partner[w]
        if m is None:
            return len(self._woman_lists[w]) + 1
        return self._women_rank[w][m]

    # -- incremental rescans -------------------------------------------

    def _rescan_man(self, m: int) -> None:
        cur = self._man_cur(m)
        pool = self._pool
        women_rank = self._women_rank
        woman_partner = self._woman_partner
        woman_lists = self._woman_lists
        for pos, w in enumerate(self._man_lists[m]):
            pair = (m, w)
            if pos + 1 < cur:
                wrank = women_rank[w]
                mw = woman_partner[w]
                wcur = (
                    len(woman_lists[w]) + 1 if mw is None else wrank[mw]
                )
                if wrank[m] < wcur:
                    pool.add(pair)
                    continue
            pool.discard(pair)

    def _rescan_woman(self, w: int) -> None:
        cur = self._woman_cur(w)
        pool = self._pool
        wrank = self._women_rank[w]
        men_rank = self._men_rank
        man_partner = self._man_partner
        man_lists = self._man_lists
        for m in self._woman_lists[w]:
            pair = (m, w)
            if wrank[m] < cur:
                mrank = men_rank[m]
                wm = man_partner[m]
                mcur = len(man_lists[m]) + 1 if wm is None else mrank[wm]
                if mrank[w] < mcur:
                    pool.add(pair)
                    continue
            pool.discard(pair)

    # -- mutations -----------------------------------------------------

    def satisfy(self, m: int, w: int) -> None:
        """Marry ``(m, w)`` (divorcing their partners) and update.

        Only edges touching ``m``, ``w`` and their two ex-partners can
        change status; the rescan order (``m``, ``w``, ``w``'s ex,
        ``m``'s ex) matches the seed dynamics implementation so seeded
        trajectories replay identically.
        """
        if w not in self._men_rank[m]:
            raise InvalidParameterError(
                f"({m}, {w}) is not an edge of the preference profile"
            )
        w_old = self._man_partner[m]
        m_old = self._woman_partner[w]
        if w_old is not None:
            self._woman_partner[w_old] = None
        if m_old is not None:
            self._man_partner[m_old] = None
        self._man_partner[m] = w
        self._woman_partner[w] = m
        self._rescan_man(m)
        self._rescan_woman(w)
        if m_old is not None and m_old != m:
            self._rescan_man(m_old)
        if w_old is not None and w_old != w:
            self._rescan_woman(w_old)

    def unmatch_man(self, m: int) -> None:
        """Divorce ``m`` (no-op when single)."""
        w = self._man_partner[m]
        if w is None:
            return
        self._man_partner[m] = None
        self._woman_partner[w] = None
        self._rescan_man(m)
        self._rescan_woman(w)

    def unmatch_woman(self, w: int) -> None:
        """Divorce ``w`` (no-op when single)."""
        m = self._woman_partner[w]
        if m is None:
            return
        self._man_partner[m] = None
        self._woman_partner[w] = None
        self._rescan_man(m)
        self._rescan_woman(w)

    def update_to(self, matching: Matching) -> int:
        """Diff against ``matching`` and apply the delta.

        Returns the number of players whose partner changed.  Cost is
        ``O(n)`` for the diff plus ``O(deg)`` per changed player —
        against ``O(|E|)`` for a fresh full scan.  The partner table is
        filled from ``matching.pairs()``, which builds no per-player
        dict.  Raises :class:`InvalidParameterError` for a man out of
        range, as for a pair that is not an edge.
        """
        n_men = len(self._man_partner)
        man_partner: List[Optional[int]] = [None] * n_men
        for m, w in matching.pairs():
            if not 0 <= m < n_men:
                raise InvalidParameterError(
                    f"man {m} is out of range for {n_men} men"
                )
            man_partner[m] = w
        return self.update_from_partner_lists(man_partner)

    def update_from_partner_lists(
        self, man_partner: Sequence[Optional[int]]
    ) -> int:
        """Adopt the matching given as a man → partner table.

        The engine-facing bulk update: ``man_partner[m]`` is ``m``'s
        new partner or ``None``.  Only changed players are rescanned
        (changed men ascending, then changed women ascending).
        """
        n_men = len(self._man_partner)
        if len(man_partner) != n_men:
            raise InvalidParameterError(
                f"expected {n_men} entries, got {len(man_partner)}"
            )
        changed_men: List[int] = []
        changed_women_seen: Dict[int, None] = {}
        for m in range(n_men):
            old = self._man_partner[m]
            new = man_partner[m]
            if old == new:
                continue
            changed_men.append(m)
            if old is not None:
                changed_women_seen[old] = None
            if new is not None:
                if new not in self._men_rank[m]:
                    raise InvalidParameterError(
                        f"({m}, {new}) is not an edge of the profile"
                    )
                changed_women_seen[new] = None
        if not changed_men:
            return 0
        for m in changed_men:
            old = self._man_partner[m]
            if old is not None:
                self._woman_partner[old] = None
            self._man_partner[m] = None
        for m in changed_men:
            new = man_partner[m]
            if new is not None:
                prev = self._woman_partner[new]
                if prev is not None and prev != m:
                    raise InvalidParameterError(
                        f"woman {new} assigned to men {prev} and {m}"
                    )
                self._man_partner[m] = new
                self._woman_partner[new] = m
        changed_women = sorted(changed_women_seen)
        for m in changed_men:
            self._rescan_man(m)
        for w in changed_women:
            self._rescan_woman(w)
        return len(changed_men) + len(changed_women)

    # -- oracle cross-check --------------------------------------------

    def verify(self) -> None:
        """Assert exact agreement with the full-scan oracle.

        Also checks that :meth:`blocking_women` is the pool grouped by
        man.  Raises ``AssertionError`` on any discrepancy.  Intended for
        tests and paranoid callers; costs a full ``O(|E|)`` scan.
        """
        from repro.analysis.stability import find_blocking_pairs

        oracle = sorted(
            find_blocking_pairs(self._prefs, self.current_matching())
        )
        mine = self.pairs()
        # An explicit raise, not ``assert``: the check must survive -O.
        if mine != oracle:
            raise AssertionError(
                f"BlockingPairIndex disagrees with full-scan oracle: "
                f"index={mine[:10]}..., oracle={oracle[:10]}..."
            )
        self._pool.verify_by_man()

