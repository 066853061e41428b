"""Preference profiles for the stable marriage problem.

This module implements the problem model of Section 2.1 of the paper:
two disjoint sets of players (*men* ``Y`` and *women* ``X``), each player
holding a *preference list* — a linear order over a subset of the players
of the opposite side.  Preferences are *symmetric*: ``w`` appears on
``m``'s list if and only if ``m`` appears on ``w``'s list.  The pairs that
rank one another form the edge set ``E`` of the *communication graph*.

Players are identified by dense integer indices within their side:
men are ``0 .. n_men - 1`` and women are ``0 .. n_women - 1``.  The two
index spaces are independent; the pair ``(m, w)`` always means man ``m``
and woman ``w``.

Ranks are 1-based, matching the paper's convention that ``P_v(u) = 1``
means ``u`` is ``v``'s most favored partner.
"""

from __future__ import annotations

import json
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import InvalidPreferencesError

__all__ = ["PreferenceProfile"]


def _freeze(lists: Iterable[Sequence[int]]) -> Tuple[Tuple[int, ...], ...]:
    """Return ``lists`` as a tuple of tuples of ints."""
    return tuple(tuple(int(u) for u in lst) for lst in lists)


def _validate_side(
    lists: Tuple[Tuple[int, ...], ...], opposite_count: int, side_name: str
) -> None:
    """Check that every list on one side is a duplicate-free list of valid ids."""
    for v, lst in enumerate(lists):
        seen = set()
        for u in lst:
            if not 0 <= u < opposite_count:
                raise InvalidPreferencesError(
                    f"{side_name} {v} ranks out-of-range player {u} "
                    f"(opposite side has {opposite_count} players)"
                )
            if u in seen:
                raise InvalidPreferencesError(
                    f"{side_name} {v} ranks player {u} more than once"
                )
            seen.add(u)


class PreferenceProfile:
    """An immutable, validated set of symmetric preference lists.

    Parameters
    ----------
    men_prefs:
        ``men_prefs[m]`` is man ``m``'s preference list: woman indices
        ordered from most to least preferred.
    women_prefs:
        ``women_prefs[w]`` is woman ``w``'s preference list: man indices
        ordered from most to least preferred.

    Raises
    ------
    InvalidPreferencesError
        If any list contains duplicates or out-of-range indices, or if
        the lists are not symmetric.

    Examples
    --------
    >>> prefs = PreferenceProfile(
    ...     men_prefs=[[0, 1], [1, 0]],
    ...     women_prefs=[[0, 1], [1, 0]],
    ... )
    >>> prefs.num_edges
    4
    >>> prefs.rank_of_woman(0, 1)
    2
    """

    __slots__ = (
        "_men_prefs",
        "_women_prefs",
        "_men_rank",
        "_women_rank",
        "_num_edges",
        "_edges_cache",
        "_soa_cache",
    )

    def __init__(
        self,
        men_prefs: Iterable[Sequence[int]],
        women_prefs: Iterable[Sequence[int]],
    ) -> None:
        self._men_prefs = _freeze(men_prefs)
        self._women_prefs = _freeze(women_prefs)
        _validate_side(self._men_prefs, len(self._women_prefs), "man")
        _validate_side(self._women_prefs, len(self._men_prefs), "woman")

        # 1-based rank lookup tables: _men_rank[m][w] == P_m(w).
        self._men_rank: Tuple[Dict[int, int], ...] = tuple(
            {w: r + 1 for r, w in enumerate(lst)} for lst in self._men_prefs
        )
        self._women_rank: Tuple[Dict[int, int], ...] = tuple(
            {m: r + 1 for r, m in enumerate(lst)} for lst in self._women_prefs
        )
        self._check_symmetry()
        self._num_edges = sum(len(lst) for lst in self._men_prefs)
        self._edges_cache: Optional[FrozenSet[Tuple[int, int]]] = None
        # Struct-of-arrays compilations keyed by quantile count k (see
        # repro.vec.compile).  Kept here so repeated vec runs over the
        # same immutable profile share one set of frozen arrays; this
        # module never imports numpy — the dict holds whatever the vec
        # compiler stores (always read-only views, see soa_cache()).
        self._soa_cache: Dict[int, object] = {}

    def _check_symmetry(self) -> None:
        """Verify that ``w in P_m`` if and only if ``m in P_w``."""
        for m, lst in enumerate(self._men_prefs):
            for w in lst:
                if m not in self._women_rank[w]:
                    raise InvalidPreferencesError(
                        f"asymmetric preferences: man {m} ranks woman {w} "
                        f"but woman {w} does not rank man {m}"
                    )
        for w, lst in enumerate(self._women_prefs):
            for m in lst:
                if w not in self._men_rank[m]:
                    raise InvalidPreferencesError(
                        f"asymmetric preferences: woman {w} ranks man {m} "
                        f"but man {m} does not rank woman {w}"
                    )

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    @property
    def n_men(self) -> int:
        """Number of men (the proposing side ``Y``)."""
        return len(self._men_prefs)

    @property
    def n_women(self) -> int:
        """Number of women (the accepting side ``X``)."""
        return len(self._women_prefs)

    @property
    def n_players(self) -> int:
        """Total number of players on both sides."""
        return self.n_men + self.n_women

    @property
    def num_edges(self) -> int:
        """``|E|`` — the number of mutually-acceptable pairs."""
        return self._num_edges

    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The edge set ``E`` as a frozenset of ``(man, woman)`` pairs.

        The profile is immutable, so the set is computed once and cached
        — callers that probe membership per matching delta (e.g. the
        incremental :class:`~repro.perf.blocking_index.BlockingPairIndex`)
        pay O(|E|) on the first call only.
        """
        if self._edges_cache is None:
            self._edges_cache = frozenset(
                (m, w) for m, lst in enumerate(self._men_prefs) for w in lst
            )
        return self._edges_cache

    def soa_cache(self) -> Dict[int, object]:
        """The per-profile cache of struct-of-arrays compilations.

        Keyed by quantile count ``k``; values are
        :class:`repro.vec.compile.VecProfile` instances whose arrays are
        frozen (``writeable=False``), so sharing one compilation across
        engines cannot let a caller corrupt another engine's view —
        the same contract :meth:`edges` keeps by returning a frozenset.
        """
        return self._soa_cache

    def iter_edges(self) -> Iterable[Tuple[int, int]]:
        """Iterate over ``(man, woman)`` edges without materializing a set."""
        for m, lst in enumerate(self._men_prefs):
            for w in lst:
                yield (m, w)

    # ------------------------------------------------------------------
    # Per-player views
    # ------------------------------------------------------------------

    def man_list(self, m: int) -> Tuple[int, ...]:
        """Man ``m``'s preference list, best first."""
        return self._men_prefs[m]

    def woman_list(self, w: int) -> Tuple[int, ...]:
        """Woman ``w``'s preference list, best first."""
        return self._women_prefs[w]

    def men_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Every man's preference list, indexed by man (immutable)."""
        return self._men_prefs

    def women_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Every woman's preference list, indexed by woman (immutable)."""
        return self._women_prefs

    def deg_man(self, m: int) -> int:
        """``deg(m)`` — the length of man ``m``'s preference list."""
        return len(self._men_prefs[m])

    def deg_woman(self, w: int) -> int:
        """``deg(w)`` — the length of woman ``w``'s preference list."""
        return len(self._women_prefs[w])

    def rank_of_woman(self, m: int, w: int) -> int:
        """``P_m(w)`` — man ``m``'s 1-based rank of woman ``w``.

        Raises ``KeyError`` if ``w`` is not acceptable to ``m``.
        """
        return self._men_rank[m][w]

    def rank_of_man(self, w: int, m: int) -> int:
        """``P_w(m)`` — woman ``w``'s 1-based rank of man ``m``.

        Raises ``KeyError`` if ``m`` is not acceptable to ``w``.
        """
        return self._women_rank[w][m]

    def men_rank_tables(self) -> Tuple[Dict[int, int], ...]:
        """Per-man rank tables: ``men_rank_tables()[m][w] == P_m(w)``.

        Direct (read-only) access to the internal lookup tables for hot
        loops that cannot afford a method call per probe — the
        incremental blocking-pair index and the engine's fast paths.
        Callers must not mutate the returned dicts.
        """
        return self._men_rank

    def women_rank_tables(self) -> Tuple[Dict[int, int], ...]:
        """Per-woman rank tables: ``women_rank_tables()[w][m] == P_w(m)``.

        See :meth:`men_rank_tables`; callers must not mutate.
        """
        return self._women_rank

    def acceptable_to_man(self, m: int, w: int) -> bool:
        """Whether woman ``w`` appears on man ``m``'s list."""
        return w in self._men_rank[m]

    def acceptable_to_woman(self, w: int, m: int) -> bool:
        """Whether man ``m`` appears on woman ``w``'s list."""
        return m in self._women_rank[w]

    def man_prefers(self, m: int, w1: int, w2: int) -> bool:
        """Whether man ``m`` strictly prefers ``w1`` to ``w2``.

        ``w2 is None`` (unmatched) is handled by the caller; both
        arguments here must be acceptable to ``m``.
        """
        return self._men_rank[m][w1] < self._men_rank[m][w2]

    def woman_prefers(self, w: int, m1: int, m2: int) -> bool:
        """Whether woman ``w`` strictly prefers ``m1`` to ``m2``."""
        return self._women_rank[w][m1] < self._women_rank[w][m2]

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------

    def is_complete(self) -> bool:
        """Whether every player ranks every player of the opposite side."""
        return all(len(lst) == self.n_women for lst in self._men_prefs) and all(
            len(lst) == self.n_men for lst in self._women_prefs
        )

    def max_degree(self) -> int:
        """Maximum degree over all players (0 for an empty profile)."""
        degs = [len(lst) for lst in self._men_prefs + self._women_prefs]
        return max(degs) if degs else 0

    def min_man_degree(self) -> int:
        """Minimum degree among men with nonempty lists (0 if none)."""
        degs = [len(lst) for lst in self._men_prefs if lst]
        return min(degs) if degs else 0

    def regularity_alpha(self) -> float:
        """The smallest ``α`` such that men's preferences are α-almost-regular.

        Section 5.2 of the paper calls men's preferences *α-almost-regular*
        when ``max_m deg(m) <= α · min_m deg(m)``.  Men with empty lists
        are excluded (they are isolated in the communication graph).
        Returns ``1.0`` when no man has a nonempty list.
        """
        degs = [len(lst) for lst in self._men_prefs if lst]
        if not degs:
            return 1.0
        return max(degs) / min(degs)

    def swap_sides(self) -> "PreferenceProfile":
        """The same market with the roles of men and women exchanged.

        The paper's algorithms are asymmetric (men propose); running
        ``asm(prefs.swap_sides(), …)`` yields the women-proposing
        variant.  The communication graph is identical up to the role
        swap: ``(m, w)`` is an edge iff ``(w, m)`` is in the swapped
        profile.
        """
        return PreferenceProfile(self._women_prefs, self._men_prefs)

    # ------------------------------------------------------------------
    # Construction helpers and serialization
    # ------------------------------------------------------------------

    @classmethod
    def from_men_lists(
        cls, men_prefs: Iterable[Sequence[int]], n_women: int
    ) -> "PreferenceProfile":
        """Build a profile from men's lists only.

        Each woman's list is derived so that symmetry holds; women rank
        their acceptable men by ascending man index.  Useful in tests and
        workloads where only the graph structure matters on one side.
        """
        men = _freeze(men_prefs)
        women: List[List[int]] = [[] for _ in range(n_women)]
        for m, lst in enumerate(men):
            for w in lst:
                if not 0 <= w < n_women:
                    raise InvalidPreferencesError(
                        f"man {m} ranks out-of-range woman {w}"
                    )
                women[w].append(m)
        return cls(men, women)

    def to_dict(self) -> Dict[str, List[List[int]]]:
        """A JSON-serializable representation of the profile."""
        return {
            "men_prefs": [list(lst) for lst in self._men_prefs],
            "women_prefs": [list(lst) for lst in self._women_prefs],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, List[List[int]]]) -> "PreferenceProfile":
        """Inverse of :meth:`to_dict`."""
        return cls(data["men_prefs"], data["women_prefs"])

    def to_json(self) -> str:
        """Serialize the profile to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "PreferenceProfile":
        """Deserialize a profile from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return (
            self._men_prefs == other._men_prefs
            and self._women_prefs == other._women_prefs
        )

    def __hash__(self) -> int:
        return hash((self._men_prefs, self._women_prefs))

    def __repr__(self) -> str:
        return (
            f"PreferenceProfile(n_men={self.n_men}, n_women={self.n_women}, "
            f"num_edges={self.num_edges})"
        )
