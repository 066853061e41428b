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

Storage.  The paper's algorithms walk a list in order, so a rank is a
position.  A profile stores each side once in compressed sparse row
(CSR) form, as two stdlib ``array('q')`` buffers: ``indptr`` (player
``v``'s list is ``targets[indptr[v]:indptr[v + 1]]``) and ``targets``
(every list concatenated, best first).  Per-player tuples and rank
dicts — the form the pure-Python analyses probe in their hot loops —
are built on first request and cached (see :meth:`men_rank_tables`).
This module never imports numpy; the vectorized compiler adopts the
buffers as read-only numpy views (:mod:`repro.vec.compile`).
"""

from __future__ import annotations

import json
import operator
import zlib
from array import array
from itertools import accumulate, chain, count, islice, repeat
from operator import add, lt, mul, sub
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    NoReturn,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import InvalidPreferencesError

__all__ = ["PreferenceProfile"]


class _PlayerView(NamedTuple):
    """Per-player tuples and 1-based rank dicts of both sides."""

    men: Tuple[Tuple[int, ...], ...]
    women: Tuple[Tuple[int, ...], ...]
    men_rank: Tuple[Dict[int, int], ...]
    women_rank: Tuple[Dict[int, int], ...]


def _csr(rows: Sequence[Sequence[int]]) -> Optional[Tuple[array, array]]:
    """``(indptr, targets)`` of one side, or ``None`` on a non-int id.

    ``array('q')`` takes ints and numpy integers (anything with
    ``__index__``) and refuses floats, strings and ids beyond int64;
    ``bool`` passes ``__index__``, so it is screened by type.
    """
    try:
        targets = array("q", chain.from_iterable(rows))
    except (TypeError, OverflowError):
        return None
    if bool in set(map(type, chain.from_iterable(rows))):
        return None
    return array("q", accumulate(map(len, rows), initial=0)), targets


def _owners(indptr: array) -> Iterator[int]:
    """The owning player of every CSR position, in position order."""
    degrees = map(sub, islice(indptr, 1, None), indptr)
    return chain.from_iterable(map(repeat, range(len(indptr) - 1), degrees))


def _segments(indptr: array, targets: array) -> Iterator[array]:
    """Each player's slice of ``targets``, in player order."""
    return map(
        targets.__getitem__, map(slice, indptr, islice(indptr, 1, None))
    )


def _symmetric(
    m_indptr: array, m_targets: array, w_indptr: array, w_targets: array
) -> bool:
    """Whether both sides list the same pairs, each exactly once.

    Every pair ``(m, w)`` packs into the unique key ``w·n_men + m``
    (the ids are range-checked).  Sorting the man side's keys gives
    (woman, man) order; the woman side's keys come out in that order
    once each woman's list is sorted.  Equal sequences that strictly
    increase mean no duplicate on either side and no asymmetry.
    """
    n_men = len(m_indptr) - 1
    m_keys = sorted(
        map(add, map(mul, m_targets, repeat(n_men)), _owners(m_indptr))
    )
    w_keys = map(
        add,
        map(mul, _owners(w_indptr), repeat(n_men)),
        chain.from_iterable(map(sorted, _segments(w_indptr, w_targets))),
    )
    return all(map(operator.eq, m_keys, w_keys)) and all(
        map(lt, m_keys, islice(m_keys, 1, None))
    )


def _in_range(targets: array, opposite_count: int) -> bool:
    """Whether every id lies in ``[0, opposite_count)``."""
    return not targets or (min(targets) >= 0 and max(targets) < opposite_count)


def _check_ids(rows: Sequence[Sequence[int]], side_name: str) -> None:
    """Reject ids that are not integers (``bool`` included)."""
    for v, lst in enumerate(rows):
        for u in lst:
            try:
                if type(u) is bool:
                    raise TypeError
                operator.index(u)
            except TypeError:
                raise InvalidPreferencesError(
                    f"{side_name} {v} ranks non-integer player {u!r}"
                ) from None


def _validate_side(
    lists: Tuple[Tuple[int, ...], ...], opposite_count: int, side_name: str
) -> None:
    """Check that every list on one side is a duplicate-free list of valid ids."""
    for v, lst in enumerate(lists):
        seen: Set[int] = set()
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


def _diagnose(
    men_rows: Sequence[Sequence[int]], women_rows: Sequence[Sequence[int]]
) -> NoReturn:
    """Raise the per-player error for a profile the fast checks refused.

    Runs the checks one player at a time, in a fixed order — ids, then
    ranges and duplicates per side, then symmetry from the man side —
    so the first violation found decides the message.
    """
    _check_ids(men_rows, "man")
    _check_ids(women_rows, "woman")
    men = tuple(tuple(map(operator.index, lst)) for lst in men_rows)
    women = tuple(tuple(map(operator.index, lst)) for lst in women_rows)
    _validate_side(men, len(women), "man")
    _validate_side(women, len(men), "woman")
    men_sets = [set(lst) for lst in men]
    women_sets = [set(lst) for lst in women]
    for m, lst in enumerate(men):
        for w in lst:
            if m not in women_sets[w]:
                raise InvalidPreferencesError(
                    f"asymmetric preferences: man {m} ranks woman {w} "
                    f"but woman {w} does not rank man {m}"
                )
    for w, lst in enumerate(women):
        for m in lst:
            if w not in men_sets[m]:
                raise InvalidPreferencesError(
                    f"asymmetric preferences: woman {w} ranks man {m} "
                    f"but man {m} does not rank woman {w}"
                )
    raise AssertionError(
        "the fast profile checks refused lists the per-player checks accept"
    )


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

    Ids must be ``int`` (or numpy integer) values; floats, strings and
    ``bool`` are refused rather than coerced.

    Raises
    ------
    InvalidPreferencesError
        If any list contains a non-integer, a duplicate or an
        out-of-range index, or if the lists are not symmetric.

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
        "_m_indptr",
        "_m_targets",
        "_w_indptr",
        "_w_targets",
        "_view",
        "_edges_cache",
        "_soa_cache",
    )

    def __init__(
        self,
        men_prefs: Iterable[Sequence[int]],
        women_prefs: Iterable[Sequence[int]],
    ) -> None:
        men_rows = list(men_prefs)
        women_rows = list(women_prefs)
        men = _csr(men_rows)
        women = _csr(women_rows)
        if (
            men is None
            or women is None
            or len(men[1]) != len(women[1])
            or not _in_range(men[1], len(women_rows))
            or not _in_range(women[1], len(men_rows))
            or not _symmetric(*men, *women)
        ):
            _diagnose(men_rows, women_rows)
        self._own(*men, *women)

    @classmethod
    def _adopt(
        cls,
        m_indptr: array,
        m_targets: array,
        w_indptr: array,
        w_targets: array,
    ) -> "PreferenceProfile":
        """A profile that takes ownership of four already-checked buffers.

        For builders that validate their lists themselves: the buffers
        must be ``array('q')`` CSR sides (the vec compiler adopts them
        as int64 views) holding in-range, duplicate-free, symmetric
        lists — what ``__init__`` checks — and nobody may mutate them
        afterwards.
        """
        profile = cls.__new__(cls)
        profile._own(m_indptr, m_targets, w_indptr, w_targets)
        return profile

    def _own(
        self,
        m_indptr: array,
        m_targets: array,
        w_indptr: array,
        w_targets: array,
    ) -> None:
        self._m_indptr, self._m_targets = m_indptr, m_targets
        self._w_indptr, self._w_targets = w_indptr, w_targets
        self._view: Optional[_PlayerView] = None
        self._edges_cache: Optional[FrozenSet[Tuple[int, int]]] = None
        # Struct-of-arrays compilations keyed by quantile count k (see
        # repro.vec.compile).  Kept here so repeated vec runs over the
        # same immutable profile share one set of frozen arrays; this
        # module never imports numpy — the dict holds whatever the vec
        # compiler stores (always read-only views, see soa_cache()).
        self._soa_cache: Dict[int, object] = {}

    # ------------------------------------------------------------------
    # Basic shape
    # ------------------------------------------------------------------

    @property
    def n_men(self) -> int:
        """Number of men (the proposing side ``Y``)."""
        return len(self._m_indptr) - 1

    @property
    def n_women(self) -> int:
        """Number of women (the accepting side ``X``)."""
        return len(self._w_indptr) - 1

    @property
    def n_players(self) -> int:
        """Total number of players on both sides."""
        return self.n_men + self.n_women

    @property
    def num_edges(self) -> int:
        """``|E|`` — the number of mutually-acceptable pairs."""
        return len(self._m_targets)

    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """The edge set ``E`` as a frozenset of ``(man, woman)`` pairs.

        The profile is immutable, so the set is computed once and cached
        — callers that probe membership per matching delta (e.g. the
        incremental :class:`~repro.perf.blocking_index.BlockingPairIndex`)
        pay O(|E|) on the first call only.
        """
        if self._edges_cache is None:
            self._edges_cache = frozenset(self.iter_edges())
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

    def iter_edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(man, woman)`` edges without materializing a set."""
        return zip(_owners(self._m_indptr), self._m_targets)

    # ------------------------------------------------------------------
    # Flat storage
    # ------------------------------------------------------------------

    def men_csr(self) -> Tuple[array, array]:
        """The men's side as ``(indptr, targets)`` ``array('q')`` buffers.

        Man ``m``'s list is ``targets[indptr[m]:indptr[m + 1]]``, best
        first.  These are the profile's own buffers: callers must not
        mutate them.
        """
        return self._m_indptr, self._m_targets

    def women_csr(self) -> Tuple[array, array]:
        """The women's side as ``(indptr, targets)``; see :meth:`men_csr`."""
        return self._w_indptr, self._w_targets

    # ------------------------------------------------------------------
    # Per-player views
    # ------------------------------------------------------------------

    def man_list(self, m: int) -> Tuple[int, ...]:
        """Man ``m``'s preference list, best first."""
        p = self._m_indptr
        return tuple(self._m_targets[p[m]:p[m + 1]])

    def woman_list(self, w: int) -> Tuple[int, ...]:
        """Woman ``w``'s preference list, best first."""
        p = self._w_indptr
        return tuple(self._w_targets[p[w]:p[w + 1]])

    def deg_man(self, m: int) -> int:
        """``deg(m)`` — the length of man ``m``'s preference list."""
        p = self._m_indptr
        return p[m + 1] - p[m]

    def deg_woman(self, w: int) -> int:
        """``deg(w)`` — the length of woman ``w``'s preference list."""
        p = self._w_indptr
        return p[w + 1] - p[w]

    def acceptable_to_man(self, m: int, w: int) -> bool:
        """Whether woman ``w`` appears on man ``m``'s list (O(deg) scan)."""
        p = self._m_indptr
        return w in self._m_targets[p[m]:p[m + 1]]

    def acceptable_to_woman(self, w: int, m: int) -> bool:
        """Whether man ``m`` appears on woman ``w``'s list (O(deg) scan)."""
        p = self._w_indptr
        return m in self._w_targets[p[w]:p[w + 1]]

    def _players(self) -> _PlayerView:
        """The per-player tuples and rank dicts, built on first use."""
        view = self._view
        if view is None:
            men = tuple(map(tuple, _segments(self._m_indptr, self._m_targets)))
            women = tuple(
                map(tuple, _segments(self._w_indptr, self._w_targets))
            )
            view = self._view = _PlayerView(
                men,
                women,
                tuple(dict(zip(lst, count(1))) for lst in men),
                tuple(dict(zip(lst, count(1))) for lst in women),
            )
        return view

    def men_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Every man's preference list, indexed by man (immutable).

        Builds the cached per-player view on first use.
        """
        return self._players().men

    def women_lists(self) -> Tuple[Tuple[int, ...], ...]:
        """Every woman's preference list, indexed by woman (immutable).

        Builds the cached per-player view on first use.
        """
        return self._players().women

    def rank_of_woman(self, m: int, w: int) -> int:
        """``P_m(w)`` — man ``m``'s 1-based rank of woman ``w``.

        Raises ``KeyError`` if ``w`` is not acceptable to ``m``.
        """
        return (self._view or self._players()).men_rank[m][w]

    def rank_of_man(self, w: int, m: int) -> int:
        """``P_w(m)`` — woman ``w``'s 1-based rank of man ``m``.

        Raises ``KeyError`` if ``m`` is not acceptable to ``w``.
        """
        return (self._view or self._players()).women_rank[w][m]

    def men_rank_tables(self) -> Tuple[Dict[int, int], ...]:
        """Per-man rank tables: ``men_rank_tables()[m][w] == P_m(w)``.

        Direct (read-only) access to the lookup tables for hot loops
        that cannot afford a method call per probe — the incremental
        blocking-pair index and the engine's fast paths.  The tables,
        with the per-player tuples of :meth:`men_lists`, are built on
        the first call of any rank or list-of-lists accessor and then
        cached.  Callers must not mutate the returned dicts.
        """
        return self._players().men_rank

    def women_rank_tables(self) -> Tuple[Dict[int, int], ...]:
        """Per-woman rank tables: ``women_rank_tables()[w][m] == P_w(m)``.

        See :meth:`men_rank_tables`; callers must not mutate.
        """
        return self._players().women_rank

    def man_prefers(self, m: int, w1: int, w2: int) -> bool:
        """Whether man ``m`` strictly prefers ``w1`` to ``w2``.

        ``w2 is None`` (unmatched) is handled by the caller; both
        arguments here must be acceptable to ``m``.
        """
        rank = (self._view or self._players()).men_rank[m]
        return rank[w1] < rank[w2]

    def woman_prefers(self, w: int, m1: int, m2: int) -> bool:
        """Whether woman ``w`` strictly prefers ``m1`` to ``m2``."""
        rank = (self._view or self._players()).women_rank[w]
        return rank[m1] < rank[m2]

    # ------------------------------------------------------------------
    # Structural properties
    # ------------------------------------------------------------------

    def _degrees(self, indptr: array) -> List[int]:
        return list(map(sub, islice(indptr, 1, None), indptr))

    def is_complete(self) -> bool:
        """Whether every player ranks every player of the opposite side."""
        return self.num_edges == self.n_men * self.n_women

    def max_degree(self) -> int:
        """Maximum degree over all players (0 for an empty profile)."""
        degs = self._degrees(self._m_indptr) + self._degrees(self._w_indptr)
        return max(degs) if degs else 0

    def min_man_degree(self) -> int:
        """Minimum degree among men with nonempty lists (0 if none)."""
        degs = [d for d in self._degrees(self._m_indptr) if d]
        return min(degs) if degs else 0

    def regularity_alpha(self) -> float:
        """The smallest ``α`` such that men's preferences are α-almost-regular.

        Section 5.2 of the paper calls men's preferences *α-almost-regular*
        when ``max_m deg(m) <= α · min_m deg(m)``.  Men with empty lists
        are excluded (they are isolated in the communication graph).
        Returns ``1.0`` when no man has a nonempty list.
        """
        degs = [d for d in self._degrees(self._m_indptr) if d]
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
        return PreferenceProfile(
            _segments(self._w_indptr, self._w_targets),
            _segments(self._m_indptr, self._m_targets),
        )

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
        men = list(men_prefs)
        _check_ids(men, "man")
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
            "men_prefs": [
                s.tolist() for s in _segments(self._m_indptr, self._m_targets)
            ],
            "women_prefs": [
                s.tolist() for s in _segments(self._w_indptr, self._w_targets)
            ],
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

    def _buffers(self) -> Tuple[array, array, array, array]:
        return self._m_indptr, self._m_targets, self._w_indptr, self._w_targets

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PreferenceProfile):
            return NotImplemented
        return self._buffers() == other._buffers()

    def __hash__(self) -> int:
        # crc32 reads each buffer in place and, unlike hashing bytes,
        # does not depend on PYTHONHASHSEED.
        return hash(tuple(zlib.crc32(b) for b in self._buffers()))

    def __repr__(self) -> str:
        return (
            f"PreferenceProfile(n_men={self.n_men}, n_women={self.n_women}, "
            f"num_edges={self.num_edges})"
        )
