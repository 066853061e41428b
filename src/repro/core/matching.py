"""Matchings over a preference profile.

A matching ``M ⊆ E`` is a set of (man, woman) edges with no shared
vertex.  :class:`Matching` is immutable; algorithms build matchings with
:class:`MutableMatching` and freeze them on return.

The module mirrors the paper's notation: ``p(v)`` is the partner of
player ``v`` (``None`` when unmatched), and the matching produced by the
algorithms is ``M = {(p(w), w) | w ∈ X, p(w) ≠ ∅}``.
"""

from __future__ import annotations

import json
from array import array
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Tuple

from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidMatchingError

__all__ = ["Matching", "MutableMatching"]


class Matching:
    """An immutable matching between men and women.

    Parameters
    ----------
    pairs:
        Iterable of ``(man, woman)`` pairs.  No man or woman may appear
        twice.

    Raises
    ------
    InvalidMatchingError
        If a player appears in more than one pair.

    A matching has one of two forms with one behaviour.  ``Matching(pairs)``
    checks its pairs into two per-player dicts.  A solver's result
    (:meth:`_from_sorted_pairs`) keeps two parallel ``array("q")`` pair
    sequences sorted by man, serves the whole-matching methods from
    them, and builds the dicts on the first per-player query.

    Examples
    --------
    >>> m = Matching([(0, 1), (1, 0)])
    >>> m.partner_of_man(0)
    1
    >>> m.partner_of_woman(2) is None
    True
    >>> len(m)
    2
    """

    # ``_men``/``_women`` are the pair sequences (``None`` in the dict
    # form); the dict slots stay unset in the sequence form until
    # ``__getattr__`` fills them, so a set slot is read directly.
    __slots__ = ("_men", "_women", "_man_to_woman", "_woman_to_man")

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()) -> None:
        man_to_woman: Dict[int, int] = {}
        woman_to_man: Dict[int, int] = {}
        for m, w in pairs:
            m, w = int(m), int(w)
            if m in man_to_woman:
                raise InvalidMatchingError(f"man {m} is matched more than once")
            if w in woman_to_man:
                raise InvalidMatchingError(f"woman {w} is matched more than once")
            man_to_woman[m] = w
            woman_to_man[w] = m
        # Canonicalize once: insertion order of the internal dicts is
        # sorted by player index, so every iteration surface (pairs(),
        # validate_against, repr) is deterministic no matter what order
        # — or container — the constructor received (DET001).
        self._man_to_woman = dict(sorted(man_to_woman.items()))
        self._woman_to_man = dict(sorted(woman_to_man.items()))
        self._men = self._women = None

    @classmethod
    def _from_sorted_pairs(cls, men: array, women: array) -> "Matching":
        """A matching that takes ownership of two parallel pair sequences.

        For builders that validate their pairs themselves: ``men`` and
        ``women`` are ``array("q")`` of equal length, ``men`` strictly
        ascending, ``women`` pairwise distinct, and ``women[i]`` is the
        partner of ``men[i]``.
        """
        matching = cls.__new__(cls)
        matching._men = men
        matching._women = women
        return matching

    def __getattr__(self, name: str) -> Dict[int, int]:
        # Reached only for an unset slot: the per-player dicts of the
        # sequence form, built on the first query that reads them.
        if name not in ("_man_to_woman", "_woman_to_man"):
            raise AttributeError(
                f"{type(self).__name__!r} object has no attribute {name!r}"
            )
        self._man_to_woman = dict(zip(self._men, self._women))
        self._woman_to_man = dict(zip(self._women, self._men))
        return getattr(self, name)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def partner_of_man(self, m: int) -> Optional[int]:
        """``p(m)`` — the woman matched with man ``m``, or ``None``."""
        return self._man_to_woman.get(m)

    def partner_of_woman(self, w: int) -> Optional[int]:
        """``p(w)`` — the man matched with woman ``w``, or ``None``."""
        return self._woman_to_man.get(w)

    def is_man_matched(self, m: int) -> bool:
        """Whether man ``m`` has a partner."""
        return m in self._man_to_woman

    def is_woman_matched(self, w: int) -> bool:
        """Whether woman ``w`` has a partner."""
        return w in self._woman_to_man

    def contains_pair(self, m: int, w: int) -> bool:
        """Whether the edge ``(m, w)`` is in the matching."""
        return self._man_to_woman.get(m) == w

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(man, woman)`` pairs in man-index order.

        Both forms are sorted by man index at construction, so this
        needs no per-call sort.
        """
        if self._men is None:
            yield from self._man_to_woman.items()
        else:
            yield from zip(self._men, self._women)

    def matched_men(self) -> FrozenSet[int]:
        """The set of matched men."""
        men = self._men
        return frozenset(self._man_to_woman if men is None else men)

    def matched_women(self) -> FrozenSet[int]:
        """The set of matched women."""
        women = self._women
        return frozenset(self._woman_to_man if women is None else women)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------

    def validate_against(self, prefs: PreferenceProfile) -> None:
        """Check that every pair is an edge of the communication graph.

        Raises
        ------
        InvalidMatchingError
            If a pair involves an out-of-range player or is not mutually
            acceptable under ``prefs``.
        """
        for m, w in self.pairs():
            if not 0 <= m < prefs.n_men or not 0 <= w < prefs.n_women:
                raise InvalidMatchingError(
                    f"pair ({m}, {w}) is out of range for {prefs!r}"
                )
            if not prefs.acceptable_to_man(m, w):
                raise InvalidMatchingError(
                    f"pair ({m}, {w}) is not an edge: "
                    f"woman {w} is unacceptable to man {m}"
                )

    def is_perfect(self, prefs: PreferenceProfile) -> bool:
        """Whether every player of the smaller side is matched."""
        return len(self) == min(prefs.n_men, prefs.n_women)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, list]:
        """A JSON-serializable representation: ``{"pairs": [[m, w], …]}``."""
        return {"pairs": [[m, w] for m, w in self.pairs()]}

    @classmethod
    def from_dict(cls, data: Dict[str, list]) -> "Matching":
        """Inverse of :meth:`to_dict`."""
        return cls((m, w) for m, w in data["pairs"])

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Matching":
        """Deserialize from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def __reduce__(self) -> Tuple[object, ...]:
        # Pickle the form's own data: the default would read every slot,
        # building the sequence form's dicts.
        if self._men is None:
            return (type(self), (list(self.pairs()),))
        return (type(self)._from_sorted_pairs, (self._men, self._women))

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        men = self._men
        return len(self._man_to_woman if men is None else men)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        return self.pairs()

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        return self.contains_pair(pair[0], pair[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        if self._men is None and other._men is None:
            return self._man_to_woman == other._man_to_woman
        if self._men is not None and other._men is not None:
            return self._men == other._men and self._women == other._women
        # Mixed forms: both iterate their pairs sorted by man.
        return len(self) == len(other) and list(self.pairs()) == list(
            other.pairs()
        )

    def __hash__(self) -> int:
        return hash(frozenset(self.pairs()))

    def __repr__(self) -> str:
        return f"Matching({list(self.pairs())})"


class MutableMatching:
    """A mutable matching used internally while algorithms run.

    Supports the operations the paper's algorithms need: match a pair
    (displacing nothing — callers must unmatch first), unmatch a player,
    and freeze into an immutable :class:`Matching`.

    Examples
    --------
    >>> mm = MutableMatching()
    >>> mm.match(0, 3)
    >>> mm.partner_of_woman(3)
    0
    >>> mm.unmatch_man(0)
    >>> mm.partner_of_woman(3) is None
    True
    """

    __slots__ = ("_man_to_woman", "_woman_to_man")

    def __init__(self, pairs: Iterable[Tuple[int, int]] = ()) -> None:
        self._man_to_woman: Dict[int, int] = {}
        self._woman_to_man: Dict[int, int] = {}
        for m, w in pairs:
            self.match(m, w)

    def match(self, m: int, w: int) -> None:
        """Add the pair ``(m, w)``.

        Raises
        ------
        InvalidMatchingError
            If either player is already matched (to someone else).
        """
        if self._man_to_woman.get(m, w) != w or m in self._man_to_woman:
            raise InvalidMatchingError(
                f"man {m} is already matched to {self._man_to_woman[m]}"
            )
        if w in self._woman_to_man:
            raise InvalidMatchingError(
                f"woman {w} is already matched to {self._woman_to_man[w]}"
            )
        self._man_to_woman[m] = w
        self._woman_to_man[w] = m

    def rematch_woman(self, w: int, new_m: int) -> Optional[int]:
        """Match woman ``w`` with ``new_m``, displacing her old partner.

        Returns the displaced man (now unmatched), or ``None`` if ``w``
        was unmatched.  ``new_m`` must not already be matched.
        """
        old = self._woman_to_man.get(w)
        if old is not None:
            del self._man_to_woman[old]
            del self._woman_to_man[w]
        self.match(new_m, w)
        return old

    def unmatch_man(self, m: int) -> None:
        """Remove man ``m``'s pair if present; no-op when unmatched."""
        w = self._man_to_woman.pop(m, None)
        if w is not None:
            del self._woman_to_man[w]

    def unmatch_woman(self, w: int) -> None:
        """Remove woman ``w``'s pair if present; no-op when unmatched."""
        m = self._woman_to_man.pop(w, None)
        if m is not None:
            del self._man_to_woman[m]

    def partner_of_man(self, m: int) -> Optional[int]:
        """``p(m)`` — the woman matched with man ``m``, or ``None``."""
        return self._man_to_woman.get(m)

    def partner_of_woman(self, w: int) -> Optional[int]:
        """``p(w)`` — the man matched with woman ``w``, or ``None``."""
        return self._woman_to_man.get(w)

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(man, woman)`` pairs in man-index order."""
        for m in sorted(self._man_to_woman):
            yield (m, self._man_to_woman[m])

    def freeze(self) -> Matching:
        """Return an immutable snapshot of the current matching."""
        return Matching(self._man_to_woman.items())

    def __len__(self) -> int:
        return len(self._man_to_woman)

    def __repr__(self) -> str:
        return f"MutableMatching({sorted(self._man_to_woman.items())})"
