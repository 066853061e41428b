"""Stability metrics for matchings (Section 2.1 of the paper).

This module implements both notions of approximate stability the paper
discusses:

* **(1−ε)-stability** (Definition 1, after Eriksson–Häggström): the
  matching induces at most ``ε·|E|`` blocking pairs, where ``E`` is the
  edge set of the communication graph.
* **ε-blocking-stability** (Definition 2, after Kipnis–Patt-Shamir): no
  pair improves by an ε-fraction of both players' lists.

The convention throughout (paper, Section 2.1) is that an unmatched
player prefers every acceptable partner to being alone; equivalently
``P_v(∅) = deg(v) + 1`` (used explicitly in Lemma 4).  All rank
helpers use the *player's own* degree, so asymmetric markets
(``n_men ≠ n_women``, empty lists) are handled uniformly.

The functions here are full-scan ``O(|E|)`` computations and serve as
the *oracle* for the incremental
:class:`~repro.perf.blocking_index.BlockingPairIndex` (re-exported
here for convenience), which maintains the same blocking-pair set from
matching deltas in ``O(deg)`` per change.  Use
:func:`blocking_pair_trajectory` to evaluate a whole sequence of
matchings incrementally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile

# Imported at the bottom of this module (see there) to break the
# import cycle stability -> perf -> bench -> stability:
#   from repro.perf.blocking_index import BlockingPairIndex

__all__ = [
    "BlockingPairIndex",
    "blocking_pair_trajectory",
    "rank_or_unmatched_man",
    "rank_or_unmatched_woman",
    "is_blocking_pair",
    "find_blocking_pairs",
    "count_blocking_pairs",
    "instability",
    "is_stable",
    "is_one_minus_eps_stable",
    "is_eps_blocking_pair",
    "find_eps_blocking_pairs",
    "is_eps_blocking_stable",
    "blocking_pairs_incident_to_men",
    "blocking_pair_gaps",
    "StabilityReport",
    "stability_report",
]


def rank_or_unmatched_man(
    prefs: PreferenceProfile, matching: Matching, m: int
) -> int:
    """``P_m(p(m))`` with the convention ``P_m(∅) = deg(m) + 1``."""
    w = matching.partner_of_man(m)
    if w is None:
        return prefs.deg_man(m) + 1
    return prefs.rank_of_woman(m, w)


def rank_or_unmatched_woman(
    prefs: PreferenceProfile, matching: Matching, w: int
) -> int:
    """``P_w(p(w))`` with the convention ``P_w(∅) = deg(w) + 1``."""
    m = matching.partner_of_woman(w)
    if m is None:
        return prefs.deg_woman(w) + 1
    return prefs.rank_of_man(w, m)


def is_blocking_pair(
    prefs: PreferenceProfile, matching: Matching, m: int, w: int
) -> bool:
    """Whether the edge ``(m, w)`` blocks ``matching``.

    ``(m, w)`` is blocking when it is an edge, is not in the matching,
    and both players strictly prefer each other to their current
    partners (unmatched counts as worst).
    """
    if not prefs.acceptable_to_man(m, w):
        return False
    if matching.contains_pair(m, w):
        return False
    m_rank_of_w = prefs.rank_of_woman(m, w)
    w_rank_of_m = prefs.rank_of_man(w, m)
    return (
        m_rank_of_w < rank_or_unmatched_man(prefs, matching, m)
        and w_rank_of_m < rank_or_unmatched_woman(prefs, matching, w)
    )


def find_blocking_pairs(
    prefs: PreferenceProfile, matching: Matching
) -> List[Tuple[int, int]]:
    """All blocking pairs of ``matching``, in (man, woman) lexicographic order.

    Runs in ``O(|E|)`` after ``O(n)`` setup.
    """
    # Precompute each player's rank of their partner once.
    men_cur = [
        rank_or_unmatched_man(prefs, matching, m) for m in range(prefs.n_men)
    ]
    women_cur = [
        rank_or_unmatched_woman(prefs, matching, w) for w in range(prefs.n_women)
    ]
    out: List[Tuple[int, int]] = []
    for m, men_list in enumerate(prefs.men_lists()):
        for pos, w in enumerate(men_list):
            m_rank_of_w = pos + 1
            if m_rank_of_w >= men_cur[m]:
                # w is weakly worse than m's partner; also skips (m, p(m)).
                continue
            if prefs.rank_of_man(w, m) < women_cur[w]:
                out.append((m, w))
    return out


def count_blocking_pairs(prefs: PreferenceProfile, matching: Matching) -> int:
    """The number of blocking pairs induced by ``matching``."""
    return len(find_blocking_pairs(prefs, matching))


def instability(prefs: PreferenceProfile, matching: Matching) -> float:
    """Blocking pairs as a fraction of ``|E|`` (0.0 for an empty graph).

    This is the paper's headline metric: a matching is (1−ε)-stable
    exactly when ``instability(...) <= ε``.
    """
    if prefs.num_edges == 0:
        return 0.0
    return count_blocking_pairs(prefs, matching) / prefs.num_edges


def is_stable(prefs: PreferenceProfile, matching: Matching) -> bool:
    """Whether ``matching`` is (classically) stable: no blocking pairs."""
    return count_blocking_pairs(prefs, matching) == 0


def is_one_minus_eps_stable(
    prefs: PreferenceProfile, matching: Matching, eps: float
) -> bool:
    """Definition 1: at most ``ε·|E|`` blocking pairs."""
    return count_blocking_pairs(prefs, matching) <= eps * prefs.num_edges


def is_eps_blocking_pair(
    prefs: PreferenceProfile, matching: Matching, m: int, w: int, eps: float
) -> bool:
    """Definition 2: whether ``(m, w)`` is an ε-blocking pair.

    ``(m, w)`` must be an edge; both players must improve by at least an
    ε-fraction of their list length:

        ``P_m(p(m)) − P_m(w) ≥ ε·deg(m)``  and
        ``P_w(p(w)) − P_w(m) ≥ ε·deg(w)``,

    with ``P_v(∅) = deg(v) + 1``.
    """
    if not prefs.acceptable_to_man(m, w) or matching.contains_pair(m, w):
        return False
    gap_m = rank_or_unmatched_man(prefs, matching, m) - prefs.rank_of_woman(m, w)
    gap_w = rank_or_unmatched_woman(prefs, matching, w) - prefs.rank_of_man(w, m)
    return gap_m >= eps * prefs.deg_man(m) and gap_w >= eps * prefs.deg_woman(w)


def find_eps_blocking_pairs(
    prefs: PreferenceProfile, matching: Matching, eps: float
) -> List[Tuple[int, int]]:
    """All ε-blocking pairs, in (man, woman) lexicographic order."""
    men_cur = [
        rank_or_unmatched_man(prefs, matching, m) for m in range(prefs.n_men)
    ]
    women_cur = [
        rank_or_unmatched_woman(prefs, matching, w) for w in range(prefs.n_women)
    ]
    out: List[Tuple[int, int]] = []
    for m, men_list in enumerate(prefs.men_lists()):
        threshold_m = eps * len(men_list)
        for pos, w in enumerate(men_list):
            if matching.contains_pair(m, w):
                continue
            if men_cur[m] - (pos + 1) < threshold_m:
                continue
            if women_cur[w] - prefs.rank_of_man(w, m) >= eps * prefs.deg_woman(w):
                out.append((m, w))
    return out


def is_eps_blocking_stable(
    prefs: PreferenceProfile, matching: Matching, eps: float
) -> bool:
    """Definition 2: whether ``matching`` contains no ε-blocking pairs."""
    return not find_eps_blocking_pairs(prefs, matching, eps)


def blocking_pairs_incident_to_men(
    prefs: PreferenceProfile, matching: Matching, men: Iterable[int]
) -> List[Tuple[int, int]]:
    """Blocking pairs whose man endpoint lies in ``men``.

    Used to attribute instability to the "bad" men of the analysis
    (Lemmas 5–7).
    """
    men_set = set(men)
    return [
        (m, w) for (m, w) in find_blocking_pairs(prefs, matching) if m in men_set
    ]


def blocking_pair_gaps(
    prefs: PreferenceProfile, matching: Matching
) -> List[Tuple[Tuple[int, int], float, float]]:
    """Normalized improvement gaps of every blocking pair.

    For each blocking pair ``(m, w)`` returns
    ``((m, w), gap_m/deg(m), gap_w/deg(w))`` where
    ``gap_v = P_v(p(v)) − P_v(partner-candidate)`` with the usual
    unmatched convention.  A pair is ε-blocking (Definition 2) iff both
    normalized gaps are ``≥ ε``; Lemmas 3–4 imply that in ASM's output
    every blocking pair touching a good man has
    ``min(gap_m, gap_w) < 2/k`` — the pairs are "shallow".
    """
    out: List[Tuple[Tuple[int, int], float, float]] = []
    for m, w in find_blocking_pairs(prefs, matching):
        gap_m = rank_or_unmatched_man(prefs, matching, m) - prefs.rank_of_woman(
            m, w
        )
        gap_w = rank_or_unmatched_woman(
            prefs, matching, w
        ) - prefs.rank_of_man(w, m)
        out.append(
            ((m, w), gap_m / prefs.deg_man(m), gap_w / prefs.deg_woman(w))
        )
    return out


@dataclass(frozen=True)
class StabilityReport:
    """A bundle of stability statistics for one matching.

    Attributes
    ----------
    matching_size:
        ``|M|`` — number of matched pairs.
    num_edges:
        ``|E|`` — number of communication-graph edges.
    blocking_pairs:
        Number of blocking pairs.
    instability:
        ``blocking_pairs / num_edges`` (0.0 when the graph is empty).
    blocking_vs_matching:
        ``blocking_pairs / matching_size`` — the Floréen et al. [3]
        metric (``inf`` when the matching is empty but pairs block).
    eps_blocking_pairs:
        Number of ε-blocking pairs for the requested ``eps`` (``None``
        when no ``eps`` was given).
    """

    matching_size: int
    num_edges: int
    blocking_pairs: int
    instability: float
    blocking_vs_matching: float
    eps_blocking_pairs: Optional[int] = None


def blocking_pair_trajectory(
    prefs: PreferenceProfile, matchings: Iterable[Matching]
) -> List[int]:
    """Blocking-pair counts along a sequence of matchings, incrementally.

    Equivalent to ``[count_blocking_pairs(prefs, M) for M in matchings]``
    but maintained by a :class:`BlockingPairIndex` diffed from one
    matching to the next: ``O(n + deg·changes)`` per step instead of a
    fresh ``O(|E|)`` scan.  The ``repro-asm bench`` index-vs-oracle
    case checks that the two count sequences agree.
    """
    index = BlockingPairIndex(prefs)
    out: List[int] = []
    for matching in matchings:
        index.update_to(matching)
        out.append(len(index))
    return out


def stability_report(
    prefs: PreferenceProfile,
    matching: Matching,
    eps: Optional[float] = None,
) -> StabilityReport:
    """Compute a :class:`StabilityReport` for ``matching``."""
    bp = count_blocking_pairs(prefs, matching)
    size = len(matching)
    if size:
        vs_matching = bp / size
    else:
        vs_matching = 0.0 if bp == 0 else float("inf")
    return StabilityReport(
        matching_size=size,
        num_edges=prefs.num_edges,
        blocking_pairs=bp,
        instability=bp / prefs.num_edges if prefs.num_edges else 0.0,
        blocking_vs_matching=vs_matching,
        eps_blocking_pairs=(
            len(find_eps_blocking_pairs(prefs, matching, eps))
            if eps is not None
            else None
        ),
    )


# Re-export of the incremental index (bottom import: repro.perf.bench
# imports this module, so a top-level import here would be circular).
from repro.perf.blocking_index import BlockingPairIndex  # noqa: E402
