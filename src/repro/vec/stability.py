"""Vectorized blocking-pair counting over a compiled profile.

:func:`repro.analysis.stability.count_blocking_pairs` walks every edge
in Python — exact, but minutes of work at |E| ≈ 10⁷.  This module
computes the same count with a handful of array gathers over a
:class:`~repro.vec.compile.VecProfile`:

an edge ``(m, w)`` blocks a matching ``μ`` iff ``m`` ranks ``w``
strictly above ``μ(m)`` *and* ``w`` ranks ``m`` strictly above
``μ(w)``, with the rank of being unmatched defined as ``deg(v) + 1``
(one past the end of the preference list).  Ranks are implicit in CSR
position — ``rank = pos - indptr[owner] + 1`` — so the whole count is
two partner-rank gathers and one boolean reduction.

The result is pinned bit-equal to the Python oracle by
``tests/test_vec_equivalence.py`` across the workload grid.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, List, Optional, Tuple

from repro.errors import InvalidMatchingError
from repro.vec import require_numpy
from repro.vec.compile import VecProfile, compile_profile

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.preferences import PreferenceProfile

try:  # numpy is optional (repro[fast]); guarded like the package init.
    import numpy as np
except ImportError:  # pragma: no cover
    np = None  # type: ignore[assignment]

__all__ = ["count_blocking_pairs_vec"]


def count_blocking_pairs_vec(
    prefs: "PreferenceProfile",
    pairs: Iterable[Tuple[int, int]],
    profile: Optional[VecProfile] = None,
) -> int:
    """Exact blocking-pair count of ``pairs`` against ``prefs``.

    Semantics match :func:`repro.analysis.stability.count_blocking_pairs`
    exactly (matched pairs can never block themselves: ``rank == rank``
    fails the strict inequality).

    Parameters
    ----------
    prefs:
        The market.
    pairs:
        The matching as ``(man, woman)`` pairs — a
        :class:`~repro.core.matching.Matching` works directly.
    profile:
        An existing compilation of ``prefs`` to reuse (any ``k``: the
        count reads positions only, never quantiles).  Defaults to the
        cached compilation with the smallest ``k``, so counting after a
        vec solve reuses the solve's arrays; ``k=1`` is compiled only
        when the profile has no compilation yet.

    Raises
    ------
    InvalidMatchingError
        If ``pairs`` is not a matching of ``prefs``: a pair that is not
        an edge (out-of-range ids included), or a man or woman in two
        pairs.  The message names the first offending pair in input
        order.
    """
    require_numpy()
    if profile is None:
        cached = [
            c for c in prefs.soa_cache().values() if isinstance(c, VecProfile)
        ]
        if cached:
            profile = min(cached, key=lambda c: c.k)
        else:
            profile = compile_profile(prefs, 1)
    p = profile

    # Partner rank per vertex, with "unmatched" = degree + 1.
    m_partner_rank = p.m_degree + 1
    w_partner_rank = p.w_degree + 1
    pair_list = list(pairs)
    if pair_list:
        men = np.fromiter(
            (m for m, _ in pair_list), dtype=np.int64, count=len(pair_list)
        )
        women = np.fromiter(
            (w for _, w in pair_list), dtype=np.int64, count=len(pair_list)
        )
        mpos = p.pair_position(men, women)
        # bincount runs only once every id is known to be in range.
        if (
            (mpos < 0).any()
            or np.bincount(men).max() > 1
            or np.bincount(women).max() > 1
        ):
            _raise_first_invalid(prefs, pair_list, mpos.tolist())
        m_partner_rank = m_partner_rank.copy()
        w_partner_rank = w_partner_rank.copy()
        m_partner_rank[men] = mpos - p.m_indptr[men] + 1
        wpos = p.m2w_pos[mpos]
        w_partner_rank[women] = wpos - p.w_indptr[women] + 1

    if not p.num_edges:
        return 0
    e = np.arange(p.num_edges, dtype=np.int64)
    m_rank = e - p.m_indptr[p.m_owner] + 1
    wpos_all = p.m2w_pos
    w_rank = wpos_all - p.w_indptr[p.m_woman] + 1
    blocking = (m_rank < m_partner_rank[p.m_owner]) & (
        w_rank < w_partner_rank[p.m_woman]
    )
    return int(blocking.sum())


def _raise_first_invalid(
    prefs: "PreferenceProfile",
    pair_list: List[Tuple[int, int]],
    mpos: List[int],
) -> None:
    """Raise :class:`InvalidMatchingError` for the first pair of
    ``pair_list`` (in input order) that breaks the matching."""
    men, women = set(), set()
    for (m, w), pos in zip(pair_list, mpos):
        if not (0 <= m < prefs.n_men and 0 <= w < prefs.n_women):
            raise InvalidMatchingError(
                f"pair ({m}, {w}) is out of range for {prefs!r}"
            )
        if pos < 0:
            raise InvalidMatchingError(
                f"pair ({m}, {w}) is not an edge: "
                f"woman {w} is unacceptable to man {m}"
            )
        if m in men:
            raise InvalidMatchingError(
                f"pair ({m}, {w}): man {m} is matched more than once"
            )
        if w in women:
            raise InvalidMatchingError(
                f"pair ({m}, {w}): woman {w} is matched more than once"
            )
        men.add(m)
        women.add(w)
