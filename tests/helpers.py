"""Non-fixture helpers shared across test modules."""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.analysis.stability import count_blocking_pairs
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.core.quantile import offset_quantile
from repro.vec import HAS_NUMPY

#: The compiled arrays a vec solve reads, compared by
#: :func:`assert_freeze_both_ways`.
_VEC_ARRAYS = (
    "m_indptr", "m_woman", "m_owner", "m_degree",
    "w_indptr", "w_man", "w_degree",
    "m2w_pos", "w2m_pos",
)


#: Lemma 1's hand-made offence, built on both backends (the
#: ``TestTradeUpCheck`` classes of ``tests/test_asm_engine.py`` and
#: ``tests/test_vec_pointers.py``).  Three men and three women rank
#: each other in id order, with k = 3, so every rank is its own
#: quantile.  ``TRADE_UP_SEATS`` seats woman 0 with man 0 and woman 1
#: with man 1 as ``(man, woman)`` pairs.  The M0 pairs re-match woman 0
#: to her own partner and woman 1 to a worse man than hers, so both
#: offend; Step 4 names the first offender in M0 order, which
#: ``TRADE_UP_CASES`` gives per order of ``TRADE_UP_M0``.
TRADE_UP_LISTS = ([[0, 1, 2]] * 3, [[0, 1, 2]] * 3)
TRADE_UP_SEATS = ((0, 0), (1, 1))
TRADE_UP_M0 = ((0, 0), (2, 1))
TRADE_UP_CASES = [
    ((0, 1), "woman 0 traded up to man 0 but did not reject "
             "previous partner 0"),
    ((1, 0), "woman 1 traded up to man 2 but did not reject "
             "previous partner 1"),
]


def position_quantiles(indptr, degree, k):
    """Each CSR position's quantile on its owner's list, as one table,
    by :func:`offset_quantile` over int64 arrays (``indptr`` and
    ``degree`` of one side; needs numpy)."""
    import numpy as np

    base = np.repeat(indptr[:-1], degree)
    deg = np.repeat(degree, degree)
    return offset_quantile(np.arange(int(indptr[-1])) - base, deg, k)


def artifact_fault_records(artifact) -> List[dict]:
    """The ``fault`` events of a ``--metrics-out`` artifact without
    their event fields (``kind``, ``seq``, ``t``): the injector's
    records, as a golden fault trace holds them."""
    return [
        {k: v for k, v in event.items() if k not in ("kind", "seq", "t")}
        for event in artifact["metrics"]["events"]
        if event["kind"] == "fault"
    ]


def all_perfect_matchings(n: int):
    """Yield every perfect matching of an n x n complete instance."""
    for perm in itertools.permutations(range(n)):
        yield Matching((m, perm[m]) for m in range(n))


def enumerate_stable_matchings(prefs: PreferenceProfile) -> List[Matching]:
    """Brute-force all stable matchings of a small *complete* instance.

    For complete preferences every stable matching is perfect, so
    enumerating permutations suffices.
    """
    assert prefs.is_complete() and prefs.n_men == prefs.n_women
    out = []
    for matching in all_perfect_matchings(prefs.n_men):
        if count_blocking_pairs(prefs, matching) == 0:
            out.append(matching)
    return out


def man_rank_of_partner(
    prefs: PreferenceProfile, matching: Matching, m: int
) -> Optional[int]:
    """Man m's rank of his partner, or None if unmatched."""
    w = matching.partner_of_man(m)
    if w is None:
        return None
    return prefs.rank_of_woman(m, w)


def assert_freeze_both_ways(market) -> None:
    """``market.freeze()`` equals the validating constructor's profile.

    ``freeze()`` adopts the market's CSR copy without re-validating it;
    the same lists through ``PreferenceProfile(...)`` must give equal
    profiles, buffers and dicts, and (with numpy) identical vec
    compilations.
    """
    adopted = market.freeze()
    checked = PreferenceProfile(market.men_lists, market.women_lists)
    assert adopted == checked
    assert adopted.men_csr() == checked.men_csr()
    assert adopted.women_csr() == checked.women_csr()
    assert all(
        buf.typecode == "q" for buf in adopted.men_csr() + adopted.women_csr()
    )
    assert adopted.to_dict() == checked.to_dict()
    if HAS_NUMPY:
        import numpy as np

        from repro.vec.compile import compile_profile

        mine, theirs = compile_profile(adopted, 4), compile_profile(checked, 4)
        for name in _VEC_ARRAYS:
            np.testing.assert_array_equal(
                getattr(mine, name), getattr(theirs, name), err_msg=name
            )
