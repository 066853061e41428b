"""Non-fixture helpers shared across test modules."""

from __future__ import annotations

import itertools
from typing import List, Optional

from repro.analysis.stability import count_blocking_pairs
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from repro.vec import HAS_NUMPY

#: The compiled arrays a vec solve reads, compared by
#: :func:`assert_freeze_both_ways`.
_VEC_ARRAYS = (
    "m_indptr", "m_woman", "m_owner", "m_quant",
    "w_indptr", "w_man", "w_owner", "w_quant",
    "m2w_pos", "w2m_pos", "wq_of_edge",
)


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
