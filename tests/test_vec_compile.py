"""The one-key CSR alignment of :class:`VecProfile` ≡ the lexsort it replaced.

``VecProfile.__init__`` aligns the men's and women's CSR views of each
edge by sorting both sides by (woman, man).  The seed implementation
did that with two ``np.lexsort`` calls; it is kept here as
:func:`lexsort_alignment`, a test-only oracle in the manner of
:mod:`tests.reference_asm`.  The product argsorts one packed key,
``woman * n_men + man``, per side, and must give exactly the oracle's
cross-position maps on every market of the grid — including
``n_men != n_women`` (a wrong key multiplier would collide keys there),
players with empty lists, and profiles without a single edge.  The
same grid pins the quantile formulas a step reads in place of per-edge
tables: at every position :func:`~repro.core.quantile.offset_quantile`
is :func:`~repro.core.quantile.quantile_index`, and
:func:`~repro.core.quantile.quantile_run` brackets each quantile.

Also pins that the vectorized stability counter reuses a cached
compilation instead of compiling its own, and that the whole vec flow
reads the profile's flat buffers: the compilation adopts them as
read-only views and no step builds the profile's per-player tuples or
rank dicts.

Skipped as a whole when numpy is absent.
"""

from __future__ import annotations

import pytest

from repro.vec import HAS_NUMPY

if not HAS_NUMPY:
    pytest.skip(
        "numpy not installed (repro[fast] extra)", allow_module_level=True
    )

import numpy as np  # noqa: E402

from repro.analysis.stability import count_blocking_pairs  # noqa: E402
from repro.core.asm import asm  # noqa: E402
from repro.core.preferences import PreferenceProfile  # noqa: E402
from repro.core.quantile import (  # noqa: E402
    offset_quantile,
    quantile_index,
    quantile_run,
)
from repro.vec.compile import VecProfile, compile_profile  # noqa: E402
from repro.vec.stability import count_blocking_pairs_vec  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    almost_regular,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
    master_list,
)


def _w_owner(p: VecProfile):
    """The woman owning each woman-side position."""
    return np.repeat(np.arange(p.n_women, dtype=np.int64), p.w_degree)


def lexsort_alignment(p: VecProfile):
    """``(m2w_pos, w2m_pos)`` by lexsort.

    The seed alignment: sort both CSR views by (woman, man); matching
    sort positions are the same edge.
    """
    e = p.num_edges
    order_m = np.lexsort((p.m_owner, p.m_woman))
    order_w = np.lexsort((p.w_man, _w_owner(p)))
    m2w_pos = np.empty(e, dtype=np.int64)
    w2m_pos = np.empty(e, dtype=np.int64)
    m2w_pos[order_m] = order_w
    w2m_pos[order_w] = order_m
    return m2w_pos, w2m_pos


MARKETS = [
    ("bounded", lambda: bounded_degree(30, 5, seed=1)),
    ("complete", lambda: complete_uniform(12, seed=2)),
    ("gnp", lambda: gnp_incomplete(25, 0.2, seed=3)),
    ("master_list", lambda: master_list(12, 0.1, seed=4)),
    ("almost_regular", lambda: almost_regular(24, 2, 6, seed=5)),
    ("complete_more_women", lambda: complete_uniform(7, seed=6, n_women=11)),
    ("gnp_more_men", lambda: gnp_incomplete(19, 0.3, seed=7, n_women=6)),
    ("gnp_sparse", lambda: gnp_incomplete(20, 0.05, seed=8, n_women=13)),
    (
        "empty_lists",
        lambda: PreferenceProfile(
            [[2, 0], [], [0], []], [[2, 0], [], [0], [], []]
        ),
    ),
    ("no_edges", lambda: PreferenceProfile([[], []], [[], [], []])),
    ("no_players", lambda: PreferenceProfile([], [])),
]


@pytest.mark.parametrize("k", [1, 3, 16])
@pytest.mark.parametrize("name,build", MARKETS, ids=[m[0] for m in MARKETS])
class TestAlignment:
    def test_matches_lexsort_oracle(self, name, build, k):
        p = VecProfile(build(), k)
        m2w_pos, w2m_pos = lexsort_alignment(p)
        assert np.array_equal(p.m2w_pos, m2w_pos)
        assert np.array_equal(p.w2m_pos, w2m_pos)

    def test_quantile_runs_by_arithmetic(self, name, build, k):
        """Step 4's run start and activation's run end, both from
        :func:`quantile_run`, bracket exactly the positions of each
        quantile, found by a plain walk over :func:`quantile_index`."""
        p = VecProfile(build(), k)
        for degree in (p.w_degree, p.m_degree):
            for deg in degree.tolist():
                quant = [quantile_index(r, deg, k) for r in range(1, deg + 1)]
                for off, q in enumerate(quant):
                    assert offset_quantile(off, deg, k) == q
                    run = [r for r in range(deg) if quant[r] == q]
                    assert quantile_run(q, deg, k) == (run[0], run[-1] + 1)

    def test_invariants(self, name, build, k):
        p = VecProfile(build(), k)
        e = p.num_edges
        assert np.array_equal(p.w2m_pos[p.m2w_pos], np.arange(e))
        assert np.array_equal(p.w_man[p.m2w_pos], p.m_owner)
        assert np.array_equal(_w_owner(p)[p.m2w_pos], p.m_woman)
        assert np.array_equal(
            p.m_owner, np.repeat(np.arange(p.n_men), p.m_degree)
        )

    def test_csr_views_follow_the_lists(self, name, build, k):
        prefs = build()
        p = VecProfile(prefs, k)
        sides = (
            (p.m_indptr, p.m_woman, p.m_degree, prefs.men_lists()),
            (p.w_indptr, p.w_man, p.w_degree, prefs.women_lists()),
        )
        for indptr, targets, degree, lists in sides:
            assert len(indptr) == len(lists) + 1
            for v, lst in enumerate(lists):
                lo, hi = int(indptr[v]), int(indptr[v + 1])
                assert targets[lo:hi].tolist() == list(lst)
                assert int(degree[v]) == len(lst)
                # The quantiles a step reads from these positions.
                offsets = np.arange(hi - lo, dtype=np.int64)
                assert offset_quantile(offsets, len(lst), k).tolist() == [
                    quantile_index(r, len(lst), k)
                    for r in range(1, len(lst) + 1)
                ]


class TestStabilityReusesCompilation:
    def test_count_after_solve_compiles_nothing(self):
        prefs = bounded_degree(40, 5, seed=9)
        result = asm(prefs, 0.5, optimized="vec")
        assert list(prefs.soa_cache()) == [16]
        count_blocking_pairs_vec(prefs, result.matching.pairs())
        assert list(prefs.soa_cache()) == [16]

    def test_any_cached_k_gives_the_oracle_count(self):
        prefs = gnp_incomplete(14, 0.4, seed=10)
        result = asm(prefs, 0.5, optimized="vec")
        expected = count_blocking_pairs(prefs, result.matching)
        for k in (8, 3):
            compile_profile(prefs, k)
            assert count_blocking_pairs_vec(
                prefs, result.matching.pairs()
            ) == expected
        assert sorted(prefs.soa_cache()) == [3, 8, 16]

    def test_empty_cache_compiles_k1(self):
        prefs = complete_uniform(5, seed=11)
        count_blocking_pairs_vec(prefs, [(0, 0)])
        assert list(prefs.soa_cache()) == [1]

    def test_non_compilation_entries_are_ignored(self):
        prefs = complete_uniform(5, seed=12)
        prefs.soa_cache()[4] = "garbage"  # not a VecProfile
        count_blocking_pairs_vec(prefs, [(0, 0)])
        assert sorted(prefs.soa_cache()) == [1, 4]


class TestVecFlowStaysFlat:
    def test_flow_never_builds_the_per_player_view(self):
        prefs = bounded_degree(200, 6, seed=13)
        compiled = compile_profile(prefs, 16)
        result = asm(prefs, 0.5, optimized="vec")
        count_blocking_pairs_vec(prefs, result.matching.pairs(), compiled)
        result.matching.validate_against(prefs)
        assert prefs._view is None
        # The attribute is the view's cache: asking for ranks fills it.
        prefs.men_rank_tables()
        assert prefs._view is not None

    @pytest.mark.parametrize(
        "name,build", MARKETS, ids=[m[0] for m in MARKETS]
    )
    def test_csr_arrays_are_the_profiles_buffers(self, name, build):
        prefs = build()
        p = VecProfile(prefs, 4)
        pairs = (
            (p.m_indptr, prefs.men_csr()[0]),
            (p.m_woman, prefs.men_csr()[1]),
            (p.w_indptr, prefs.women_csr()[0]),
            (p.w_man, prefs.women_csr()[1]),
        )
        for adopted, buf in pairs:
            assert adopted.dtype == np.int64
            assert not adopted.flags.writeable
            assert adopted.tolist() == buf.tolist()
            if len(buf):
                assert np.shares_memory(
                    adopted, np.frombuffer(buf, dtype=np.int64)
                )
