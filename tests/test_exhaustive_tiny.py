"""Exhaustive verification on tiny instances.

For n = 2 the space of complete preference profiles is tiny
((2!)⁴ = 16); we check every one.  For n = 3 ((3!)⁶ = 46 656) we check
a deterministic sample, and for 2×2 incomplete markets we enumerate
every symmetric acceptability structure with every ranking.  These
exhaustive sweeps catch corner cases random generators rarely hit
(empty lists, ties in quantiles, single-suitor women, etc.).
"""

from __future__ import annotations

import itertools

import pytest

from repro.analysis.stability import (
    BlockingPairIndex,
    count_blocking_pairs,
    find_blocking_pairs,
    is_stable,
    rank_or_unmatched_man,
    rank_or_unmatched_woman,
)
from repro.baselines.gale_shapley import gale_shapley, parallel_gale_shapley
from repro.core.asm import asm
from repro.core.matching import Matching
from repro.core.preferences import PreferenceProfile
from tests.reference_asm import reference_asm


def all_complete_profiles(n: int):
    """Every complete profile on n men / n women."""
    orders = list(itertools.permutations(range(n)))
    for men in itertools.product(orders, repeat=n):
        for women in itertools.product(orders, repeat=n):
            yield PreferenceProfile(men, women)


def sampled_complete_profiles(n: int, stride: int):
    """A deterministic stride-sample of the complete-profile space."""
    for i, prefs in enumerate(all_complete_profiles(n)):
        if i % stride == 0:
            yield prefs


class TestExhaustiveN2:
    def test_gale_shapley_stable_on_all_16(self):
        count = 0
        for prefs in all_complete_profiles(2):
            result = gale_shapley(prefs)
            assert is_stable(prefs, result.matching)
            assert len(result.matching) == 2
            count += 1
        assert count == 16

    def test_parallel_gs_equals_sequential_on_all_16(self):
        for prefs in all_complete_profiles(2):
            assert (
                parallel_gale_shapley(prefs).matching
                == gale_shapley(prefs).matching
            )

    @pytest.mark.parametrize("eps", [0.3, 1.0])
    def test_asm_theorem3_on_all_16(self, eps):
        for prefs in all_complete_profiles(2):
            run = asm(prefs, eps, check_invariants=True)
            run.matching.validate_against(prefs)
            assert count_blocking_pairs(prefs, run.matching) <= (
                eps * prefs.num_edges
            )


class TestSampledN3:
    def test_asm_theorem3_on_sampled_n3(self):
        eps = 0.5
        checked = 0
        for prefs in sampled_complete_profiles(3, stride=997):
            run = asm(prefs, eps, check_invariants=True)
            assert count_blocking_pairs(prefs, run.matching) <= (
                eps * prefs.num_edges
            )
            checked += 1
        assert checked >= 40

    def test_gs_stable_on_sampled_n3(self):
        for prefs in sampled_complete_profiles(3, stride=1499):
            assert is_stable(prefs, gale_shapley(prefs).matching)


def all_incomplete_2x2_profiles():
    """Every symmetric 2x2 market: each of the 4 potential edges is
    present or absent, and each player orders their acceptable set."""
    edges_all = [(0, 0), (0, 1), (1, 0), (1, 1)]
    for mask in range(16):
        edges = [e for i, e in enumerate(edges_all) if mask >> i & 1]
        men_sets = [
            sorted(w for (m, w) in edges if m == mm) for mm in range(2)
        ]
        women_sets = [
            sorted(m for (m, w) in edges if w == ww) for ww in range(2)
        ]
        men_orders = [
            list(itertools.permutations(s)) for s in men_sets
        ]
        women_orders = [
            list(itertools.permutations(s)) for s in women_sets
        ]
        for m0 in men_orders[0]:
            for m1 in men_orders[1]:
                for w0 in women_orders[0]:
                    for w1 in women_orders[1]:
                        yield PreferenceProfile([m0, m1], [w0, w1])


class TestExhaustiveIncomplete2x2:
    def test_space_size_and_distinctness(self):
        profiles = list(all_incomplete_2x2_profiles())
        # Sum over the 16 edge masks of prod(|acceptable set|!) per
        # player = sum of 2^(players with degree 2):
        # 16 (full) + 4*4 (3 edges) + (4*2 + 2*1) (2 edges) + 4 + 1 = 47.
        assert len(profiles) == 47
        assert len(set(profiles)) == 47  # all distinct (hashable)

    def test_gs_stable_on_every_incomplete_2x2(self):
        for prefs in all_incomplete_2x2_profiles():
            result = gale_shapley(prefs)
            result.matching.validate_against(prefs)
            assert is_stable(prefs, result.matching)

    def test_asm_theorem3_on_every_incomplete_2x2(self):
        for prefs in all_incomplete_2x2_profiles():
            run = asm(prefs, 0.5, check_invariants=True)
            run.matching.validate_against(prefs)
            assert count_blocking_pairs(prefs, run.matching) <= (
                0.5 * prefs.num_edges
            )

    def test_asm_exact_when_eps_tiny_on_2x2(self):
        """With eps tiny, k is huge (singleton quantiles): ASM finds an
        exactly stable matching on every 2x2 instance."""
        for prefs in all_incomplete_2x2_profiles():
            run = asm(prefs, 0.01, check_invariants=True)
            assert is_stable(prefs, run.matching)


def all_incomplete_profiles(n_men: int, n_women: int):
    """Every market on ``n_men × n_women``: each potential edge present
    or absent, each player ordering their acceptable set every way.

    Generalizes :func:`all_incomplete_2x2_profiles` to asymmetric
    markets, where ``deg(m)`` and ``deg(w)`` differ across the two
    sides and the ``P_v(∅) = deg(v) + 1`` convention must use each
    player's *own* degree.
    """
    edges_all = [
        (m, w) for m in range(n_men) for w in range(n_women)
    ]
    for mask in range(1 << len(edges_all)):
        edges = [e for i, e in enumerate(edges_all) if mask >> i & 1]
        men_sets = [
            sorted(w for (m, w) in edges if m == mm) for mm in range(n_men)
        ]
        women_sets = [
            sorted(m for (m, w) in edges if w == ww) for ww in range(n_women)
        ]
        for men in itertools.product(
            *(itertools.permutations(s) for s in men_sets)
        ):
            for women in itertools.product(
                *(itertools.permutations(s) for s in women_sets)
            ):
                yield PreferenceProfile(list(men), list(women))


def all_matchings(prefs: PreferenceProfile):
    """Every matching of ``prefs`` (subsets of edges, no shared player)."""
    edges = sorted(prefs.edges())
    for r in range(len(edges) + 1):
        for subset in itertools.combinations(edges, r):
            men = [m for m, _ in subset]
            women = [w for _, w in subset]
            if len(set(men)) == len(men) and len(set(women)) == len(women):
                yield Matching(subset)


class TestExhaustiveAsymmetric2x3:
    """Asymmetric-degree regressions (satellite audit of the rank
    conventions): the 2-men × 3-women space exercises every combination
    of unequal side sizes, empty lists, and isolated players."""

    def test_rank_convention_uses_own_degree(self):
        for prefs in all_incomplete_profiles(2, 3):
            empty = Matching()
            for m in range(prefs.n_men):
                assert rank_or_unmatched_man(prefs, empty, m) == (
                    prefs.deg_man(m) + 1
                )
            for w in range(prefs.n_women):
                assert rank_or_unmatched_woman(prefs, empty, w) == (
                    prefs.deg_woman(w) + 1
                )

    def test_asm_theorem3_and_engine_equivalence_on_2x3(self):
        eps = 0.5
        checked = 0
        for prefs in all_incomplete_profiles(2, 3):
            fast = asm(prefs, eps, check_invariants=True)
            reference = reference_asm(prefs, eps)
            assert fast == reference
            fast.matching.validate_against(prefs)
            assert count_blocking_pairs(prefs, fast.matching) <= (
                eps * prefs.num_edges
            )
            checked += 1
        # sum over the 64 edge masks of prod(deg!) per player
        assert checked == 847  # the sweep really enumerated the space

    def test_index_agrees_with_oracle_on_every_2x3_matching(self):
        for prefs in all_incomplete_profiles(2, 3):
            index = BlockingPairIndex(prefs)
            for matching in all_matchings(prefs):
                index.update_to(matching)
                assert index.pairs() == sorted(
                    find_blocking_pairs(prefs, matching)
                )

    def test_gs_stable_on_every_2x3(self):
        for prefs in all_incomplete_profiles(2, 3):
            result = gale_shapley(prefs)
            result.matching.validate_against(prefs)
            assert is_stable(prefs, result.matching)