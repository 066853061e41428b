"""Equivalence tests for ``repro.dynamic.index``.

The core contract: after *every* structural delta the
:class:`DynamicBlockingIndex` must agree exactly with a fresh
:class:`~repro.perf.blocking_index.BlockingPairIndex` built from a
frozen snapshot of the market — which itself is verified against the
full-scan oracle.  :meth:`DynamicBlockingIndex.verify` encodes that
double check; these tests run it after every delta of randomized
op sequences covering all eight delta kinds.
"""

from __future__ import annotations

import random

import pytest

from repro.core.preferences import PreferenceProfile
from repro.dynamic import DynamicBlockingIndex, DynamicMarket
from repro.errors import InvalidParameterError
from repro.workloads.generators import complete_uniform, gnp_incomplete
from tests.helpers import assert_freeze_both_ways


def _make(prefs):
    market = DynamicMarket(prefs)
    return market, DynamicBlockingIndex(market)


class TestConstruction:
    def test_empty_matching_all_mutual_pairs_block(self):
        prefs = complete_uniform(4, seed=0)
        _, index = _make(prefs)
        assert len(index) == prefs.num_edges
        assert index.eps() == 1.0
        index.verify()

    def test_with_initial_matching(self):
        prefs = complete_uniform(4, seed=0)
        market = DynamicMarket(prefs)
        from repro.core.asm import asm

        matching = asm(prefs, 0.5).matching
        index = DynamicBlockingIndex(market, matching)
        assert index.current_matching() == matching
        index.verify()

    def test_matching_with_non_edge_rejected(self):
        prefs = PreferenceProfile([[0]], [[0], []])
        from repro.core.matching import Matching

        with pytest.raises(InvalidParameterError):
            DynamicBlockingIndex(DynamicMarket(prefs), Matching([(0, 1)]))

    def test_empty_market_eps_zero(self):
        _, index = _make(None)
        assert index.eps() == 0.0
        index.verify()


class TestUpdateTo:
    def test_update_to_matches_partner_list_update(self):
        # The dynamic index has no frozen profile to size the diff
        # from; it must use its own (growing) partner table.
        prefs = complete_uniform(5, seed=1)
        from repro.core.asm import asm

        matching = asm(prefs, 0.5).matching
        _, via_matching = _make(prefs)
        _, via_lists = _make(prefs)
        for index in (via_matching, via_lists):
            index.add_man([0, 2], [0, 0])  # the arrival stays single
        partners = [matching.partner_of_man(m) for m in range(6)]
        changed = via_lists.update_from_partner_lists(partners)
        assert via_matching.update_to(matching) == changed > 0
        assert via_matching.current_matching() == matching
        assert via_matching.pairs() == via_lists.pairs()
        via_matching.verify()


class TestStructuralDeltas:
    def test_add_edge_reports_blocking(self):
        # both singles: a fresh mutual edge always blocks
        market, index = _make(complete_uniform(3, seed=1))
        market.remove_edge(0, 0)
        index = DynamicBlockingIndex(market)
        assert index.add_edge(0, 0, man_pos=0, woman_pos=0) is True
        index.verify()

    def test_add_edge_not_blocking_for_happy_man(self):
        # man 0 is married to his rank-1 choice; appending a new
        # last-place edge cannot block even though the woman is single
        market = DynamicMarket(
            PreferenceProfile([[1], []], [[], [0]])
        )
        index = DynamicBlockingIndex(market)
        index.satisfy(0, 1)
        assert index.add_edge(0, 0) is False
        index.verify()

    def test_remove_matched_edge_divorces(self):
        market, index = _make(complete_uniform(3, seed=2))
        index.satisfy(0, index.market.men_lists[0][0])
        w = index.man_partner(0)
        assert index.remove_edge(0, w) is True
        assert index.man_partner(0) is None
        assert index.woman_partner(w) is None
        index.verify()

    def test_remove_unmatched_edge(self):
        market, index = _make(complete_uniform(3, seed=2))
        assert index.remove_edge(1, 2) is False
        index.verify()

    def test_swap_rechecks_both_pairs(self):
        market, index = _make(complete_uniform(4, seed=3))
        for pos in range(3):
            index.swap_man_prefs(0, pos)
            index.verify()
            index.swap_woman_prefs(0, pos)
            index.verify()

    def test_arrival_rescans_new_player(self):
        market, index = _make(complete_uniform(3, seed=4))
        m = index.add_man([2, 0], [0, 3])
        assert m == 3
        index.verify()
        w = index.add_woman([0, 3], [0, 1])
        assert w == 3
        index.verify()

    def test_departure_of_matched_player(self):
        market, index = _make(complete_uniform(3, seed=5))
        index.satisfy(1, 2)
        assert index.depart_man(1) == 2
        assert index.woman_partner(2) is None
        assert all(1 not in lst for lst in market.women_lists)
        index.verify()
        assert index.depart_woman(0) is None
        index.verify()

    def test_eps_tracks_pool_and_edges(self):
        market, index = _make(complete_uniform(3, seed=6))
        assert index.eps() == pytest.approx(len(index) / market.num_edges)


class TestRandomOpSequences:
    """verify() after every delta of a random structural op mix."""

    @pytest.mark.parametrize("seed", range(4))
    def test_structural_churn(self, seed):
        prefs = gnp_incomplete(8, 0.6, seed=seed)
        market, index = _make(prefs)
        rng = random.Random(seed)
        for _ in range(60):
            op = rng.randrange(6)
            if op == 0 and market.num_edges:
                live = [m for m in range(market.n_men)
                        if market.men_lists[m]]
                m = rng.choice(live)
                w = rng.choice(market.men_lists[m])
                index.remove_edge(m, w)
            elif op == 1:
                m = rng.randrange(market.n_men)
                w = rng.randrange(market.n_women)
                if not market.has_edge(m, w):
                    index.add_edge(
                        m, w,
                        rng.randint(0, market.deg_man(m)),
                        rng.randint(0, market.deg_woman(w)),
                    )
            elif op == 2:
                swappable = [m for m in range(market.n_men)
                             if market.deg_man(m) >= 2]
                if swappable:
                    m = rng.choice(swappable)
                    index.swap_man_prefs(
                        m, rng.randrange(market.deg_man(m) - 1)
                    )
            elif op == 3:
                swappable = [w for w in range(market.n_women)
                             if market.deg_woman(w) >= 2]
                if swappable:
                    w = rng.choice(swappable)
                    index.swap_woman_prefs(
                        w, rng.randrange(market.deg_woman(w) - 1)
                    )
            elif op == 4:
                # marry a random blocking pair, if any
                pairs = index.pairs()
                if pairs:
                    index.satisfy(*rng.choice(pairs))
            else:
                m = rng.randrange(market.n_men)
                index.depart_man(m) if rng.random() < 0.5 else (
                    index.depart_woman(rng.randrange(market.n_women))
                )
            index.verify()
            assert_freeze_both_ways(market)
