"""Tests for the mutable market state (``repro.dynamic.market``).

Every mutation must keep the four structures mutually consistent
(integer ids, symmetry, duplicate-free lists, rank = position + 1).
:meth:`DynamicMarket.freeze` adopts the lists without re-checking
them, so the mutators refuse bad input before touching any list and
:meth:`DynamicMarket.verify` is how the invariants are audited.
"""

from __future__ import annotations

import pytest

from repro.core.preferences import PreferenceProfile
from repro.dynamic import DynamicBlockingIndex, DynamicMarket
from repro.errors import InvalidParameterError, InvalidPreferencesError
from repro.workloads.generators import complete_uniform, gnp_incomplete


def _assert_consistent(market: DynamicMarket) -> None:
    """Symmetry + rank-table invariants, via the market's own audit."""
    market.verify()
    assert market.freeze().num_edges == market.num_edges


def _state(market: DynamicMarket):
    """Everything a failed edit must leave untouched."""
    return (
        [list(lst) for lst in market.men_lists],
        [list(lst) for lst in market.women_lists],
        [dict(rank) for rank in market.men_rank],
        [dict(rank) for rank in market.women_rank],
        market.num_edges,
    )


class TestConstruction:
    def test_empty(self):
        market = DynamicMarket()
        assert market.n_men == market.n_women == market.num_edges == 0
        assert market.freeze().num_edges == 0

    def test_from_profile_copies(self):
        prefs = complete_uniform(5, seed=1)
        market = DynamicMarket(prefs)
        market.remove_edge(0, market.men_lists[0][0])
        # the source profile is untouched
        assert prefs.num_edges == 25
        assert market.num_edges == 24
        _assert_consistent(market)

    def test_freeze_round_trip(self):
        prefs = gnp_incomplete(8, 0.5, seed=3)
        frozen = DynamicMarket(prefs).freeze()
        assert frozen == prefs


class TestEdgeDeltas:
    def test_add_edge_positions(self):
        market = DynamicMarket(
            PreferenceProfile([[0, 1], [1]], [[0], [1, 0]])
        )
        market.add_edge(1, 0, man_pos=0, woman_pos=1)
        assert market.men_lists[1] == [0, 1]
        assert market.women_lists[0] == [0, 1]
        assert market.num_edges == 4
        _assert_consistent(market)

    def test_add_edge_appends_by_default(self):
        market = DynamicMarket(PreferenceProfile([[0]], [[0], []]))
        market.add_edge(0, 1)
        assert market.men_lists[0] == [0, 1]
        assert market.women_lists[1] == [0]
        _assert_consistent(market)

    def test_add_duplicate_edge_rejected(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        with pytest.raises(InvalidPreferencesError):
            market.add_edge(0, market.men_lists[0][0])

    def test_add_edge_position_out_of_range(self):
        market = DynamicMarket(PreferenceProfile([[0]], [[0], []]))
        with pytest.raises(InvalidParameterError):
            market.add_edge(0, 1, man_pos=5)

    def test_remove_edge(self):
        market = DynamicMarket(complete_uniform(4, seed=2))
        w = market.men_lists[1][2]
        market.remove_edge(1, w)
        assert w not in market.men_rank[1]
        assert 1 not in market.women_rank[w]
        assert market.num_edges == 15
        _assert_consistent(market)

    def test_remove_missing_edge_rejected(self):
        market = DynamicMarket(PreferenceProfile([[0]], [[0], []]))
        with pytest.raises(InvalidPreferencesError):
            market.remove_edge(0, 1)

    def test_player_out_of_range(self):
        market = DynamicMarket(complete_uniform(2, seed=0))
        with pytest.raises(InvalidParameterError):
            market.add_edge(5, 0)
        with pytest.raises(InvalidParameterError):
            market.remove_edge(0, -1)


class TestSwaps:
    def test_swap_man_adjacent(self):
        market = DynamicMarket(PreferenceProfile(
            [[0, 1, 2]], [[0], [0], [0]]
        ))
        up, down = market.swap_man_adjacent(0, 1)
        assert market.men_lists[0] == [0, 2, 1]
        assert (up, down) == (2, 1)
        assert market.men_rank[0] == {0: 1, 2: 2, 1: 3}
        _assert_consistent(market)

    def test_swap_woman_adjacent(self):
        market = DynamicMarket(PreferenceProfile(
            [[0], [0], [0]], [[0, 1, 2]]
        ))
        up, down = market.swap_woman_adjacent(0, 0)
        assert market.women_lists[0] == [1, 0, 2]
        assert (up, down) == (1, 0)
        _assert_consistent(market)

    def test_swap_position_out_of_range(self):
        market = DynamicMarket(PreferenceProfile([[0]], [[0]]))
        with pytest.raises(InvalidParameterError):
            market.swap_man_adjacent(0, 0)  # deg 1: nothing to swap
        with pytest.raises(InvalidParameterError):
            market.swap_woman_adjacent(0, -1)


class TestArrivalsDepartures:
    def test_add_man(self):
        market = DynamicMarket(complete_uniform(3, seed=1))
        m = market.add_man([2, 0], [0, 3])
        assert m == 3
        assert market.men_lists[3] == [2, 0]
        assert market.women_lists[2][0] == 3
        assert market.women_lists[0][3] == 3
        assert market.num_edges == 11
        _assert_consistent(market)

    def test_add_woman(self):
        market = DynamicMarket(complete_uniform(3, seed=1))
        w = market.add_woman([1], [1])
        assert w == 3
        assert market.men_lists[1][1] == 3
        _assert_consistent(market)

    def test_arrival_validation_is_atomic(self):
        market = DynamicMarket(complete_uniform(3, seed=1))
        before = market.freeze()
        with pytest.raises(InvalidPreferencesError):
            market.add_man([0, 0], [0, 0])  # duplicate entry
        with pytest.raises(InvalidParameterError):
            market.add_man([0, 1], [0])  # length mismatch
        with pytest.raises(InvalidParameterError):
            market.add_man([0], [99])  # position out of range
        # nothing was mutated by the failed arrivals
        assert market.freeze() == before
        assert market.n_men == 3

    def test_departure_tombstones(self):
        market = DynamicMarket(complete_uniform(4, seed=5))
        women = market.clear_man(2)
        assert sorted(women) == [0, 1, 2, 3]
        assert market.n_men == 4  # index retained
        assert market.men_lists[2] == []
        assert all(2 not in lst for lst in market.women_lists)
        assert market.num_edges == 12
        _assert_consistent(market)

    def test_departed_player_can_be_reconnected(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        market.clear_woman(1)
        market.add_edge(0, 1)
        assert market.women_lists[1] == [0]
        _assert_consistent(market)


class TestEditTimeValidation:
    """Bad ids and positions are refused before any list changes."""

    BAD = [True, False, 1.0, 1.5, "1", None]

    @pytest.mark.parametrize("bad", BAD)
    def test_player_ids_refused(self, bad):
        market = DynamicMarket(gnp_incomplete(6, 0.5, seed=2))
        before = _state(market)
        edits = [
            lambda: market.add_edge(bad, 0),
            lambda: market.add_edge(0, bad),
            lambda: market.remove_edge(bad, 0),
            lambda: market.remove_edge(0, bad),
            lambda: market.swap_man_adjacent(bad, 0),
            lambda: market.swap_woman_adjacent(bad, 0),
            lambda: market.clear_man(bad),
            lambda: market.clear_woman(bad),
            lambda: market.add_man([0, bad], [0, 0]),
            lambda: market.add_woman([bad], [0]),
        ]
        for edit in edits:
            with pytest.raises(InvalidParameterError):
                edit()
            assert _state(market) == before
        market.verify()

    @pytest.mark.parametrize("bad", [True, 1.0, 1.5, "0"])
    def test_positions_refused(self, bad):
        market = DynamicMarket(complete_uniform(3, seed=1))
        market.remove_edge(0, 2)  # so that (0, 2) can be added back
        before = _state(market)
        edits = [
            lambda: market.add_edge(0, 2, man_pos=bad),
            lambda: market.add_edge(0, 2, woman_pos=bad),
            lambda: market.swap_man_adjacent(1, bad),
            lambda: market.swap_woman_adjacent(1, bad),
            lambda: market.add_man([0, 1], [0, bad]),
            lambda: market.add_woman([2], [bad]),
        ]
        for edit in edits:
            with pytest.raises(InvalidParameterError):
                edit()
            assert _state(market) == before
        market.verify()

    @pytest.mark.parametrize("bad", BAD)
    def test_has_edge_refuses_non_integer_ids(self, bad):
        market = DynamicMarket(complete_uniform(3, seed=1))
        for probe in (lambda: market.has_edge(bad, 1),
                      lambda: market.has_edge(1, bad)):
            with pytest.raises(InvalidParameterError):
                probe()
        assert market.has_edge(1, 1)
        for m, w in ((-1, 0), (3, 0), (0, -1), (0, 3)):
            assert market.has_edge(m, w) is False

    def test_bool_edge_not_written(self):
        market = DynamicMarket(PreferenceProfile([[0], [1]], [[0], [1]]))
        with pytest.raises(InvalidParameterError):
            market.add_edge(True, 0)
        assert market.women_lists[0] == [0]
        market.verify()

    def test_failed_arrival_leaves_market_intact(self):
        market = DynamicMarket(complete_uniform(3, seed=1))
        before = _state(market)
        with pytest.raises(InvalidParameterError):
            market.add_man([0, 1], [0, 1.5])
        assert _state(market) == before
        assert market.n_men == 3
        market.verify()

    def test_integer_likes_stored_as_int(self):
        np = pytest.importorskip("numpy")
        market = DynamicMarket(complete_uniform(3, seed=1))
        market.remove_edge(np.int64(0), np.int64(2))
        market.add_edge(np.int64(0), np.int64(2), np.int64(0), np.int64(1))
        m = market.add_man([np.int64(1)], [np.int64(0)])
        assert type(market.men_lists[m][0]) is int
        assert all(
            type(u) is int for lst in market.women_lists for u in lst
        )
        _assert_consistent(market)

    def test_index_refuses_before_touching_partners(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        index = DynamicBlockingIndex(market)
        index.satisfy(1, market.men_lists[1][0])
        partners = [index.man_partner(m) for m in range(3)]
        for edit in (
            lambda: index.remove_edge(True, partners[1]),
            lambda: index.depart_man(True),
            lambda: index.depart_woman(True),
        ):
            with pytest.raises(InvalidParameterError):
                edit()
        assert [index.man_partner(m) for m in range(3)] == partners
        index.verify()


class TestVerify:
    """verify() keeps the full validation that freeze() skips."""

    def test_clean_market_passes(self):
        market = DynamicMarket(gnp_incomplete(8, 0.5, seed=4))
        market.add_man([0, 3], [0, 0])
        market.verify()

    def test_asymmetric_lists_refused(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        market.women_lists[0].remove(1)  # bypasses the mutators
        with pytest.raises(InvalidPreferencesError, match="asymmetric"):
            market.verify()

    def test_bool_id_refused(self):
        market = DynamicMarket(PreferenceProfile([[0], [1]], [[0], [1]]))
        market.women_lists[1][0] = True  # what add_edge used to write
        with pytest.raises(InvalidPreferencesError, match="non-integer"):
            market.verify()

    def test_stale_rank_table_refused(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        market.men_lists[0].reverse()
        with pytest.raises(AssertionError, match="rank table"):
            market.verify()

    def test_edge_count_drift_refused(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        market._num_edges += 1
        with pytest.raises(AssertionError, match="num_edges"):
            market.verify()

    def test_index_verify_audits_market(self):
        market = DynamicMarket(complete_uniform(3, seed=0))
        index = DynamicBlockingIndex(market)
        market.men_rank[2][market.men_lists[2][0]] = 9
        with pytest.raises(AssertionError, match="rank table"):
            index.verify()

    def test_freeze_adopts_without_revalidating(self, monkeypatch):
        market = DynamicMarket(gnp_incomplete(6, 0.5, seed=1))

        def refuse(*args, **kwargs):
            raise AssertionError("freeze() ran the validating constructor")

        expected = PreferenceProfile(market.men_lists, market.women_lists)
        monkeypatch.setattr(PreferenceProfile, "__init__", refuse)
        assert market.freeze() == expected
