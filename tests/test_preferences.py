"""Unit tests for repro.core.preferences."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidPreferencesError
from repro.workloads.generators import complete_uniform, gnp_incomplete


class TestConstruction:
    def test_basic_profile(self):
        prefs = PreferenceProfile([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        assert prefs.n_men == 2
        assert prefs.n_women == 2
        assert prefs.n_players == 4
        assert prefs.num_edges == 4

    def test_empty_profile(self):
        prefs = PreferenceProfile([], [])
        assert prefs.n_men == 0
        assert prefs.num_edges == 0
        assert prefs.edges() == frozenset()

    def test_empty_lists_allowed(self):
        prefs = PreferenceProfile([[], [0]], [[1]])
        assert prefs.deg_man(0) == 0
        assert prefs.deg_man(1) == 1
        assert prefs.num_edges == 1

    def test_unequal_sides(self):
        prefs = PreferenceProfile([[0], [0]], [[0, 1]])
        assert prefs.n_men == 2
        assert prefs.n_women == 1

    def test_duplicate_in_list_rejected(self):
        with pytest.raises(InvalidPreferencesError, match="more than once"):
            PreferenceProfile([[0, 0]], [[0]])

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidPreferencesError, match="out-of-range"):
            PreferenceProfile([[3]], [[0]])

    def test_asymmetric_rejected_man_side(self):
        # Man 0 ranks woman 0 but she does not rank him.
        with pytest.raises(InvalidPreferencesError, match="asymmetric"):
            PreferenceProfile([[0]], [[]])

    def test_asymmetric_rejected_woman_side(self):
        with pytest.raises(InvalidPreferencesError, match="asymmetric"):
            PreferenceProfile([[]], [[0]])


class TestQueries:
    def test_ranks_are_one_based(self):
        prefs = PreferenceProfile([[2, 0, 1]], [[0], [0], [0]])
        assert prefs.rank_of_woman(0, 2) == 1
        assert prefs.rank_of_woman(0, 0) == 2
        assert prefs.rank_of_woman(0, 1) == 3

    def test_rank_unknown_raises_keyerror(self):
        prefs = PreferenceProfile([[0]], [[0], []])
        with pytest.raises(KeyError):
            prefs.rank_of_woman(0, 1)

    def test_acceptability(self):
        prefs = PreferenceProfile([[1]], [[], [0]])
        assert prefs.acceptable_to_man(0, 1)
        assert not prefs.acceptable_to_man(0, 0)
        assert prefs.acceptable_to_woman(1, 0)
        assert not prefs.acceptable_to_woman(0, 0)

    def test_prefers(self):
        prefs = PreferenceProfile([[1, 0]], [[0], [0]])
        assert prefs.man_prefers(0, 1, 0)
        assert not prefs.man_prefers(0, 0, 1)

    def test_edges_match_iter_edges(self, small_incomplete):
        assert small_incomplete.edges() == frozenset(
            small_incomplete.iter_edges()
        )
        assert small_incomplete.num_edges == len(small_incomplete.edges())

    def test_degrees_sum_to_edges_both_sides(self, small_incomplete):
        p = small_incomplete
        assert sum(p.deg_man(m) for m in range(p.n_men)) == p.num_edges
        assert sum(p.deg_woman(w) for w in range(p.n_women)) == p.num_edges

    def test_side_lists_match_per_player_lists(self, small_incomplete):
        p = small_incomplete
        assert p.men_lists() == tuple(p.man_list(m) for m in range(p.n_men))
        assert p.women_lists() == tuple(
            p.woman_list(w) for w in range(p.n_women)
        )


class TestStructure:
    def test_complete_detection(self):
        assert complete_uniform(5, seed=0).is_complete()
        assert not PreferenceProfile([[0], []], [[0], []]).is_complete()

    def test_regularity_alpha_complete_is_one(self):
        assert complete_uniform(6, seed=1).regularity_alpha() == 1.0

    def test_regularity_alpha_ignores_isolated_men(self):
        prefs = PreferenceProfile([[0, 1], []], [[0], [0]])
        assert prefs.regularity_alpha() == 1.0

    def test_regularity_alpha_empty(self):
        assert PreferenceProfile([[]], [[]]).regularity_alpha() == 1.0

    def test_max_degree(self):
        prefs = PreferenceProfile([[0, 1], [0]], [[0, 1], [0]])
        assert prefs.max_degree() == 2


class TestSerialization:
    def test_round_trip_dict(self, small_incomplete):
        assert (
            PreferenceProfile.from_dict(small_incomplete.to_dict())
            == small_incomplete
        )

    def test_round_trip_json(self, small_complete):
        assert (
            PreferenceProfile.from_json(small_complete.to_json())
            == small_complete
        )

    def test_from_men_lists(self):
        prefs = PreferenceProfile.from_men_lists([[1, 0], [1]], n_women=2)
        assert prefs.acceptable_to_woman(1, 0)
        assert prefs.acceptable_to_woman(1, 1)
        assert prefs.rank_of_woman(0, 1) == 1

    def test_from_men_lists_out_of_range(self):
        with pytest.raises(InvalidPreferencesError):
            PreferenceProfile.from_men_lists([[5]], n_women=2)


class TestDunder:
    def test_equality_and_hash(self):
        a = PreferenceProfile([[0]], [[0]])
        b = PreferenceProfile([[0]], [[0]])
        assert a == b
        assert hash(a) == hash(b)
        assert a != PreferenceProfile([[]], [[]])

    def test_eq_other_type(self):
        assert PreferenceProfile([], []) != 42

    def test_repr(self):
        r = repr(PreferenceProfile([[0]], [[0]]))
        assert "n_men=1" in r and "num_edges=1" in r


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), p=st.floats(0.0, 1.0), seed=st.integers(0, 100))
def test_generated_profiles_always_symmetric(n, p, seed):
    """Any generated profile satisfies the symmetry invariant (the
    constructor would raise otherwise) and consistent rank tables."""
    prefs = gnp_incomplete(n, p, seed)
    for m, w in prefs.iter_edges():
        assert prefs.acceptable_to_woman(w, m)
        assert 1 <= prefs.rank_of_woman(m, w) <= prefs.deg_man(m)
        assert 1 <= prefs.rank_of_man(w, m) <= prefs.deg_woman(w)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 6), seed=st.integers(0, 50))
def test_json_round_trip_property(n, seed):
    prefs = gnp_incomplete(n, 0.5, seed)
    assert PreferenceProfile.from_json(prefs.to_json()) == prefs
