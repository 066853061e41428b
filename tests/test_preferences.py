"""Unit tests for repro.core.preferences."""

from __future__ import annotations

import json
import subprocess
import sys
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidPreferencesError
from repro.workloads.generators import (
    almost_regular,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
    master_list,
    regular_bipartite,
)


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


# ----------------------------------------------------------------------
# Flat layout: every accessor against the raw input lists
# ----------------------------------------------------------------------


def _raw(prefs):
    """A generated market's lists, as plain lists of ints."""
    d = prefs.to_dict()
    return d["men_prefs"], d["women_prefs"]


#: (name, men lists, women lists).  Generated markets plus the shapes
#: a CSR layout can get wrong: empty lists, no players at all, and
#: sides of different sizes either way round.
MARKETS = [
    ("bounded", *_raw(bounded_degree(30, 4, seed=1))),
    ("complete", *_raw(complete_uniform(7, seed=2))),
    ("complete_5x3", *_raw(complete_uniform(5, seed=3, n_women=3))),
    ("gnp", *_raw(gnp_incomplete(15, 0.3, seed=4))),
    ("master_list", *_raw(master_list(9, 0.2, seed=5))),
    ("almost_regular", *_raw(almost_regular(16, 2, 5, seed=6))),
    ("regular", *_raw(regular_bipartite(12, 3, seed=7))),
    ("empty_lists", [[], [1], [1]], [[], [1, 2]]),
    ("zero_players", [], []),
    ("men_only", [[], []], []),
    ("women_only", [], [[]]),
    ("more_men", [[0], [0], [1, 0], []], [[2, 0, 1], [2]]),
    ("more_women", [[3, 1], []], [[], [0], [], [0], []]),
]


@pytest.mark.parametrize(
    "name, men, women", MARKETS, ids=[m[0] for m in MARKETS]
)
class TestFlatLayoutOracle:
    def test_lists_and_degrees(self, name, men, women):
        p = PreferenceProfile(men, women)
        assert (p.n_men, p.n_women) == (len(men), len(women))
        assert p.num_edges == sum(map(len, men)) == sum(map(len, women))
        for v, lst in enumerate(men):
            assert p.man_list(v) == tuple(lst)
            assert p.deg_man(v) == len(lst)
        for v, lst in enumerate(women):
            assert p.woman_list(v) == tuple(lst)
            assert p.deg_woman(v) == len(lst)
        assert p.men_lists() == tuple(map(tuple, men))
        assert p.women_lists() == tuple(map(tuple, women))

    def test_csr_buffers(self, name, men, women):
        p = PreferenceProfile(men, women)
        for (indptr, targets), lists in (
            (p.men_csr(), men), (p.women_csr(), women)
        ):
            assert indptr.typecode == targets.typecode == "q"
            assert list(indptr) == list(accumulate(map(len, lists), initial=0))
            assert list(targets) == [u for lst in lists for u in lst]

    def test_ranks_and_acceptability(self, name, men, women):
        p = PreferenceProfile(men, women)
        for m, lst in enumerate(men):
            for w in range(len(women)):
                assert p.acceptable_to_man(m, w) == (w in lst)
                assert p.acceptable_to_woman(w, m) == (w in lst)
            for r, w in enumerate(lst, 1):
                assert p.rank_of_woman(m, w) == r
                assert p.men_rank_tables()[m][w] == r
                assert p.rank_of_man(w, m) == women[w].index(m) + 1
                assert p.women_rank_tables()[w][m] == women[w].index(m) + 1
            for a, b in zip(lst, lst[1:]):
                assert p.man_prefers(m, a, b) and not p.man_prefers(m, b, a)
        for w, lst in enumerate(women):
            for a, b in zip(lst, lst[1:]):
                assert p.woman_prefers(w, a, b)
                assert not p.woman_prefers(w, b, a)

    def test_edges_in_man_then_preference_order(self, name, men, women):
        p = PreferenceProfile(men, women)
        expected = [(m, w) for m, lst in enumerate(men) for w in lst]
        assert list(p.iter_edges()) == expected
        assert p.edges() == frozenset(expected)

    def test_structure(self, name, men, women):
        p = PreferenceProfile(men, women)
        degs = [len(lst) for lst in men + women]
        man_degs = [len(lst) for lst in men if lst]
        assert p.max_degree() == max(degs, default=0)
        assert p.min_man_degree() == min(man_degs, default=0)
        assert p.regularity_alpha() == (
            max(man_degs) / min(man_degs) if man_degs else 1.0
        )
        assert p.is_complete() == (
            all(len(lst) == len(women) for lst in men)
            and all(len(lst) == len(men) for lst in women)
        )

    def test_eq_hash_and_serialization(self, name, men, women):
        p = PreferenceProfile(men, women)
        q = PreferenceProfile([tuple(lst) for lst in men], women)
        assert p == q and hash(p) == hash(q)
        assert p.to_dict() == {"men_prefs": men, "women_prefs": women}
        assert json.loads(p.to_json()) == p.to_dict()
        assert PreferenceProfile.from_json(p.to_json()) == p
        assert PreferenceProfile.from_dict(p.to_dict()) == p

    def test_swap_sides(self, name, men, women):
        swapped = PreferenceProfile(men, women).swap_sides()
        assert swapped.to_dict() == {"men_prefs": women, "women_prefs": men}
        assert swapped == PreferenceProfile(women, men)

    def test_from_men_lists(self, name, men, women):
        p = PreferenceProfile.from_men_lists(men, len(women))
        derived = [
            [m for m, lst in enumerate(men) if w in lst]
            for w in range(len(women))
        ]
        assert p.to_dict() == {"men_prefs": men, "women_prefs": derived}


class TestEqualityDistinguishesLayouts:
    @pytest.mark.parametrize(
        "other",
        [
            ([[1, 0], [0]], [[0, 1], [0]]),  # a man's order differs
            ([[0, 1], [0]], [[1, 0], [0]]),  # a woman's order differs
            ([[0, 1], [0], []], [[0, 1], [0]]),  # an extra empty man
            ([[0, 1], [0]], [[0, 1], [0], []]),  # an extra empty woman
        ],
    )
    def test_not_equal(self, other):
        base = PreferenceProfile([[0, 1], [0]], [[0, 1], [0]])
        assert base != PreferenceProfile(*other)


#: (men, women, message) — each message word for word as the per-player
#: checks have always raised it, whichever fast check refuses the lists.
ERRORS = [
    ([[3]], [[0]],
     "man 0 ranks out-of-range player 3 (opposite side has 1 players)"),
    ([[-1]], [[0]],
     "man 0 ranks out-of-range player -1 (opposite side has 1 players)"),
    ([[0], [7]], [[0], []],
     "man 1 ranks out-of-range player 7 (opposite side has 2 players)"),
    ([[0]], [[0, 5]],
     "woman 0 ranks out-of-range player 5 (opposite side has 1 players)"),
    ([[0]], [[-2]],
     "woman 0 ranks out-of-range player -2 (opposite side has 1 players)"),
    ([[0]], [[2 ** 70]],
     "woman 0 ranks out-of-range player 1180591620717411303424 "
     "(opposite side has 1 players)"),
    ([[0, 0]], [[0]], "man 0 ranks player 0 more than once"),
    ([[0, 0]], [[0, 0]], "man 0 ranks player 0 more than once"),
    ([[1, 0, 1]], [[0], [0]], "man 0 ranks player 1 more than once"),
    ([[0]], [[0, 0]], "woman 0 ranks player 0 more than once"),
    ([[0], [0]], [[0, 1, 1]], "woman 0 ranks player 1 more than once"),
    ([[0]], [[]],
     "asymmetric preferences: man 0 ranks woman 0 but woman 0 does not "
     "rank man 0"),
    ([[0], []], [[1]],
     "asymmetric preferences: man 0 ranks woman 0 but woman 0 does not "
     "rank man 0"),
    ([[], [0]], [[0], []],
     "asymmetric preferences: man 1 ranks woman 0 but woman 0 does not "
     "rank man 1"),
    ([[]], [[0]],
     "asymmetric preferences: woman 0 ranks man 0 but man 0 does not "
     "rank woman 0"),
    ([[0]], [[0], [0]],
     "asymmetric preferences: woman 1 ranks man 0 but man 0 does not "
     "rank woman 1"),
]


@pytest.mark.parametrize("men, women, message", ERRORS)
def test_error_messages_word_for_word(men, women, message):
    with pytest.raises(InvalidPreferencesError) as info:
        PreferenceProfile(men, women)
    assert str(info.value) == message


def test_from_men_lists_error_word_for_word():
    with pytest.raises(InvalidPreferencesError) as info:
        PreferenceProfile.from_men_lists([[5]], n_women=2)
    assert str(info.value) == "man 0 ranks out-of-range woman 5"


# ----------------------------------------------------------------------
# The per-player view is built on first request only
# ----------------------------------------------------------------------


def _view_built(prefs):
    return prefs._view is not None


class TestLazyView:
    def test_flat_accessors_never_build_it(self):
        p = gnp_incomplete(12, 0.4, seed=8)
        p.man_list(0), p.woman_list(0), p.deg_man(1), p.deg_woman(1)
        p.acceptable_to_man(0, 1), p.acceptable_to_woman(1, 0)
        list(p.iter_edges()), p.edges(), p.to_dict(), p.to_json()
        p == gnp_incomplete(12, 0.4, seed=8), hash(p)
        p.max_degree(), p.is_complete(), p.regularity_alpha()
        p.swap_sides()
        assert not _view_built(p)

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: p.men_lists(),
            lambda p: p.women_lists(),
            lambda p: p.men_rank_tables(),
            lambda p: p.women_rank_tables(),
            lambda p: p.rank_of_woman(0, p.man_list(0)[0]),
            lambda p: p.rank_of_man(0, p.woman_list(0)[0]),
            lambda p: p.man_prefers(0, *p.man_list(0)[:2]),
            lambda p: p.woman_prefers(0, *p.woman_list(0)[:2]),
        ],
    )
    def test_view_accessors_build_it_once(self, call):
        p = complete_uniform(4, seed=9)
        call(p)
        assert _view_built(p)
        first = (p.men_lists(), p.women_rank_tables())
        call(p)
        assert (p.men_lists(), p.women_rank_tables()) == first
        assert p.men_lists() is first[0]

    def test_congest_gale_shapley_runs_off_the_view(self):
        from repro.congest.protocols.gs_protocol import (
            run_congest_gale_shapley,
        )

        p = complete_uniform(6, seed=10)
        run_congest_gale_shapley(p)
        run_congest_gale_shapley(p, iterations=3)
        assert not _view_built(p)

    def test_python_asm_and_congest_asm_run_off_the_view(self):
        from repro.congest.protocols.asm_protocol import run_congest_asm
        from repro.core.asm import asm

        p = bounded_degree(20, 4, seed=11)
        asm(p, 0.5)
        run_congest_asm(p, 0.5, k=4, inner_iterations=2,
                        outer_iterations=1, mm_iterations=4)
        assert not _view_built(p)

    def test_dynamic_market_round_trip_runs_off_the_view(self):
        from repro.dynamic.market import DynamicMarket

        p = bounded_degree(20, 4, seed=12)
        frozen = DynamicMarket(p).freeze()
        assert frozen == p
        assert not _view_built(p) and not _view_built(frozen)


class TestAdopt:
    """``_adopt`` takes checked CSR buffers as they are."""

    def test_adopted_profile_equals_validated(self):
        p = bounded_degree(30, 4, seed=5)
        adopted = PreferenceProfile._adopt(*p.men_csr(), *p.women_csr())
        assert adopted == p and hash(adopted) == hash(p)
        assert adopted.men_csr()[1] is p.men_csr()[1]  # owned, not copied
        assert adopted.to_dict() == p.to_dict()
        assert adopted.men_rank_tables() == p.men_rank_tables()
        assert adopted.edges() == p.edges()
        assert adopted.soa_cache() == {}
        assert adopted.soa_cache() is not p.soa_cache()

    def test_adopt_skips_validation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("_adopt ran the validating constructor")

        p = PreferenceProfile([[0, 1], [0]], [[0, 1], [0]])
        monkeypatch.setattr(PreferenceProfile, "__init__", refuse)
        adopted = PreferenceProfile._adopt(*p.men_csr(), *p.women_csr())
        assert adopted.num_edges == 3
        assert adopted.rank_of_man(0, 1) == 2

    def test_constructor_still_validates(self):
        with pytest.raises(InvalidPreferencesError, match="asymmetric"):
            PreferenceProfile([[0]], [[]])
        with pytest.raises(InvalidPreferencesError, match="non-integer"):
            PreferenceProfile([[True]], [[0]])


def test_narrow_numpy_rows_validate_on_the_arrays():
    """Keys are packed from the int64 buffers, never from the caller's
    scalars: int16 rows with ``woman·n_men + man`` beyond int16 pass."""
    np = pytest.importorskip("numpy")
    n_men = 300
    women = [np.array([], dtype=np.int16)] * 200
    women.append(np.arange(n_men, dtype=np.int16))
    prefs = PreferenceProfile([[200]] * n_men, women)
    assert prefs.woman_list(200) == tuple(range(n_men))
    assert prefs.num_edges == n_men


def test_profile_module_never_imports_numpy():
    """numpy is optional: building and querying a profile must not load it."""
    code = (
        "import sys\n"
        "from repro.core.preferences import PreferenceProfile\n"
        "p = PreferenceProfile([[0, 1], [0]], [[0, 1], [0]])\n"
        "p.men_rank_tables(), p.to_json(), hash(p), p.swap_sides()\n"
        "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
