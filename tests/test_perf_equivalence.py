"""Seeded equivalence: the pure-Python backend matches the seed oracle.

The ASM engine's default backend (``optimized=True``) is the
allocation-free pure-Python one; the seed ProposalRound survives only as
the test oracle :class:`tests.reference_asm.ReferenceASMEngine`.  These
tests assert the *entire* :class:`~repro.core.asm.ASMResult` (matching,
good/bad/removed sets, round counters, message stats, per-iteration
stats) is identical across the workload generator grid, under invariant
checking, and under the almost-regular removal mode.
"""

from __future__ import annotations

import pytest

from repro.core.asm import ASMEngine, asm
from repro.core.preferences import PreferenceProfile
from repro.errors import InvalidParameterError
from repro.mm.oracles import israeli_itai_oracle
from repro.workloads.generators import (
    GENERATORS,
    adversarial_gale_shapley,
    complete_uniform,
)
from tests.reference_asm import ReferenceASMEngine, reference_asm

# (generator name, kwargs) — one representative point per family.
GRID = [
    ("complete", {"n": 18, "seed": 0}),
    ("complete", {"n": 18, "seed": 1}),
    ("gnp", {"n": 22, "p": 0.35, "seed": 2}),
    ("bounded", {"n": 20, "d": 6, "seed": 3}),
    ("regular", {"n": 16, "d": 5, "seed": 4}),
    ("almost_regular", {"n": 18, "d_min": 3, "d_max": 7, "seed": 5}),
    ("master_list", {"n": 14, "noise": 0.15, "seed": 6}),
    ("euclidean", {"n": 20, "radius": 0.4, "seed": 7}),
    ("zipf", {"n": 14, "exponent": 1.0, "seed": 8}),
    ("clustered", {"n": 16, "seed": 9}),
]


def _both(prefs, eps, **kwargs):
    fast = asm(prefs, eps, optimized=True, **kwargs)
    reference = reference_asm(prefs, eps, **kwargs)
    return fast, reference


class TestEngineEquivalence:
    @pytest.mark.parametrize("name,kwargs", GRID)
    @pytest.mark.parametrize("eps", [0.25, 0.5, 1.0])
    def test_identical_results_across_grid(self, name, kwargs, eps):
        prefs = GENERATORS[name](**kwargs)
        fast, reference = _both(prefs, eps)
        assert fast == reference

    def test_identical_with_invariant_checking(self):
        prefs = complete_uniform(16, seed=11)
        fast, reference = _both(prefs, 0.4, check_invariants=True)
        assert fast == reference

    def test_identical_on_adversarial_instance(self):
        prefs = adversarial_gale_shapley(14)
        fast, reference = _both(prefs, 0.3)
        assert fast == reference

    def test_identical_per_round_stats(self):
        """Observer-visible per-round stats match step for step."""
        from repro.core.asm import ASMObserver

        class Recorder(ASMObserver):
            def __init__(self):
                self.rounds = []

            def on_proposal_round_end(self, engine, stats):
                self.rounds.append(stats)

        prefs = complete_uniform(14, seed=13)
        rec_fast, rec_ref = Recorder(), Recorder()
        asm(prefs, 0.5, optimized=True, observer=rec_fast)
        reference_asm(prefs, 0.5, observer=rec_ref)
        assert rec_fast.rounds == rec_ref.rounds

    def test_identical_under_removal_mode(self):
        """The almost-regular (Theorem 6) engine configuration."""
        prefs = complete_uniform(12, seed=17)
        results = []
        for engine_cls in (ASMEngine, ReferenceASMEngine):
            engine = engine_cls(
                prefs,
                0.5,
                mm_oracle=israeli_itai_oracle(seed=3),
                remove_unmatched_violators=True,
            )
            results.append(engine.run_flat(6))
        assert results[0] == results[1]

    def test_identical_on_asymmetric_markets(self):
        profiles = [
            PreferenceProfile([[], [0, 1]], [[1], [1]]),
            PreferenceProfile([[0, 1], [1]], [[0], [0, 1], []]),
            PreferenceProfile([[2, 0]], [[0], [], [0]]),
        ]
        for prefs in profiles:
            fast, reference = _both(prefs, 0.5, check_invariants=True)
            assert fast == reference


class TestEpsValidation:
    """Satellite bugfix: params_for_eps must reject eps outside (0, 1]."""

    @pytest.mark.parametrize("eps", [1.5, 2.0, 9.0, 0.0, -0.25])
    def test_engine_rejects_bad_eps(self, eps):
        prefs = complete_uniform(4, seed=0)
        with pytest.raises(InvalidParameterError):
            asm(prefs, eps)

    def test_cli_parser_rejects_bad_eps(self):
        from repro.cli import build_parser

        parser = build_parser()
        for argv in (
            ["run", "--eps", "2.0"],
            ["run", "--eps", "0"],
            ["run", "--eps", "-1"],
            ["congest", "--eps", "1.5"],
        ):
            with pytest.raises(SystemExit):
                parser.parse_args(argv)

    def test_cli_parser_accepts_boundary_eps(self):
        from repro.cli import build_parser

        parser = build_parser()
        assert parser.parse_args(["run", "--eps", "1.0"]).eps == 1.0
        assert parser.parse_args(["congest", "--eps", "0.5"]).eps == 0.5


class TestPreferenceCaches:
    """Satellite bugfix: edges() is cached; rank tables are exposed."""

    def test_edges_cached_and_stable(self):
        prefs = complete_uniform(8, seed=0)
        first = prefs.edges()
        assert prefs.edges() is first  # same frozenset object, no rebuild
        assert first == frozenset(prefs.iter_edges())

    def test_iter_edges_agrees_with_edges(self):
        prefs = GENERATORS["gnp"](n=10, p=0.4, seed=1)
        assert frozenset(prefs.iter_edges()) == prefs.edges()
        assert prefs.num_edges == len(prefs.edges())

    def test_rank_tables_match_rank_methods(self):
        prefs = GENERATORS["gnp"](n=8, p=0.6, seed=2)
        men_rank = prefs.men_rank_tables()
        women_rank = prefs.women_rank_tables()
        for m in range(prefs.n_men):
            for w in prefs.man_list(m):
                assert men_rank[m][w] == prefs.rank_of_woman(m, w)
        for w in range(prefs.n_women):
            for m in prefs.woman_list(w):
                assert women_rank[w][m] == prefs.rank_of_man(w, m)
