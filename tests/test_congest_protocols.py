"""Tests for the message-level protocols (GS, maximal matching, ASM)."""

from __future__ import annotations

import pytest

from repro.analysis.stability import instability
from repro.baselines.gale_shapley import gale_shapley
from repro.congest.protocols import (
    run_congest_asm,
    run_congest_deterministic_mm,
    run_congest_gale_shapley,
    run_congest_israeli_itai_mm,
    run_congest_port_order_mm,
)
from repro.core.asm import ASMEngine
from repro.graphs import bipartite_graph_from_edges, man_node
from repro.mm.bipartite import bipartite_port_order_matching
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.verify import is_maximal_matching, is_valid_matching
from repro.workloads.generators import complete_uniform, gnp_incomplete


class TestCongestGaleShapley:
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_centralized_complete(self, seed):
        prefs = complete_uniform(7, seed=seed)
        matching, sim = run_congest_gale_shapley(prefs)
        assert matching == gale_shapley(prefs).matching
        assert sim.stats.messages > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_centralized_incomplete(self, seed):
        prefs = gnp_incomplete(8, 0.5, seed=seed)
        matching, _sim = run_congest_gale_shapley(prefs)
        assert matching == gale_shapley(prefs).matching

    def test_message_sizes_within_cap(self):
        prefs = complete_uniform(6, seed=1)
        _, sim = run_congest_gale_shapley(prefs)
        assert sim.stats.max_message_bits <= sim.max_message_bits


class TestCongestMaximalMatching:
    @pytest.mark.parametrize("seed", range(4))
    def test_deterministic_equals_logical(self, seed):
        prefs = gnp_incomplete(8, 0.5, seed=seed)
        g = bipartite_graph_from_edges(prefs.iter_edges(), 8, 8)
        congest = run_congest_deterministic_mm(g)
        logical = deterministic_maximal_matching(g)
        assert congest.partner == logical.partner
        assert is_maximal_matching(g, congest.partner)

    def test_israeli_itai_maximal_with_budget(self):
        prefs = gnp_incomplete(10, 0.4, seed=2)
        g = bipartite_graph_from_edges(prefs.iter_edges(), 10, 10)
        result = run_congest_israeli_itai_mm(g, iterations=40, seed=3)
        assert is_maximal_matching(g, result.partner)

    def test_israeli_itai_truncated_valid(self):
        prefs = gnp_incomplete(10, 0.4, seed=2)
        g = bipartite_graph_from_edges(prefs.iter_edges(), 10, 10)
        result = run_congest_israeli_itai_mm(g, iterations=1, seed=3)
        assert is_valid_matching(g, result.partner)

    def test_empty_graph(self):
        from repro.graphs import Graph

        g = Graph()
        g.add_node("x")
        result = run_congest_deterministic_mm(g)
        assert result.partner == {}

    @pytest.mark.parametrize("seed", range(4))
    def test_port_order_equals_logical(self, seed):
        prefs = gnp_incomplete(9, 0.5, seed=seed)
        g = bipartite_graph_from_edges(prefs.iter_edges(), 9, 9)
        left = [man_node(m) for m in range(9)]
        congest = run_congest_port_order_mm(g, left)
        logical = bipartite_port_order_matching(g, left_nodes=left)
        assert congest.partner == logical.partner
        assert is_maximal_matching(g, congest.partner)


class TestCongestAlmostRegularASM:
    @pytest.mark.parametrize("seed", range(3))
    def test_removal_mode_identical_to_logical_engine(self, seed):
        """Deterministic configuration with a deliberately weak MM
        budget (1 pointer iteration) so Definition-3 violators really
        occur: the MM_FREE removal protocol must match the logical
        engine's remove_unmatched_violators exactly."""
        from repro.congest.protocols import run_congest_almost_regular_asm
        from repro.core.asm import ASMEngine

        prefs = complete_uniform(6, seed=seed)
        iterations, mm_budget = 8, 1
        congest = run_congest_almost_regular_asm(
            prefs,
            eps=0.5,
            quantile_match_iterations=iterations,
            mm_iterations=mm_budget,
            mm_kind="pointer",
        )
        engine = ASMEngine(
            prefs,
            0.5,
            k=congest.schedule.k,
            mm_oracle=lambda g: deterministic_maximal_matching(
                g, max_iterations=mm_budget
            ),
            remove_unmatched_violators=True,
        )
        logical = engine.run_flat(iterations)
        assert congest.matching == logical.matching

    def test_randomized_default_quality(self):
        from repro.congest.protocols import run_congest_almost_regular_asm

        prefs = complete_uniform(8, seed=2)
        result = run_congest_almost_regular_asm(
            prefs,
            eps=0.5,
            seed=4,
            quantile_match_iterations=12,
            mm_iterations=6,
        )
        result.matching.validate_against(prefs)
        assert instability(prefs, result.matching) <= 0.5

    def test_flat_schedule_flag_in_result(self):
        from repro.congest.protocols import run_congest_almost_regular_asm

        prefs = complete_uniform(5, seed=1)
        result = run_congest_almost_regular_asm(
            prefs, eps=0.5, quantile_match_iterations=4, mm_iterations=3
        )
        assert result.schedule.flat_schedule
        assert result.schedule.remove_violators
        assert result.schedule.inner_iterations == 1


class TestCongestASM:
    @pytest.mark.parametrize("seed", range(3))
    def test_identical_to_logical_engine(self, seed):
        """The headline cross-validation (DESIGN.md §4): the
        message-level protocol and the logical engine produce the same
        matching when configured identically."""
        prefs = complete_uniform(6, seed=seed)
        k, inner, outer, mm_iters = 4, 5, 3, 12
        congest = run_congest_asm(
            prefs,
            0.5,
            k=k,
            inner_iterations=inner,
            outer_iterations=outer,
            mm_iterations=mm_iters,
        )
        engine = ASMEngine(
            prefs,
            0.5,
            k=k,
            inner_iterations=inner,
            outer_iterations=outer,
            mm_oracle=lambda g: deterministic_maximal_matching(
                g, max_iterations=mm_iters
            ),
        )
        assert congest.matching == engine.run().matching

    def test_incomplete_preferences_identical(self):
        prefs = gnp_incomplete(7, 0.6, seed=5)
        congest = run_congest_asm(
            prefs,
            0.5,
            k=4,
            inner_iterations=5,
            outer_iterations=3,
            mm_iterations=14,
        )
        engine = ASMEngine(
            prefs,
            0.5,
            k=4,
            inner_iterations=5,
            outer_iterations=3,
            mm_oracle=lambda g: deterministic_maximal_matching(
                g, max_iterations=14
            ),
        )
        assert congest.matching == engine.run().matching

    @pytest.mark.parametrize("seed", range(3))
    def test_port_order_kind_identical_to_logical_engine(self, seed):
        """Third mm_kind: the port-order oracle cross-validates too."""
        from repro.mm.bipartite import bipartite_port_order_matching as bpo

        prefs = gnp_incomplete(6, 0.6, seed=10 + seed)
        congest = run_congest_asm(
            prefs,
            0.5,
            k=4,
            inner_iterations=5,
            outer_iterations=3,
            mm_iterations=12,
            mm_kind="port_order",
        )
        engine = ASMEngine(
            prefs,
            0.5,
            k=4,
            inner_iterations=5,
            outer_iterations=3,
            # G₀'s men, the labels on the u side, propose.
            mm_oracle=lambda g0: bpo(g0, left_nodes=g0.u),
        )
        assert congest.matching == engine.run().matching

    def test_randomized_variant_quality(self):
        """RandASM at message level: stability holds even though exact
        per-node randomness differs from the logical engine."""
        prefs = complete_uniform(6, seed=1)
        congest = run_congest_asm(
            prefs,
            0.5,
            k=4,
            inner_iterations=6,
            outer_iterations=3,
            mm_iterations=12,
            mm_kind="israeli_itai",
            seed=7,
        )
        congest.matching.validate_against(prefs)
        assert instability(prefs, congest.matching) <= 0.6

    def test_full_default_schedule_small_instance(self):
        """Defaults (paper schedule) work end-to-end on a tiny instance."""
        prefs = complete_uniform(4, seed=2)
        congest = run_congest_asm(prefs, eps=1.0)
        assert instability(prefs, congest.matching) <= 1.0
        assert congest.stats.rounds > 0

    def test_equivalence_property_random_instances(self):
        """Property-style sweep: logical == message-level on a batch of
        random tiny instances (complete and incomplete)."""
        from repro.workloads.generators import gnp_incomplete as gnp

        for seed in range(6):
            prefs = gnp(5, 0.7, seed=100 + seed)
            congest = run_congest_asm(
                prefs,
                0.5,
                k=3,
                inner_iterations=4,
                outer_iterations=3,
                mm_iterations=10,
            )
            engine = ASMEngine(
                prefs,
                0.5,
                k=3,
                inner_iterations=4,
                outer_iterations=3,
                mm_oracle=lambda g: deterministic_maximal_matching(
                    g, max_iterations=10
                ),
            )
            assert congest.matching == engine.run().matching, (
                f"divergence at seed {seed}"
            )

    def test_message_bits_within_cap(self):
        prefs = complete_uniform(6, seed=3)
        congest = run_congest_asm(
            prefs,
            0.5,
            k=4,
            inner_iterations=4,
            outer_iterations=3,
            mm_iterations=12,
        )
        # All ASM messages are tag-only: well inside O(log n).
        assert congest.stats.max_message_bits == 8
