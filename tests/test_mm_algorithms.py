"""Tests for the maximal-matching algorithms (greedy, deterministic,
Israeli–Itai, AMM) — correctness, guarantees, round accounting."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidParameterError
from repro.graphs import Graph, bipartite_graph_from_edges
from repro.mm.deterministic import (
    ROUNDS_PER_POINTER_ROUND,
    deterministic_maximal_matching,
)
from repro.mm.greedy import greedy_maximal_matching
from repro.mm.israeli_itai import (
    DEFAULT_DECAY_C,
    ROUNDS_PER_MATCHING_ROUND,
    amm,
    israeli_itai_maximal_matching,
    matching_round,
    rounds_for_amm,
    rounds_for_maximality,
)
from repro.mm.oracles import (
    amm_oracle,
    deterministic_oracle,
    greedy_oracle,
    israeli_itai_oracle,
    truncated_israeli_itai_oracle,
)
from repro.mm.result import MMResult, partner_map_from_pairs
from repro.mm.verify import (
    is_maximal_matching,
    is_valid_matching,
    violating_vertices,
)
from repro.workloads.generators import gnp_incomplete


def random_graph(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    g = Graph()
    for v in range(n):
        g.add_node(v)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


class TestResultType:
    def test_partner_map_from_pairs(self):
        partner = partner_map_from_pairs([(1, 2), (3, 4)])
        assert partner[1] == 2 and partner[2] == 1

    def test_partner_map_duplicate_rejected(self):
        with pytest.raises(ValueError):
            partner_map_from_pairs([(1, 2), (2, 3)])

    def test_pairs_unique_and_size(self):
        result = MMResult(partner={1: 2, 2: 1, 3: 4, 4: 3}, rounds=0)
        assert result.size == 2
        assert len(result.pairs()) == 2


class TestGreedy:
    def test_maximal_on_random_graphs(self):
        for seed in range(8):
            g = random_graph(20, 0.2, seed)
            result = greedy_maximal_matching(g)
            assert is_maximal_matching(g, result.partner)

    def test_empty_graph(self):
        result = greedy_maximal_matching(Graph())
        assert result.size == 0

    def test_deterministic(self):
        g = random_graph(15, 0.3, 1)
        assert (
            greedy_maximal_matching(g).partner
            == greedy_maximal_matching(g).partner
        )


class TestDeterministic:
    def test_maximal_on_random_graphs(self):
        for seed in range(8):
            g = random_graph(20, 0.2, seed)
            result = deterministic_maximal_matching(g)
            assert is_maximal_matching(g, result.partner)

    def test_rounds_accounting(self):
        g = random_graph(20, 0.3, 0)
        result = deterministic_maximal_matching(g)
        iterations = len(result.per_iteration_active)
        assert result.rounds == iterations * ROUNDS_PER_POINTER_ROUND

    def test_truncation_yields_valid_matching(self):
        g = random_graph(30, 0.15, 2)
        result = deterministic_maximal_matching(g, max_iterations=1)
        assert is_valid_matching(g, result.partner)

    def test_input_not_modified(self):
        g = random_graph(10, 0.4, 3)
        before = g.num_edges
        deterministic_maximal_matching(g)
        assert g.num_edges == before

    def test_star_graph_single_edge(self):
        g = Graph()
        for leaf in range(1, 6):
            g.add_edge(0, leaf)
        result = deterministic_maximal_matching(g)
        assert result.size == 1
        assert is_maximal_matching(g, result.partner)


class TestIsraeliItai:
    def test_matching_round_removes_vertices(self):
        g = random_graph(30, 0.3, 0)
        matched, residual = matching_round(g, random.Random(0))
        assert residual.num_nodes < g.num_nodes
        # matched vertices are gone from the residual graph
        for u, v in matched:
            assert not residual.has_node(u)
            assert not residual.has_node(v)

    def test_matching_round_preserves_input(self):
        g = random_graph(10, 0.5, 1)
        before = g.num_edges
        matching_round(g, random.Random(0))
        assert g.num_edges == before

    def test_maximal_on_random_graphs(self):
        for seed in range(8):
            g = random_graph(20, 0.2, seed)
            result = israeli_itai_maximal_matching(g, random.Random(seed))
            assert is_maximal_matching(g, result.partner)

    def test_maximal_on_bipartite(self):
        prefs = gnp_incomplete(15, 0.3, seed=4)
        g = bipartite_graph_from_edges(prefs.iter_edges(), 15, 15)
        result = israeli_itai_maximal_matching(g, random.Random(1))
        assert is_maximal_matching(g, result.partner)

    def test_rounds_accounting(self):
        g = random_graph(25, 0.3, 2)
        result = israeli_itai_maximal_matching(g, random.Random(5))
        assert result.rounds == len(result.per_iteration_active) * (
            ROUNDS_PER_MATCHING_ROUND
        )

    def test_seeded_reproducibility(self):
        g = random_graph(25, 0.3, 2)
        a = israeli_itai_maximal_matching(g, random.Random(9)).partner
        b = israeli_itai_maximal_matching(g, random.Random(9)).partner
        assert a == b

    def test_truncated_is_valid(self):
        g = random_graph(40, 0.2, 3)
        result = israeli_itai_maximal_matching(
            g, random.Random(0), max_iterations=1
        )
        assert is_valid_matching(g, result.partner)

    def test_geometric_decay_lemma8(self):
        """Lemma 8: active vertex count shrinks geometrically on average."""
        decays = []
        for seed in range(10):
            g = random_graph(120, 0.05, seed)
            result = israeli_itai_maximal_matching(g, random.Random(seed))
            active0 = sum(1 for v in g.nodes() if g.degree(v))
            counts = [active0] + result.per_iteration_active
            # one-step decay averaged over the first iteration
            decays.append(counts[1] / counts[0])
        assert sum(decays) / len(decays) < 0.9


class TestBudgets:
    def test_rounds_for_maximality_monotone_in_n(self):
        r1 = rounds_for_maximality(100, 0.1)
        r2 = rounds_for_maximality(10_000, 0.1)
        assert r2 > r1

    def test_rounds_for_maximality_small_n(self):
        assert rounds_for_maximality(1, 0.1) == 1

    def test_rounds_for_amm_independent_of_n(self):
        # The AMM budget depends only on (eta, delta).
        assert rounds_for_amm(0.1, 0.1) == rounds_for_amm(0.1, 0.1)
        assert rounds_for_amm(0.01, 0.01) > rounds_for_amm(0.1, 0.1)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            rounds_for_maximality(10, 0.0)
        with pytest.raises(InvalidParameterError):
            rounds_for_maximality(10, 1.0)
        with pytest.raises(InvalidParameterError):
            rounds_for_maximality(10, 0.5, decay_c=1.5)
        with pytest.raises(InvalidParameterError):
            rounds_for_amm(0.0, 0.5)
        with pytest.raises(InvalidParameterError):
            rounds_for_amm(0.5, 0.0)
        with pytest.raises(InvalidParameterError):
            rounds_for_amm(0.5, 0.5, decay_c=0.0)

    def test_corollary1_truncation_usually_maximal(self):
        """Corollary 1: the budget achieves maximality w.h.p."""
        eta = 0.2
        failures = 0
        trials = 20
        for seed in range(trials):
            g = random_graph(40, 0.15, seed)
            budget = rounds_for_maximality(g.num_nodes, eta)
            result = israeli_itai_maximal_matching(
                g, random.Random(100 + seed), max_iterations=budget
            )
            if not is_maximal_matching(g, result.partner):
                failures += 1
        assert failures / trials <= eta

    def test_corollary2_amm_guarantee(self):
        """Corollary 2: AMM leaves <= eta|V| violators w.p. >= 1-delta."""
        eta, delta = 0.1, 0.2
        failures = 0
        trials = 20
        for seed in range(trials):
            g = random_graph(60, 0.1, seed)
            result = amm(g, eta, delta, rng=random.Random(200 + seed))
            frac = len(violating_vertices(g, result.partner)) / g.num_nodes
            if frac > eta:
                failures += 1
        assert failures / trials <= delta

    def test_default_decay_constant_sane(self):
        assert 0 < DEFAULT_DECAY_C < 1


class TestOracles:
    def test_all_exact_oracles_maximal(self):
        g = random_graph(25, 0.2, 7)
        for factory in (
            deterministic_oracle(),
            greedy_oracle(),
            israeli_itai_oracle(3),
        ):
            result = factory(g)
            assert is_maximal_matching(g, result.partner)

    def test_truncated_oracle_valid(self):
        g = random_graph(25, 0.2, 7)
        result = truncated_israeli_itai_oracle(2, seed=1)(g)
        assert is_valid_matching(g, result.partner)

    def test_amm_oracle_budgeted(self):
        g = random_graph(25, 0.2, 7)
        oracle = amm_oracle(0.1, 0.1, seed=1)
        result = oracle(g)
        assert is_valid_matching(g, result.partner)
        assert len(result.per_iteration_active) <= rounds_for_amm(0.1, 0.1)

    def test_oracle_statefulness(self):
        """A randomized oracle's rng persists across calls (different
        draws per call), but two same-seed oracles agree call-by-call."""
        g = random_graph(25, 0.2, 7)
        o1 = israeli_itai_oracle(5)
        o2 = israeli_itai_oracle(5)
        assert o1(g).partner == o2(g).partner
        assert o1(g).partner == o2(g).partner


@settings(max_examples=30, deadline=None)
@given(n=st.integers(0, 18), p=st.floats(0, 0.6), seed=st.integers(0, 100))
def test_all_algorithms_maximal_property(n, p, seed):
    """Greedy, deterministic and Israeli-Itai are all maximal on
    arbitrary random graphs."""
    g = random_graph(n, p, seed)
    for result in (
        greedy_maximal_matching(g),
        deterministic_maximal_matching(g),
        israeli_itai_maximal_matching(g, random.Random(seed)),
    ):
        assert is_maximal_matching(g, result.partner)
