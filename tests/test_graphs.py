"""Unit tests for repro.graphs."""

from __future__ import annotations

import pytest

from repro.graphs import (
    Graph,
    bipartite_graph_from_edges,
    is_man_node,
    man_node,
    node_index,
    woman_node,
)


class TestNodeIds:
    def test_man_woman_nodes_distinct(self):
        assert man_node(3) != woman_node(3)
        assert is_man_node(man_node(0))
        assert not is_man_node(woman_node(0))
        assert not is_man_node("plain-string")

    def test_node_index(self):
        assert node_index(man_node(7)) == 7
        assert node_index(woman_node(9)) == 9


class TestGraph:
    def test_empty(self):
        g = Graph()
        assert g.num_nodes == 0
        assert g.num_edges == 0
        assert len(g) == 0
        assert list(g) == []

    def test_add_edge_creates_nodes(self):
        g = Graph()
        g.add_edge(1, 2)
        assert g.has_node(1) and g.has_node(2)
        assert g.has_edge(1, 2) and g.has_edge(2, 1)
        assert g.degree(1) == 1

    def test_add_edge_idempotent(self):
        g = Graph()
        g.add_edge(1, 2)
        g.add_edge(2, 1)
        assert g.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph().add_edge(1, 1)

    def test_add_node_idempotent(self):
        g = Graph()
        g.add_node(5)
        g.add_node(5)
        assert g.num_nodes == 1
        assert g.degree(5) == 0

    def test_edges_deterministic_and_unique(self):
        g = Graph()
        g.add_edge(2, 1)
        g.add_edge(1, 3)
        edges = g.edges()
        assert len(edges) == 2
        assert len({frozenset(e) for e in edges}) == 2
        assert edges == g.edges()

    def test_repr(self):
        g = Graph()
        g.add_edge(1, 2)
        assert "num_nodes=2" in repr(g)


class TestBipartiteBuilder:
    def test_includes_isolated_players(self):
        g = bipartite_graph_from_edges([(0, 1)], n_men=2, n_women=2)
        assert g.num_nodes == 4
        assert g.has_edge(man_node(0), woman_node(1))
        assert g.degree(man_node(1)) == 0

    def test_without_counts_only_edge_nodes(self):
        g = bipartite_graph_from_edges([(0, 0)])
        assert g.num_nodes == 2

    def test_from_profile_edges(self, small_incomplete):
        p = small_incomplete
        g = bipartite_graph_from_edges(p.iter_edges(), p.n_men, p.n_women)
        assert g.num_edges == p.num_edges
        for m in range(p.n_men):
            assert g.degree(man_node(m)) == p.deg_man(m)
