"""The label form of ``G₀`` (``repro.mm.g0``) gives every maximal-matching
function the results it gives on a ``Graph``.

A ``Graph`` is ranked by ``repr`` once at entry; a ``G0`` is read in
label order.  So a function must answer the same on a graph and on any
``G0`` of it whose labels keep the node order — sparse labels, edges
shuffled, endpoints swapped — and on every ``G₀`` the engine hands its
oracle, read back as ``("M", i)`` / ``("W", j)`` nodes.  The stdlib
order key is pinned against ``str`` order here, with or without numpy;
its numpy twin is pinned against it in ``tests/test_vec_equivalence.py``.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.asm import ASMEngine
from repro.errors import InvalidParameterError, SimulationError
from repro.graphs import (
    Graph,
    bipartite_graph_from_edges,
    man_node,
    woman_node,
)
from repro.mm.bipartite import bipartite_port_order_matching
from repro.mm.deterministic import deterministic_maximal_matching
from repro.mm.g0 import G0, label_form, str_order_keys, woman_label_base
from repro.mm.greedy import greedy_maximal_matching
from repro.mm.israeli_itai import (
    amm,
    israeli_itai_maximal_matching,
    matching_round,
)
from repro.mm.oracles import israeli_itai_oracle
from repro.mm.result import MMResult
from repro.mm.verify import violating_vertices
from repro.workloads.generators import (
    almost_regular,
    bounded_degree,
    complete_uniform,
    gnp_incomplete,
)


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


def random_bipartite(n_men: int, n_women: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    edges = [
        (m, w)
        for m in range(n_men)
        for w in range(n_women)
        if rng.random() < p
    ]
    return bipartite_graph_from_edges(
        edges, n_men if seed % 2 else 0, n_women if seed % 3 else 0
    )


def scrambled_label_form(graph: Graph, seed: int):
    """``(g0, node_of)``: ``graph`` over sparse labels that keep the id
    order, with its edges shuffled and their endpoints swapped at
    random."""
    rng = random.Random(seed)
    nodes = graph.nodes()
    labels, label = [], rng.randrange(5)
    for _ in nodes:
        labels.append(label)
        label += 1 + rng.randrange(40)
    label_of = dict(zip(nodes, labels))
    edges = [(label_of[a], label_of[b]) for a, b in graph.edges()]
    rng.shuffle(edges)
    edges = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in edges]
    isolated = [label_of[v] for v in nodes if not graph.degree(v)]
    g0 = G0([a for a, _ in edges], [b for _, b in edges], isolated)
    return g0, dict(zip(labels, nodes))


def assert_same_result(on_graph: MMResult, on_g0: MMResult, g0, node_of):
    """Same partner (read through ``node_of``), rounds and iterations,
    and ``edges`` names exactly the partner's pairs."""
    assert {node_of[a]: node_of[b] for a, b in on_g0.partner.items()} == (
        on_graph.partner
    )
    assert on_g0.rounds == on_graph.rounds
    assert on_g0.per_iteration_active == on_graph.per_iteration_active
    pairs = {frozenset((g0.u[e], g0.v[e])) for e in on_g0.edges}
    assert len(pairs) == len(on_g0.edges) == len(on_g0.partner) // 2
    assert pairs == {frozenset(item) for item in on_g0.partner.items()}


def assert_every_function_agrees(graph: Graph, g0: G0, node_of, seed: int):
    node_of = dict(node_of)
    for run in (
        deterministic_maximal_matching,
        lambda g: deterministic_maximal_matching(g, max_iterations=1),
        greedy_maximal_matching,
        lambda g: israeli_itai_maximal_matching(g, random.Random(seed)),
        lambda g: israeli_itai_maximal_matching(
            g, random.Random(seed), max_iterations=1
        ),
        lambda g: amm(g, 0.3, 0.3, random.Random(seed)),
    ):
        assert_same_result(run(graph), run(g0), g0, node_of)

    pairs, residual = matching_round(graph, random.Random(seed))
    matched, left = matching_round(g0, random.Random(seed))
    assert set(map(frozenset, pairs)) == {
        frozenset((node_of[g0.u[e]], node_of[g0.v[e]])) for e in matched
    }
    assert residual.num_nodes == left.num_nodes
    assert residual.num_edges == left.num_edges

    greedy = greedy_maximal_matching(graph).partner
    half = dict(sorted(greedy.items(), key=repr)[: len(greedy) // 2])
    label_of = {v: k for k, v in node_of.items()}
    assert [label_of[v] for v in violating_vertices(graph, half)] == (
        violating_vertices(g0, {label_of[v] for v in half})
    )

    try:
        expected = bipartite_port_order_matching(graph)
    except InvalidParameterError:
        with pytest.raises(InvalidParameterError):
            bipartite_port_order_matching(g0)
    else:
        assert_same_result(
            expected, bipartite_port_order_matching(g0), g0, node_of
        )


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 22),
    p=st.floats(0, 0.7),
    seed=st.integers(0, 10_000),
)
def test_general_graph_and_scrambled_label_form_agree(n, p, seed):
    graph = random_graph(n, p, seed)
    g0, node_of = scrambled_label_form(graph, seed)
    assert_every_function_agrees(graph, g0, node_of, seed)


@settings(max_examples=40, deadline=None)
@given(
    n_men=st.integers(1, 9),
    n_women=st.integers(1, 9),
    p=st.floats(0, 0.8),
    seed=st.integers(0, 10_000),
)
def test_port_order_with_a_given_left_side(n_men, n_women, p, seed):
    graph = random_bipartite(n_men, n_women, p, seed)
    g0, node_of = scrambled_label_form(graph, seed)
    label_of = {v: k for k, v in node_of.items()}
    men = [v for v in graph.nodes() if v[0] == "M"]
    assert_same_result(
        bipartite_port_order_matching(graph, left_nodes=men),
        bipartite_port_order_matching(
            g0, left_nodes=[label_of[v] for v in men]
        ),
        g0,
        node_of,
    )


def captured_g0s():
    """Every G₀ the Python backend hands its oracle, over a few markets
    and two oracles."""
    seen = []

    def recording(oracle):
        def wrapped(g0):
            seen.append(g0)
            return oracle(g0)

        return wrapped

    for prefs in (
        complete_uniform(12, seed=3),
        gnp_incomplete(24, 0.3, seed=2),
        bounded_degree(120, 6, 1),
        almost_regular(30, 4, 8, seed=4),
    ):
        ASMEngine(
            prefs, 0.5, mm_oracle=recording(deterministic_maximal_matching)
        ).run()
        ASMEngine(
            prefs,
            0.5,
            mm_oracle=recording(israeli_itai_oracle(1)),
            remove_unmatched_violators=True,
        ).run_flat(3)
        yield prefs, seen
        seen = []


def test_engine_g0s_match_their_graphs():
    """Each captured ``G₀``, read back as man and woman nodes, gives
    every function the same answers."""
    checked = 0
    for prefs, g0s in captured_g0s():
        men = str_order_keys(prefs.n_men)
        man_of = {key: man_node(m) for m, key in enumerate(men)}
        base = woman_label_base(prefs.n_men)
        woman_of = {
            key: woman_node(w)
            for w, key in enumerate(str_order_keys(prefs.n_women, base))
        }
        node_of = {**man_of, **woman_of}
        for i, g0 in enumerate(g0s):
            assert set(g0.u) <= set(man_of) and set(g0.v) <= set(woman_of)
            graph = Graph()
            for a, b in zip(g0.u, g0.v):
                graph.add_edge(node_of[a], node_of[b])
            assert g0.num_nodes == graph.num_nodes
            assert g0.num_edges == graph.num_edges
            assert g0.max_degree() == max(map(graph.degree, graph.nodes()))
            assert_every_function_agrees(graph, g0, node_of, i)
            checked += 1
    assert checked > 30


@pytest.mark.parametrize("n", [0, 1, 2, 9, 10, 11, 99, 100, 101, 1234])
def test_str_order_keys_match_str_sort(n):
    keys = str_order_keys(n)
    assert sorted(range(n), key=keys.__getitem__) == sorted(range(n), key=str)
    assert len(set(keys)) == n
    assert all(0 <= key < woman_label_base(n) for key in keys)
    assert str_order_keys(n, 7) == [key + 7 for key in keys]


@pytest.mark.parametrize("n_men,n_women", [(0, 3), (1, 1), (10, 3), (12, 101)])
def test_market_labels_follow_node_repr_order(n_men, n_women):
    """Men, then women, each side in ``str`` order: the ``repr`` order
    of their graph nodes."""
    men = str_order_keys(n_men)
    women = str_order_keys(n_women, woman_label_base(n_men))
    players = [(key, man_node(m)) for m, key in enumerate(men)] + [
        (key, woman_node(w)) for w, key in enumerate(women)
    ]
    assert [node for _, node in sorted(players)] == sorted(
        (node for _, node in players), key=repr
    )


def test_label_form_follows_graph_edges():
    graph = random_graph(15, 0.3, 4)
    g0, nodes = label_form(graph)
    assert nodes == graph.nodes()
    assert [(nodes[a], nodes[b]) for a, b in zip(g0.u, g0.v)] == graph.edges()
    assert g0.num_nodes == graph.num_nodes
    assert [nodes[r] for r in g0.isolated] == [
        v for v in graph.nodes() if not graph.degree(v)
    ]
    result = greedy_maximal_matching(graph)
    assert sorted(result.edges) == sorted(
        graph.edges().index(pair) for pair in result.pairs()
    )
    assert not violating_vertices(g0, greedy_maximal_matching(g0).partner)


def _graph_results_digest() -> str:
    """Every function's answers on graphs, as the ``repr``-keyed
    implementations gave them."""

    def res(r):
        return [repr(r.pairs()), r.rounds, r.per_iteration_active]

    out = []
    for seed in range(60):
        g = random_graph(seed % 25, [0.05, 0.15, 0.3, 0.6][seed % 4], seed)
        out.append(("det", res(deterministic_maximal_matching(g))))
        out.append(
            ("det2", res(deterministic_maximal_matching(g, max_iterations=1)))
        )
        out.append(("greedy", res(greedy_maximal_matching(g))))
        out.append(
            ("ii", res(israeli_itai_maximal_matching(g, random.Random(seed))))
        )
        out.append(
            (
                "ii1",
                res(
                    israeli_itai_maximal_matching(
                        g, random.Random(seed), max_iterations=1
                    )
                ),
            )
        )
        out.append(("amm", res(amm(g, 0.3, 0.3, random.Random(seed)))))
        m, r = matching_round(g, random.Random(seed))
        out.append(("mr", [repr(m), repr(r.nodes()), r.num_edges]))
        part = greedy_maximal_matching(g).partner
        sub = dict(sorted(part.items(), key=repr)[: len(part) // 2])
        sub = {a: b for a, b in sub.items() if sub.get(b) == a}
        out.append(("viol", repr(violating_vertices(g, sub))))
        b = random_bipartite(seed % 9 + 1, seed % 7 + 1, 0.4, seed)
        out.append(("bpo", res(bipartite_port_order_matching(b))))
        left = [v for v in b.nodes() if v[0] == "M"]
        out.append(
            ("bpoL", res(bipartite_port_order_matching(b, left_nodes=left)))
        )
        out.append(
            ("iib", res(israeli_itai_maximal_matching(b, random.Random(seed))))
        )
        out.append(("detb", res(deterministic_maximal_matching(b))))
        try:
            out.append(("bpo_gen", res(bipartite_port_order_matching(g))))
        except InvalidParameterError as err:
            out.append(("bpo_gen", type(err).__name__))
    blob = json.dumps(out, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_graph_results_unchanged():
    """Digest of 780 answers taken with the ``repr``-keyed algorithms."""
    assert _graph_results_digest() == (
        "85a37cddfd0599d5a3a7619ce4865e43959ba282f10f5bf7079fc15892ed17a0"
    )


def test_engine_rejects_an_oracle_without_edge_indices():
    def partner_only(g0):
        result = deterministic_maximal_matching(g0)
        return MMResult(partner=result.partner, rounds=result.rounds)

    prefs = complete_uniform(6, seed=1)
    engine = ASMEngine(prefs, 0.5, mm_oracle=partner_only)
    with pytest.raises(SimulationError, match="MMResult.edges"):
        engine.run()
