"""Graph construction, generators, matchings, and edge-list round-trips."""

import math

import pytest
from hypothesis import given, strategies as st

from gbsmc.graphs import (
    EnumerationCapError,
    GraphError,
    GraphSpec,
    Matching,
    bits_to_tuple,
    bitset,
    enumerate_matchings,
    from_edge_list_text,
    gen_graph,
    hard_instance,
    hard_instance_core_matching,
    to_edge_list_text,
)
from gbsmc.hafnian import count_induced_edges

from oracles import double_factorial, factorial


def test_complete_graph_edge_count():
    g = gen_graph(GraphSpec.of("complete", n=4))
    assert g.n == 4 and g.m == 6


@pytest.mark.parametrize("family,params", [
    ("erdos_renyi", {"n": 12, "p": 0.4}),
    ("complete", {"n": 5}),
    ("cycle", {"n": 7}),
    ("path", {"n": 1}),
])
def test_neighbor_tuples_match_the_adjacency_bitsets(family, params):
    g = gen_graph(GraphSpec.of(family, **params), seed=2)
    assert len(g.nbrs) == g.n
    for v in range(g.n):
        assert list(g.nbrs[v]) == sorted(g.nbrs[v])
        assert bitset(g.nbrs[v]) == g.adj[v]
        assert len(g.nbrs[v]) == g.adj[v].bit_count()


def test_bitset_round_trip():
    assert bits_to_tuple(bitset([5, 1, 3])) == (1, 3, 5)
    assert bitset([]) == 0


@given(st.integers(2, 30), st.integers(0, 2**32))
def test_generator_determinism(n, seed):
    spec = GraphSpec.of("erdos_renyi", n=n, p=0.35)
    assert gen_graph(spec, seed=seed).edges == gen_graph(spec, seed=seed).edges


def test_er_edge_count_within_four_sigma():
    n, p = 256, 0.4
    pairs = n * (n - 1) // 2
    sd = math.sqrt(pairs * p * (1 - p))
    for seed in range(5):
        g = gen_graph(GraphSpec.of("erdos_renyi", n=n, p=p), seed=seed)
        assert abs(g.m - p * pairs) < 4 * sd


def test_er_rejects_bad_probability():
    with pytest.raises(GraphError):
        gen_graph(GraphSpec.of("erdos_renyi", n=5, p=1.5))


def test_decreasing_degree_rule():
    # vertex i is joined to 0..n-1-i, duplicates collapsed
    g = gen_graph(GraphSpec.of("decreasing_degree", n=8))
    for u, v in g.edges:
        lo, hi = min(u, v), max(u, v)
        assert lo <= g.n - 1 - hi or hi <= g.n - 1 - lo
    assert len(g.nbrs[0]) >= len(g.nbrs[g.n - 1])


def test_planted_clique_occupies_prefix():
    g = gen_graph(GraphSpec.of("planted_clique", n=24, clique_size=6, p=0.1),
                  seed=3)
    for u in range(6):
        for v in range(u + 1, 6):
            assert (u, v) in g.edge_index


def test_planted_clique_induces_complete_graph():
    g = gen_graph(GraphSpec.of("planted_clique", n=24, clique_size=6, p=0.1),
                  seed=3)
    assert count_induced_edges(g, range(6)) == 15


def test_sparse_bipartite_exact_edge_count():
    g = gen_graph(GraphSpec.of("sparse_bipartite", n_per_side=16,
                               n_edges=50), seed=2)
    assert g.m == 50
    for u, v in g.edges:
        assert (u < 16) != (v < 16)


def test_sparse_bipartite_rejects_overfull():
    with pytest.raises(GraphError):
        gen_graph(GraphSpec.of("sparse_bipartite", n_per_side=4, n_edges=17))


def test_random_bipartite_sides():
    g = gen_graph(GraphSpec.of("random_bipartite", n_per_side=5, p=0.5),
                  seed=1)
    assert g.n == 10
    assert all((u < 5) != (v < 5) for u, v in g.edges)


@pytest.mark.parametrize("squares", [1, 2, 4])
def test_hard_instance_shape(squares):
    g = hard_instance(squares)
    assert g.n == 4 * squares
    assert g.m == 6 * squares


def test_hard_instance_core_matching_is_perfect():
    g = hard_instance(3)
    m0 = hard_instance_core_matching(g)
    assert m0.covered == g.full_bits
    m0.validate()


def test_enumerate_matchings_path():
    g = gen_graph(GraphSpec.of("path", n=3))  # 2 edges
    assert len(list(enumerate_matchings(g))) == 3


def test_enumerate_matchings_k4_perfect():
    g = gen_graph(GraphSpec.of("complete", n=4))
    per = [x for x in enumerate_matchings(g) if len(x.idxs) == 2]
    assert len(per) == 3


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_complete_perfect_matching_count(n):
    g = gen_graph(GraphSpec.of("complete", n=2 * n))
    per = [x for x in enumerate_matchings(g, max_size=n)
           if len(x.idxs) == n]
    assert len(per) == double_factorial(2 * n - 1)


@pytest.mark.parametrize("m,n,p", [(3, 3, 2), (4, 4, 3), (5, 4, 2)])
def test_bipartite_matching_count(m, n, p):
    g = gen_graph(GraphSpec.of("complete_bipartite", m=m, n=n))
    count = sum(1 for x in enumerate_matchings(g, max_size=p)
                if len(x.idxs) == p)
    expected = (math.comb(m, p) * math.comb(n, p) * factorial(p))
    assert count == expected


def test_enumeration_cap_trips():
    g = gen_graph(GraphSpec.of("complete", n=12))
    with pytest.raises(EnumerationCapError):
        list(enumerate_matchings(g, cap=10))


@given(st.integers(0, 2**31), st.integers(5, 12))
def test_matching_add_remove_consistency(seed, n):
    """Random add/remove walks keep partner, idxs, and covered in sync."""
    import random
    g = gen_graph(GraphSpec.of("erdos_renyi", n=n, p=0.6), seed=seed % 97)
    rng = random.Random(seed)
    x = Matching(g)
    for _ in range(60):
        if g.m == 0:
            break
        i = rng.randrange(g.m)
        if i in x.idxs:
            x.remove(i)
        elif not x.covered & g.edge_bits[i]:
            x.add(i)
    x.validate()
    assert x.covered == bitset(v for pair in x.pairs() for v in pair)


def test_matching_rejects_conflicting_edge():
    g = gen_graph(GraphSpec.of("complete", n=4))
    x = Matching(g, [0])  # (0, 1)
    assert x.covered & g.edge_bits[g.edge_index[(1, 2)]]
    with pytest.raises(GraphError):
        x.add(g.edge_index[(1, 2)])


def test_edge_list_round_trip_unweighted():
    g = gen_graph(GraphSpec.of("erdos_renyi", n=7, p=0.5), seed=4)
    text = to_edge_list_text(g)
    h = from_edge_list_text(text)
    assert h.edges == g.edges and h.n == g.n
    assert to_edge_list_text(h) == text  # byte-stable second pass


@pytest.mark.parametrize("text", [
    "4 5 weighted\n0 1 2\n0 2 7/4\n0 3 3/2\n1 2 1\n2 3 5/4\n",
    "3 2\n0 1\n1 2 3\n",
], ids=["weighted-header", "weight-column"])
def test_edge_list_refuses_edge_weights(text):
    with pytest.raises(GraphError, match="reads unweighted edge lists"):
        from_edge_list_text(text)


def test_edge_list_ignores_comments():
    g = from_edge_list_text("# demo\n3 2\n0 1\n# middle\n1 2\n")
    assert g.n == 3 and g.m == 2
