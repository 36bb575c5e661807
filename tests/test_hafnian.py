"""Exact hafnian engine versus independent brute-force references.

The references in ``oracles.py`` recurse over raw pairings and never touch
package internals, so agreement here is meaningful.
"""

import gc
import random
import types

import pytest
from hypothesis import given, strategies as st

import gbsmc
from gbsmc import hafnian as hafnian_module
from gbsmc.graphs import (Graph, GraphSpec, bitset, complete_bipartite,
                          decreasing_degree, gen_graph, hard_instance,
                          planted_clique)
from gbsmc.hafnian import (
    count_induced_edges,
    density,
    enumerate_perfect_matchings,
    hafnian,
    hafnian_bits,
    memo_bound,
    perfect_matchings_bits,
)

from oracles import double_factorial, factorial, naive_hafnian_subset


def test_the_package_attribute_is_the_module():
    assert isinstance(gbsmc.hafnian, types.ModuleType)
    assert hafnian_module is gbsmc.hafnian


@pytest.mark.parametrize("n", range(1, 9))
def test_complete_graph_closed_form(n):
    g = gen_graph(GraphSpec.of("complete", n=2 * n))
    assert hafnian(g) == double_factorial(2 * n - 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_complete_bipartite_closed_form(n):
    g = gen_graph(GraphSpec.of("complete_bipartite", m=n, n=n))
    assert hafnian(g) == factorial(n)


@pytest.mark.parametrize("squares", [1, 2, 3, 4, 6])
def test_hard_instance_closed_form(squares):
    assert hafnian(hard_instance(squares)) == 1 + 2 ** squares


def test_empty_set_scores_one():
    g = gen_graph(GraphSpec.of("complete", n=4))
    assert hafnian(g, []) == 1


def test_odd_set_scores_zero():
    g = gen_graph(GraphSpec.of("complete", n=5))
    assert hafnian(g, [0, 1, 2]) == 0


def test_unbalanced_bipartite_scores_zero():
    g = gen_graph(GraphSpec.of("complete_bipartite", m=3, n=3))
    # two left + two right has 2! matchings; three left + one right has none
    assert hafnian(g, [0, 1, 3, 4]) == 2
    assert hafnian(g, [0, 1, 2, 3]) == 0


@given(st.integers(0, 10_000), st.integers(4, 10))
def test_random_graph_matches_naive_recursion(seed, n):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=n, p=0.55), seed=seed)
    expected = naive_hafnian_subset(n, g.edges, range(n))
    assert hafnian(g) == expected


@given(st.integers(0, 10_000))
def test_random_subset_matches_naive_recursion(seed):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=10, p=0.5), seed=seed)
    rng = random.Random(seed)
    subset = sorted(rng.sample(range(10), 6))
    assert hafnian(g, subset) == naive_hafnian_subset(10, g.edges, subset)


@given(st.integers(0, 10_000))
def test_dense_subset_matches_naive_recursion(seed):
    # 12 of 32 vertices at p = 0.8: most pairings share sub-sets, so the
    # memo is hit on nearly every branch.
    rng = random.Random(seed)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=32, p=0.8), seed=seed)
    subset = rng.sample(range(32), 12)
    assert hafnian_bits(g, bitset(subset)) == naive_hafnian_subset(
        32, g.edges, subset)


def _crossover_cases():
    """(graph, subset) params on both sides of ``RELABEL_MIN``."""
    cases = []
    for p in (0.3, 0.5, 0.8):
        g = gen_graph(GraphSpec.of("erdos_renyi", n=40, p=p), seed=f"x{p}")
        rng = random.Random(p)
        cases += [(f"er{p}-{size}", g, rng.sample(range(40), size))
                  for size in range(4, 17, 2)]
    g = planted_clique(40, 14, 0.3, seed=2)
    rng = random.Random(2)
    cases += [(f"near-clique-{j}-outsiders", g,
               list(range(14 - j)) + rng.sample(range(14, 40), j))
              for j in range(5)]
    g = hard_instance(4)
    cases += [("hard-instance", g, range(16)),
              ("hard-instance-12", g, range(2, 14))]
    g = complete_bipartite(8, 8)
    cases += [("complete-bipartite", g, range(16)),
              ("complete-bipartite-6-6", g, [*range(1, 7), *range(9, 15)]),
              ("complete-bipartite-8-6", g, [*range(8), *range(9, 15)])]
    g = decreasing_degree(16)
    cases += [("decreasing-degree", g, range(16)),
              ("decreasing-degree-12", g, range(4, 16))]
    g = gen_graph(GraphSpec.of("erdos_renyi", n=40, p=0.6), seed=9)
    g = Graph(40, [e for e in g.edges if 39 not in e])
    cases += [("isolated-vertex", g, [39, *range(13)]),
              ("odd-set", g, range(13))]
    return [pytest.param(g, subset, id=name) for name, g, subset in cases]


@pytest.mark.parametrize("g, subset", _crossover_cases())
def test_both_orders_match_naive_recursion_across_the_crossover(g, subset):
    # One-shot calls of RELABEL_MIN or more vertices are relabelled; a kept
    # memo always runs in host order.
    bits = bitset(subset)
    expected = naive_hafnian_subset(g.n, g.edges, subset)
    assert hafnian_bits(g, bits) == expected
    assert hafnian_bits(g, bits, {}) == expected


def test_the_order_keeps_the_frontier_small():
    # A star on 0 with leaves 1, 2, 3, and the edge 2-3.  Vertex 1 has the
    # least degree, so it goes first and puts 0 on the frontier.  Ordering
    # any of 0, 2 or 3 next leaves two vertices there; the lowest label wins
    # the tie.  Local labels 0..3 are host vertices 1, 0, 2, 3.
    g = Graph(4, [(0, 1), (0, 2), (0, 3), (2, 3)])
    assert hafnian_module._frontier_adj(g.adj, g.full_bits) == [
        0b0010, 0b1101, 0b1010, 0b0110]


def test_complete_bipartite_memo_stays_at_two_to_the_side():
    # Sides {0, 2, 4, ...} and {1, 3, 5, ...}.  Host order alternates the
    # sides and so does an order by minimum degree among the unordered;
    # both need several times the 2^m - 1 sub-sets of an order that keeps
    # the frontier to one side.
    m = 8
    g = Graph(2 * m, [(2 * i, 2 * j + 1) for i in range(m) for j in range(m)])
    local = hafnian_module._frontier_adj(g.adj, g.full_bits)
    memo, host_memo = {}, {}
    assert hafnian_module._haf(local, g.full_bits, memo) == factorial(m)
    assert hafnian_bits(g, g.full_bits, host_memo) == factorial(m)
    assert len(memo) == 2 ** m - 1 < len(host_memo)


def test_only_one_shot_unweighted_sets_past_the_crossover_relabel(
        monkeypatch):
    relabelled = []
    real = hafnian_module._frontier_adj
    monkeypatch.setattr(hafnian_module, "_frontier_adj",
                        lambda adj, bits: relabelled.append(bits)
                        or real(adj, bits))
    g = gen_graph(GraphSpec.of("erdos_renyi", n=30, p=0.5), seed=1)
    small = bitset(range(hafnian_module.RELABEL_MIN - 2))
    big = bitset(range(hafnian_module.RELABEL_MIN))
    hafnian_bits(g, small)
    hafnian_bits(g, big, {})
    assert relabelled == []
    hafnian_bits(g, big)
    assert relabelled == [big]


def test_values_are_exact_integers_not_floats():
    big = hafnian(gen_graph(GraphSpec.of("hard_instance", n_squares=64)))
    assert isinstance(big, int)
    assert big == 1 + 2 ** 64  # needs arbitrary precision: > 2**53


def test_hafnian_bits_agrees_with_vertex_list():
    g = gen_graph(GraphSpec.of("erdos_renyi", n=9, p=0.5), seed=12)
    subset = [0, 2, 3, 7]
    assert hafnian_bits(g, bitset(subset)) == hafnian(g, subset)


def test_hafnian_memo_consistency():
    g = gen_graph(GraphSpec.of("erdos_renyi", n=10, p=0.5), seed=3)
    memo = {}
    first = hafnian_bits(g, g.full_bits, memo)
    assert memo  # populated
    assert hafnian_bits(g, g.full_bits, memo) == first == hafnian(g)


def test_a_kept_memo_stays_bounded(monkeypatch):
    limit = 64
    monkeypatch.setattr(hafnian_module, "MEMO_LIMIT", limit)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=40, p=0.6), seed=5)
    rng = random.Random(5)
    memo, cleared = {}, 0
    for _ in range(200):
        bits = bitset(rng.sample(range(40), rng.choice((4, 8, 10))))
        fresh = {}
        expected = hafnian_bits(g, bits, fresh)
        before = len(memo)
        assert hafnian_bits(g, bits, memo) == expected
        cleared += len(memo) < before
        # cleared on entry, so one call adds at most its own sub-results
        assert len(memo) <= limit + len(fresh)
    assert cleared


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_the_memo_bound_is_exact_on_complete_graphs(n):
    g = gen_graph(GraphSpec.of("complete", n=n))
    memo = {}
    hafnian_bits(g, g.full_bits, memo)
    assert memo_bound(g, g.full_bits) == len(memo)


def test_the_memo_bound_covers_what_a_call_memoises():
    rng = random.Random(8)
    for seed in range(40):
        n = rng.randrange(2, 21, 2)
        g = gen_graph(GraphSpec.of("erdos_renyi", n=n, p=rng.random()),
                      seed=seed)
        bits = bitset(rng.sample(range(n), rng.randrange(0, n + 1, 2)))
        memo = {}
        hafnian_bits(g, bits, memo)
        assert len(memo) <= memo_bound(g, bits)


def test_the_memo_bound_grows_linearly_on_a_cycle_of_squares():
    # Host order keeps the frontier of hard_instance to a few vertices.
    g = hard_instance(64)
    memo = {}
    assert hafnian_bits(g, g.full_bits, memo) == hafnian(g)
    assert len(memo) <= memo_bound(g, g.full_bits) < 4 * g.n


def test_a_call_leaves_no_cyclic_garbage():
    g = gen_graph(GraphSpec.of("erdos_renyi", n=12, p=0.6), seed=4)
    gc.collect()
    gc.disable()
    try:
        hafnian_bits(g, g.full_bits)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumerate_perfect_matchings_k4():
    g = gen_graph(GraphSpec.of("complete", n=4))
    pms = list(enumerate_perfect_matchings(g))
    assert len(pms) == 3
    covered = {frozenset(x.pairs()) for x in pms}
    assert len(covered) == 3  # all distinct


def test_perfect_matchings_bits_counts_match_hafnian():
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.7), seed=21)
    subset = bitset([0, 1, 4, 5, 6, 7])
    pms = list(perfect_matchings_bits(g, subset))
    assert len(pms) == hafnian_bits(g, subset)
    # a dense 16-vertex subset, where the memo merges most branches
    g = gen_graph(GraphSpec.of("erdos_renyi", n=64, p=0.6), seed=21)
    subset = bitset(random.Random(21).sample(range(64), 16))
    assert len(perfect_matchings_bits(g, subset)) == hafnian_bits(g, subset)


def test_count_induced_edges_and_density():
    g = gen_graph(GraphSpec.of("complete", n=6))
    s = [0, 1, 2]
    assert count_induced_edges(g, s) == 3
    assert density(g, s) == pytest.approx(1.0)
    # density normalizes by |S|, matching edges-per-vertex scoring
    assert density(g, [0, 1]) == pytest.approx(0.5)
    rng = random.Random(11)
    for seed in range(20):
        g = gen_graph(GraphSpec.of("erdos_renyi", n=24, p=rng.random()),
                      seed=seed)
        members = rng.sample(range(g.n), rng.randrange(g.n + 1))
        pairs = sum(1 for i, u in enumerate(members) for v in members[i + 1:]
                    if (min(u, v), max(u, v)) in g.edge_index)
        assert count_induced_edges(g, members) == pairs
        assert count_induced_edges(g, bitset(members)) == pairs
    assert count_induced_edges(g, None) == g.m
