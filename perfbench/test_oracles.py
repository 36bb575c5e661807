"""Tests of the benchmark's own oracles and of its span arithmetic.

    python3 -m pytest perfbench/test_oracles.py

Each check is shown to accept the right answer and to reject a wrong one.
"""

import math
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import oracles
import run
import tracing


def complete_edges(n):
    return set(combinations(range(n), 2))


def test_hafnian_of_complete_graphs_is_double_factorial():
    for n in range(0, 6):
        vs = range(2 * n)
        assert (oracles.hafnian(vs, complete_edges(2 * n))
                == oracles.double_factorial(2 * n - 1))
    assert oracles.hafnian(range(5), complete_edges(5)) == 0


def test_hafnian_of_complete_bipartite_graphs_is_factorial():
    for n in range(1, 6):
        edges = {(u, n + v) for u in range(n) for v in range(n)}
        assert oracles.hafnian(range(2 * n), edges) == math.factorial(n)


def test_hafnian_uses_only_the_induced_subgraph():
    # a 6-cycle has two perfect matchings; drop vertex pair {0, 3} and the
    # path 1-2 / 4-5 remains, which has one
    cycle = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)}
    assert oracles.hafnian(range(6), cycle) == 2
    assert oracles.hafnian((1, 2, 4, 5), cycle) == 1


def test_induced_edges_matches_brute_force():
    import random
    rng = random.Random(5)
    n = 20
    edges = {e for e in combinations(range(n), 2) if rng.random() < 0.4}
    adjacency = [[(min(u, v), max(u, v)) in edges for v in range(n)]
                 for u in range(n)]
    for _ in range(50):
        vs = rng.sample(range(n), rng.randint(0, n))
        brute = sum(adjacency[u][v] for u in vs for v in vs) // 2
        assert oracles.induced_edges(vs, edges) == brute


def test_k6_laws_sum_to_one_and_follow_the_closed_form():
    for c, kind in ((1, "single"), (Fraction(1, 2), "double"),
                    (Fraction(1, 2), "single")):
        law = oracles.k6_law(c, kind)
        assert sum(law.values()) == 1
        assert len(law) == 32        # the even subsets of 6 vertices
    law = oracles.k6_law(1, "single")
    # weights 1, 15 x 1, 15 x 3, 1 x 15 over sizes 0, 2, 4, 6
    assert law[0] == Fraction(1, 76)
    assert law[0b001111] == Fraction(3, 76)
    assert law[0b111111] == Fraction(15, 76)


def _exact_counts(law, n):
    return {s: round(float(p) * n) for s, p in law.items()}


def test_law_check_rejects_the_single_loop_law_offered_as_double():
    double = oracles.k6_law(run.DOUBLE_C, "double")
    single = oracles.k6_law(run.DOUBLE_C, "single")
    n = math.prod(run.LAW_CALLS["double_loop"])
    assert oracles.tv(single, double) > 0.25
    assert oracles.law_problems(_exact_counts(double, n), double,
                                [single]) == []
    assert oracles.law_problems(_exact_counts(single, n), double,
                                [single]) != []


def test_law_check_rejects_a_bound_too_loose_to_separate_the_laws():
    double = oracles.k6_law(run.DOUBLE_C, "double")
    single = oracles.k6_law(run.DOUBLE_C, "single")
    few = _exact_counts(double, 100)
    assert any("separate" in p
               for p in oracles.law_problems(few, double, [single]))


def test_law_check_accepts_every_pass_size_the_benchmark_uses():
    for chain, (calls, samples) in run.LAW_CALLS.items():
        c, kind, other = ((run.DOUBLE_C, "double", "single")
                          if chain == "double_loop" else (1, "single", "double"))
        law = oracles.k6_law(c, kind)
        n = calls * samples
        assert oracles.law_problems(_exact_counts(law, n), law,
                                    [oracles.k6_law(c, other)]) == []


def _record(best_set, best_score, traj, evaluations=None):
    return SimpleNamespace(best_set=best_set, best_score=best_score,
                           score_trajectory=tuple(traj),
                           evaluations=(len(traj) if evaluations is None
                                        else evaluations))


def test_trial_check_accepts_a_right_record_and_rejects_wrong_ones():
    edges = complete_edges(8)
    bits = 0b1111
    haf = oracles.score("hafnian", bits, edges)
    assert haf == 3

    def rescore(b):
        return oracles.score("hafnian", b, edges)

    def problems(rec):
        return oracles.trial_problems(rec, k=4, iterations=3,
                                      rescore=rescore)

    assert problems(_record(bits, haf, [0, haf, haf])) == []
    assert problems(_record(bits, haf + 1, [0, haf, haf + 1])) != []
    assert problems(_record(bits, haf - 1, [0, haf - 1, haf - 1])) != []
    assert problems(_record(bits, haf, [haf, 0, haf])) != []
    assert problems(_record(bits, haf, [0, haf])) != []
    assert problems(_record(bits, haf, [0, haf, haf], evaluations=4)) != []
    assert problems(_record(0b11111, haf, [0, haf, haf])) != []
    assert problems(_record(None, 0, [0, 0, 0])) == []
    assert problems(_record(None, 1, [0, 0, 1])) != []


def test_density_score_is_edges_over_vertices():
    edges = complete_edges(6)
    assert oracles.score("density", 0b111, edges) == 1.0
    assert oracles.score("density", 0b1111, edges) == 1.5


def test_layer_metrics_subtract_children_and_scale_each_operation():
    spans = [
        ["solvers.trial", -1, 0.0, 1.0, {}],
        ["solvers.objective", 0, 0.1, 0.3,
         {"objective": "hafnian", "bits": 3, "nonzero": True}],
        ["hafnian.haf", 1, 0.1, 0.2, {"size": 8}],
        ["solvers.trial", -1, 1.0, 3.0, {}],
        ["solvers.proposal", 3, 1.0, 2.0, {"starved": True}],
        ["glauber.window", 4, 1.0, 1.5, {"steps": 1000}],
    ]
    m = tracing.layer_metrics(spans, [1.0, 2.0])   # the second op ran slow
    assert math.isclose(m["solvers.objective_s"], 0.2)
    assert math.isclose(m["solvers.proposal_s"], 0.5)
    assert math.isclose(m["solvers.self_s"], (1.0 - 0.2) + (1.0 - 0.5))
    assert math.isclose(m["glauber.steps_per_s"], 1000 / 0.25)
    assert math.isclose(m["hafnian.haf_us.k8"], 1e5)
    assert m["solvers.starved_draws"] == 1
    assert m["solvers.windows_per_draw"] == 1.0
    assert m["solvers.nonzero_eval_ratio"] == 1.0
