"""Exact reversibility oracles, mixing profiles, and the escape-time law."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbsmc.diagnostics import (
    KERNEL_KINDS,
    LAW_KINDS,
    OracleGuardError,
    _normalize,
    check_detailed_balance,
    even_subsets,
    exact_stationary,
    exit_probability,
    exit_time_experiment,
    geometric_fit,
    mixing_profile,
    pm_stationary,
    transition_kernel,
    tv_distance,
)
from gbsmc.graphs import (Graph, complete, complete_bipartite,
                          enumerate_matchings, hard_instance,
                          hard_instance_core_matching)
from gbsmc.pm_chain import default_inner_steps

from conftest import balance_suite, capped_kernel
from oracles import CHI2_CRIT_1PCT, matching_law, naive_hafnian_subset

settings.load_profile("suite")


# --- laws and total variation ---------------------------------------------

def test_from_weights_is_exact_and_drops_zero_mass():
    law = _normalize({"a": 3, "b": 1, "c": 0})
    assert law == {"a": Fraction(3, 4), "b": Fraction(1, 4)}
    assert all(isinstance(p, Fraction) for p in law.values())


def test_from_weights_rejects_empty_mass():
    with pytest.raises(ValueError, match="vanish"):
        _normalize({"a": 0})
    with pytest.raises(ValueError, match="vanish"):
        tv_distance(Counter(), Counter({"a": 1}))


def test_from_counts_and_length():
    law = _normalize(Counter({"x": 2, "y": 2}))
    assert len(law) == 2
    assert law["x"] == Fraction(1, 2)


def test_normalize_is_float_once_any_weight_is():
    assert _normalize({"a": 1, "b": Fraction(1, 2), "c": 0.5}) == {
        "a": 0.5, "b": 0.25, "c": 0.25}
    assert all(isinstance(p, float)
               for p in _normalize({"a": 1, "b": 1.0}).values())
    assert _normalize({"a": 2.0, "b": 2.0}) == {"a": 0.5, "b": 0.5}


def test_tv_distance_on_raw_counters_is_that_of_their_laws():
    p = Counter({"a": 3, "b": 1})
    q = Counter({"b": 2, "c": 2})
    tv = tv_distance(p, q)
    assert tv == Fraction(3, 4)
    assert isinstance(tv, Fraction)
    assert tv == tv_distance(_normalize(p), _normalize(q))
    assert isinstance(tv_distance(p, {"b": 0.5, "c": 0.5}), float)


@given(st.dictionaries(st.integers(0, 5), st.integers(1, 9),
                       min_size=1, max_size=6),
       st.dictionaries(st.integers(0, 5), st.integers(1, 9),
                       min_size=1, max_size=6),
       st.integers(1, 7))
def test_tv_distance_is_a_metric_on_tables(wp, wq, scale):
    assert tv_distance(wp, wp) == 0
    assert tv_distance(wp, wq) == tv_distance(wq, wp)
    assert 0 <= tv_distance(wp, wq) <= 1
    scaled = {k: scale * w for k, w in wp.items()}
    assert tv_distance(scaled, wq) == tv_distance(wp, wq)


def test_tv_distance_disjoint_supports_is_one():
    assert tv_distance({"a": 1}, {"b": 1}) == 1


# --- exact stationary laws -------------------------------------------------

@pytest.mark.parametrize("lam", [Fraction(1, 4), 1, Fraction(5, 2)])
def test_matching_single_law_matches_independent_enumeration(lam, k4):
    assert exact_stationary(k4, lam, "matching_single") \
        == matching_law(k4.edges, lam)


@pytest.mark.parametrize("name", ["square", "k6"])
def test_matching_double_law_matches_naive_hafnian(name, request):
    g = request.getfixturevalue(name)
    lam = Fraction(2, 3)
    expected = {}
    for x in enumerate_matchings(g):
        key = tuple(sorted(g.edges[i] for i in x.idxs))
        members = tuple(v for v in range(g.n) if x.partner[v] != -1)
        haf = naive_hafnian_subset(g.n, g.edges, members)
        expected[key] = lam ** (2 * len(x.idxs)) * haf
    assert exact_stationary(g, lam, "matching_double") \
        == _normalize(expected)


@pytest.mark.parametrize("law,power,square",
                         [("vertexset_single", 1, False),
                          ("vertexset_double", 2, True)])
def test_vertexset_laws_match_brute_force(law, power, square, k6):
    lam = Fraction(1, 2)
    weights = {}
    for bits in even_subsets(k6.n):
        members = tuple(v for v in range(k6.n) if bits >> v & 1)
        haf = Fraction(naive_hafnian_subset(k6.n, k6.edges, members))
        exponent = bits.bit_count() if square else bits.bit_count() // 2
        w = lam ** exponent * haf ** power
        if w > 0:
            weights[bits] = w
    assert exact_stationary(k6, lam, law) == _normalize(weights)


def test_oracle_guards_trip_before_enumerating():
    with pytest.raises(OracleGuardError, match="12"):
        exact_stationary(complete(13), 1, "matching_single")
    with pytest.raises(OracleGuardError, match="14"):
        exact_stationary(Graph(15, [(0, 1)]), 1, "vertexset_double")
    with pytest.raises(ValueError, match="unknown law"):
        exact_stationary(complete(4), 1, "uniform")
    assert set(LAW_KINDS) == {"matching_single", "matching_double",
                              "vertexset_single", "vertexset_double"}


# --- exact kernels ---------------------------------------------------------

def _rows_sum_to_one(kernel):
    return all(sum(row.values()) == 1
               and all(0 <= p <= 1 for p in row.values())
               for row in kernel.values())


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum", "double_loop"])
def test_kernel_rows_are_exact_distributions(dynamics, k4):
    kernel = transition_kernel(k4, dynamics, lam=Fraction(1, 3))
    assert _rows_sum_to_one(kernel)
    assert all(isinstance(p, Fraction)
               for row in kernel.values() for p in row.values())


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum", "double_loop"])
def test_edgeless_graph_kernel_holds(dynamics):
    assert transition_kernel(Graph(3, []), dynamics, lam=2) == {(): {(): 1}}


def test_pm_kernel_rows_sum_to_one(k4, square):
    assert _rows_sum_to_one(transition_kernel(k4, "pm"))
    assert _rows_sum_to_one(transition_kernel(square, "pm"))
    assert _rows_sum_to_one(transition_kernel(square, "double_loop",
                                              lam=Fraction(1, 2)))


def test_kernel_validation_errors(k4):
    with pytest.raises(ValueError, match="unknown dynamics"):
        transition_kernel(k4, "metropolis", lam=1)
    with pytest.raises(ValueError, match="fugacity"):
        transition_kernel(k4, "glauber")
    assert len(KERNEL_KINDS) == 4


@pytest.mark.parametrize("dynamics", ["double_loop", "pm"])
def test_lazy_kernel_is_refused_where_there_is_none(dynamics, k4):
    with pytest.raises(ValueError, match="lazy"):
        transition_kernel(k4, dynamics, lam=1, lazy=True)


def test_lazy_kernel_halves_off_diagonal_mass(k4):
    brisk = transition_kernel(k4, "glauber", lam=1)
    lazy = transition_kernel(k4, "glauber", lam=1, lazy=True)
    for state, row in brisk.items():
        for target, p in row.items():
            if target != state:
                assert lazy[state][target] == p / 2


@pytest.mark.parametrize("dynamics,law_kind",
                         [("glauber", "matching_single"),
                          ("jerrum", "matching_single"),
                          ("double_loop", "matching_double")])
@pytest.mark.parametrize("lam", [Fraction(1, 4), 1, 4])
def test_detailed_balance_is_literally_zero(dynamics, law_kind, lam, k4,
                                            square):
    for g in (k4, square):
        gap = check_detailed_balance(transition_kernel(g, dynamics, lam=lam),
                                     exact_stationary(g, lam, law_kind))
        assert gap == 0


def test_pm_detailed_balance_exact(k33, square):
    for g in (k33, square):
        assert check_detailed_balance(
            transition_kernel(g, "pm"), pm_stationary(g)) == 0


@pytest.mark.parametrize("dynamics,law_kind",
                         [("glauber", "matching_single"),
                          ("jerrum", "matching_single"),
                          ("double_loop", "matching_double")])
def test_capped_kernels_balance_the_capped_law_exactly(dynamics, law_kind):
    """A window that post-selects holds adds at its target size, which
    restricts the chain to the matchings of at most that many edges; the
    restricted kernel balances the law restricted there and renormalised,
    for every cap below the largest matching, on the balance suite."""
    for name, g in balance_suite():
        for lam in (Fraction(1, 4), 1, 4):
            kernel = transition_kernel(g, dynamics, lam=lam)
            law = exact_stationary(g, lam, law_kind)
            for cap in range(max(map(len, kernel))):
                capped = capped_kernel(kernel, cap)
                assert all(sum(row.values()) == 1 for row in capped.values())
                restricted = _normalize({x: p for x, p in law.items()
                                         if len(x) <= cap})
                assert set(restricted) == set(capped), (name, lam, cap)
                assert check_detailed_balance(capped, restricted) == 0, (
                    name, lam, cap)


def test_detailed_balance_flags_a_wrong_law(k4):
    skew = exact_stationary(k4, 1, "matching_single")
    keys = list(skew)
    skew[keys[0]], skew[keys[1]] = skew[keys[1]], skew[keys[0]] * 2
    wrong = _normalize(skew)
    assert check_detailed_balance(transition_kernel(k4, "glauber", lam=1),
                                  wrong) > 0


def test_pm_stationary_masses(k4, square):
    uniform = pm_stationary(k4)
    assert len(uniform) == 9  # 3 perfect + 6 single-edge states on K4
    assert set(uniform.values()) == {Fraction(1, 9)}
    # 2 perfect + 4 single-edge states on the 4-cycle
    states = [((0, 1),), ((0, 1), (2, 3)), ((0, 3),), ((0, 3), (1, 2)),
              ((1, 2),), ((2, 3),)]
    assert pm_stationary(square) == {key: Fraction(1, 6) for key in states}


# --- exact mixing profiles ------------------------------------------------

def _push(kernel, row):
    pushed = {}
    for x, p in row.items():
        for y, pxy in kernel[x].items():
            pushed[y] = pushed.get(y, 0) + p * pxy
    return pushed


def test_mixing_profile_of_glauber_on_k4_is_exact(k4):
    # from the empty matching K4's symmetry keeps the mass uniform within
    # each size, as the law is, so TV in matching space is TV on sizes;
    # there glauber at lambda = 1 is a 3-state chain
    sizes = {0: {1: Fraction(1, 2), 0: Fraction(1, 2)},
             1: {0: Fraction(1, 12), 2: Fraction(1, 12), 1: Fraction(5, 6)},
             2: {1: Fraction(1, 6), 2: Fraction(5, 6)}}
    size_law = {0: Fraction(1, 10), 1: Fraction(6, 10), 2: Fraction(3, 10)}
    row, by_hand = {0: 1}, []
    for _ in range(3):
        row = _push(sizes, row)
        by_hand.append(tv_distance(row, size_law))
    assert by_hand == [Fraction(2, 5), Fraction(31, 120), Fraction(151, 720)]

    kernel = transition_kernel(k4, "glauber", 1)
    law = exact_stationary(k4, 1, "matching_single")
    profile = mixing_profile(kernel, (), law, (3, 1, 2, 0, 2))
    assert profile == {0: Fraction(9, 10), 1: by_hand[0], 2: by_hand[1],
                       3: by_hand[2]}
    assert all(isinstance(d, Fraction) for d in profile.values())


def test_mixing_profile_takes_a_capped_kernel(k4):
    # capped at one edge, glauber on K4 at lambda = 1 is the 2-state chain
    # 0 -> 1 w.p. 1/2, 1 -> 0 w.p. 1/12, with law (1/7, 6/7): its TV from
    # the empty matching is (6/7)(5/12)^t
    kernel = capped_kernel(transition_kernel(k4, "glauber", 1), 1)
    law = {x: p for x, p in exact_stationary(k4, 1, "matching_single").items()
           if len(x) <= 1}
    profile = mixing_profile(kernel, (), law, range(6))
    assert profile == {t: Fraction(6, 7) * Fraction(5, 12) ** t
                       for t in range(6)}


def _float_kernel(kernel):
    return {x: {y: float(p) for y, p in row.items()}
            for x, row in kernel.items()}


def _crosses_at(kernel, starts, law, eps, steps):
    """True if the worst TV over ``starts`` exceeds ``eps`` after
    ``steps - 1`` steps and is at most ``eps`` after ``steps``: TV to the
    stationary law never grows, so ``steps`` is t_mix(eps) from the worst
    of ``starts``."""
    profiles = [mixing_profile(kernel, x, law, (steps - 1, steps))
                for x in starts]
    return (max(p[steps - 1] for p in profiles) > eps
            >= max(p[steps] for p in profiles))


def _core(n_squares):
    g = hard_instance(n_squares)
    return g, tuple(sorted(g.edges[i]
                           for i in hard_instance_core_matching(g).idxs))


_CASES = [(f"K{n}", complete(n), (), 1, pair)
          for n, pair in ((4, (3, 8)), (6, (7, 25)), (8, (14, 50)))]
_CASES += [(f"hard{s}", *_core(s), 2, pair)
           for s, pair in ((1, (44, 250)), (2, (100, 625)))]


@pytest.mark.parametrize("g,start,lam,dynamics,steps", [
    pytest.param(g, start, lam, dynamics, t, id=f"{name}-{dynamics}")
    for name, g, start, lam, pair in _CASES
    for dynamics, t in zip(("glauber", "double_loop"), pair)
])
def test_mixing_times_on_dense_graphs_and_hard_instances(g, start, lam,
                                                          dynamics, steps):
    # t_mix(1/4) in floats, from the empty matching on K_n and from the
    # isolated perfect matching on the hard instance; TV crosses 1/4 with
    # at least 2e-4 to spare on each side
    kernel = _float_kernel(transition_kernel(g, dynamics, lam))
    law = exact_stationary(g, lam, "matching_single" if dynamics == "glauber"
                           else "matching_double")
    assert _crosses_at(kernel, [start], law, Fraction(1, 4), steps)


@pytest.mark.parametrize("g,steps", [
    pytest.param(complete(4), 15, id="K4"),
    pytest.param(complete(6), 32, id="K6"),
    pytest.param(complete(8), 56, id="K8"),
    pytest.param(complete_bipartite(3, 3), 24, id="K33"),
])
def test_inner_chain_mixes_far_inside_its_default_budget(g, steps):
    # steps of the pm chain to TV <= 0.01 from its worst perfect matching;
    # default_inner_steps gives 17-73 times as many.  Every perfect
    # matching is a start, except on K8, whose automorphisms carry any one
    # to any other
    kernel = _float_kernel(transition_kernel(g, "pm"))
    perfect = [x for x in kernel if len(x) == g.n // 2]
    starts = perfect[:1] if g.n == 8 else perfect
    assert _crosses_at(kernel, starts, pm_stationary(g), 0.01, steps)
    assert default_inner_steps(g.n) >= 17 * steps


# --- escape-time law -------------------------------------------------------

@pytest.mark.parametrize("n,lam,expected", [
    (1, 1, Fraction(1, 18)),
    (4, 1, Fraction(1, 102)),
    (6, 1, Fraction(1, 390)),
    (2, Fraction(1, 2), Fraction(1, 3) * Fraction(1, 5) * Fraction(4, 5)),
])
def test_exit_probability_closed_form(n, lam, expected):
    phi = exit_probability(n, lam)
    assert isinstance(phi, Fraction)
    assert phi == expected


def test_exit_probability_accepts_floats():
    assert exit_probability(1, 1.0) == Fraction(1, 18)


def test_exit_times_match_the_geometric_prediction():
    result = exit_time_experiment(1, 1, trials=300, seed=2)
    assert len(result.times) == 300
    assert result.expected_mean == pytest.approx(18.0)
    assert result.per_step_probability == Fraction(1, 18)
    assert abs(result.mean - 18.0) <= 0.15 * 18.0
    assert result.ci95[0] < result.mean < result.ci95[1]
    assert "hard_instance(1)" in result.summary()


def test_exit_time_experiment_refuses_a_step_cap_past_the_limit(
        monkeypatch):
    """hard_instance(1) at lambda = 1 exits with probability 1/18 a step,
    so its step cap 200/phi is 3,600: run at that limit, refused below."""
    from gbsmc import diagnostics
    monkeypatch.setattr(diagnostics, "EXIT_STEP_LIMIT", 3600)
    assert len(exit_time_experiment(1, 1, trials=2).times) == 2
    monkeypatch.setattr(diagnostics, "EXIT_STEP_LIMIT", 3599)
    with pytest.raises(ValueError, match="3,599 steps"):
        exit_time_experiment(1, 1, trials=2)
    monkeypatch.undo()
    for lam in (1e150, 1e200, 10 ** 400):  # 1/phi past every float, too
        with pytest.raises(ValueError, match="step cap"):
            exit_time_experiment(4, lam, trials=1)


def test_geometric_fit_accepts_true_geometric_samples():
    rng = random.Random(7)
    p = 1 / 18
    samples = [min(int(math.log(rng.random()) / math.log(1 - p)) + 1, 10_000)
               for _ in range(600)]
    fit = geometric_fit(samples, p)
    assert fit.passed
    assert fit.critical_1pct == CHI2_CRIT_1PCT[fit.dof]
    observed_total = sum(o for o, _ in fit.bins)
    assert observed_total == 600


def test_geometric_fit_rejects_a_constant():
    fit = geometric_fit([4] * 200, 1 / 18)
    assert not fit.passed
    assert fit.statistic > fit.critical_1pct


def test_geometric_fit_needs_enough_samples():
    with pytest.raises(ValueError, match="20"):
        geometric_fit([1, 2, 3], 0.5)
