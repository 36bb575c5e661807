"""Exact reversibility oracles, mixing curves, and the escape-time law."""

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
    mixing_curve,
    pm_stationary,
    transition_kernel,
    tv_distance,
)
from gbsmc.double_loop import DoubleLoopConfig
from gbsmc.glauber import ChainConfig
from gbsmc.graphs import Graph, complete, enumerate_matchings

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


# --- empirical mixing ------------------------------------------------------

def test_mixing_curve_decreases_toward_the_law(k4):
    law = exact_stationary(k4, 1, "matching_single")
    cfg = ChainConfig(fugacity=1.0, seed=17)
    curve = mixing_curve(k4, cfg, law, checkpoints=(1, 8, 64, 256),
                         replicas=400)
    assert set(curve) == {1, 8, 64, 256}
    assert all(0 <= v <= 1 for v in curve.values())
    assert curve[256] < curve[1]
    assert curve[256] < 0.1


def test_mixing_curve_vertexset_keys(k4):
    law = exact_stationary(k4, Fraction(1, 2), "vertexset_single")
    cfg = ChainConfig(fugacity=0.5, seed=4)
    curve = mixing_curve(k4, cfg, law, checkpoints=(128,), replicas=400,
                         dynamics="jerrum", key_kind="vertexset")
    assert curve[128] < 0.1


def test_mixing_curve_runs_the_double_loop_its_config_names(k4):
    law = exact_stationary(k4, 1, "vertexset_double")
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=1.0, seed=5),
                           inner="exact")
    curve = mixing_curve(k4, cfg, law, checkpoints=(1, 128), replicas=400,
                         key_kind="vertexset")
    assert curve[128] < curve[1]
    assert curve[128] < 0.1


def test_mixing_curve_rejects_bare_double_loop_name(k4):
    law = exact_stationary(k4, 1, "matching_double")
    with pytest.raises(ValueError, match="DoubleLoopConfig"):
        mixing_curve(k4, ChainConfig(fugacity=1.0), law, (8,), 10,
                     dynamics="double_loop")


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
