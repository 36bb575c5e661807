"""Acceptance gates: every headline guarantee at its stated tolerance.

Each test prints exactly one PASS/FAIL line (written through the capture
so the verdicts are visible in any pytest run). Budgets are generous but
real — the whole module is minutes, not hours.
"""

import math
import statistics
import time
from collections import Counter
from fractions import Fraction

import pytest

from gbsmc.diagnostics import (
    check_detailed_balance,
    exact_stationary,
    exit_time_experiment,
    geometric_fit,
    pm_stationary,
    transition_kernel,
    tv_distance,
)
from gbsmc.double_loop import (
    DoubleLoopConfig,
    rejection_sample_stream,
    vertex_set_histogram,
)
from gbsmc.glauber import ChainConfig, sample_states
from gbsmc.graphs import (
    GraphSpec,
    Matching,
    bitset,
    complete,
    complete_bipartite,
    gen_graph,
    hard_instance,
)
from gbsmc.hafnian import (
    enumerate_perfect_matchings,
    hafnian,
    hafnian_bits,
)
from gbsmc.pm_chain import PMSamplerConfig, sample_perfect_matching
from gbsmc.seeds import child_rng, derive_seed
from gbsmc.solvers import SAParams, SolverConfig, solver_for

from conftest import balance_suite
from oracles import double_factorial, factorial


@pytest.fixture
def verdict(capfd):
    """Print one PASS/FAIL line straight to the terminal, capture or not."""
    def emit(n, name, ok, detail):
        with capfd.disabled():
            print(f"ACCEPTANCE {n} {name}: {detail} "
                  f"{'PASS' if ok else 'FAIL'}", flush=True)
        return ok
    return emit


# --------------------------------------------------------------------------

def test_acceptance_1_hafnian_closed_forms(verdict):
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 7):
        ok &= hafnian(complete(2 * n)) == double_factorial(2 * n - 1)
        ok &= hafnian(complete_bipartite(n, n)) == factorial(n)
    for n in range(2, 9):
        ok &= hafnian(hard_instance(n)) == 1 + 2 ** n
    wall = time.perf_counter() - t0
    assert verdict(1, "hafnian closed forms",
                    ok and wall < 5.0,
                    f"K_2n/K_nn/hard families exact, {wall:.2f}s (<5s)")


def test_acceptance_2_detailed_balance_certificates(verdict):
    t0 = time.perf_counter()
    worst = Fraction(0)
    checks = 0
    for name, g in balance_suite():
        for lam in (Fraction(1, 4), 1, 4):
            single = exact_stationary(g, lam, "matching_single")
            double = exact_stationary(g, lam, "matching_double")
            for dyn, law in (("glauber", single), ("jerrum", single),
                             ("double_loop", double)):
                kernel = transition_kernel(g, dyn, lam=lam)
                worst = max(worst, check_detailed_balance(kernel, law))
                checks += 1
        if g.n % 2 == 0 and hafnian(g) > 0:
            worst = max(worst, check_detailed_balance(
                transition_kernel(g, "pm"), pm_stationary(g)))
            checks += 1
    wall = time.perf_counter() - t0
    ok = worst < Fraction(1, 10 ** 12) and wall < 60.0
    assert verdict(2, "detailed balance",
                    ok,
                    f"max violation {worst!s} over {checks} kernel checks "
                    f"on 8 graphs, {wall:.1f}s (<60s)")


def test_acceptance_3_stationary_law_convergence(verdict):
    k6 = complete(6)
    t0 = time.perf_counter()
    counts = sample_states(k6, ChainConfig(fugacity=1.0, seed=3),
                           dynamics="glauber", n_samples=1_000_000,
                           thin=k6.m, burn_in=1000, key_kind="vertexset")
    tv_single = float(tv_distance(
        counts, exact_stationary(k6, 1, "vertexset_single")))
    cfg = DoubleLoopConfig(chain=ChainConfig(c=0.5, seed=7))
    counts2, stats = vertex_set_histogram(k6, cfg, n_samples=1_000_000,
                                          thin=k6.m, burn_in=1000)
    tv_double = float(tv_distance(
        counts2, exact_stationary(k6, Fraction(1, 4), "vertexset_double")))
    wall = time.perf_counter() - t0
    ok = tv_single <= 0.01 and tv_double <= 0.03 and wall < 600.0
    assert verdict(3, "stationary convergence",
                    ok,
                    f"single TV {tv_single:.4f} (<=0.01), double TV "
                    f"{tv_double:.4f} (<=0.03, {stats.failures} inner "
                    f"failures), 1e6 samples each, {wall:.0f}s (<600s)")


def test_acceptance_4_inner_sampler_uniformity(verdict):
    t0 = time.perf_counter()
    devs = {}
    for name, g, steps in (("K4", complete(4), 24),
                           ("K33", complete_bipartite(3, 3), 50)):
        pms = enumerate_perfect_matchings(g)
        cfg = PMSamplerConfig(inner_steps=steps, max_attempts=400)
        rng = child_rng(0, "uniformity")
        cur = Matching(g, pms[0].idxs)
        freq: Counter = Counter()
        draws = 100_000
        for _ in range(draws):
            cur = sample_perfect_matching(g, cfg, cur, rng)
            freq[tuple(sorted(cur.idxs))] += 1
        target = 1 / len(pms)
        devs[name] = max(abs(freq[tuple(sorted(p.idxs))] / draws - target)
                         for p in pms)
    wall = time.perf_counter() - t0
    ok = max(devs.values()) <= 0.01 and wall < 120.0
    assert verdict(4, "inner-sampler uniformity",
                    ok,
                    f"max deviation K4 {devs['K4']:.4f} / K33 "
                    f"{devs['K33']:.4f} (<=0.01) at 1e5 draws, "
                    f"{wall:.0f}s (<120s)")


def test_acceptance_5_rejection_double_loop_agreement(verdict):
    k6 = complete(6)
    t0 = time.perf_counter()
    rejected = Counter()
    stream = rejection_sample_stream(k6, ChainConfig(c=0.5, seed=5),
                                     max_rounds=10_000, burn_in=120,
                                     round_steps=40, limit=100_000)
    for bits in stream:
        rejected[bits] += 1
    dl_cfg = DoubleLoopConfig(chain=ChainConfig(c=0.5, seed=9),
                              inner="exact")
    dl_counts, _ = vertex_set_histogram(k6, dl_cfg, n_samples=100_000,
                                        thin=k6.m, burn_in=1000)
    tv = float(tv_distance(rejected, dl_counts))
    wall = time.perf_counter() - t0
    ok = tv <= 0.05 and wall < 600.0
    assert verdict(5, "rejection/double-loop agreement",
                    ok,
                    f"two-sample TV {tv:.4f} (<=0.05) at 1e5 accepted "
                    f"samples each, {wall:.0f}s (<600s)")


def test_acceptance_6_hard_instance_escape_law(verdict):
    t0 = time.perf_counter()
    rels = {}
    fits = {}
    for n in (4, 6):
        res = exit_time_experiment(n, 1, trials=200, seed=0)
        rels[n] = abs(res.mean - res.expected_mean) / res.expected_mean
        if n <= 4:
            fits[n] = geometric_fit(res.times, res.per_step_probability)
    res2 = exit_time_experiment(2, 1, trials=200, seed=0)
    fits[2] = geometric_fit(res2.times, res2.per_step_probability)
    wall = time.perf_counter() - t0
    ok = (max(rels.values()) <= 0.15
          and all(f.passed for f in fits.values()) and wall < 300.0)
    assert verdict(6, "escape law",
                    ok,
                    f"mean-exit error n=4 {rels[4]:.1%} / n=6 {rels[6]:.1%} "
                    f"(<=15%, 200 trials), geometric fit 1% n=2/4 "
                    f"{'ok' if all(f.passed for f in fits.values()) else 'rejected'}, "
                    f"{wall:.0f}s (<300s)")


# --------------------------------------------------------------------------

_C7_GRAPHS = (
    ("G1", GraphSpec.of("planted_clique", n=64, clique_size=8, p=0.2)),
    ("G3", GraphSpec.of("erdos_renyi", n=64, p=0.4)),
    ("G4", GraphSpec.of("random_bipartite", n_per_side=32, p=0.3)),
)
_C7_SEEDS = 10
_C7_ITERS = 200
_SAMPLERS = ("glauber", "jerrum", "double_loop")


_C7_MIN_WINS = 25    # of 36; a no-effect enhancement gets here w.p. 1.4%
_C7_LOSS_Z = -2.0


def _best_scores(g, family, objective, sampler, label):
    """Best score of each of the ``_C7_SEEDS`` trials, chain proposals
    at the solvers' default fugacity."""
    scores = []
    for j in range(_C7_SEEDS):
        sa = SAParams() if family == "sa" else None
        cfg = SolverConfig(objective=objective, subset_size=8,
                           iterations=_C7_ITERS, sampler=sampler,
                           sa=sa, mixing_steps=1000,
                           seed=derive_seed(0, f"{label}{j}"))
        scores.append(float(solver_for(cfg)(g, cfg).best_score))
    return scores


def _welch_z(enh, plain):
    """(mean_enh - mean_plain) over the Welch standard error of the gap;
    a gap with no spread on either side is +-inf."""
    gap = statistics.fmean(enh) - statistics.fmean(plain)
    se = math.sqrt(statistics.variance(enh) / len(enh)
                   + statistics.variance(plain) / len(plain))
    if se == 0:
        return 0.0 if gap == 0 else math.copysign(math.inf, gap)
    return gap / se


def test_acceptance_7_solver_enhancement_direction(verdict):
    """Chain proposals beat uniform ones overall and lose nowhere beyond
    sampling noise.

    Both parts come from the per-seed best scores.  A comparison is a loss
    only if the enhanced mean sits more than two standard errors below
    plain (Welch z < -2).  The direction is judged on the whole table: at
    least 25 of the 36 enhanced means must be strictly above plain, which
    an enhancement that did nothing (each comparison a fair coin) reaches
    with probability 1.4%.
    """
    t0 = time.perf_counter()
    losses = []
    wins = comparisons = 0
    worst_z, worst_name = math.inf, ""
    for gname, spec in _C7_GRAPHS:
        g = gen_graph(spec, seed=derive_seed(0, "graph"))
        for objective in ("hafnian", "density"):
            for family in ("rs", "sa"):
                plain = _best_scores(g, family, objective, "uniform",
                                     f"{gname}/{objective}/{family}/plain/")
                for sampler in _SAMPLERS:
                    name = f"{gname}/{objective}/{family}/{sampler}"
                    enh = _best_scores(g, family, objective, sampler,
                                       f"{name}/")
                    z = _welch_z(enh, plain)
                    comparisons += 1
                    wins += statistics.fmean(enh) > statistics.fmean(plain)
                    if z < worst_z:
                        worst_z, worst_name = z, name
                    if z < _C7_LOSS_Z:
                        losses.append(f"{name} z={z:.2f}")
    wall = time.perf_counter() - t0
    ok = not losses and wins >= _C7_MIN_WINS and wall < 1800.0
    assert verdict(7, "solver enhancement",
                    ok,
                    f"{wins}/{comparisons} enhanced means strictly above "
                    f"plain (needs >={_C7_MIN_WINS}) over {_C7_SEEDS} seeds "
                    f"on 3 graphs x 2 objectives; worst Welch z "
                    f"{worst_z:+.2f} at {worst_name} (a loss is "
                    f"<{_C7_LOSS_Z:g})"
                    + (f"; losses: {'; '.join(losses)}" if losses else "")
                    + f", {wall:.0f}s (<1800s)")


_C8_PREMISE_DRAWS = 200_000
_C8_ZERO_TRIAL = 0.95


def test_acceptance_8_sparse_regime_separation(verdict):
    """Chain proposals find perfect matchings where uniform draws cannot.

    The instance is sized by a premise: a 200-draw uniform trial must score
    zero with probability >= 0.95, so "plain zero in >= 8/10 seeds" holds
    with probability >= 0.988.  Average degree 2 (``n_edges =
    2 * n_per_side``) meets it.  The gate estimates the uniform hit rate
    itself, so a generator that drifts out of the regime fails here.
    """
    t0 = time.perf_counter()
    n_side = 32
    g = gen_graph(GraphSpec.of("sparse_bipartite", n_per_side=n_side,
                               n_edges=2 * n_side),
                  seed=derive_seed(0, "graph"))
    rng = child_rng(0, "c8-premise")
    uniform_hits = sum(
        hafnian_bits(g, bitset(rng.sample(range(g.n), 8))) > 0
        for _ in range(_C8_PREMISE_DRAWS))
    hit_rate = uniform_hits / _C8_PREMISE_DRAWS
    zero_trial = (1 - hit_rate) ** 200
    plain_zero = 0
    for j in range(10):
        cfg = SolverConfig(objective="hafnian", subset_size=8,
                           iterations=200,
                           seed=derive_seed(0, f"c8-plain{j}"))
        if solver_for(cfg)(g, cfg).best_score == 0:
            plain_zero += 1
    enhanced_pos = {}
    for sampler in _SAMPLERS:
        hits = 0
        for j in range(10):
            cfg = SolverConfig(objective="hafnian", subset_size=8,
                               iterations=200, sampler=sampler,
                               mixing_steps=1000,
                               seed=derive_seed(0, f"c8-{sampler}{j}"))
            if solver_for(cfg)(g, cfg).best_score > 0:
                hits += 1
        enhanced_pos[sampler] = hits
    wall = time.perf_counter() - t0
    ok = (zero_trial >= _C8_ZERO_TRIAL and plain_zero >= 8
          and all(v >= 8 for v in enhanced_pos.values()) and wall < 900.0)
    assert verdict(8, "sparse-regime separation",
                    ok,
                    f"{g.m} edges, average degree {2 * g.m / g.n:g}, uniform "
                    f"hit rate {hit_rate:.2g} over {_C8_PREMISE_DRAWS} draws "
                    f"-> 200-draw zero chance {zero_trial:.3f} (needs "
                    f">={_C8_ZERO_TRIAL}); plain zero-score in "
                    f"{plain_zero}/10 seeds (needs >=8/10); enhanced "
                    f"positive in "
                    + ", ".join(f"{k} {v}/10" for k, v in
                                enhanced_pos.items())
                    + f" (each needs >=8/10), {wall:.0f}s (<900s)")


def test_acceptance_9_cli_byte_determinism(verdict, tmp_path):
    from gbsmc.cli import main

    t0 = time.perf_counter()
    commands = [
        ("gen-graph", lambda d: ["gen-graph", "planted-clique", "--n", "16",
                                 "--clique", "4", "--p", "0.3", "--seed",
                                 "2", "--out", str(d / "g.txt")]),
        ("sample", lambda d: ["sample", "--gen", "complete", "--n", "6",
                              "--lambda", "1", "--steps", "50", "--samples",
                              "40", "--seed", "4", "--out",
                              str(d / "s.txt")]),
        ("solve", lambda d: ["solve", "--gen", "planted-clique", "--n",
                             "14", "--clique", "4", "--p", "0.3", "--alg",
                             "ers", "--sampler", "glauber", "--lambda",
                             "1/5", "--k", "4", "--iters", "20",
                             "--mixing-steps", "50", "--seeds", "2",
                             "--out-dir", str(d / "solve")]),
        ("bench exit-time", lambda d: ["bench", "exit-time", "--squares",
                                       "1", "--trials", "40", "--lambda",
                                       "1", "--out-dir", str(d / "exit")]),
        ("bench score-advantage",
         lambda d: ["bench", "score-advantage", "--scale", "16", "--seeds",
                    "2", "--iters", "15", "--k-min", "4", "--k-max", "4",
                    "--out-dir", str(d / "adv")]),
    ]
    mismatches = []
    for name, argv in commands:
        outs = []
        for run in ("a", "b"):
            d = tmp_path / f"{name.replace(' ', '_')}-{run}"
            d.mkdir()
            assert main(argv(d)) == 0, f"{name} failed"
            blobs = {}
            for p in sorted(d.rglob("*")):
                if p.is_file() and p.name != "manifest.txt":
                    blobs[str(p.relative_to(d))] = p.read_bytes()
            outs.append(blobs)
        if outs[0] != outs[1]:
            mismatches.append(name)
    wall = time.perf_counter() - t0
    ok = not mismatches
    assert verdict(9, "CLI determinism",
                    ok,
                    "5 commands rerun byte-identical"
                    + (f"; mismatches: {mismatches}" if mismatches else "")
                    + f", {wall:.0f}s")
