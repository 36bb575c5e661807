"""Subset-search solvers: fairness of budgets, validation, determinism."""

import dataclasses
import math

import pytest

from gbsmc import solvers
from gbsmc.glauber import ChainConfig, ChainConfigError
from gbsmc.graphs import (Graph, GraphSpec, Matching, bits_to_tuple, complete,
                          gen_graph, planted_clique)
from gbsmc.solvers import (
    SAParams,
    SolverConfig,
    SolverConfigError,
    advantage_at,
    objective_value,
    proposal_fugacity,
    random_search,
    run_trials,
    simulated_annealing,
    solver_for,
)

from conftest import spy_table_builds
from oracles import naive_hafnian_subset


def _rs_cfg(**kw):
    base = dict(objective="hafnian", subset_size=4, iterations=20, seed=3)
    base.update(kw)
    return SolverConfig(**base)


# --- configuration validation -------------------------------------------

def test_unknown_objective_rejected():
    with pytest.raises(SolverConfigError, match="objective"):
        random_search(complete(6), _rs_cfg(objective="girth"))


def test_unknown_sampler_rejected():
    with pytest.raises(SolverConfigError, match="sampler"):
        random_search(complete(6), _rs_cfg(sampler="metropolis"))


def test_hafnian_objective_needs_even_subset():
    with pytest.raises(SolverConfigError, match="even"):
        random_search(complete(6), _rs_cfg(subset_size=3))


def test_hafnian_size_guard():
    g = Graph(40, [(i, i + 1) for i in range(39)])
    with pytest.raises(SolverConfigError, match="guarded"):
        random_search(g, _rs_cfg(subset_size=34))
    # density has no such guard
    random_search(g, _rs_cfg(objective="density", subset_size=34,
                             iterations=2))


def test_subset_size_must_fit_graph():
    with pytest.raises(SolverConfigError, match="outside"):
        random_search(complete(4), _rs_cfg(subset_size=6))
    with pytest.raises(SolverConfigError, match="outside"):
        random_search(complete(4), _rs_cfg(subset_size=0))


@pytest.mark.parametrize("name,value", [("mixing_steps", 0),
                                        ("mixing_steps", -5),
                                        ("retry_bound", -1)])
@pytest.mark.parametrize("solver", [random_search, simulated_annealing])
def test_a_budget_that_starves_every_draw_is_rejected(solver, name, value):
    cfg = _rs_cfg(sampler="glauber", sa=SAParams(), **{name: value})
    with pytest.raises(SolverConfigError, match=name.replace("_", " ")):
        solver(complete(6), cfg)


def test_enhanced_requires_even_subset_even_for_density():
    cfg = _rs_cfg(objective="density", subset_size=3, sampler="glauber")
    with pytest.raises(SolverConfigError, match="even"):
        random_search(complete(6), cfg)


def test_annealing_parameter_validation():
    g = complete(6)
    with pytest.raises(SolverConfigError, match="sa parameters"):
        simulated_annealing(g, _rs_cfg(sa=None))
    for bad_gamma in (0.0, 1.0, 1.5):
        with pytest.raises(SolverConfigError, match="gamma"):
            simulated_annealing(g, _rs_cfg(sa=SAParams(gamma=bad_gamma)))
    with pytest.raises(SolverConfigError, match="temperature"):
        simulated_annealing(
            g, _rs_cfg(sa=SAParams(initial_temperature=0.0)))


def test_glauber_sampler_rejects_double_loop_config():
    from gbsmc.double_loop import DoubleLoopConfig
    cfg = _rs_cfg(sampler="glauber",
                  chain=DoubleLoopConfig(chain=ChainConfig(fugacity=1.0)))
    with pytest.raises(SolverConfigError, match="ChainConfig"):
        random_search(complete(6), cfg)


def test_double_loop_sampler_rejects_other_configs():
    from gbsmc.double_loop import DoubleLoopConfig
    for chain in (SAParams(),
                  DoubleLoopConfig(chain=ChainConfig(fugacity=1.0))):
        cfg = _rs_cfg(sampler="double_loop", chain=chain)
        with pytest.raises(SolverConfigError, match="takes a ChainConfig"):
            random_search(complete(6), cfg)


def test_drive_rejects_an_unknown_chain():
    g = complete(4)
    with pytest.raises(ChainConfigError, match="'double_loop'"):
        solvers.drive("metropolis", g, Matching(g),
                      ChainConfig(fugacity=1.0), 10, None)


def test_lazy_double_loop_sampler_is_refused():
    cfg = _rs_cfg(sampler="double_loop",
                  chain=ChainConfig(fugacity=1.0, lazy=True))
    with pytest.raises(ChainConfigError, match="lazy"):
        random_search(complete(6), cfg)


def test_a_chain_sampler_without_a_config_runs_at_the_proposal_fugacity():
    """With no ChainConfig a trial is the one an explicit config at
    ``proposal_fugacity`` gives, for every chain sampler."""
    g = planted_clique(24, 6, 0.3, seed=2)
    for sampler in ("glauber", "jerrum", "double_loop"):
        cfg = _rs_cfg(subset_size=6, sampler=sampler, mixing_steps=200)
        lam = proposal_fugacity(g, 6, sampler)
        implicit = random_search(g, cfg)
        explicit = random_search(g, dataclasses.replace(
            cfg, chain=ChainConfig(fugacity=lam)))
        assert 0 < lam < 1
        assert (implicit.score_trajectory, implicit.starvation_count) == (
            explicit.score_trajectory, explicit.starvation_count)


# --- objective scoring ----------------------------------------------------

def test_objective_value_empty_set_is_zero():
    g = complete(6)
    assert objective_value(g, "hafnian", 0) == 0
    assert objective_value(g, "density", 0) == 0


def test_objective_value_matches_direct_computations():
    g = planted_clique(12, 4, 0.3, seed=7)
    subset = (0, 1, 2, 3)
    bits = sum(1 << v for v in subset)
    assert objective_value(g, "hafnian", bits) == naive_hafnian_subset(
        g.n, g.edges, subset)
    edges_inside = sum(1 for (u, v) in g.edges
                       if u in subset and v in subset)
    assert objective_value(g, "density", bits) == edges_inside / 4


# --- budgets, trajectories, determinism -----------------------------------

def _all_variant_configs(iterations=30):
    chain = ChainConfig(fugacity=0.4)
    sa = SAParams(initial_temperature=1.0, gamma=0.9)
    return [
        ("random_search", _rs_cfg(iterations=iterations)),
        ("enhanced_random_search",
         _rs_cfg(iterations=iterations, sampler="glauber", chain=chain,
                 mixing_steps=60)),
        ("simulated_annealing", _rs_cfg(iterations=iterations, sa=sa)),
        ("enhanced_simulated_annealing",
         _rs_cfg(iterations=iterations, sampler="jerrum", chain=chain,
                 mixing_steps=60, sa=sa)),
    ]


def test_every_variant_spends_the_same_evaluation_budget():
    g = planted_clique(14, 4, 0.3, seed=1)
    for name, cfg in _all_variant_configs(iterations=30):
        record = solver_for(cfg)(g, cfg)
        assert record.algorithm == name
        assert record.evaluations == 30
        assert len(record.score_trajectory) == 30


def test_trajectory_is_running_best():
    g = planted_clique(16, 6, 0.25, seed=2)
    for _, cfg in _all_variant_configs(iterations=25):
        for seed in (0, 1, 2):
            record = solver_for(dataclasses.replace(cfg, seed=seed))(
                g, dataclasses.replace(cfg, seed=seed))
            traj = record.score_trajectory
            assert all(a <= b for a, b in zip(traj, traj[1:]))
            assert traj[-1] == record.best_score


def test_identical_seeds_reproduce_the_whole_record():
    g = planted_clique(14, 4, 0.35, seed=9)
    for _, cfg in _all_variant_configs(iterations=20):
        first = solver_for(cfg)(g, cfg)
        second = solver_for(cfg)(g, cfg)
        assert first.best_set == second.best_set
        assert first.best_score == second.best_score
        assert first.score_trajectory == second.score_trajectory
        assert first.starvation_count == second.starvation_count


def test_run_trials_runs_one_trial_per_seed_in_seed_order():
    g = planted_clique(14, 4, 0.3, seed=1)
    seeds = ["b", "a", 7]
    for name, cfg in _all_variant_configs(iterations=10):
        records = run_trials(g, cfg, seeds)
        assert [rec.config.seed for rec in records] == seeds
        for seed, rec in zip(seeds, records):
            alone = dataclasses.replace(cfg, seed=seed)
            assert rec.config == alone and rec.algorithm == name
            assert (rec.score_trajectory
                    == solver_for(alone)(g, alone).score_trajectory)


def test_a_run_of_no_iterations_is_refused():
    """A trial of no evaluations has no score to report, as a sweep of no
    seeds has none."""
    for solver in (random_search, simulated_annealing):
        for sampler in ("uniform", "glauber"):
            for iterations in (0, -1):
                cfg = _rs_cfg(iterations=iterations, sa=SAParams(),
                              sampler=sampler)
                with pytest.raises(SolverConfigError,
                                   match="iterations must be at least 1"):
                    solver(complete(6), cfg)


def test_best_set_none_when_nothing_scores():
    g = Graph(6, [])  # no edges, so every pair has hafnian zero
    record = random_search(g, _rs_cfg(subset_size=2, iterations=10))
    assert record.best_set is None
    assert record.best_score == 0
    assert record.best_vertices() is None


def test_best_vertices_decodes_the_bitset():
    g = complete(6)
    record = random_search(g, _rs_cfg(iterations=5))
    assert record.best_vertices() == bits_to_tuple(record.best_set)
    assert len(record.best_vertices()) == 4


# --- chain-proposal plumbing ----------------------------------------------

def test_starved_draws_fall_back_without_losing_budget():
    # A single edge can never post-select at two edges, so every draw
    # starves and the uniform fallback must cover the full budget.
    g = Graph(8, [(0, 1)])
    cfg = _rs_cfg(subset_size=4, iterations=12, sampler="glauber",
                  chain=ChainConfig(fugacity=1.0), mixing_steps=40,
                  retry_bound=1)
    record = random_search(g, cfg)
    assert record.starvation_count == 12
    assert record.evaluations == 12


def test_plain_solvers_never_build_chain_machinery(monkeypatch):
    def explode(self, *a, **kw):
        raise AssertionError("plain solver touched the proposal chain")

    monkeypatch.setattr(solvers._ChainProposals, "__init__", explode)
    g = complete(8)
    random_search(g, _rs_cfg(iterations=5))
    simulated_annealing(g, _rs_cfg(iterations=5, sa=SAParams()))
    with pytest.raises(AssertionError):
        random_search(
            g, _rs_cfg(sampler="glauber", iterations=5))


def test_proposal_windows_go_through_the_module_attributes(monkeypatch):
    """Each proposal window calls its ``_drive_*`` function through the
    attribute of ``gbsmc.solvers``, with the window's step count as the
    fifth positional argument, and double-loop inner draws go through
    ``double_loop._run_restricted``: a wrapper set on either attribute sees
    every call."""
    from gbsmc import double_loop
    calls = {}

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kw):
            calls.setdefault(name, []).append(args)
            return original(*args, **kw)
        monkeypatch.setattr(module, name, wrapper)

    for name in ("_drive_glauber", "_drive_jerrum", "_drive_double"):
        spy(solvers, name)
    spy(double_loop, "_run_restricted")
    g = gen_graph(GraphSpec.of("erdos_renyi", n=12, p=0.5), seed=1)
    for sampler, name in (("glauber", "_drive_glauber"),
                          ("jerrum", "_drive_jerrum"),
                          ("double_loop", "_drive_double")):
        random_search(
            g, _rs_cfg(iterations=5, sampler=sampler, mixing_steps=200,
                       chain=ChainConfig(fugacity=1.0)))
        assert calls[name]
        assert all(type(args[4]) is int and args[4] == 200
                   for args in calls[name])
    assert calls["_run_restricted"]


def test_search_grade_double_loop_builds_no_large_table(monkeypatch):
    """On G(256, 0.4) at k = 8, a table of 10 or more vertices waits for
    at least 255,150 steps walked on its set in one window, which the
    search-grade draws of 2 x 1,024 steps do not reach: none is built."""
    built = spy_table_builds(monkeypatch)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=256, p=0.4), seed=1)
    rec = random_search(g, _rs_cfg(
        subset_size=8, iterations=200, sampler="double_loop",
        mixing_steps=1000))
    assert rec.evaluations == 200
    assert all(vbits.bit_count() < 10 for vbits, _ in built)


def test_objectives_go_through_the_module_attributes(monkeypatch):
    """Every evaluation of either objective calls ``hafnian_bits`` or
    ``count_induced_edges`` through the attribute of ``gbsmc.solvers``, so
    a wrapper set there sees each one."""
    calls = {}

    def spy(name):
        original = getattr(solvers, name)

        def wrapper(*args, **kw):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kw)
        monkeypatch.setattr(solvers, name, wrapper)

    for name in ("hafnian_bits", "count_induced_edges"):
        spy(name)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=12, p=0.5), seed=1)
    for objective, name in (("hafnian", "hafnian_bits"),
                            ("density", "count_induced_edges")):
        record = random_search(g, _rs_cfg(objective=objective, iterations=7))
        assert record.evaluations == 7
        assert calls.pop(name) == record.evaluations
    assert not calls


def test_cold_restarts_run_and_reproduce():
    g = complete(8)
    cfg = _rs_cfg(iterations=10, sampler="glauber",
                  chain=ChainConfig(fugacity=0.5), mixing_steps=50,
                  warm_start=False)
    first = random_search(g, cfg)
    second = random_search(g, cfg)
    assert first.evaluations == 10
    assert first.score_trajectory == second.score_trajectory


def test_solver_for_mapping():
    assert solver_for(_rs_cfg()) is random_search
    assert solver_for(_rs_cfg(sampler="glauber")) is random_search
    assert solver_for(_rs_cfg(sa=SAParams())) is simulated_annealing
    assert solver_for(_rs_cfg(sampler="double_loop", sa=SAParams())) \
        is simulated_annealing


# --- directional behaviour and ratios -------------------------------------

def test_enhanced_search_finds_the_planted_matching_rich_set():
    g = planted_clique(24, 6, 0.25, seed=3)
    plain_total = enhanced_total = 0
    for seed in (0, 1, 2):
        plain = random_search(
            g, _rs_cfg(subset_size=6, iterations=80, seed=seed))
        enh = random_search(
            g, _rs_cfg(subset_size=6, iterations=80, seed=seed,
                       sampler="glauber", mixing_steps=400))
        plain_total += float(plain.best_score)
        enhanced_total += float(enh.best_score)
    assert enhanced_total >= plain_total


def test_score_advantage_sentinels_and_keys():
    # Two disjoint edges in a sea of isolated vertices: uniform sampling
    # at five tries essentially never scores, while the chain walks
    # straight to the only positive 4-set; size 6 is impossible for both.
    g = Graph(20, [(0, 1), (2, 3)])
    plain = SolverConfig(objective="hafnian", iterations=5,
                         sampler="uniform", seed=11)
    enhanced = SolverConfig(objective="hafnian", iterations=5,
                            sampler="glauber",
                            chain=ChainConfig(fugacity=1.0),
                            mixing_steps=200, seed=11)
    pair = (plain, enhanced)
    assert math.isinf(advantage_at(g, pair, 4, n_seeds=2)[2])
    assert advantage_at(g, pair, 6, n_seeds=2)[2] == 1.0


def test_score_advantage_needs_a_trial():
    cfg = SolverConfig(objective="density", iterations=6, seed=5)
    with pytest.raises(SolverConfigError, match="n_seeds"):
        advantage_at(complete(8), (cfg, cfg), 4, n_seeds=0)


def test_score_advantage_finite_ratio():
    g = complete(8)
    cfg = SolverConfig(objective="density", iterations=6, sampler="uniform",
                       seed=5)
    assert advantage_at(g, (cfg, cfg), 4, n_seeds=2)[2] == pytest.approx(1.0)
