"""Single-loop matching dynamics: config handling, step validity,
post-selection, and convergence to the fugacity-weighted law."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbsmc.diagnostics import transition_kernel
from gbsmc.glauber import (
    ChainConfig,
    ChainConfigError,
    _candidate_counts,
    _drive_glauber,
    _drive_jerrum,
    _run_add_remove,
    move_probabilities,
    sample_states,
)
from gbsmc.graphs import GraphSpec, Matching, gen_graph

from conftest import check_kernel_powers
from oracles import matching_law, naive_tv


def test_c_squares_into_fugacity():
    assert ChainConfig(c=Fraction(1, 2)).resolved_fugacity() == Fraction(1, 4)
    assert ChainConfig(fugacity=2).resolved_fugacity() == 2


def test_contradictory_fugacity_and_c():
    with pytest.raises(ChainConfigError):
        ChainConfig(fugacity=1, c=2).resolved_fugacity()
    # consistent pair is allowed
    assert ChainConfig(fugacity=4, c=2).resolved_fugacity() == 4


def test_missing_and_nonpositive_fugacity():
    with pytest.raises(ChainConfigError):
        ChainConfig().resolved_fugacity()
    with pytest.raises(ChainConfigError):
        ChainConfig(fugacity=0).resolved_fugacity()
    with pytest.raises(ChainConfigError):
        ChainConfig(fugacity=-1).resolved_fugacity()


@given(st.integers(0, 2**32), st.sampled_from(["glauber", "jerrum"]),
       st.booleans())
def test_steps_preserve_matching_validity(seed, dynamics, lazy):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.5), seed=seed % 53)
    lam = Fraction(3, 2)
    rng = random.Random(seed)
    drive = _drive_glauber if dynamics == "glauber" else _drive_jerrum
    x = Matching(g)
    for _ in range(40):
        drive(g, x, lam, lazy, 1, rng)
        x.validate()


def test_chain_windows_are_deterministic():
    g = gen_graph(GraphSpec.of("complete", n=6))
    for drive in (_drive_glauber, _drive_jerrum):
        a, b = Matching(g), Matching(g)
        drive(g, a, 1, False, 500, random.Random(11))
        drive(g, b, 1, False, 500, random.Random(11))
        assert a.idxs == b.idxs


def test_sample_states_rejects_an_unknown_dynamics():
    g = gen_graph(GraphSpec.of("complete", n=4))
    with pytest.raises(ChainConfigError, match="'glauber' or 'jerrum'"):
        sample_states(g, ChainConfig(fugacity=1), dynamics="metropolis",
                      n_samples=3)


def test_post_selection_returns_requested_size():
    g = gen_graph(GraphSpec.of("complete", n=8))
    for drive in (_drive_glauber, _drive_jerrum):
        snap, step = drive(g, Matching(g), 2, False, 4000, random.Random(5),
                           target_edges=2)
        assert snap is not None
        assert Matching(g, snap).covered.bit_count() == 4
        assert 0 <= step <= 4000


def test_post_selection_miss_is_explicit():
    # a single edge can never cover 4 vertices
    g = gen_graph(GraphSpec.of("path", n=2))
    for drive in (_drive_glauber, _drive_jerrum):
        assert drive(g, Matching(g), 1, False, 50, random.Random(0),
                     target_edges=2) == (None, None)


def test_initial_state_from_pairs():
    g = gen_graph(GraphSpec.of("complete", n=6))
    x = Matching.from_pairs(g, [(0, 1), (2, 3)])
    _drive_glauber(g, x, 1, False, 0, random.Random(0))
    assert sorted(x.pairs()) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("chain", ["glauber", "jerrum", "double_loop"])
@pytest.mark.parametrize("lazy", [False, True])
def test_move_probabilities_are_exact_for_a_fraction(chain, lazy):
    """One rule for both kinds of fugacity: exact for a Fraction, and the
    same numbers as floats; jerrum's rule exceeds 1 nowhere."""
    if chain == "double_loop" and lazy:
        with pytest.raises(ChainConfigError, match="lazy"):
            move_probabilities(chain, Fraction(1, 4), lazy)
        return
    for lam in (Fraction(1, 4), Fraction(3, 2)):
        exact = move_probabilities(chain, lam, lazy)
        assert all(isinstance(p, (int, Fraction)) for p in exact)
        assert all(0 <= p <= 1 for p in exact)
        floats = move_probabilities(chain, float(lam), lazy)
        assert [float(p) for p in floats] == [float(p) for p in exact]


def test_sample_states_counts_and_thinning():
    g = gen_graph(GraphSpec.of("complete", n=4))
    counts = sample_states(g, ChainConfig(fugacity=1, seed=9),
                           n_samples=250, thin=3, burn_in=30)
    assert sum(counts.values()) == 250


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum"])
@pytest.mark.parametrize("thin", [1, 3, "m"])
@pytest.mark.parametrize("burn_in", [0, 7])
def test_sample_states_returns_exactly_n_samples(dynamics, thin, burn_in):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.5), seed=3)
    thin = g.m if thin == "m" else thin
    for lam, key_kind in ((0.01, "matching"), (3, "vertexset")):
        counts = sample_states(g, ChainConfig(fugacity=lam, seed=thin),
                               dynamics=dynamics, n_samples=101, thin=thin,
                               burn_in=burn_in, key_kind=key_kind)
        assert sum(counts.values()) == 101


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum"])
def test_edgeless_graph_still_yields_n_samples(dynamics):
    g = gen_graph(GraphSpec.of("path", n=1))
    counts = sample_states(g, ChainConfig(fugacity=1, seed=1),
                           dynamics=dynamics, n_samples=10, thin=3, burn_in=7)
    assert counts == {(): 10}
    drive = _drive_glauber if dynamics == "glauber" else _drive_jerrum
    assert drive(g, Matching(g), 1, False, 5, random.Random(1),
                 target_edges=0) == ((), 5)


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("dynamics", ["glauber", "jerrum"])
def test_single_loop_driver_follows_the_exact_kernel_powers(dynamics, lazy):
    """X_T from fixed starts, T = 1, 2, 5, against rows of P^T."""
    g = gen_graph(GraphSpec.of("complete", n=4))
    lam = Fraction(3, 2)
    kernel = transition_kernel(g, dynamics, lam=lam, lazy=lazy)
    drive = _drive_glauber if dynamics == "glauber" else _drive_jerrum
    check_kernel_powers(
        g, kernel,
        lambda x, steps, rng: drive(g, x, lam, lazy, steps, rng),
        starts=((), ((0, 1),), ((0, 1), (2, 3))),
        label=f"{dynamics}/{lazy}")


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("family,n", [("cycle", 6), ("path", 5)])
def test_jerrum_event_loop_follows_the_exact_kernel_powers(family, n, lazy):
    """The event loop with jerrum's move probabilities (slides thinned), on
    sparse graphs at lambda = 1/4: X_T against rows of P^T."""
    g = gen_graph(GraphSpec.of(family, n=n))
    lam = Fraction(1, 4)
    p_add, p_rem, p_slide = map(float, move_probabilities("jerrum", lam, lazy))
    starts = ((), ((0, 1),), ((0, 1), (2, 3)))
    sparse = 0
    for start in starts:
        addable, slides = _candidate_counts(g, Matching.from_pairs(g, start))
        sparse += addable * p_add + len(start) * p_rem + slides * p_slide < g.m
    assert sparse >= 2  # most starts draw holding times, not plain steps
    kernel = transition_kernel(g, "jerrum", lam=lam, lazy=lazy)
    check_kernel_powers(
        g, kernel,
        lambda x, steps, rng: _run_add_remove(g, x, p_add, p_rem, steps, rng,
                                              p_slide=p_slide),
        starts=starts, label=f"jerrum/{family}{n}/{lazy}")


def test_sparse_jerrum_windows_run_on_the_event_loop(monkeypatch):
    import gbsmc.glauber
    calls = []

    def spy(*args, **kw):
        calls.append(kw["p_slide"])
        return _run_add_remove(*args, **kw)

    monkeypatch.setattr(gbsmc.glauber, "_run_add_remove", spy)
    sparse = gen_graph(GraphSpec.of("erdos_renyi", n=64, p=0.3), seed=1)
    x = Matching(sparse)
    _drive_jerrum(sparse, x, 4 / sparse.m, False, 1000, random.Random(1),
                  target_edges=4)
    assert calls == [1.0]
    dense = gen_graph(GraphSpec.of("complete", n=6))
    _drive_jerrum(dense, Matching(dense), 1, False, 1000, random.Random(1))
    assert calls == [1.0]  # R = m from the empty matching: the step loop


@pytest.mark.parametrize("start_step", [0, 40])
def test_post_selected_window_reports_a_step_inside_it(start_step):
    """The step is counted from the window's start; ``gbsmc sample`` adds
    the steps before the window, as here."""
    g = gen_graph(GraphSpec.of("complete", n=8))
    rng = random.Random(start_step)
    x = Matching(g)
    seen = 0
    for _ in range(200):
        snap, step = _drive_glauber(g, x, 0.5, False, 30, rng,
                                    target_edges=2)
        if snap is None:
            assert step is None and len(x) != 2
            continue
        seen += 1
        step += start_step
        assert len(snap) == 2 and len(Matching(g, snap)) == 2
        assert start_step <= step <= start_step + 30
        if len(x) == 2:
            assert step == start_step + 30
            assert set(snap) == x.idxs
    assert seen > 50


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum"])
def test_empirical_law_matches_exact(dynamics):
    """Both dynamics share the lambda^|X| stationary law."""
    g = gen_graph(GraphSpec.of("complete", n=4))
    lam = 1.5
    counts = sample_states(g, ChainConfig(fugacity=lam, seed=31),
                           dynamics=dynamics, n_samples=40_000, thin=6,
                           burn_in=200)
    emp = {k: v / 40_000 for k, v in counts.items()}
    law = {k: float(v) for k, v in matching_law(g.edges, lam).items()}
    assert naive_tv(emp, law) < 0.02


def test_lazy_chain_converges_to_same_law():
    g = gen_graph(GraphSpec.of("complete", n=4))
    counts = sample_states(g, ChainConfig(fugacity=1, lazy=True, seed=7),
                           n_samples=40_000, thin=8, burn_in=200)
    emp = {k: v / 40_000 for k, v in counts.items()}
    law = {k: float(v) for k, v in matching_law(g.edges, 1).items()}
    assert naive_tv(emp, law) < 0.02


@given(st.integers(0, 2**31), st.booleans())
def test_glauber_step_changes_at_most_one_edge(seed, lazy):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.6), seed=seed % 41)
    rng = random.Random(seed)
    x = Matching(g)
    for _ in range(50):
        before = set(x.idxs)
        _drive_glauber(g, x, Fraction(3, 2), lazy, 1, rng)
        assert len(before.symmetric_difference(x.idxs)) <= 1


@given(st.integers(0, 2**31))
def test_jerrum_moves_are_single_edge_changes(seed):
    """Each accepted Jerrum move adds, removes, or slides one edge."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.6), seed=seed % 41)
    rng = random.Random(seed)
    x = Matching(g)
    for _ in range(50):
        before = set(x.idxs)
        _drive_jerrum(g, x, 1, False, 1, rng)
        after = set(x.idxs)
        delta = before.symmetric_difference(after)
        assert len(delta) <= 2
        if len(delta) == 2:  # slide: one in, one out
            assert len(before) == len(after)
