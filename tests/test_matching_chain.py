"""Single-loop matching dynamics: config handling, step validity,
post-selection, and convergence to the fugacity-weighted law."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import gbsmc.glauber
from gbsmc import double_loop
from gbsmc.diagnostics import transition_kernel
from gbsmc.double_loop import DoubleLoopConfig, _drive_double
from gbsmc.glauber import (
    ChainConfig,
    ChainConfigError,
    _drive_glauber,
    _drive_jerrum,
    _run_add_remove,
    move_probabilities,
    sample_states,
)
from gbsmc.graphs import GraphSpec, Matching, gen_graph

from conftest import (ScriptedRng, capped_kernel, check_kernel_powers,
                      spy_plain_steps)
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
    # a lambda that no positive finite float holds
    for cfg in (ChainConfig(fugacity=float("inf")),
                ChainConfig(fugacity=float("nan")),
                ChainConfig(c=1e200),
                ChainConfig(fugacity=Fraction(10 ** 400)),
                ChainConfig(fugacity=Fraction(1, 10 ** 400))):
        with pytest.raises(ChainConfigError):
            cfg.resolved_fugacity()
    # nor the double loop's lambda^2
    with pytest.raises(ChainConfigError, match="lambda\\^2"):
        move_probabilities("double_loop", 1e200)


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
        assert snap.bit_count() == 4
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
def test_sample_states_returns_exactly_n_samples(dynamics, thin, burn_in,
                                                monkeypatch):
    """At lambda = 3 the windows take plain steps."""
    batches = spy_plain_steps(monkeypatch)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.5), seed=3)
    thin = g.m if thin == "m" else thin
    for lam, key_kind in ((0.01, "matching"), (3, "vertexset")):
        counts = sample_states(g, ChainConfig(fugacity=lam, seed=thin),
                               dynamics=dynamics, n_samples=101, thin=thin,
                               burn_in=burn_in, key_kind=key_kind)
        assert sum(counts.values()) == 101
    assert batches


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum"])
def test_edgeless_graph_still_yields_n_samples(dynamics):
    g = gen_graph(GraphSpec.of("path", n=1))
    counts = sample_states(g, ChainConfig(fugacity=1, seed=1),
                           dynamics=dynamics, n_samples=10, thin=3, burn_in=7)
    assert counts == {(): 10}
    drive = _drive_glauber if dynamics == "glauber" else _drive_jerrum
    assert drive(g, Matching(g), 1, False, 5, random.Random(1),
                 target_edges=0) == (0, 5)


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


def _check_event_loop(g, chain, lam, lazy, monkeypatch, cap=None):
    """X_T against rows of P^T, with the crossover at 1 so that windows run
    events wherever the candidate rate R < m, from the empty matching, one
    edge and two.  With a ``cap``, the windows post-select that many edges,
    the kernel is capped there, and the starts past it are left out.
    Returns the plain picks drawn, by (start, T)."""
    monkeypatch.setattr(gbsmc.glauber, "_CROSSOVER", 1)
    batches = spy_plain_steps(monkeypatch)
    kernel = transition_kernel(g, chain, lam=lam, lazy=lazy)
    window, label = {}, f"{chain}/{g}/{lazy}/events"
    if cap is not None:
        kernel, window = capped_kernel(kernel, cap), {"target_edges": cap}
        label += f"/cap{cap}"
    drive = _drivers(lazy)[chain]
    plain = Counter()

    def advance(x, steps, rng):
        start, before = x.pairs(), sum(batches)
        drive(g, x, lam, steps, rng, **window)
        plain[start, steps] += sum(batches) - before

    u, v = g.edges[0]
    apart = next(e for e in g.edges if u not in e and v not in e)
    starts = ((), ((u, v),), ((u, v), apart))
    check_kernel_powers(g, kernel, advance,
                        starts=[s for s in starts
                                if cap is None or len(s) <= cap],
                        label=label)
    # one-step runs from one edge (slides included) and two-step runs from
    # the empty matching stay on events
    assert plain[((u, v),), 1] == plain[(), 2] == 0
    return plain


def _event_graph(family, n):
    """``family`` on ``n`` vertices; K2,3 for "complete_bipartite", whose
    degrees 2 and 3 make the slide envelope thin."""
    params = {"m": 2} if family == "complete_bipartite" else {}
    return gen_graph(GraphSpec.of(family, n=n, **params))


@pytest.mark.parametrize("lazy", [False, True])
@pytest.mark.parametrize("family,n", [("cycle", 6), ("path", 5),
                                      ("complete_bipartite", 3)])
def test_jerrum_event_loop_follows_the_exact_kernel_powers(family, n, lazy,
                                                           monkeypatch):
    """Jerrum's events, slides included, at lambda = 1/8.  Lazy windows
    never leave events; non-lazy ones hand over at two edges, where R
    reaches m (at a maximal matching it always does)."""
    plain = _check_event_loop(_event_graph(family, n), "jerrum",
                              Fraction(1, 8), lazy, monkeypatch)
    totals = Counter()
    for (start, _), picks in plain.items():
        totals[start] += picks
    if lazy:
        assert 0 in totals.values()  # some starts draw no plain picks


@pytest.mark.parametrize("graph", [("cycle", 6), ("path", 5),
                                   ("complete_bipartite", 3)],
                         ids=["cycle6", "path5", "k23"])
@pytest.mark.parametrize("chain,lazy", [("glauber", False),
                                        ("glauber", True),
                                        ("double_loop", False)])
def test_event_loop_follows_the_exact_kernel_powers(chain, lazy, graph,
                                                    monkeypatch):
    """Glauber's and the double loop's events at lambda = 1/4, where R < m
    at every size, so no start draws a plain pick; the double loop draws
    its inner matchings exactly."""
    plain = _check_event_loop(_event_graph(*graph), chain, Fraction(1, 4),
                              lazy, monkeypatch)
    assert not any(plain.values())


@pytest.mark.parametrize("graph", [("cycle", 6), ("path", 5),
                                   ("complete_bipartite", 3)],
                         ids=["cycle6", "path5", "k23"])
@pytest.mark.parametrize("chain,lam", [("glauber", Fraction(1, 4)),
                                       ("jerrum", Fraction(1, 8)),
                                       ("double_loop", Fraction(1, 4))],
                         ids=["glauber", "jerrum", "double_loop"])
def test_capped_event_loop_follows_the_capped_kernel_powers(chain, lam, graph,
                                                            monkeypatch):
    """A window that post-selects one edge holds adds there: on events,
    X_T against rows of P^T of the kernel capped at one edge, slides
    included."""
    _check_event_loop(_event_graph(*graph), chain, lam, False, monkeypatch,
                      cap=1)


@pytest.mark.parametrize("graph", ["k4", "k6", "k33"])
@pytest.mark.parametrize("chain,lam", [("glauber", Fraction(3, 2)),
                                       ("jerrum", Fraction(1)),
                                       ("double_loop", Fraction(3, 2))],
                         ids=["glauber", "jerrum", "double_loop"])
def test_capped_plain_steps_follow_the_capped_kernel_powers(chain, lam, graph,
                                                            request,
                                                            monkeypatch):
    """Windows that post-select one edge, from the empty matching, start
    on plain steps, whose adds hold at the cap; X_T against rows of P^T of
    the kernel capped at one edge."""
    g = request.getfixturevalue(graph)
    batches = spy_plain_steps(monkeypatch)
    kernel = capped_kernel(transition_kernel(g, chain, lam=lam), 1)
    drive = _drivers()[chain]
    check_kernel_powers(
        g, kernel,
        lambda x, steps, rng: drive(g, x, lam, steps, rng, target_edges=1),
        starts=((), (g.edges[0],)),
        label=f"{chain}/{graph}/{lam}/capped/plain")
    assert batches


class _CountingRng(random.Random):
    """A seeded RNG that counts its uniforms."""
    calls = 0

    def random(self):
        self.calls += 1
        return super().random()


def test_an_add_candidate_costs_one_pick(monkeypatch):
    """Near a maximal matching few edges are addable.  An add candidate is
    one uniform edge of all m, which holds when an end is covered, so no
    event draws more than three uniforms: its holding time, its kind and
    its pick.  (Glauber at lambda = 1 with the crossover at 1 runs events
    at every size.)"""
    monkeypatch.setattr(gbsmc.glauber, "_CROSSOVER", 1)
    holds = []  # one log per holding time
    real_log = gbsmc.glauber.log
    monkeypatch.setattr(gbsmc.glauber, "log",
                        lambda u: holds.append(u) or real_log(u))
    batches = spy_plain_steps(monkeypatch)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=32, p=0.4), seed=1)
    rng = _CountingRng(1)
    x = Matching(g)
    _drive_glauber(g, x, 1, False, 20_000, rng)
    assert batches == [] and len(x) >= 10
    assert rng.calls <= 3 * len(holds)


def _drivers(lazy=False):
    """Each chain's window driver as ``drive(g, x, lam, steps, rng, **kw)``;
    the double loop draws its inner matchings exactly, on one memo."""
    exact, memo = DoubleLoopConfig(inner="exact"), {}
    return {
        "glauber": lambda g, x, lam, *a, **kw: _drive_glauber(
            g, x, lam, lazy, *a, **kw),
        "jerrum": lambda g, x, lam, *a, **kw: _drive_jerrum(
            g, x, lam, lazy, *a, **kw),
        "double_loop": lambda g, x, lam, *a, **kw: _drive_double(
            g, x, lam, exact, *a, haf_memo=memo, **kw),
    }


@pytest.mark.parametrize("chain", ["glauber", "jerrum", "double_loop"])
def test_sparse_windows_skip_holds_and_dense_ones_take_plain_steps(
        chain, monkeypatch):
    """A post-selection window at lambda = 4/m on ER(256, 0.4) stays on
    the event loop; a K6 window at lambda = 1 takes plain steps.  (On
    ER(64, 0.3) jerrum's windows reach three edges, whose slide candidates
    alone lift _CROSSOVER * R past m, and rightly take plain steps
    there.)"""
    batches = spy_plain_steps(monkeypatch)
    drive = _drivers()[chain]
    sparse = gen_graph(GraphSpec.of("erdos_renyi", n=256, p=0.4), seed=1)
    drive(sparse, Matching(sparse), 4 / sparse.m, 1000, random.Random(1),
          target_edges=4)
    assert batches == []
    dense = gen_graph(GraphSpec.of("complete", n=6))
    drive(dense, Matching(dense), 1, 1000, random.Random(1))
    assert batches


# one case for each coin that plain steps leave out: jerrum's removal coin
# at lambda <= 1, its addition coin at lambda >= 1, and its slide coin
# unless lazy
DENSE_CASES = [("glauber", Fraction(3, 2), False),
               ("glauber", Fraction(3, 2), True),
               ("jerrum", Fraction(1, 2), False),
               ("jerrum", Fraction(1), False),
               ("jerrum", Fraction(2), False),
               ("jerrum", Fraction(1), True)]


@pytest.mark.parametrize("graph", ["k4", "k6", "k33"])
@pytest.mark.parametrize("dynamics,lam,lazy", DENSE_CASES)
def test_plain_steps_follow_the_exact_kernel_powers(dynamics, lam, lazy,
                                                    graph, request,
                                                    monkeypatch):
    """Windows from the empty matching, where _CROSSOVER * R >= m, start on
    plain steps; windows from one edge may start on events and hand over.
    X_T against rows of P^T."""
    g = request.getfixturevalue(graph)
    # the empty matching's rate is R = m * p_add
    p_add = move_probabilities(dynamics, lam, lazy)[0]
    assert gbsmc.glauber._CROSSOVER * p_add >= 1
    batches = spy_plain_steps(monkeypatch)
    kernel = transition_kernel(g, dynamics, lam=lam, lazy=lazy)
    drive = _drive_glauber if dynamics == "glauber" else _drive_jerrum
    check_kernel_powers(
        g, kernel,
        lambda x, steps, rng: drive(g, x, lam, lazy, steps, rng),
        starts=((), (g.edges[0],)),
        label=f"{dynamics}/{graph}/{lam}/{lazy}/plain")
    assert batches


@pytest.mark.parametrize("chain,lam,target,crossover", [
    pytest.param("glauber", 0.3, 2, None, id="glauber-0.3-2"),
    pytest.param("jerrum", 0.05, 2, None, id="jerrum-0.05-2"),
    pytest.param("jerrum", 0.05, 2, 1, id="jerrum-0.05-2-crossover1"),
    pytest.param("double_loop", 0.5, 2, None, id="double_loop-0.5-2")])
def test_windows_post_select_and_sample_the_states_they_walk(
        chain, lam, target, crossover, monkeypatch):
    """With the coins and the edge picks on streams of their own, a window
    cut short at step s walks the whole window's first s steps, so the
    states X_0 .. X_T are known, and none has more edges than the target,
    where adds hold.  The post-selected (snapshot, step) must be the last
    of them of the target size, and the collected keys those at the sample
    points, across switches between events and plain steps both ways, and
    so must those of the window cut at every step.  On K6 glauber and the
    double loop take plain steps at one edge only, as the rate at the cap
    has no adds; with the crossover at 1, jerrum's events at one edge take
    slides."""
    g = gen_graph(GraphSpec.of("complete", n=6))
    drive = _drivers()[chain]
    steps, thin, burn_in = 700, 3, 5
    log = []  # "p" per batch of plain steps, "e" per entry into events
    real_log1p, real_picks = gbsmc.glauber.log1p, gbsmc.glauber._picks

    def log1p(y):  # the events' holding-time constant
        log.append("e")
        return real_log1p(y)

    def picks(rng, k, n):
        log.append("p")
        return real_picks(rng, k, n)

    if crossover is not None:
        monkeypatch.setattr(gbsmc.glauber, "_CROSSOVER", crossover)
    monkeypatch.setattr(gbsmc.glauber, "log1p", log1p)
    monkeypatch.setattr(gbsmc.glauber, "_picks", picks)
    collected = Counter()
    got = drive(g, Matching(g), lam, steps, ScriptedRng(chain),
                target_edges=target, collect=collected, thin=thin,
                burn_in=burn_in)
    log = "".join(log)
    assert "pe" in log and "ep" in log  # handovers both ways
    monkeypatch.setattr(gbsmc.glauber, "log1p", real_log1p)
    monkeypatch.setattr(gbsmc.glauber, "_picks", real_picks)
    last, walked = (None, None), Counter()
    for s in range(steps + 1):
        x = Matching(g)
        cut = drive(g, x, lam, s, ScriptedRng(chain), target_edges=target)
        x.validate()
        assert len(x) <= target
        if len(x) == target:
            last = x.covered, s
        assert cut == last  # every cut post-selects the states it walked
        if s > burn_in and (s - burn_in) % thin == 0:
            walked[x.pairs()] += 1
    assert got == last
    assert collected == walked


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
        assert snap.bit_count() == 4
        assert start_step <= step <= start_step + 30
        if len(x) == 2:
            assert step == start_step + 30
            assert snap == x.covered
    assert seen > 50


def _window_graph(name):
    if name == "k6":
        return gen_graph(GraphSpec.of("complete", n=6))
    if name == "cycle16":
        return gen_graph(GraphSpec.of("cycle", n=16))
    return gen_graph(GraphSpec.of("erdos_renyi", n=64, p=0.3), seed=7)


# (chain, graph, lambda, modes): K6 at lambda = 1 runs plain steps only.
# ER(64, 0.3) runs events at small lambda, jerrum's mostly slides; jerrum
# hands over to plain steps at three edges, and glauber near lambda = 0.3
MODE_CASES = [("glauber", "k6", 1.0, "plain"),
              ("jerrum", "k6", 1.0, "plain"),
              ("glauber", "er64", 0.002, "events"),
              ("jerrum", "er64", 0.001, "events"),
              ("jerrum", "er64", 0.05, "both"),
              ("glauber", "er64", 0.3, "both")]
# the double loop with its exact gate and its chain inner draw, at lambda^2:
# plain steps on K6, events on ER(64, 0.3), and hand-overs on C16
DOUBLE_CASES = [(f"double_loop/{inner}", graph, lam, modes)
                for inner in ("exact", "chain")
                for graph, lam, modes in (("k6", 1.0, "plain"),
                                          ("er64", 0.03, "events"),
                                          ("cycle16", 0.3, "both"))]


def _window_driver(chain):
    """The driver of ``chain``, with the (g, x, lam, lazy, steps, rng)
    arguments of :func:`_drive_glauber`."""
    if chain == "glauber":
        return _drive_glauber
    if chain == "jerrum":
        return _drive_jerrum
    cfg = DoubleLoopConfig(inner=chain.split("/")[1])
    return lambda g, x, lam, lazy, steps, rng, **kw: _drive_double(
        g, x, lam, cfg, steps, rng, **kw)


def _check_modes(batches, steps, modes):
    """The windows ran the modes that their case names."""
    plain = sum(batches)
    if modes == "plain":
        assert plain == steps
    elif modes == "events":
        assert plain == 0
    else:
        assert 0 < plain < steps


@pytest.mark.parametrize("chain,graph,lam,modes", MODE_CASES + DOUBLE_CASES)
def test_windows_leave_x_whole_in_its_own_edge_set(chain, graph, lam, modes,
                                                   monkeypatch):
    """A window writes X's edge set only when it returns; after every
    window, whichever mode it ends in, with or without a removal check or
    matching keys, ``x.idxs`` is the same set object and agrees with the
    partner table and the vertex bitset.  Every other window collects
    matching keys, each the sorted edges of a matching."""
    batches = spy_plain_steps(monkeypatch)
    g = _window_graph(graph)
    drive = _window_driver(chain)
    x = Matching(g)
    idxs = x.idxs
    rng = random.Random(f"{chain}/{graph}/{lam}")
    slid = steps = 0
    keys = Counter()
    for w in range(1, 80):
        before = x.pairs()
        kw = dict(collect=keys, key_kind="matching", thin=3) if w % 2 else {}
        drive(g, x, lam, False, 7 * w, rng, **kw)
        steps += 7 * w
        assert x.idxs is idxs
        x.validate()
        slid += len(x.pairs()) == len(before) and x.pairs() != before
    _check_modes(batches, steps, modes)
    assert sum(keys.values()) == sum(7 * w // 3 for w in range(1, 80, 2))
    assert all(list(key) == sorted(key)
               and Matching.from_pairs(g, key).pairs() == key for key in keys)
    if chain == "jerrum" and modes == "events":
        assert slid  # windows that end in events after slides


def _two_edges(g):
    """X of two disjoint edges of ``g``: its first edge and the first one
    that misses both of its ends."""
    first = g.edges[0]
    return Matching.from_pairs(g, [first, next(
        e for e in g.edges if not set(e) & set(first))])


def _check_x_mid_window(x, start, covered):
    """Mid-window, ``covered`` is the partner table's cover of a valid
    matching, while ``x.covered`` and ``x.idxs`` still hold ``start``, the
    window's start state (its bitset and edge set)."""
    partner = x.partner
    assert all(p == -1 or partner[p] == w for w, p in enumerate(partner))
    assert covered == sum(1 << w for w, p in enumerate(partner) if p >= 0)
    assert (x.covered, x.idxs) == start


@pytest.mark.parametrize("chain,graph,lam,modes", MODE_CASES)
def test_remove_ok_sees_x_current(chain, graph, lam, modes, monkeypatch):
    """A removal check is handed X's bitset, and reads ``x.partner``: at
    every call they hold X_{t-1}, the edge to remove included, in both
    modes and after slides.  ``x.covered`` and ``x.idxs`` hold the
    window's start state until it returns."""
    batches = spy_plain_steps(monkeypatch)
    g = _window_graph(graph)
    x = _two_edges(g)
    start = x.covered, set(x.idxs)
    calls = []

    def remove_ok(i, t, covered):
        u, v = g.edges[i]
        assert x.partner[u] == v and x.partner[v] == u
        _check_x_mid_window(x, start, covered)
        calls.append(covered != start[0])
        return t % 3 > 0

    p_add, p_rem, p_slide = move_probabilities(chain, lam)
    _run_add_remove(g, x, p_add, p_rem, 20_000, random.Random(lam),
                    remove_ok, p_slide=p_slide)
    x.validate()
    assert len(calls) > 10 and any(calls)
    _check_modes(batches, 20_000, modes)


@pytest.mark.parametrize("chain,graph,lam,modes",
                         [case for case in DOUBLE_CASES
                          if case[1] != "cycle16"])
def test_the_double_loops_gate_sees_x_current(chain, graph, lam, modes,
                                              monkeypatch):
    """At every gate of the double loop, with its exact and its chain
    inner draw, in plain steps and in events, the bitset the gate reads is
    the partner table's cover: the exact gate's hafnians are of that set
    and of it less the edge to remove, and the chain draw runs on that set
    from the partner table.  ``x.covered`` and ``x.idxs`` hold the
    window's start state until it returns."""
    batches = spy_plain_steps(monkeypatch)
    g = _window_graph(graph)
    x = _two_edges(g)
    start = x.covered, set(x.idxs)
    gates = Counter()
    real_draw = double_loop._run_restricted
    real_haf = double_loop.hafnian_bits

    def draw(g, vbits, partner, *args):
        assert partner is x.partner
        _check_x_mid_window(x, start, vbits)
        gates["chain", vbits != start[0]] += 1
        return real_draw(g, vbits, partner, *args)

    def haf(g, bits, memo):
        cover = sum(1 << w for w, p in enumerate(x.partner) if p >= 0)
        rest = cover ^ bits
        u, v = (rest & -rest).bit_length() - 1, rest.bit_length() - 1
        assert rest == 0 or (rest == 1 << u | 1 << v and x.partner[u] == v)
        _check_x_mid_window(x, start, cover)
        gates["exact", cover != start[0]] += rest == 0
        return real_haf(g, bits, memo)

    monkeypatch.setattr(double_loop, "_run_restricted", draw)
    monkeypatch.setattr(double_loop, "hafnian_bits", haf)
    steps = 20_000 if modes == "plain" else 200_000
    _window_driver(chain)(g, x, lam, False, steps, random.Random(lam))
    x.validate()
    inner = chain.split("/")[1]
    assert gates[inner, True] > 10 and gates[inner, False] > 0
    assert {kind for kind, _ in gates} == {inner}
    _check_modes(batches, steps, modes)


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
