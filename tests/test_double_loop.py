"""Double-loop dynamics: inner gating, failure policies, empirical laws,
and the rejection sampler that targets the same squared-hafnian law."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from gbsmc.diagnostics import transition_kernel
from gbsmc.double_loop import (
    EXACT_GATE_BELOW,
    DoubleLoopConfig,
    InnerSamplerError,
    InnerStats,
    RejectionCapError,
    _drive_double,
    rejection_sample_stream,
    vertex_set_histogram,
)
from gbsmc.glauber import ChainConfig, ChainConfigError
from gbsmc.graphs import GraphSpec, Matching, gen_graph
from gbsmc.pm_chain import PMSamplerConfig

from conftest import (balance_suite, check_kernel_powers, spy_plain_steps,
                      spy_table_builds)
from oracles import naive_hafnian_subset, naive_tv


def _bits_members(bits):
    out = []
    i = 0
    while bits:
        if bits & 1:
            out.append(i)
        bits >>= 1
        i += 1
    return out


def exact_vertexset_law(g, lam):
    """Brute-force Pr[S] ~ lam^|S| Haf(S)^2 over all even subsets."""
    weights = {}
    for bits in range(1 << g.n):
        members = _bits_members(bits)
        if len(members) % 2:
            continue
        haf = naive_hafnian_subset(g.n, g.edges, members)
        w = Fraction(lam) ** len(members) * Fraction(haf) ** 2
        if w > 0:
            weights[bits] = w
    total = sum(weights.values())
    return {k: float(v / total) for k, v in weights.items()}


def test_failure_policy_validation():
    with pytest.raises(ChainConfigError):
        DoubleLoopConfig(on_inner_failure="retry")
    with pytest.raises(ChainConfigError):
        DoubleLoopConfig(inner="sat-solver")


@given(st.integers(0, 2**31))
def test_steps_preserve_matching_validity(seed):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.6), seed=seed % 37)
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=0.8),
                           pm=PMSamplerConfig(inner_steps=64, max_attempts=4),
                           on_inner_failure="fallback")
    rng = random.Random(seed)
    x = Matching(g)
    for _ in range(30):
        _drive_double(g, x, 0.8, cfg, 1, rng)
        x.validate()


@given(st.integers(0, 2**31))
def test_double_loop_step_changes_at_most_one_edge(seed):
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.6), seed=seed % 37)
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=1.5),
                           pm=PMSamplerConfig(inner_steps=64, max_attempts=4))
    rng = random.Random(seed)
    x = Matching(g)
    for _ in range(50):
        before = set(x.idxs)
        _drive_double(g, x, 1.5, cfg, 1, rng)
        assert len(before.symmetric_difference(x.idxs)) <= 1


@pytest.mark.parametrize("name", ["k4", "square"])
def test_double_loop_driver_follows_the_exact_kernel_powers(name, request):
    """X_T from fixed starts, T = 1, 2, 5, against rows of P^T, with the
    exact inner draw that the kernel marginalizes."""
    g = request.getfixturevalue(name)
    lam = Fraction(3, 2)
    kernel = transition_kernel(g, "double_loop", lam=lam)
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=lam), inner="exact")
    memo = {}
    check_kernel_powers(
        g, kernel,
        lambda x, steps, rng: _drive_double(g, x, lam, cfg, steps, rng,
                                            haf_memo=memo),
        starts=((), ((0, 1),), ((0, 1), (2, 3))), label=f"double/{name}")


@pytest.mark.parametrize("graph", ["k4", "k6", "k33"])
@pytest.mark.parametrize("inner", ["chain", "exact"])
def test_double_loop_plain_steps_follow_the_exact_kernel_powers(
        graph, inner, request, monkeypatch):
    """At lambda = 3/2 the empty matching is dense (_CROSSOVER * R >= m),
    so windows from it start on plain steps; X_T against rows of P^T, with
    both inner draws."""
    g = request.getfixturevalue(graph)
    lam = Fraction(3, 2)
    batches = spy_plain_steps(monkeypatch)
    kernel = transition_kernel(g, "double_loop", lam=lam)
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=lam), inner=inner)
    memo = {}
    check_kernel_powers(
        g, kernel,
        lambda x, steps, rng: _drive_double(g, x, lam, cfg, steps, rng,
                                            haf_memo=memo),
        starts=((), (g.edges[0],)), label=f"double/{graph}/{inner}/plain")
    assert batches


@pytest.mark.parametrize("thin", [1, 3, "m"])
@pytest.mark.parametrize("burn_in", [0, 7])
def test_vertex_set_histogram_returns_exactly_n_samples(thin, burn_in,
                                                       monkeypatch):
    """At lambda = 3 the outer windows take plain steps."""
    batches = spy_plain_steps(monkeypatch)
    g = gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.5), seed=3)
    thin = g.m if thin == "m" else thin
    for lam in (0.01, 3):
        cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=lam, seed=thin),
                               pm=PMSamplerConfig(inner_steps=64,
                                                  max_attempts=4))
        counts, _ = vertex_set_histogram(g, cfg, n_samples=101, thin=thin,
                                         burn_in=burn_in)
        assert sum(counts.values()) == 101
    assert batches


def test_double_loop_post_selected_window_reports_a_step_inside_it():
    g = gen_graph(GraphSpec.of("complete", n=8))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=0.7), inner="exact")
    rng = random.Random(4)
    x = Matching(g)
    memo = {}
    seen = 0
    for w in range(2000):  # until 51 post-selected windows are checked
        if seen > 50:
            break
        snap, step = _drive_double(g, x, 0.7, cfg, 30, rng, target_edges=2,
                                   haf_memo=memo)
        if snap is None:
            assert step is None and len(x) != 2
            continue
        seen += 1
        step += 30 * w  # the steps before the window, as gbsmc sample adds
        assert snap.bit_count() == 4
        assert 30 * w <= step <= 30 * w + 30
        if len(x) == 2:
            assert step == 30 * w + 30
            assert snap == x.covered
    assert seen > 50


def test_single_edge_removal_shortcut_counted():
    """|X| = 1 removals skip the inner sampler: the one-edge subgraph has a
    forced perfect matching.  Each removal that passed the gate coin from a
    one-edge state is one shortcut (about 1.7e-4 per step at lambda = 5)."""
    g = gen_graph(GraphSpec.of("complete", n=4))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=5.0),
                           pm=PMSamplerConfig(inner_steps=32, max_attempts=4))
    rng = random.Random(2)
    stats = InnerStats()
    x = Matching(g)
    one_to_empty = 0
    for _ in range(40_000):
        before = len(x.idxs)
        _drive_double(g, x, 5.0, cfg, 1, rng, stats=stats)
        one_to_empty += before == 1 and len(x.idxs) == 0
    assert stats.shortcuts == one_to_empty > 0


def test_abort_policy_raises():
    g = gen_graph(GraphSpec.of("complete", n=8))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=4.0),
                           pm=PMSamplerConfig(inner_steps=1, max_attempts=1),
                           on_inner_failure="abort")
    with pytest.raises(InnerSamplerError):
        _drive_double(g, Matching(g), 4.0, cfg, 4000, random.Random(13))


def test_stay_policy_counts_failures_and_continues():
    g = gen_graph(GraphSpec.of("complete", n=8))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=4.0, seed=13),
                           pm=PMSamplerConfig(inner_steps=1, max_attempts=1))
    counts, stats = vertex_set_histogram(g, cfg, n_samples=3000)
    assert stats.failures > 0
    assert sum(counts.values()) == 3000


def test_lazy_double_loop_is_refused():
    g = gen_graph(GraphSpec.of("complete", n=4))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=1.0, lazy=True))
    with pytest.raises(ChainConfigError, match="lazy"):
        vertex_set_histogram(g, cfg, n_samples=10)


def test_a_window_builds_one_table_per_vertex_set(k6, monkeypatch):
    """A K6 window at c = 1/2 builds at most one inner-chain table per
    V(X), each with at most K6's 60 states."""
    built = spy_table_builds(monkeypatch)
    cfg = DoubleLoopConfig(chain=ChainConfig(c=0.5, seed=7))
    _, stats = vertex_set_histogram(k6, cfg, n_samples=2500, thin=k6.m,
                                    burn_in=1000)
    sets = [vbits for vbits, _ in built]
    assert sets and len(set(sets)) == len(sets)
    assert all(len(table.keys) <= 60 for _, table in built)
    assert stats.calls > 10 * len(sets)


@pytest.mark.parametrize("name", ["k6", "er8", "hard2"])
def test_auto_gate_runs_the_exact_window_below_the_constant(name,
                                                           monkeypatch):
    """Capped below EXACT_GATE_BELOW vertices, inner="auto" makes the
    draws inner="exact" makes: the same states after every window, the
    same post-selected snapshots and steps, and the same histogram, with
    no chain draw.  So the exact gate's certificates cover it."""
    from gbsmc import double_loop
    monkeypatch.setattr(double_loop, "_run_restricted", None)
    g = dict(balance_suite())[name]
    cap = min(g.n, EXACT_GATE_BELOW - 1) // 2
    lam = Fraction(3, 2)
    runs = {}
    for inner in ("exact", "auto"):
        cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=lam), inner=inner,
                               on_inner_failure="fallback")
        rng = random.Random(f"auto/{name}")
        x = Matching(g)
        memo = {}
        trace = []
        for w in range(60):
            got = _drive_double(g, x, lam, cfg, (1, 7, 30)[w % 3], rng,
                                haf_memo=memo, target_edges=cap - w % 2)
            trace.append((got, x.pairs()))
        counts = Counter()
        stats = InnerStats()
        _drive_double(g, x, lam, cfg, 5000, rng, stats=stats, haf_memo=memo,
                      collect=counts, key_kind="vertexset", thin=3,
                      target_edges=cap)
        runs[inner] = (trace, counts, stats.calls, stats.failures,
                       rng.random(), sorted(memo))
    assert runs["auto"] == runs["exact"]
    trace, counts, calls, _, _, memo = runs["auto"]
    assert calls == 0 and sum(counts.values()) == 5000 // 3
    assert any(snap is not None for (snap, _), _ in trace)
    assert max(bits.bit_count() for bits in memo) >= 6  # gates past |X|=2


def test_post_selection_size_and_miss():
    g = gen_graph(GraphSpec.of("complete", n=6))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=1.0), inner="exact")
    snap, _ = _drive_double(g, Matching(g), 1.0, cfg, 3000,
                            random.Random(21), target_edges=2)
    assert snap.bit_count() == 4
    tiny = DoubleLoopConfig(chain=ChainConfig(fugacity=1e-9), inner="exact")
    assert _drive_double(g, Matching(g), 1e-9, tiny, 20, random.Random(0),
                         target_edges=3) == (None, None)


def test_exact_inner_law_on_dense_graph():
    """Vertex-set marginal matches lam^|S| Haf(S)^2 with the exact gate."""
    g = gen_graph(GraphSpec.of("complete", n=6))
    lam = 0.25
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=lam, seed=4),
                           inner="exact")
    counts, _ = vertex_set_histogram(g, cfg, n_samples=80_000, thin=8,
                                     burn_in=2000)
    n = sum(counts.values())
    emp = {k: v / n for k, v in counts.items()}
    assert naive_tv(emp, exact_vertexset_law(g, lam)) < 0.02


def test_chain_inner_law_agrees_with_exact_inner():
    g = gen_graph(GraphSpec.of("erdos_renyi", n=6, p=0.9), seed=2)
    lam = 0.5
    base = ChainConfig(fugacity=lam, seed=6)
    a, _ = vertex_set_histogram(
        g, DoubleLoopConfig(chain=base, inner="exact"),
        n_samples=30_000, thin=2 * g.m, burn_in=1000)
    b, _ = vertex_set_histogram(
        g, DoubleLoopConfig(chain=base,
                            pm=PMSamplerConfig(inner_steps=120,
                                               max_attempts=30)),
        n_samples=30_000, thin=2 * g.m, burn_in=1000)
    pa = {k: v / sum(a.values()) for k, v in a.items()}
    pb = {k: v / sum(b.values()) for k, v in b.items()}
    assert naive_tv(pa, pb) < 0.03


def test_rejection_sampler_matches_double_loop_law():
    g = gen_graph(GraphSpec.of("complete", n=6))
    lam = 0.25  # c = 0.5; rejection chains run at fugacity c
    stream = rejection_sample_stream(
        g, ChainConfig(c=0.5, seed=44), max_rounds=10_000, burn_in=120,
        round_steps=40, limit=20_000)
    counts = Counter(stream)
    n = sum(counts.values())
    emp = {k: v / n for k, v in counts.items()}
    assert naive_tv(emp, exact_vertexset_law(g, lam)) < 0.03


def test_rejection_cap_error():
    g = gen_graph(GraphSpec.of("complete", n=8))
    with pytest.raises(RejectionCapError):
        next(rejection_sample_stream(
            g, ChainConfig(fugacity=1.0, seed=1), max_rounds=0, burn_in=3))


def test_rejection_sample_returns_single_bitset():
    g = gen_graph(GraphSpec.of("complete", n=4))
    [bits] = rejection_sample_stream(g, ChainConfig(c=0.5, seed=8),
                                     max_rounds=5000, burn_in=200, limit=1)
    assert 0 <= bits <= g.full_bits
    assert bits.bit_count() % 2 == 0
