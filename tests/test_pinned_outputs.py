"""Exact outputs of the chain windows, pinned.

The window loop's bookkeeping (which views of X it keeps current, and
when) must not move a single draw, coin or state.  Each case below runs a
seeded window or trial and compares a digest of what it returned, and of
the state it left, with the value the loop produced before its
bookkeeping was last reworked.  Run this file as a script to print the
digests of the code at hand.
"""

import hashlib
import random
from collections import Counter
from functools import cache

import pytest

from gbsmc.double_loop import DoubleLoopConfig, InnerStats, _drive_double
from gbsmc.glauber import (ChainConfig, _drive_glauber, _drive_jerrum,
                           sample_states)
from gbsmc.graphs import GraphSpec, Matching, gen_graph
from gbsmc.pm_chain import _run_restricted
from gbsmc.seeds import child_rng
from gbsmc.solvers import SolverConfig, random_search

from conftest import petersen_graph

_DRIVE = {"glauber": _drive_glauber, "jerrum": _drive_jerrum}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _state(x):
    """X as its sorted edge indices and its vertex bitset."""
    return sorted(x.idxs), x.covered


def k6_states(chain, lam, key_kind, thin):
    """``sample_states`` on K6: a histogram of 3,000 samples."""
    g = gen_graph(GraphSpec.of("complete", n=6))
    counts = sample_states(g, ChainConfig(fugacity=lam, seed=f"pin/k6/{lam}"),
                           dynamics=chain, n_samples=3000, thin=thin,
                           burn_in=100, key_kind=key_kind)
    return sorted(counts.items())


def k6_capped(chain, lam, key_kind):
    """Post-selecting K6 windows capped at two edges, collecting states,
    run back to back on one X."""
    g = gen_graph(GraphSpec.of("complete", n=6))
    x = Matching(g)
    rng = random.Random(f"pin/k6-capped/{lam}")
    out = []
    for _ in range(20):
        counts = Counter()
        snap = _DRIVE[chain](g, x, lam, False, 300, rng, target_edges=2,
                             collect=counts, key_kind=key_kind, thin=7)
        out.append((snap, sorted(counts.items()), _state(x)))
    return out


def er64_windows(chain, lam, key_kind):
    """ER(64, 0.3) windows at a small lambda: events, slides for jerrum,
    and hand-overs to plain steps once X grows."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=64, p=0.3), seed=7)
    x = Matching(g)
    rng = random.Random(f"pin/er64/{chain}/{lam}")
    out = []
    for w in range(6):
        counts = Counter() if key_kind else None
        snap = _DRIVE[chain](g, x, lam, w % 2 == 1, 4000, rng,
                             target_edges=-1 if w < 3 else 3,
                             collect=counts, key_kind=key_kind or "matching",
                             thin=11, burn_in=50)
        out.append((snap, counts and sorted(counts.items()), _state(x)))
    return out


def er128_dense(chain):
    """The final state of one 200,000-step window on dense ER(128, 0.4)
    at lambda = 1."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=128, p=0.4), seed=3)
    x = Matching(g)
    _DRIVE[chain](g, x, 1.0, False, 200_000, random.Random("pin/er128"))
    return _state(x)


@cache
def _er256():
    return gen_graph(GraphSpec.of("erdos_renyi", n=256, p=0.4), seed="pin")


def search_record(sampler, objective, k, iterations):
    """One random-search trial on a seeded ER(256, 0.4), less its wall
    time."""
    cfg = SolverConfig(objective=objective, subset_size=k,
                       iterations=iterations, sampler=sampler,
                       seed=f"pin/{sampler}/{k}")
    rec = random_search(_er256(), cfg)
    return (rec.best_set, rec.best_score, rec.score_trajectory,
            rec.starvation_count, rec.inner_failures)


def restricted_draw():
    """Chain inner draws on the 28 edges of K8 (one pick a step), from a
    perfect matching, through the step loop."""
    g = gen_graph(GraphSpec.of("complete", n=8))
    rng = random.Random("pin/k8-inner")
    start = [1, 0, 3, 2, 5, 4, 7, 6]  # (0, 1), (2, 3), (4, 5), (6, 7)
    draws = [_run_restricted(g, g.full_bits, start, steps, 3, rng)
             for steps in (1, 2, 5, 40, 333)]
    # each draw as its sorted edge indices, read from its partner entries
    return [got and sorted(g.edge_index[u, w] for u, w in enumerate(got)
                           if u < w) for got in draws]


def table_draws(graph, schedule):
    """Chain inner draws on all of ``graph`` through a window's tables,
    each from the last one's matching; ``schedule`` holds their (steps,
    attempts) pairs."""
    g = {"k44": lambda: gen_graph(GraphSpec.of("complete_bipartite", m=4,
                                               n=4)),
         "petersen": petersen_graph,
         "k4": lambda: gen_graph(GraphSpec.of("complete", n=4))}[graph]()
    x = Matching(g)
    for i, bits in enumerate(g.edge_bits):
        if not x.covered & bits:
            x.add(i)
    rng = random.Random(f"pin/tables/{graph}")
    tables = {}
    start = x.partner
    draws = []
    for steps, attempts in schedule:
        got = _run_restricted(g, g.full_bits, start, steps, attempts, rng,
                              tables)
        draws.append(got)
        start = start if got is None else list(got)
    return draws


def er256_double_loop_windows():
    """The paper-scale double-loop command of CI's sample step: ER(256,
    0.4) at graph seed 0, post-selected at k = 8, lambda = 0.017485,
    20,000 steps of burn-in and ten 200,000-step windows, with chain inner
    draws at the default budget.  Its 8-vertex sets walk tables of 4,096
    picks an attempt, drawn from the last one back."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=256, p=0.4), seed=0)
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=0.017485))
    rng = child_rng(1, "sample")
    x = Matching(g)
    stats = InnerStats()
    memo = {}
    _drive_double(g, x, 0.017485, cfg, 20_000, rng, stats=stats,
                  haf_memo=memo, target_edges=4)
    snaps = [_drive_double(g, x, 0.017485, cfg, 200_000, rng, stats=stats,
                           haf_memo=memo, target_edges=4)
             for _ in range(10)]
    return (snaps, _state(x), stats.calls, stats.shortcuts, stats.failures)


def double_loop_chain_window(key_kind):
    """Double-loop windows with chain inner draws on ER(24, 0.8), whose
    vertex sets of 8 or more hold more than 16 inner edges."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=24, p=0.8), seed=2)
    x = Matching(g)
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=2.0))
    rng = random.Random("pin/dl-chain")
    out = []
    for _ in range(3):
        counts = Counter()
        snap = _drive_double(g, x, 2.0, cfg, 400, rng, collect=counts,
                             key_kind=key_kind, thin=5)
        out.append((snap, sorted(counts.items()), _state(x)))
    return out


def k6_double_loop(key_kind):
    """Double-loop windows on K6 at c = 1/2, which run events at every
    size, with chain inner draws."""
    g = gen_graph(GraphSpec.of("complete", n=6))
    x = Matching(g)
    cfg = DoubleLoopConfig(chain=ChainConfig(c=0.5))
    stats = InnerStats()
    rng = random.Random("pin/k6-double")
    counts = Counter()
    _drive_double(g, x, 0.25, cfg, 6000, rng, stats=stats, collect=counts,
                  key_kind=key_kind, thin=15, burn_in=100)
    return (sorted(counts.items()), _state(x), stats.calls, stats.shortcuts,
            stats.failures)


CASES = {
    **{f"k6-{c}-{lam}-{kk}-thin{t}": (k6_states, (c, lam, kk, t))
       for c in ("glauber", "jerrum") for lam in (1.0, 3.0)
       for kk in ("vertexset", "matching") for t in (1, 15)},
    **{f"k6-capped-{c}-{lam}-{kk}": (k6_capped, (c, lam, kk))
       for c in ("glauber", "jerrum") for lam in (1.0, 3.0)
       for kk in ("vertexset", "matching")},
    **{f"er64-{c}-{lam}-{kk}": (er64_windows, (c, lam, kk))
       for c in ("glauber", "jerrum") for lam in (0.002, 0.05, 0.3)
       for kk in (None, "vertexset", "matching")},
    **{f"er128-dense-{c}": (er128_dense, (c,))
       for c in ("glauber", "jerrum")},
    "search-jerrum-k8": (search_record, ("jerrum", "hafnian", 8, 40)),
    "search-jerrum-k32": (search_record, ("jerrum", "density", 32, 10)),
    "search-double-loop-k32": (search_record,
                               ("double_loop", "density", 32, 10)),
    "k8-inner-draws": (restricted_draw, ()),
    **{f"double-loop-er24-{kk}": (double_loop_chain_window, (kk,))
       for kk in ("vertexset", "matching")},
    **{f"double-loop-k6-{kk}": (k6_double_loop, (kk,))
       for kk in ("vertexset", "matching")},
    "double-loop-er256-k8": (er256_double_loop_windows, ()),
    # short attempts, then the default budgets: 4,096 steps and 350
    # attempts on K4,4, 10,000 steps and 541 attempts on the Petersen
    # graph
    "k44-table-draws": (table_draws, (
        "k44", [(1, 3), (7, 3), (64, 3)] + [(4_096, 350)] * 20)),
    "petersen-table-draws": (table_draws, (
        "petersen", [(1, 3), (9, 3), (150, 3)] + [(10_000, 541)] * 20)),
    # 200,000 steps an attempt, of which the walk draws a few dozen; its
    # one draw is one of K4's three perfect matchings
    "k4-table-draws-past-a-chunk": (table_draws, ("k4", [(200_000, 3)])),
}

PINNED = {
    'double-loop-er24-matching': '0e503330890c4461',
    'double-loop-er24-vertexset': '2a73be9101d3f7ce',
    'double-loop-er256-k8': 'f48752de3463b2fe',
    'double-loop-k6-matching': '6539b3339345a523',
    'double-loop-k6-vertexset': '6810c464f0d7fe1e',
    'er128-dense-glauber': '70adbac90363538b',
    'er128-dense-jerrum': '7a7088055c0a94ea',
    'er64-glauber-0.002-None': 'aafec23e55c45c20',
    'er64-glauber-0.002-matching': '777b9e26fb406fa7',
    'er64-glauber-0.002-vertexset': '0994cc28150c94ce',
    'er64-glauber-0.05-None': '94c773806747afe1',
    'er64-glauber-0.05-matching': 'ceabf09e8a6a9d66',
    'er64-glauber-0.05-vertexset': '7f4c299186cfd4d6',
    'er64-glauber-0.3-None': 'c90b7d3e7dedba66',
    'er64-glauber-0.3-matching': 'cf11044127ba22df',
    'er64-glauber-0.3-vertexset': '9381855356f49522',
    'er64-jerrum-0.002-None': '352ffc01540e997b',
    'er64-jerrum-0.002-matching': '05a5da71ffd8c706',
    'er64-jerrum-0.002-vertexset': 'c58e7f5d9313ed98',
    'er64-jerrum-0.05-None': 'ef23eaca517dd149',
    'er64-jerrum-0.05-matching': '8d2f810b5d14a7d2',
    'er64-jerrum-0.05-vertexset': 'd293c37ad661d8f1',
    'er64-jerrum-0.3-None': 'cdd8b7ac675a4710',
    'er64-jerrum-0.3-matching': '2cea6742cc6783e3',
    'er64-jerrum-0.3-vertexset': '48816cec071c09cf',
    'k6-capped-glauber-1.0-matching': 'f36d3324428cd309',
    'k6-capped-glauber-1.0-vertexset': '263153a300df11b1',
    'k6-capped-glauber-3.0-matching': '8235702f21d732c7',
    'k6-capped-glauber-3.0-vertexset': '71dec109566eb9c8',
    'k6-capped-jerrum-1.0-matching': '28d00b1ffcd745f8',
    'k6-capped-jerrum-1.0-vertexset': '724d53e9f6a94e69',
    'k6-capped-jerrum-3.0-matching': '3e5249fb3c6ac665',
    'k6-capped-jerrum-3.0-vertexset': 'fc1d1e3654b78bfc',
    'k6-glauber-1.0-matching-thin1': '527971b530de0f70',
    'k6-glauber-1.0-matching-thin15': 'af1e406d5495a8ae',
    'k6-glauber-1.0-vertexset-thin1': 'f74bead8156379ad',
    'k6-glauber-1.0-vertexset-thin15': '67655f26e64f8130',
    'k6-glauber-3.0-matching-thin1': '59eb21abe65c1790',
    'k6-glauber-3.0-matching-thin15': 'ea2de353c8a79304',
    'k6-glauber-3.0-vertexset-thin1': '6a265bf7629a298f',
    'k6-glauber-3.0-vertexset-thin15': 'be164b39f315015f',
    'k6-jerrum-1.0-matching-thin1': 'cc31bcee280461d0',
    'k6-jerrum-1.0-matching-thin15': '2aa77c571f3e190c',
    'k6-jerrum-1.0-vertexset-thin1': '5d5966f7c932d73e',
    'k6-jerrum-1.0-vertexset-thin15': '5f9bb7f862c7e2af',
    'k6-jerrum-3.0-matching-thin1': 'cbcf4295029c2f6b',
    'k6-jerrum-3.0-matching-thin15': '79786067a87ba76b',
    'k6-jerrum-3.0-vertexset-thin1': '724d05cc28596663',
    'k6-jerrum-3.0-vertexset-thin15': 'fc452d86745f21f2',
    'k4-table-draws-past-a-chunk': '5bc879ffcb29cc26',
    'k44-table-draws': 'da8688cd3526e84e',
    'k8-inner-draws': 'd9f24a4207b50e37',
    'petersen-table-draws': 'bca6882941502c2c',
    'search-double-loop-k32': 'f76f16547a1e1587',
    'search-jerrum-k32': '627851c11e9043ad',
    'search-jerrum-k8': 'bc92281432603aa7',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_are_the_pinned_ones(name):
    fn, args = CASES[name]
    assert _digest(fn(*args)) == PINNED[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        fn, args = CASES[name]
        print(f"    {name!r}: {_digest(fn(*args))!r},")
