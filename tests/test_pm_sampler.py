"""Perfect-matching chain: state space discipline, budgets, uniformity."""

import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from gbsmc.diagnostics import transition_kernel
from gbsmc.graphs import GraphSpec, Matching, gen_graph
from gbsmc.hafnian import enumerate_perfect_matchings
from gbsmc.pm_chain import (
    PMConfigError,
    PMSampleBudgetError,
    PMSamplerConfig,
    PMStateError,
    default_inner_steps,
    _PMTable,
    _picks,
    _pm_walk,
    _run_restricted,
    default_max_attempts,
    sample_perfect_matching,
    table_transitions,
)

from conftest import check_kernel_powers
from oracles import naive_tv


def pm_steps(g, m, steps, rng):
    """Advance the Matching ``m`` in place by ``steps`` moves of the
    perfect-matching chain over all of ``g``'s edges, through the samplers'
    step loop on a partner array."""
    _pm_walk(m.partner, g.n - m.covered.bit_count(), g.edges, steps, rng)
    m.idxs = {g.edge_index[(u, w)] for u, w in enumerate(m.partner) if u < w}
    m.covered = sum(g.edge_bits[i] for i in m.idxs)
    return m


def test_default_budget_formulas():
    assert default_inner_steps(6) == 6 ** 4
    assert default_inner_steps(1) == 16  # floor
    q = 3
    expect = math.ceil((2 + 4 * q * q) * math.log(2 / 0.01))
    assert default_max_attempts(6) == expect


def test_config_overrides_win():
    cfg = PMSamplerConfig(inner_steps=99, max_attempts=7)
    assert cfg.steps_for(10) == 99
    assert cfg.attempts_for(10) == 7
    auto = PMSamplerConfig()
    assert auto.steps_for(4) == default_inner_steps(4)


@pytest.mark.parametrize("name,value", [("inner_steps", 0),
                                        ("inner_steps", -3),
                                        ("max_attempts", 0)])
def test_budgets_below_one_are_refused(name, value):
    # No steps returns the start state itself, and no attempts fails every
    # draw: neither is a draw from the chain.
    with pytest.raises(PMConfigError, match="at least 1"):
        PMSamplerConfig(**{name: value})


@given(st.integers(0, 2**32))
def test_chain_lives_on_perfect_and_near_perfect(seed):
    g = gen_graph(GraphSpec.of("complete", n=6))
    rng = random.Random(seed)
    m = Matching.from_pairs(g, [(0, 1), (2, 3), (4, 5)])
    for _ in range(80):
        m = pm_steps(g, m, 1, rng)
        holes = g.n - m.covered.bit_count()
        assert holes in (0, 2)
        m.validate()


def test_sampler_rejects_non_perfect_initial():
    g = gen_graph(GraphSpec.of("complete", n=4))
    with pytest.raises(PMStateError):
        sample_perfect_matching(g, PMSamplerConfig(), Matching(g),
                                random.Random(0))


def test_sampler_returns_perfect_matching():
    g = gen_graph(GraphSpec.of("complete", n=8))
    first = next(iter(enumerate_perfect_matchings(g)))
    out = sample_perfect_matching(g, PMSamplerConfig(inner_steps=200,
                                                     max_attempts=20),
                                  Matching(g, first.idxs),
                                  random.Random(3))
    assert out.covered == g.full_bits
    out.validate()


def test_budget_error_surfaces_attempt_count():
    # an impossible budget: zero-step rounds never leave the starting
    # near-perfect state, so forcing failure needs a trick — use a
    # fresh RNG stream where the first round immediately breaks perfection
    g = gen_graph(GraphSpec.of("complete", n=6))
    start = Matching.from_pairs(g, [(0, 1), (2, 3), (4, 5)])
    cfg = PMSamplerConfig(inner_steps=1, max_attempts=2)
    failures = 0
    for seed in range(40):
        try:
            sample_perfect_matching(g, cfg, Matching(g, start.idxs),
                                    random.Random(seed))
        except PMSampleBudgetError as err:
            failures += 1
            assert err.attempts == 2
    assert failures > 0


def test_uniformity_on_k4():
    """Three perfect matchings of K_4: equal visit shares."""
    g = gen_graph(GraphSpec.of("complete", n=4))
    start = Matching.from_pairs(g, [(0, 1), (2, 3)])
    cfg = PMSamplerConfig(inner_steps=60, max_attempts=50)
    rng = random.Random(99)
    counts = Counter()
    draws = 12_000
    for _ in range(draws):
        out = sample_perfect_matching(g, cfg, Matching(g, start.idxs), rng)
        counts[tuple(sorted(out.pairs()))] += 1
    assert len(counts) == 3
    for c in counts.values():
        assert abs(c / draws - 1 / 3) < 0.02


def test_uniformity_on_k33():
    g = gen_graph(GraphSpec.of("complete_bipartite", m=3, n=3))
    start = Matching.from_pairs(g, [(0, 3), (1, 4), (2, 5)])
    cfg = PMSamplerConfig(inner_steps=80, max_attempts=50)
    rng = random.Random(5)
    counts = Counter()
    draws = 18_000
    for _ in range(draws):
        out = sample_perfect_matching(g, cfg, Matching(g, start.idxs), rng)
        counts[tuple(sorted(out.pairs()))] += 1
    assert len(counts) == 6  # 3! perfect matchings
    emp = {k: v / draws for k, v in counts.items()}
    assert naive_tv(emp, {k: 1 / 6 for k in counts}) < 0.02


@pytest.mark.parametrize("name", ["k4", "k33", "square"])
def test_pm_steps_follow_the_exact_kernel_powers(name, request):
    """X_T from a perfect and a near-perfect start, T = 1, 2, 5, against
    rows of P^T, on the step loop the samplers' restricted runs walk and
    on the transition table the double loop walks."""
    g = request.getfixturevalue(name)
    perfect = enumerate_perfect_matchings(g)[-1].pairs()
    starts = (perfect, perfect[1:])
    kernel = transition_kernel(g, "pm")
    check_kernel_powers(
        g, kernel, lambda x, steps, rng: pm_steps(g, x, steps, rng), starts,
        label=f"pm/{name}")
    table = _PMTable(g, g.full_bits)

    def on_table(x, steps, rng):
        end = Matching(g, table.keys[table.walk(table.state(x.idxs), steps,
                                                1, rng)])
        x.idxs, x.covered, x.partner = end.idxs, end.covered, end.partner

    check_kernel_powers(g, kernel, on_table, starts, label=f"pm/{name}/table")


def _er12_set():
    """An ER(12, 1/2) graph, the vertex set of a 4-edge matching of it, and
    that matching."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=12, p=0.5), seed=4)
    x = Matching(g)
    for i, bits in enumerate(g.edge_bits):
        if not x.covered & bits and len(x.idxs) < 4:
            x.add(i)
    return g, x.covered, x.idxs


@pytest.mark.parametrize("name", ["k4", "k6", "k33", "er12"])
def test_table_walk_draws_what_the_step_loop_draws(name, request):
    """A run of draws, each from the last one's matching, with and without
    a table: the same results, successes and budget run-outs alike, and the
    same random draws consumed."""
    if name == "er12":
        g, vbits, start = _er12_set()
    else:
        g = request.getfixturevalue(name)
        vbits, start = g.full_bits, enumerate_perfect_matchings(g)[0].idxs
    loop_rng, table_rng = random.Random(name), random.Random(name)
    tables = {vbits: table_transitions(len(start))}
    outcomes = Counter()
    for t in range(300):
        steps, attempts = (1, 2, 3, 8, 40)[t % 5], 1 + t % 3
        want = _run_restricted(g, vbits, start, steps, attempts, loop_rng)
        got = _run_restricted(g, vbits, start, steps, attempts, table_rng,
                              tables)
        assert got == want
        assert loop_rng.getstate() == table_rng.getstate()
        outcomes[want is None] += 1
        if want is not None:
            start = want
    assert isinstance(tables[vbits], _PMTable)
    assert outcomes[True] and outcomes[False]


@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_table_of_k2q_holds_every_perfect_and_near_perfect_matching(q):
    """Built from one perfect matching, K_2q's table lists all of them and
    every near-perfect one, and has table_transitions(q) transitions; a
    start it holds adds nothing."""
    g = gen_graph(GraphSpec.of("complete", n=2 * q))
    table = _PMTable(g, g.full_bits)
    assert not table.keys
    pms = enumerate_perfect_matchings(g)
    first = table.state(pms[0].idxs)  # a start the table lacks
    assert table.keys[first] == frozenset(pms[0].idxs)
    perfect = sum(len(key) == q for key in table.keys)
    assert perfect == len(pms)
    assert len(table.keys) - perfect == g.m * len(
        enumerate_perfect_matchings(gen_graph(
            GraphSpec.of("complete", n=2 * q - 2))))
    assert len(table.rows) * g.m == table_transitions(q)
    assert all(len(row) == g.m + 1 and row[g.m] == s
               and all(table.rows[nxt[g.m]] is nxt for nxt in row[:g.m])
               for s, row in enumerate(table.rows))
    for pm in pms:
        assert table.keys[table.state(pm.idxs)] == frozenset(pm.idxs)
    assert len(table.rows) == len(table.keys)
    assert table_transitions(q) == {2: 54, 3: 900, 4: 14_700}[q]


class ScriptedBytes:
    """An RNG stub whose ``randbytes`` reads on through a fixed byte
    stream, starting it again at its end."""

    def __init__(self, stream: bytes):
        self.stream = stream
        self.pos = 0

    def randbytes(self, n):
        out = bytearray()
        while len(out) < n:
            take = self.stream[self.pos:self.pos + n - len(out)]
            out += take
            self.pos = (self.pos + len(take)) % len(self.stream)
        return bytes(out)


def every_word(width):
    """Every ``width``-byte word in order, little-endian."""
    return ScriptedBytes(b"".join(w.to_bytes(width, "little")
                                  for w in range(256 ** width)))


@pytest.mark.parametrize("k, width", [(1, 1), (2, 1), (255, 1), (256, 1),
                                      (257, 2), (65_535, 2), (65_536, 2)])
def test_picks_over_every_word_pattern_are_exactly_uniform(k, width):
    """Two rounds of the words a pick keeps, through a stream of every
    word pattern: each index exactly as often.  Where k does not divide
    the word range, the first draw crosses the rejected words and a
    refill makes up the count."""
    kept = 256 ** width - 256 ** width % k
    picks = list(_picks(every_word(width), k, 2 * kept))
    assert len(picks) == 2 * kept
    assert Counter(picks) == {r: 2 * kept // k for r in range(k)}


def test_picks_past_the_16_bit_words_reject_at_the_32_bit_boundary():
    """k = 65,537 takes 32-bit words, little-endian on any machine; 2^32 - 1
    is the one word at or past the largest multiple of k."""
    k = 65_537
    kept = 2 ** 32 - 2 ** 32 % k
    words = [kept - 1, kept, 0, k, k - 1, 2 ** 31]
    rng = ScriptedBytes(b"".join(w.to_bytes(4, "little") for w in words))
    assert list(_picks(rng, k, 5)) == [(kept - 1) % k, 0, 0, k - 1,
                                       2 ** 31 % k]


def test_picks_refill_until_they_have_n():
    rng = ScriptedBytes(b"\xff" * 10 + bytes(range(3)) * 4)
    assert list(_picks(rng, 3, 10)) == [0, 1, 2] * 3 + [0]


def test_byte_picks_past_a_chunk_come_back_n():
    """More byte picks than one draw takes come back as many as asked for,
    the same on every rerun.  (The 16-bit cases of the every-word test
    cross chunks too.)"""
    first = list(_picks(random.Random(3), 3, 200_000))
    assert len(first) == 200_000 and set(first) == {0, 1, 2}
    assert first == list(_picks(random.Random(3), 3, 200_000))
