"""Perfect-matching chain: state space discipline, budgets, uniformity."""

import math
import random
from collections import Counter
from functools import cache, reduce
from operator import getitem
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gbsmc.diagnostics import transition_kernel
from gbsmc import pm_chain
from gbsmc.graphs import Graph, GraphSpec, Matching, bits_to_tuple, gen_graph
from gbsmc.hafnian import enumerate_perfect_matchings
from gbsmc.pm_chain import (
    PMConfigError,
    PMSampleBudgetError,
    PMSamplerConfig,
    PMStateError,
    default_inner_steps,
    _PMTable,
    _compound,
    _picks,
    _pm_walk,
    _run_restricted,
    _walk_picks,
    default_max_attempts,
    sample_perfect_matching,
    table_transitions,
)

from conftest import check_kernel_powers, petersen_graph
from oracles import naive_tv


def from_partner(g, m):
    """Bring the Matching ``m``'s edge set and vertex bitset to its partner
    table."""
    m.idxs = {g.edge_index[(u, w)] for u, w in enumerate(m.partner) if u < w}
    m.covered = sum(g.edge_bits[i] for i in m.idxs)
    return m


def pm_steps(g, m, steps, rng):
    """Advance the Matching ``m`` in place by ``steps`` moves of the
    perfect-matching chain over all of ``g``'s edges, through the samplers'
    step loop on a partner array."""
    _pm_walk(m.partner, g.n - m.covered.bit_count(), g.edges, steps, rng)
    return from_partner(g, m)


def partner_table(g, vbits, entries):
    """The partner table of ``g`` whose entries over the vertices of
    ``vbits`` are a draw's ``entries``, and -1 elsewhere."""
    partner = [-1] * g.n
    for u, p in zip(bits_to_tuple(vbits), entries):
        partner[u] = p
    return partner


def both_forms(g, vbits, start):
    """The table of ``vbits`` in its two forms: maps, as a table of at
    most 256 states is made, and rows with compound rows, as a larger one
    is made."""
    with mock.patch.object(pm_chain, "_MAP_STATES", 0):
        rows = _PMTable(g, vbits, start)
    return _PMTable(g, vbits, start), rows


def single_steps(table, s, picks):
    """The state ``picks``, single ones, lead to from state ``s``, one
    pick at a time, forward, on the table's maps or its rows."""
    if table.maps is None:
        return reduce(getitem, picks, table.rows[s])[table.k]
    maps = table.maps
    for r in picks:
        s = maps[r][s]
    return s


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
    """X_T from a perfect and a near-perfect start, T = 1, 2, 3, 5, 6,
    against rows of P^T, on the step loop the samplers' restricted runs
    walk and on the transition table the double loop walks, there in both
    of its forms: maps read back from an attempt's end, and compound rows
    walked forward.  With j steps a compound pick (3 on K4, 2 on K3,3, 4
    on the square), the table's attempts run on compound picks alone, on
    single picks alone, and on both."""
    g = request.getfixturevalue(name)
    perfect = enumerate_perfect_matchings(g)[-1].pairs()
    starts = (perfect, perfect[1:])
    kernel = transition_kernel(g, "pm")
    times = (1, 2, 3, 5, 6)
    check_kernel_powers(
        g, kernel, lambda x, steps, rng: pm_steps(g, x, steps, rng), starts,
        label=f"pm/{name}", times=times)
    for table in both_forms(g, g.full_bits,
                            enumerate_perfect_matchings(g)[0].partner):

        def on_table(x, steps, rng):
            x.partner[:] = table.keys[table.walk(table.state(x.partner),
                                                 steps, 1, rng)]
            from_partner(g, x)

        check_kernel_powers(g, kernel, on_table, starts,
                            label=f"pm/{name}/table", times=times)


def _er12_set():
    """An ER(12, 0.8) graph, the vertex set of a 4-edge matching of it, and
    that matching.  The set holds 18 edges, past 16: one step a compound
    pick."""
    g = gen_graph(GraphSpec.of("erdos_renyi", n=12, p=0.8), seed=4)
    x = Matching(g)
    for i, bits in enumerate(g.edge_bits):
        if not x.covered & bits and len(x.idxs) < 4:
            x.add(i)
    return g, x.covered, x.partner


@pytest.fixture
def edge():
    """One edge: k = 1, a set the double loop never draws on, since it
    forces its inner draw on 2 vertices."""
    return Graph(2, [(0, 1)])


@pytest.fixture
def two_edges():
    return Graph(4, [(0, 1), (2, 3)])


@pytest.fixture
def path4():
    return gen_graph(GraphSpec.of("path", n=4))


@pytest.fixture
def k44():
    return gen_graph(GraphSpec.of("complete_bipartite", m=4, n=4))


@pytest.fixture
def k44_chord(k44):
    """K4,4 and one edge inside a side: 17 edges, one past 16, so one
    step a compound pick."""
    return Graph(8, list(k44.edges) + [(0, 1)])


@pytest.fixture
def k8():
    return gen_graph(GraphSpec.of("complete", n=8))


# graphs by edge count k, so by steps a compound pick: j = 8 (k = 1, 2),
# 5 (3), 4 (4), 3 (6), 2 (9 to 16) and 1 (17)
BY_EDGES = ["edge", "two_edges", "path4", "square", "k4", "k33", "k6", "k44",
            "k44_chord"]


def _spelled(rng, k, steps):
    """The picks of one ``steps``-step table attempt on ``k`` edges, one a
    step: each compound pick of :func:`_walk_picks` written out as its j
    base-k digits, most significant first, then the single picks."""
    j = _compound(k)
    whole, rest = _walk_picks(rng, k, steps)
    return [c // k ** (j - 1 - d) % k for c in whole
            for d in range(j)] + list(rest)


class SpelledBytes:
    """An RNG stub for the step loop on ``k`` edges: each ``randbytes``
    call, one an attempt of at most ``_CHUNK`` steps, returns the digits
    of a table attempt's picks drawn from ``rng``."""

    def __init__(self, rng, k):
        self.rng = rng
        self.k = k

    def randbytes(self, n):
        return bytes(_spelled(self.rng, self.k, n))


@pytest.mark.parametrize("name", BY_EDGES + ["er12", "k8"])
def test_table_walk_draws_what_the_step_loop_draws(name, request):
    """A run of draws, each from the last one's matching, with and without
    a window's tables: the same partner entries, successes and budget
    run-outs alike, and the same random draws consumed.  Past 16 edges
    both walks read the same picks.  On at most 16 edges the table, built
    at the first draw, reads compound picks, and the step loop is fed
    their digits."""
    if name == "er12":
        g, vbits, start = _er12_set()
    else:
        g = request.getfixturevalue(name)
        vbits, start = g.full_bits, enumerate_perfect_matchings(g)[0].partner
    loop_rng, table_rng = random.Random(name), random.Random(name)
    k = len(pm_chain._inner_edges(g, vbits))
    loop = loop_rng if k > 16 else SpelledBytes(loop_rng, k)
    tables = {vbits: table_transitions(vbits.bit_count() // 2)
              } if k > 16 else {}
    outcomes = Counter()
    for t in range(300):
        steps, attempts = (1, 2, 3, 8, 40)[t % 5], 1 + t % 3
        want = _run_restricted(g, vbits, start, steps, attempts, loop)
        got = _run_restricted(g, vbits, start, steps, attempts, table_rng,
                              tables)
        assert got == want
        assert loop_rng.getstate() == table_rng.getstate()
        outcomes[want is None] += 1
        if want is not None:
            start = partner_table(g, vbits, want)
    assert isinstance(tables[vbits], _PMTable)
    assert outcomes[True] and outcomes[False]


def _check_table_against_spelled_picks(g, schedule, seed):
    """Draws on a table that walks compound picks from its first draw, in
    each of its forms, each draw from the last one's matching, pick for
    pick against the same table's single maps or rows and the step loop,
    fed the digits of the same draws: the same results, and the same
    random draws consumed.  ``schedule`` holds (steps, attempts) pairs."""
    vbits, first = g.full_bits, enumerate_perfect_matchings(g)[0].partner
    for table in both_forms(g, vbits, first):
        start = first
        tables = {vbits: table}
        table_rng, ref_rng = random.Random(seed), random.Random(seed)
        k = g.m
        for steps, attempts in schedule:
            got = _run_restricted(g, vbits, start, steps, attempts,
                                  table_rng, tables)
            s = table.state(start)
            picks = []
            for _ in range(attempts):
                attempt = _spelled(ref_rng, k, steps)
                picks += attempt
                s = single_steps(table, s, attempt)
                if table.perfect[s]:
                    break
            want = table.keys[s] if table.perfect[s] else None
            assert got == want
            assert table_rng.getstate() == ref_rng.getstate()
            assert _run_restricted(g, vbits, start, steps, attempts,
                                   ScriptedBytes(bytes(picks))) == want
            if want is not None:
                start = want
        if table.maps is None:
            assert (table.crows is table.rows) == (k > 16)
        else:
            assert (table.cmaps is table.maps) == (k > 16)


@pytest.mark.parametrize("name", BY_EDGES)
def test_compound_rows_walk_what_the_step_loop_walks(name, request):
    """Compound maps read back and compound rows walked forward, at step
    counts that j divides and ones it does not, reach what single maps or
    rows and the step loop reach on the digits of the same compound picks
    (on k44_chord, j = 1: the compound maps and rows are the single ones,
    and the picks are the step loop's single picks)."""
    _check_table_against_spelled_picks(
        request.getfixturevalue(name),
        [((1, 2, 3, 8, 40, 41)[t % 6], 1 + t % 3) for t in range(200)], name)


@pytest.mark.parametrize("name", ["k4", "k6", "k44_chord"])
def test_walks_past_a_chunk_of_compound_picks_draw_alike(name, request,
                                                         monkeypatch):
    """With chunks of 5 picks, walks of many chunks: the compound maps and
    rows read the picks chunk by chunk, and reach what the digits of those
    picks reach (on k44_chord, j = 1: the single maps and rows, on single
    picks)."""
    monkeypatch.setattr(pm_chain, "_CHUNK", 5)
    g = request.getfixturevalue(name)
    j = _compound(g.m)
    _check_table_against_spelled_picks(
        g, [(steps, 3) for steps in (5 * j, 5 * j + 1, 15 * j - 1, 15 * j,
                                     15 * j + 1, 64)], name)


@cache
def _coupling_sets():
    """Vertex sets the double loop's law-grade draws walk tables on, by
    name, as (graph, vertex set, start): K4, K6, K3,3, K4,4, the Petersen
    graph, and four 8-vertex sets of ER(256, 0.4), each the vertex set of
    a random 4-edge matching, with at most 16 inner edges."""
    sets = {name: gen_graph(spec) for name, spec in [
        ("k4", GraphSpec.of("complete", n=4)),
        ("k6", GraphSpec.of("complete", n=6)),
        ("k33", GraphSpec.of("complete_bipartite", m=3, n=3)),
        ("k44", GraphSpec.of("complete_bipartite", m=4, n=4))]}
    sets["petersen"] = petersen_graph()
    sets = {name: (g, g.full_bits, enumerate_perfect_matchings(g)[0].partner)
            for name, g in sets.items()}
    g = gen_graph(GraphSpec.of("erdos_renyi", n=256, p=0.4))
    rng = random.Random("coupling sets")
    while len(sets) < 9:
        x = Matching(g)
        while len(x.idxs) < 4:
            i = rng.randrange(g.m)
            if not x.covered & g.edge_bits[i]:
                x.add(i)
        if len(pm_chain._inner_edges(g, x.covered)) <= 16:
            sets[f"er{len(sets) - 5}"] = (g, x.covered, x.partner)
    return sets


@cache
def _coupling_tables(name):
    return both_forms(*_coupling_sets()[name])


# a read that stops early shows only where the unread picks lead to a
# state the map has not yet sent with the rest: a walk that stopped once
# all states but one agreed passed 60 examples and failed 300 in each of
# 4 runs
@settings(max_examples=300)
@given(st.data())
def test_an_attempt_read_back_ends_where_single_steps_forward_end(data):
    """An attempt of n steps on a table of maps, its compound and single
    picks scripted, from every state: its end, read from the last pick
    back, is the state the table's single rows reach forward on the
    picks' digits.  From n = 1 on, many attempts end before the map is
    constant."""
    name = data.draw(st.sampled_from(sorted(_coupling_sets())))
    table, rows = _coupling_tables(name)
    assert table.maps is not None
    k = table.k
    j = _compound(k)
    n = data.draw(st.integers(1, 300 * j))
    whole = data.draw(st.lists(st.integers(0, k ** j - 1), min_size=n // j,
                               max_size=n // j))
    rest = data.draw(st.lists(st.integers(0, k - 1), min_size=n % j,
                              max_size=n % j))
    digits = [c // k ** (j - 1 - d) % k for c in whole
              for d in range(j)] + rest
    for s in range(len(table.keys)):
        assert table.walk(s, n, 1, ScriptedBytes(bytes(whole + rest))) == \
            single_steps(rows, s, digits)


def test_a_one_edge_graph_takes_eight_steps_a_byte(edge):
    """k = 1 carries j = 8 steps a pick: a 20-step attempt on a table
    draws 2 compound bytes, then 4 single ones, and ends on the one
    perfect matching (20 is even)."""
    rng, ref = random.Random(1), random.Random(1)
    tables = {}
    got = _run_restricted(edge, edge.full_bits, [1, 0], 20, 1, rng, tables)
    ref.randbytes(2)
    ref.randbytes(4)
    assert got == (1, 0)
    assert isinstance(tables[edge.full_bits], _PMTable)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("name", ["k6", "k44", "k44_chord"])
def test_compound_rows_are_composed_when_a_table_is_made(name, request):
    """A table composes its compound transitions, k^j of them, when it is
    made: as maps, each the composition of its digits' single maps, and in
    a table of rows as rows, states times k^j entries each.  At most 16
    edges (K6's 15, K4,4's 16) they are new lists; past 16 (K4,4 and a
    chord) j = 1, and they are the single maps or rows themselves, the
    same lists."""
    g = request.getfixturevalue(name)
    j = _compound(g.m)
    entries = g.m ** j
    maps, rows = both_forms(g, g.full_bits,
                            enumerate_perfect_matchings(g)[0].partner)
    assert (maps.cmaps is maps.maps) == (g.m > 16)
    assert len(maps.cmaps) == entries and len(maps.maps) == g.m
    states = len(maps.keys)
    for c, cmap in enumerate(maps.cmaps):
        digits = [c // g.m ** (j - 1 - d) % g.m for d in range(j)]
        assert len(cmap) == 256
        assert list(cmap[:states]) == [single_steps(maps, s, digits)
                                       for s in range(states)]
    assert rows.maps is None
    assert (rows.crows is rows.rows) == (g.m > 16)
    assert len(rows.crows) == len(rows.rows) == states
    assert all(len(crow) == entries + 1 and crow[-1] == s
               for s, crow in enumerate(rows.crows))


@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_table_of_k2q_holds_every_perfect_and_near_perfect_matching(q):
    """Built from one perfect matching, K_2q's table lists all of them and
    every near-perfect one, and has table_transitions(q) transitions;
    every perfect matching is looked up by its partner entries.  K4's and
    K6's tables hold maps, K8's 525 states rows."""
    g = gen_graph(GraphSpec.of("complete", n=2 * q))
    pms = enumerate_perfect_matchings(g)
    table = _PMTable(g, g.full_bits, pms[0].partner)
    assert table.keys[0] == tuple(pms[0].partner)
    perfect = sum(table.perfect)
    assert perfect == len(pms)
    assert table.perfect == [-1 not in key for key in table.keys]
    states = len(table.keys)
    assert states - perfect == g.m * len(
        enumerate_perfect_matchings(gen_graph(
            GraphSpec.of("complete", n=2 * q - 2))))
    assert states * g.m == table_transitions(q)
    if q < 4:
        assert table.rows == () and len(table.maps) == g.m
        assert all(len(m) == 256 and max(m[:states]) < states
                   for m in table.maps)
    else:
        assert table.maps is None and len(table.rows) == states
        assert all(len(row) == g.m + 1 and row[g.m] == s
                   and all(table.rows[nxt[g.m]] is nxt for nxt in row[:g.m])
                   for s, row in enumerate(table.rows))
    for pm in pms:
        assert table.keys[table.state(pm.partner)] == tuple(pm.partner)
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
