"""Perfect-matching chain: state space discipline, budgets, uniformity."""

import math
import random
from collections import Counter
from functools import cache
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
    _byte_table,
    _picks,
    _pm_walk,
    _run_restricted,
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
    most 256 states is made, and rows, as a larger one is made.  Where
    both are made, both hold the same transitions."""
    with mock.patch.object(pm_chain, "_MAP_STATES", 0):
        rows = _PMTable(g, vbits, start)
    table = _PMTable(g, vbits, start)
    if table.maps is not None:
        assert all(rows.rows[s][r] == table.maps[r][s]
                   for s in range(len(table.keys)) for r in range(table.k))
    return table, rows


def single_steps(table, s, picks):
    """The state ``picks``, single ones, lead to from state ``s``, one
    pick at a time, forward, on the table's maps or its rows."""
    for r in picks:
        s = table.rows[s][r] if table.maps is None else table.maps[r][s]
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
    """X_T from a perfect and a near-perfect start, T = 1, 2, 3, 5, 6 and
    40, against rows of P^T, on the step loop the samplers' restricted
    runs walk and on the transition table the double loop walks, there in
    both of its forms: maps, an attempt's picks drawn from its last one
    back, and rows walked forward.  At T = 40 an attempt on maps whose map
    is not constant within its first read of 16 picks draws the rest in
    a second."""
    g = request.getfixturevalue(name)
    perfect = enumerate_perfect_matchings(g)[-1].pairs()
    starts = (perfect, perfect[1:])
    kernel = transition_kernel(g, "pm")
    times = (1, 2, 3, 5, 6, 40)
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
    that matching.  The set holds 18 edges, past 16: its draws take the
    step loop until they have walked ``table_transitions(4)`` steps."""
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
    """K4,4 and one edge inside a side: 17 edges, one past 16, so its
    draws take the step loop until they have walked
    ``table_transitions(4)`` steps."""
    return Graph(8, list(k44.edges) + [(0, 1)])


@pytest.fixture
def k8():
    return gen_graph(GraphSpec.of("complete", n=8))


# graphs by edge count k: 1, 2, 3, 4, 6, 9, 15, 16 and 17; the last is
# past 16, so its table comes only after draws on the step loop
BY_EDGES = ["edge", "two_edges", "path4", "square", "k4", "k33", "k6", "k44",
            "k44_chord"]


@pytest.mark.parametrize("name", BY_EDGES + ["er12", "k8"])
def test_table_walk_draws_what_the_step_loop_draws(name, request,
                                                   monkeypatch):
    """A run of draws, each from the last one's matching, with and without
    a window's tables, on tables of rows (forced with the map limit at
    0): the same partner entries, successes and budget run-outs alike,
    and the same random draws consumed, since rows walk the step loop's
    picks forward.  On at most 16 edges the table is built at the first
    draw, and past 16 once the draws on its set have walked
    ``table_transitions`` steps."""
    monkeypatch.setattr(pm_chain, "_MAP_STATES", 0)
    if name == "er12":
        g, vbits, start = _er12_set()
    else:
        g = request.getfixturevalue(name)
        vbits, start = g.full_bits, enumerate_perfect_matchings(g)[0].partner
    loop_rng, table_rng = random.Random(name), random.Random(name)
    k = len(pm_chain._inner_edges(g, vbits))
    tables = {}
    outcomes = Counter()
    for t in range(300):
        if t == 150 and k > 16:
            # the draws so far walked fewer steps than the table has
            # transitions: fill the count up
            assert tables[vbits] < table_transitions(vbits.bit_count() // 2)
            tables[vbits] = table_transitions(vbits.bit_count() // 2)
        steps, attempts = (1, 2, 3, 8, 40)[t % 5], 1 + t % 3
        want = _run_restricted(g, vbits, start, steps, attempts, loop_rng)
        got = _run_restricted(g, vbits, start, steps, attempts, table_rng,
                              tables)
        assert got == want
        assert loop_rng.getstate() == table_rng.getstate()
        assert isinstance(tables[vbits], _PMTable) == (k <= 16 or t >= 150)
        outcomes[want is None] += 1
        if want is not None:
            start = partner_table(g, vbits, want)
    assert tables[vbits].maps is None
    assert outcomes[True] and outcomes[False]


class Recorder:
    """An RNG wrapper that keeps the bytes of each ``randbytes`` call."""

    def __init__(self, rng):
        self.rng = rng
        self.reads = []

    def randbytes(self, n):
        got = self.rng.randbytes(n)
        self.reads.append(got)
        return got


def drawn_in_time_order(reads, k):
    """The picks of a table attempt's reads on ``k`` edges, in time order:
    the reads go from the attempt's last pick back, and each read's own
    picks run forward.  Bytes that fail the pick rule are dropped."""
    table = _byte_table(k)
    return [r for read in reversed(reads) for r in read.translate(table)
            if r != 255]


def check_read_back(table, rows, steps, rng, earlier):
    """One ``steps``-pick attempt on the maps of ``table``, drawn back
    from ``rng`` and recorded.  From every state, its end is where the
    single rows of ``rows`` go forward on the picks in time order: first
    ``earlier(n)``'s picks for the n that the attempt left undrawn, then
    the drawn ones.  It leaves picks undrawn only once its map is
    constant, and :meth:`_PMTable.walk` on a replay of the same bytes ends
    alike.  Returns the number of reads and of picks drawn."""
    rec = Recorder(rng)
    end = table.read_back(steps, rec)
    drawn = drawn_in_time_order(rec.reads, table.k)
    assert len(drawn) <= steps
    states = len(table.keys)
    if len(drawn) < steps:
        assert len(set(end[:states])) == 1
    picks = earlier(steps - len(drawn)) + drawn
    stream = b"".join(rec.reads)
    for s in range(states):
        want = single_steps(rows, s, picks)
        assert end[s] == want
        assert table.walk(s, steps, 1, ScriptedBytes(stream)) == want
    return len(rec.reads), len(drawn)


# see _coupling_sets
COUPLING_SETS = ["k4", "k6", "k33", "k44", "petersen", "er0", "er1", "er2",
                 "er3"]


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


# an attempt that stops early shows a wrong end only where its undrawn
# picks lead to a state the map has not yet sent with the rest: a walk
# that stopped once all states but one agreed failed this test in each
# of 4 runs, and did so on the end states alone too
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_an_attempt_read_back_ends_where_single_steps_forward_end(data):
    """An attempt of n steps on a table of maps, its picks drawn from the
    last one back: from every state its end is where single rows go
    forward on the same picks in time order, undrawn ones included.
    Attempts of up to 16 picks draw them in one read, and many run out of
    picks before the map is constant; longer ones stop within a read or
    after reads have doubled."""
    name = data.draw(st.sampled_from(COUPLING_SETS))
    table, rows = _coupling_tables(name)
    assert table.maps is not None and rows.maps is None
    steps = data.draw(st.integers(1, 600))
    seed = data.draw(st.integers(0, 2 ** 32))
    earlier = random.Random(f"earlier/{seed}")
    check_read_back(table, rows, steps, random.Random(seed),
                    lambda n: [earlier.randrange(table.k) for _ in range(n)])


@pytest.mark.parametrize("name", COUPLING_SETS)
def test_table_attempts_stop_in_the_first_read_in_a_doubled_one_or_never(
        name):
    """Attempts of 1 to |V(X)|^4 steps on each set's table of maps, checked
    as in the test above: on every set some stop after reads have doubled
    and some run out of picks first.  On K4, whose map is most often
    constant within its last 16 picks, some stop within the first read."""
    table, rows = _coupling_tables(name)
    rng = random.Random(name)
    earlier = random.Random(f"earlier/{name}")
    seen = Counter()
    for steps in (1, 2, 7, 16, 17, 40, 100, 300, len(table.verts) ** 4):
        for _ in range(20):
            reads, drawn = check_read_back(
                table, rows, steps, rng,
                lambda n: [earlier.randrange(table.k) for _ in range(n)])
            seen["ran out" if drawn == steps else
                 "first read" if reads == 1 else "doubled"] += 1
    assert seen["ran out"] and seen["doubled"], seen
    if name == "k4":
        assert seen["first read"], seen


def test_a_table_whose_maps_never_meet_draws_every_pick(two_edges):
    """On two disjoint edges each pick's map permutes the three states, so
    no composed map is constant: a 1,000-step attempt draws every pick,
    in reads of 16, 32, ..., 256 and the 504 left, and ends where the
    picks lead forward."""
    table, rows = both_forms(two_edges, two_edges.full_bits, [1, 0, 3, 2])
    assert len(table.keys) == 3
    assert check_read_back(table, rows, 1000, random.Random(2),
                           lambda n: []) == (6, 1000)


# counts of 100 draws, each from the last one's matching, at the default
# attempt count: K4's at 200,000 steps an attempt made 315 attempts, 389
# randbytes calls and drew 7,408 bytes (1.23 calls and 23.5 bytes an
# attempt); K6's at its default 1,296 steps made 374 attempts, 904 calls
# and drew 28,256 bytes (2.42 calls and 75.6 bytes an attempt)
@pytest.mark.parametrize("n, steps, calls, drawn", [
    (4, 200_000, 1.25, 24), (6, 6 ** 4, 2.5, 76)])
def test_table_draws_draw_only_the_picks_they_read(n, steps, calls, drawn,
                                                   monkeypatch):
    """Draws on K_n's table, their ``randbytes`` calls recorded: an attempt
    makes ``calls`` calls and draws ``drawn`` bytes or fewer, on the mean,
    far fewer than its picks, and no byte is drawn that is not read but
    the rejected ones (k = 6 rejects 4 of 256 byte values, k = 15 one).
    The bounds sit just above the counts, which repeat exactly."""
    attempts = Counter()
    read_back = _PMTable.read_back

    def counted(table, *args):
        attempts[table.k] += 1
        return read_back(table, *args)

    monkeypatch.setattr(_PMTable, "read_back", counted)
    g = gen_graph(GraphSpec.of("complete", n=n))
    start = enumerate_perfect_matchings(g)[0].partner
    rng = Recorder(random.Random(f"counts/{n}"))
    for _ in range(100):
        start = list(_run_restricted(g, g.full_bits, start, steps,
                                     default_max_attempts(n), rng, {}))
    tried = attempts[g.m]
    stream = b"".join(rng.reads)
    read = len(stream.translate(_byte_table(g.m)).replace(b"\xff", b""))
    assert len(rng.reads) <= calls * tried
    assert len(stream) <= drawn * tried
    assert len(stream) <= 1.02 * read


@pytest.mark.parametrize("q", [2, 3, 4])
def test_the_table_of_k2q_holds_every_perfect_and_near_perfect_matching(q):
    """Built from one perfect matching, K_2q's table lists all of them and
    every near-perfect one, and has table_transitions(q) transitions;
    every perfect matching is looked up by its partner entries.  K4's and
    K6's tables hold maps, K8's 525 states rows of state ids."""
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
        assert all(type(row) is tuple and len(row) == g.m
                   and all(type(t) is int and 0 <= t < states for t in row)
                   for row in table.rows)
    for pm in pms:
        assert table.keys[table.state(pm.partner)] == tuple(pm.partner)
    assert table_transitions(q) == {2: 54, 3: 900, 4: 14_700}[q]


def _inner_edge_cases():
    """(graph, vertex set) pairs: K6, K4,4 and the Petersen graph whole,
    and ER(256, 0.4) sets of 8, 16 and 32 vertices."""
    cases = [(g, g.full_bits) for g in (
        gen_graph(GraphSpec.of("complete", n=6)),
        gen_graph(GraphSpec.of("complete_bipartite", m=4, n=4)),
        petersen_graph())]
    g = gen_graph(GraphSpec.of("erdos_renyi", n=256, p=0.4), seed=1)
    rng = random.Random(28)
    for size in (8, 16, 32):
        cases += [(g, sum(1 << v for v in rng.sample(range(g.n), size)))
                  for _ in range(20)]
    return cases


def test_inner_edges_list_the_set_s_edges_in_index_order():
    """``_inner_edges`` gives, in order, what each vertex's later
    neighbours inside the set give, vertex by ascending vertex: picks
    index this list, so its order fixes every draw."""
    for g, vbits in _inner_edge_cases():
        expected = [(a, z) for a in bits_to_tuple(vbits)
                    for z in bits_to_tuple(g.adj[a] & vbits >> a + 1 << a + 1)]
        got = pm_chain._inner_edges(g, vbits)
        assert got == expected
        assert [g.edge_index[e] for e in got] == sorted(
            g.edge_index[e] for e in got)


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
