"""(Near-)uniform sampling of perfect matchings via a local-move chain.

The chain walks perfect and near-perfect matchings (exactly one uncovered
vertex pair).  Pick an edge ``e = (u, v)`` uniformly at random:

* state perfect and ``e`` in it: drop ``e``;
* state near-perfect, both endpoints uncovered: add ``e``;
* state near-perfect, exactly one endpoint matched (say ``u`` to ``z``):
  slide — add ``e``, drop ``(z, u)``;
* anything else: hold.

Every move is matched by its mirror image at the same proposal probability,
so the stationary law is uniform over the state space.  On dense graphs the
perfect states carry at least a 1/(2q^2+1) share of the space (q =
matching size), which is what makes "run, check, retry" a practical uniform
sampler for perfect matchings.

An attempt's edge picks are exactly uniform indices drawn by rejection
from ``rng.randbytes`` in bulk, not one ``random()`` call a step: all at
once by :func:`_picks`, or, on a table of maps, a read at a time from the
attempt's end.  The chain flips no other coin.

The chain runs in one of two walks.  The step loop, :func:`_pm_walk`,
reads one pick a step and moves a partner array.  A transition table,
:class:`_PMTable`, lists the states of the chain on one vertex set and,
for each, the state every pick leads to.  Both read single picks.

An attempt's end is a fixed function of its start and its picks.  A
table of at most 256 states, which every table of at most 16 edges seen
so far is, holds each pick's map of its states as a ``bytes.translate``
table and draws an attempt's picks from its last one back, composing
their maps as they come (:meth:`_PMTable.read_back`).  The picks are
independent, so the order they are drawn in does not change their law.
Under this grand coupling (Propp and Wilson, 1996) the composed map sends
every state to one within the last few dozen picks of an attempt of 256
to 10,000, and the attempt ends there whatever its earlier picks, which
are never drawn.  A larger table walks the step loop's picks forward, a
row of state ids a pick.

A draw starts from a partner table, indexed by host vertex, and returns
the drawn matching's partner entries over its vertex set; a table keys
its states by those entries.  The double loop keeps one table per vertex
set for a window; a table holds no references among its parts, so it
goes when the window drops it.  A set of at most 16 edges gets its
table, whole, at its first draw.  A larger set gets its table only once
earlier draws on it have walked as many steps as the table of a complete
graph of its size has transitions
(:func:`table_transitions`: 14,700 at 8 vertices, 4.8e6 at 12), so such a
table never has more transitions than steps already walked on its set,
and large vertex sets, which rarely repeat, stay on the step loop.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain, combinations
from typing import Optional

from .graphs import Graph, Matching, bits_to_tuple


class PMStateError(ValueError):
    """Chain state is neither perfect nor near-perfect."""


class PMConfigError(ValueError):
    """A step or attempt budget below 1."""


class PMSampleBudgetError(RuntimeError):
    """All retry attempts elapsed without seeing a perfect matching."""

    def __init__(self, attempts):
        super().__init__(f"no perfect matching after {attempts} attempts")
        self.attempts = attempts


FAILURE_BUDGET = 0.01


def default_inner_steps(n_vertices: int) -> int:
    """Per-attempt step budget: n^4, floored at 16.

    The rigorous mixing bounds are much larger; this default trades
    certificates for practice and is recorded in experiment provenance.
    Measured on the exact kernel, the chain reaches TV <= 0.01 from its
    worst perfect matching in 15, 32 and 56 steps on K4, K6 and K8 and in
    24 on K3,3, where n^4 gives 256, 1,296, 4,096 and 1,296: 17-73 times
    more.  n^4 is not a proven bound, so that margin describes these
    graphs and does not license a smaller budget.
    """
    return max(16, n_vertices ** 4)


def default_max_attempts(n_vertices: int) -> int:
    """Retry count ceil((2 + 4q^2) * ln(2/eta)) with q = n_vertices/2 and
    eta = ``FAILURE_BUDGET``.

    Chosen so that, given near-uniform per-attempt samples, all attempts
    miss the perfect states with probability at most eta.
    """
    q = n_vertices // 2
    return math.ceil((2 + 4 * q * q) * math.log(2.0 / FAILURE_BUDGET))


@dataclass
class PMSamplerConfig:
    """Budgets for :func:`sample_perfect_matching`.

    ``inner_steps`` (per attempt) and ``max_attempts`` default to
    :func:`default_inner_steps` / :func:`default_max_attempts` sized to the
    graph at hand when left as None.  A budget below 1 would return the
    start state unmoved or fail every draw, so it is refused.
    """
    inner_steps: Optional[int] = None
    max_attempts: Optional[int] = None

    def __post_init__(self):
        for name in ("inner_steps", "max_attempts"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise PMConfigError(f"{name} must be at least 1, got {value}")

    def steps_for(self, n_vertices: int) -> int:
        if self.inner_steps is not None:
            return self.inner_steps
        return default_inner_steps(n_vertices)

    def attempts_for(self, n_vertices: int) -> int:
        if self.max_attempts is not None:
            return self.max_attempts
        return default_max_attempts(n_vertices)


_CHUNK = 1 << 16  # picks drawn at a time; longer runs draw as they go


@cache
def _byte_table(k: int) -> bytes:
    """``bytes.translate`` table for picks from ``range(k)``, k <= 256:
    byte b maps to b % k when b < floor(256 / k) * k, and otherwise to 255,
    the reject marker; only k < 256 has rejects, and its picks stop at
    254."""
    limit = 256 - 256 % k
    return bytes(b % k if b < limit else 255 for b in range(256))


def _picks(rng, k: int, n: int):
    """``n`` independent, exactly uniform picks from ``range(k)``.

    A pick is a byte of ``rng.randbytes`` for k <= 256; above that it is a
    little-endian 16-bit word, or a 32-bit one past k = 2^16.  A byte or
    word b with B possible values is kept as b % k when
    b < floor(B / k) * k, and otherwise rejected and drawn again.  At most
    ``_CHUNK`` picks are drawn at once; a longer run draws the next ones
    as the last are used.
    """
    if n > _CHUNK:
        return chain.from_iterable(_picks(rng, k, min(_CHUNK, n - done))
                                   for done in range(0, n, _CHUNK))
    if k <= 256:
        table = _byte_table(k)
        out = b""
        while len(out) < n:
            got = rng.randbytes(n - len(out)).translate(table)
            out += got if k == 256 else got.replace(b"\xff", b"")
        return out
    width = 2 if k <= 1 << 16 else 4
    limit = (1 << 8 * width) - (1 << 8 * width) % k
    out = []
    while len(out) < n:
        words = array("H" if width == 2 else "I",
                      rng.randbytes(width * (n - len(out))))
        if sys.byteorder == "big":
            words.byteswap()
        out += [w % k for w in words if w < limit]
    return out


def _pm_walk(partner, holes: int, moves, steps: int, rng) -> int:
    """Advance the chain ``steps`` moves on the partner array ``partner``
    (-1 at an uncovered vertex), in place.  ``holes`` is the state's
    uncovered-vertex count, 0 or 2; returns the new one.

    ``moves[r]`` is ``(u, v)`` for the r-th proposable edge.  The picks
    are single: ``_picks(rng, len(moves), steps)``.
    """
    for r in _picks(rng, len(moves), steps):
        u, v = moves[r]
        pu = partner[u]
        pv = partner[v]
        if holes == 0:
            if pu == v:
                partner[u] = -1
                partner[v] = -1
                holes = 2
        elif pu == -1 and pv == -1:
            partner[u] = v
            partner[v] = u
            holes = 0
        elif pu == -1 or pv == -1:
            # slide: add (u, v), drop the edge that blocks it, whose far
            # end z loses its partner
            z = pv if pu == -1 else pu
            partner[z] = -1
            partner[u] = v
            partner[v] = u
    return holes


def table_transitions(q: int) -> int:
    """Transitions in the table of K_2q: its (2q-1)!! perfect and
    C(2q,2)*(2q-3)!! near-perfect matchings, times its C(2q,2) edges."""
    pairs = q * (2 * q - 1)
    return math.prod(range(1, 2 * q - 2, 2)) * (2 * q - 1 + pairs) * pairs


def _inner_edges(g: Graph, vbits: int) -> list:
    """The edges ``(a, z)`` inside the vertex set ``vbits``, in index
    order: the set's ascending pairs come in the order of the sorted edge
    list."""
    return list(filter(g.edge_index.__contains__,
                       combinations(bits_to_tuple(vbits), 2)))


_MAP_STATES = 256  # the states a bytes.translate table can index
_FIRST_READ = 16  # picks drawn back first; each further read doubles
_EAGER_EDGES = 16  # a set of at most this many edges: a table at once


class _PMTable:
    """The chain on one vertex set as a transition table, built whole from
    a perfect matching of the set.

    A state is the tuple of its partner entries over the set's vertices
    ``verts``, in ascending order (-1 at an uncovered vertex); ``keys[s]``
    is state ``s``, ``ids`` looks states up, and ``perfect[s]`` says
    whether ``s`` covers the set.  Picks index :func:`_inner_edges`, k of
    them.  From a perfect matching the chain reaches every perfect and
    near-perfect matching of the set: alternating cycles join perfect
    matchings, and by Berge's lemma the two holes of a near-perfect one
    are joined by an augmenting path.  So a breadth-first search from the
    first start fills the table, and later starts are looked up.

    A table of at most 256 states holds its transitions as maps: ``maps[r]``
    is a ``bytes.translate`` table whose byte s is the state pick r leads
    to from s.  Such a table has fewer than 256 edges: from a perfect
    matching M, each edge of M is dropped in a state of its own, and each
    other edge (u, v) is added, in place of M's edges at u and v, in
    another, so its picks are bytes.  An attempt's end is a fixed function
    of its start and its picks, and :meth:`walk` draws the picks from the
    attempt's last one back (:meth:`read_back`), stopping once the
    composed map is constant (the grand coupling of Propp and Wilson,
    1996): then the attempt ends in that state whatever it started from
    and whatever its earlier picks, which are never drawn.  On the tables
    the double loop reaches, that takes a few dozen of an attempt's 256 to
    10,000 picks.

    A larger table keeps rows, walked forward on the step loop's picks:
    ``rows[s]`` is the tuple of the k state ids each pick leads to from s,
    so a walk steps ``s = rows[s][r]`` a pick.  Maps and rows hold only
    bytes and ints, so a table goes with its last reference.
    """

    def __init__(self, g: Graph, vbits: int, start):
        verts = self.verts = bits_to_tuple(vbits)
        at = {v: j for j, v in enumerate(verts)}
        moves = [(at[u], at[v], u, v) for u, v in _inner_edges(g, vbits)]
        self.k = len(moves)
        key = tuple(map(start.__getitem__, verts))
        ids = self.ids = {key: 0}
        keys = self.keys = [key]
        perfect = self.perfect = []
        step = []  # step[s][r]: the state pick r leads to from s
        # a breadth-first search that fills each state's step as it
        # reaches it
        for s, key in enumerate(keys):
            full = -1 not in key
            perfect.append(full)
            targets = []
            step.append(targets)
            for a, b, u, v in moves:
                pu = key[a]
                pv = key[b]
                if full and pu == v:
                    nxt = list(key)
                    nxt[a] = nxt[b] = -1
                elif not full and (pu == -1 or pv == -1):
                    nxt = list(key)
                    if pu != pv:
                        # a slide: the far end of the edge it drops, the
                        # covered end's partner, loses its own
                        nxt[at[max(pu, pv)]] = -1
                    nxt[a] = v
                    nxt[b] = u
                else:
                    targets.append(s)
                    continue
                nxt = tuple(nxt)
                t = ids.get(nxt)
                if t is None:
                    t = ids[nxt] = len(keys)
                    keys.append(nxt)
                targets.append(t)
        if len(keys) <= _MAP_STATES:
            pad = bytes(256 - len(keys))
            self.maps = [bytes(col) + pad for col in zip(*step)]
            self.every = bytes(range(len(keys)))  # the identity map
            self.rows = ()
            return
        self.maps = None
        self.rows = list(map(tuple, step))

    def state(self, start) -> int:
        """The id of the matching whose partner table is ``start``."""
        return self.ids[tuple(map(start.__getitem__, self.verts))]

    def read_back(self, steps: int, rng) -> bytes:
        """The map of a ``steps``-pick attempt, its picks drawn from the
        last one back.  A map holds the state each state goes to, one byte
        a state.  Each read is one ``rng.randbytes`` call of 16, 32, 64,
        ... bytes, at most the picks still undrawn, less the bytes that
        fail :func:`_byte_table`; the reads go back until the composed
        map sends every state to one, which the picks before them cannot
        change, or until the attempt's picks are all drawn.  The picks are
        independent and exactly uniform, so either way the map has the law
        of the forward composition of ``steps`` picks."""
        maps = self.maps
        table = _byte_table(self.k)
        every = after = self.every
        states = len(every)
        size = _FIRST_READ
        while steps:
            picks = rng.randbytes(min(size, steps)).translate(table).replace(
                b"\xff", b"")
            # a read's picks come before the later reads' ones and compose
            # forward in C, its first pick first, from every state
            after = reduce(bytes.translate, map(maps.__getitem__, picks),
                           every).translate(after.ljust(256))
            if after.count(after[0]) == states:
                break
            steps -= len(picks)
            size += size
        return after

    def walk(self, s: int, steps: int, attempts: int, rng) -> int:
        """From state ``s``, up to ``attempts`` rounds of ``steps`` moves,
        stopping after the first round that ends perfect; returns the last
        state.  On maps a round's end is read from its map, drawn back
        (:meth:`read_back`); on rows it walks ``_picks(rng, k, steps)``
        forward."""
        perfect = self.perfect
        k = self.k
        maps = self.maps
        rows = self.rows
        for _ in range(attempts):
            if maps is None:
                for r in _picks(rng, k, steps):
                    s = rows[s][r]
            else:
                s = self.read_back(steps, rng)[s]
            if perfect[s]:
                break
        return s


def _run_restricted(g: Graph, vbits: int, start, steps: int,
                    attempts: int, rng, tables=None):
    """Drive the chain on the subgraph induced by ``vbits``, checking for
    perfection every ``steps`` moves.

    ``start`` is a partner table, indexed by host vertex, that matches
    ``vbits`` perfectly: the outer chain's own ``x.partner``, in the double
    loop.  It is read, never written.  Returns the drawn perfect matching's
    partner entries over the vertices of ``vbits`` in ascending order, or
    None when the budget runs out.

    ``tables`` is a caller's memory across draws, by vertex set.  A set of
    at most ``_EAGER_EDGES`` = 16 edges gets its :class:`_PMTable` there at
    its first draw: every such set seen has at most 256 states, so its
    table is maps, which draw only an attempt's last few dozen picks.  A
    larger set keeps the steps walked on it so far, read on the step loop,
    until they reach :func:`table_transitions`; then its table replaces
    them, so that it never has more transitions than steps already walked
    on its set.  Without ``tables`` every draw takes the step loop.
    """
    table = None if tables is None else tables.get(vbits, 0)
    if not isinstance(table, _PMTable):
        moves = _inner_edges(g, vbits)
        if table is not None and (
                len(moves) <= _EAGER_EDGES
                or table >= table_transitions(vbits.bit_count() // 2)):
            table = tables[vbits] = _PMTable(g, vbits, start)
    if isinstance(table, _PMTable):
        s = table.walk(table.state(start), steps, attempts, rng)
        return table.keys[s] if table.perfect[s] else None
    partner = list(start)  # the step loop moves only entries of vbits
    holes = 0  # start state is perfect by contract
    got = None
    walked = 0
    for _ in range(attempts):
        holes = _pm_walk(partner, holes, moves, steps, rng)
        walked += steps
        if holes == 0:
            got = tuple(map(partner.__getitem__, bits_to_tuple(vbits)))
            break
    if tables is not None:
        tables[vbits] = table + walked
    return got


def sample_perfect_matching(g: Graph, cfg: PMSamplerConfig,
                            initial: Matching, rng) -> Matching:
    """Draw a (near-)uniform perfect matching of ``g``.

    Runs the chain from ``initial`` (a perfect matching of ``g``) in rounds
    of ``cfg.inner_steps`` moves, returning the first round that ends
    perfect.  Raises :class:`PMSampleBudgetError` after ``cfg.max_attempts``
    failed rounds.  A one-edge graph returns its only matching immediately
    after the first round.
    """
    if g.n == 0:
        return Matching(g)
    if initial.covered != g.full_bits:
        raise PMStateError("initial matching must be perfect")
    steps = cfg.steps_for(g.n)
    attempts = cfg.attempts_for(g.n)
    got = _run_restricted(g, g.full_bits, initial.partner, steps, attempts,
                          rng)
    if got is None:
        raise PMSampleBudgetError(attempts)
    # over all of g the entries are the partner table itself
    return Matching.from_pairs(g, ((u, w) for u, w in enumerate(got)
                                   if u < w))
