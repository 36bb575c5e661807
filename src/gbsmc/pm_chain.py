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

An attempt's edge picks come in bulk from :func:`_picks`: exactly uniform
indices drawn by rejection from ``rng.randbytes``, not one ``random()``
call a step.  The chain flips no other coin.

The chain runs in one of two walks, which make the same random draws and
so reach the same states.  The step loop, :func:`_pm_walk`, moves a partner
array.  A transition table, :class:`_PMTable`, lists the states of the
chain on one vertex set and, for each, the state every pick leads to, so
an attempt is one ``reduce`` over the picks.  The double loop
keeps one table per vertex set for a window, built only once earlier
draws on that set have walked as many steps as the table of a complete
graph of its size has transitions (:func:`table_transitions`: 54 at 4
vertices, 900 at 6, 14,700 at 8, 4.8e6 at 12).  So a table never has more
transitions than steps already walked on its set, and large vertex sets,
which rarely repeat, stay on the step loop.
"""

from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass
from functools import cache, reduce
from itertools import chain
from operator import getitem
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
    come from ``_picks(rng, len(moves), steps)``.
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
    """Indices of the edges inside the vertex set ``vbits``, in index
    order (the edge list is sorted)."""
    eindex = g.edge_index
    adj = g.adj
    return [eindex[(a, z)] for a in bits_to_tuple(vbits)
            for z in bits_to_tuple(adj[a] & vbits) if z > a]


class _PMTable:
    """The chain on one vertex set as a transition table.

    A state is the frozenset of its edge indices; ``keys[s]`` is state
    ``s``, and ``rows[s]`` its row: ``rows[s][r]`` is the row of the state
    that pick ``r`` leads to from ``s``, r indexing :func:`_inner_edges`,
    and ``rows[s][k]`` is ``s`` itself, k the number of picks.  A walk
    is then ``reduce(getitem, picks, row)``.  A state the table lacks is
    added, with every state it reaches, when a walk asks for it.  From a
    perfect matching the chain reaches every perfect and near-perfect
    matching of the set (alternating cycles join perfect matchings, and an
    augmenting path joins a near-perfect one to a perfect one), so the
    first start fills the table; later starts are looked up, never assumed
    present.
    """

    def __init__(self, g: Graph, vbits: int):
        self.g = g
        self.half = vbits.bit_count() // 2
        self.moves = [g.edges[i] + (i,) for i in _inner_edges(g, vbits)]
        self.ids = {}
        self.keys = []
        self.rows = []

    def _add(self, key) -> int:
        """Number the new state ``key``, giving it a row still to fill."""
        s = self.ids[key] = len(self.keys)
        self.keys.append(key)
        self.rows.append([None] * len(self.moves) + [s])
        return s

    def state(self, idxs) -> int:
        """The id of the matching with edge indices ``idxs``."""
        key = frozenset(idxs)
        s = self.ids.get(key)
        if s is not None:
            return s
        g = self.g
        eindex = g.edge_index
        ids = self.ids
        keys = self.keys
        rows = self.rows
        s = self._add(key)
        # a breadth-first search that fills each row as it reaches it
        j = s
        while j < len(keys):
            key = keys[j]
            row = rows[j]
            j += 1
            partner = {}
            for i in key:
                u, v = g.edges[i]
                partner[u] = v
                partner[v] = u
            perfect = len(key) == self.half
            for r, (u, v, i) in enumerate(self.moves):
                pu = partner.get(u)
                pv = partner.get(v)
                nxt = key
                if perfect:
                    if pu == v:
                        nxt = key - {i}
                elif pu is None and pv is None:
                    nxt = key | {i}
                elif pu is None or pv is None:
                    w, z = (v, pv) if pu is None else (u, pu)
                    nxt = (key - {eindex[(w, z) if w < z else (z, w)]}) | {i}
                t = ids.get(nxt)
                row[r] = rows[self._add(nxt) if t is None else t]
        return s

    def walk(self, s: int, steps: int, attempts: int, rng) -> int:
        """From state ``s``, up to ``attempts`` rounds of ``steps`` moves,
        stopping after the first round that ends perfect; returns the last
        state.  The picks are ``_pm_walk``'s."""
        keys = self.keys
        half = self.half
        k = len(self.moves)
        row = self.rows[s]
        for _ in range(attempts):
            row = reduce(getitem, _picks(rng, k, steps), row)
            if len(keys[row[k]]) == half:
                break
        return row[k]


def _run_restricted(g: Graph, vbits: int, start_idxs, steps: int,
                    attempts: int, rng, tables=None):
    """Drive the chain on the subgraph induced by ``vbits``, checking for
    perfection every ``steps`` moves.

    Returns the matching's edge-index set on success, None when the budget
    runs out.  Operates on host-graph labels throughout; ``start_idxs`` must
    cover ``vbits`` exactly (the outer chain's own state, in the double-loop
    context).

    ``tables`` is a caller's memory across draws, by vertex set: the steps
    walked there so far, replaced by the set's :class:`_PMTable` once they
    reach :func:`table_transitions`, so that a table never has more
    transitions than steps already walked on its set.
    """
    if tables is not None:
        table = tables.get(vbits, 0)
        if not isinstance(table, _PMTable) and table >= table_transitions(
                len(start_idxs)):
            table = tables[vbits] = _PMTable(g, vbits)
        if isinstance(table, _PMTable):
            got = table.keys[table.walk(table.state(start_idxs), steps,
                                        attempts, rng)]
            return got if len(got) == table.half else None
    partner = [-1] * g.n
    for i in start_idxs:
        u, v = g.edges[i]
        partner[u] = v
        partner[v] = u
    holes = 0  # start state is perfect by contract
    moves = [g.edges[i] for i in _inner_edges(g, vbits)]
    got = None
    walked = 0
    for _ in range(attempts):
        holes = _pm_walk(partner, holes, moves, steps, rng)
        walked += steps
        if holes == 0:
            got = {g.edge_index[(u, w)] for u, w in enumerate(partner)
                   if u < w}
            break
    if tables is not None:
        tables[vbits] = tables.get(vbits, 0) + walked
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
    got = _run_restricted(g, g.full_bits, initial.idxs, steps, attempts, rng)
    if got is None:
        raise PMSampleBudgetError(attempts)
    return Matching(g, got)
