"""Single-loop Glauber dynamics over matchings, and Jerrum's variant.

Both chains walk the set of matchings of a host graph and leave the
monomer-dimer law mu(X) proportional to lambda^|X| invariant.  A step
picks an edge uniformly and then adds, removes or (jerrum only) slides it
in, with the probabilities of :func:`move_probabilities`: heat-bath coins
for glauber, Metropolis coins for jerrum.

With the rescaling lambda = c^2 the vertex-set marginal of mu is
Pr[S] proportional to c^|S| * Haf(S), which is what makes these chains
useful as samplers for hafnian-weighted vertex sets.

Both run on one event loop, :func:`_run_add_remove`, which skips the steps
that hold; the double loop's outer chain runs on it too.  Jerrum keeps a
step loop for windows that start where many steps are move candidates.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log, log1p

from .graphs import Graph, Matching


class ChainConfigError(ValueError):
    """Inconsistent or out-of-range chain configuration."""


@dataclass
class ChainConfig:
    """Parameters of one chain run.

    Exactly one of ``fugacity`` (lambda) or ``c`` must pin down the fugacity;
    when ``c`` is given, lambda = c*c exactly (give c as int/Fraction to keep
    exact arithmetic downstream).  Every run starts from the empty matching.
    """
    fugacity: object = None
    c: object = None
    seed: object = 0
    lazy: bool = False

    def resolved_fugacity(self):
        if self.c is not None:
            lam = self.c * self.c
            if self.fugacity is not None and self.fugacity != lam:
                raise ChainConfigError(
                    f"fugacity {self.fugacity} contradicts c^2 = {lam}")
        else:
            lam = self.fugacity
        if lam is None:
            raise ChainConfigError("one of fugacity or c is required")
        if not lam > 0:
            raise ChainConfigError(f"fugacity must be positive, got {lam}")
        return lam


def move_probabilities(chain, lam, lazy=False):
    """``(p_add, p_rem, p_slide)`` of one pick-an-edge step of ``chain``,
    for the drivers and the exact kernels alike.  The double loop is
    glauber at lambda^2; its p_rem is the removal gate, before the 1/w^2
    coin and the inner draw.  ``lazy`` halves every move, for glauber and
    jerrum only.  Exact for a Fraction lambda; floats or exact constants
    for a float lambda."""
    if chain == "glauber":
        moves = lam / (1 + lam), 1 / (1 + lam), 0
    elif chain == "jerrum":
        moves = min(1, lam), min(1, 1 / lam), 1
    elif chain == "double_loop":
        if lazy:
            raise ChainConfigError("the double loop has no lazy form; "
                                   "lazy applies to glauber and jerrum")
        lam2 = lam * lam
        return lam2 / (1 + lam2), 1 / (1 + lam2), 0
    else:
        raise ChainConfigError(f"unknown chain {chain!r}; use 'glauber', "
                               "'jerrum' or 'double_loop'")
    return tuple(Fraction(1, 2) * p for p in moves) if lazy else moves


def _candidate_counts(g, x):
    """``(A, S)`` for the matching ``x``: A addable edges, and S = sum over
    covered vertices a of (deg a - 1) slide candidates (a, w), w a neighbour
    other than a's partner.  O(|X|)."""
    adj = g.adj
    nbrs = g.nbrs
    edges = g.edges
    covered = x.covered
    degrees = 0
    inside = 0  # edges inside V(X), doubled
    for i in x.idxs:
        u, v = edges[i]
        degrees += len(nbrs[u]) + len(nbrs[v])
        inside += (adj[u] & covered).bit_count() + (adj[v] & covered).bit_count()
    # edges touching V(X), by inclusion-exclusion: degrees - inside / 2
    return g.m - degrees + inside // 2, degrees - 2 * len(x.idxs)


def _run_add_remove(g, x, p_add, p_rem, steps, rng, remove_ok=None,
                    p_slide=0.0, target_edges=-1, collect=None,
                    key_kind="matching", thin=0, burn_in=0):
    """Advance ``x`` in place by ``steps`` steps of the add/remove/slide
    chain.

    A step picks an edge uniformly; an addable edge is added with
    probability ``p_add``, an edge of X is removed with probability
    ``p_rem`` (and then only if ``remove_ok(i, step)`` agrees, when given),
    an edge with exactly one end covered slides in for the edge covering
    that end with probability ``p_slide``, and anything else holds.

    Rather than draw every step, the loop draws the Geometric(R/m) holding
    time to the next candidate, R = A * p_add + |X| * p_rem + S * p_slide
    (A and S as in :func:`_candidate_counts`), and then the candidate: the
    n-fold way of Bortz, Kalos and Lebowitz (1975).  A slide candidate is a
    covered vertex a drawn with weight deg a - 1 and a uniform neighbour w
    other than a's partner; it moves only when w is free (thinning, Lewis
    and Shedler 1979), so each edge with one covered end is proposed at
    rate p_slide / m and each edge with both ends covered by different
    edges holds, as in the step chain.  In a state where R >= m the loop
    takes one plain pick-an-edge step instead.  X_t has the step chain's
    law at every t; a refused removal is a hold.

    Tracks the most recent state of ``target_edges`` edges (post-selection)
    and fills ``collect`` (a Counter) with state keys every ``thin`` steps
    once past ``burn_in``; a hold adds one count per sample point in it.
    Returns ``(post_snapshot, post_step)``: the vertex bitset of that state,
    or None if the window never reached the size, and its step counted from
    the window's start.
    """
    m = g.m
    edges = g.edges
    ebits = g.edge_bits
    eindex = g.edge_index
    adj = g.adj
    nbrs = g.nbrs
    idxs = x.idxs
    partner = x.partner
    rnd = rng.random
    xs = sorted(idxs)  # the edges of X, as a list for uniform picks
    addable, slides = _candidate_counts(g, x)
    thin = max(1, thin)
    base = burn_in  # sample points: base + thin*j, j >= 1
    taken = 0       # sample points before the current hold
    end = steps
    snap, snap_step = None, None
    t = 0           # X is the state from step t on
    while True:
        p_out = len(xs) * p_rem
        p_sl = slides * p_slide
        rate = addable * p_add + p_out + p_sl
        if rate <= 0.0:
            nxt = end + 1
        elif rate >= m:
            nxt = t + 1
        else:
            nxt = t + 1 + int(log(1.0 - rnd()) / log1p(-rate / m))
        last = min(nxt - 1, end)
        if len(xs) == target_edges:
            snap, snap_step = x.covered, last
        points = (last - base) // thin
        if collect is not None and points > taken:
            collect[x.covered if key_kind == "vertexset" else
                    tuple(sorted(edges[i] for i in idxs))] += points - taken
            taken = points
        if nxt > end:
            break
        t = nxt
        covered = x.covered
        # the move: k = -1 adds edge i, k = -2 slides edge (a, w) in for
        # edge j = (a, z), and k >= 0 removes edge i = xs[k]
        if rate >= m:  # a plain step: pick an edge, then its coin
            i = int(rnd() * m)
            u, v = edges[i]
            pu = partner[u]
            pv = partner[v]
            if pu == -1 and pv == -1:
                if rnd() >= p_add:
                    continue
                k = -1
            elif pu == v:
                if rnd() >= p_rem or (remove_ok is not None
                                      and not remove_ok(i, t)):
                    continue
                k = xs.index(i)
            elif (pu == -1 or pv == -1) and rnd() < p_slide:
                a, z, w = (v, pv, u) if pu == -1 else (u, pu, v)
                j = eindex[(a, z) if a < z else (z, a)]
                k = -2
            else:
                continue
        else:
            r = rnd() * rate
            if r < p_out:
                k = int(rnd() * len(xs))
                i = xs[k]
                if remove_ok is not None and not remove_ok(i, t):
                    continue
            elif r < p_out + p_sl:
                r = int(rnd() * slides)  # a's block of deg a - 1 in [0, S)
                for j in xs:
                    a, z = edges[j]
                    d = len(nbrs[a]) - 1
                    if r < d:
                        break
                    r -= d
                    a, z = z, a
                    d = len(nbrs[a]) - 1
                    if r < d:
                        break
                    r -= d
                nb = nbrs[a]
                w = nb[r]
                if w == z:
                    w = nb[-1]
                if covered >> w & 1:
                    continue  # both ends covered: the step holds
                k = -2
            else:
                i = int(rnd() * m)
                while covered & ebits[i]:
                    i = int(rnd() * m)
                k = -1
        if k == -1:
            u, v = edges[i]
            xs.append(i)
            idxs.add(i)
            partner[u] = v
            partner[v] = u
            x.covered = covered | ebits[i]
            sign = -1
        elif k >= 0:
            u, v = edges[i]
            xs[k] = xs[-1]
            xs.pop()
            idxs.remove(i)
            partner[u] = -1
            partner[v] = -1
            x.covered = covered = covered & ~ebits[i]
            sign = 1
        else:
            i = eindex[(a, w) if a < w else (w, a)]
            xs[xs.index(j)] = i
            idxs.remove(j)
            idxs.add(i)
            partner[z] = -1
            partner[a] = w
            partner[w] = a
            x.covered = after = covered ^ (1 << z | 1 << w)
            addable += ((adj[z] & ~after).bit_count()
                        - (adj[w] & ~covered).bit_count())
            slides += len(nbrs[w]) - len(nbrs[z])
            continue
        # edge i, free in ``covered``, and the addable edges it blocks
        free = ~covered
        addable += sign * ((adj[u] & free).bit_count()
                           + (adj[v] & free).bit_count() - 1)
        if p_slide:  # S is kept up to date only for chains that slide
            slides -= sign * (len(nbrs[u]) + len(nbrs[v]) - 2)
    return snap, snap_step


def _drive_glauber(g, x, lam, lazy, steps, rng, **kw):
    """Run ``steps`` Glauber steps, mutating ``x`` in place; the keyword
    options and the result are :func:`_run_add_remove`'s."""
    p_add, p_rem, _ = map(float, move_probabilities("glauber", float(lam),
                                                     lazy))
    return _run_add_remove(g, x, p_add, p_rem, steps, rng, **kw)


def _drive_jerrum(g, x, lam, lazy, steps, rng,
                  target_edges=-1, collect=None, key_kind="matching",
                  thin=0, burn_in=0):
    """Jerrum-style counterpart of :func:`_drive_glauber` (same contract).

    The add/remove/slide event loop runs the window when its start state
    has candidate rate R < m/8, which holds in the post-selection regime.
    One candidate costs the event loop as much as five to eight steps of
    the step loop below (measured on K6 and on Erdos-Renyi graphs with
    30 to 256 vertices), so a window that starts denser, such as one from
    the empty matching of K6 at lambda = 1, runs on the step loop.  Both
    draw from the same kernel.
    """
    m = g.m
    p_add, p_rem, p_slide = map(float, move_probabilities(
        "jerrum", float(lam), lazy))
    addable, slides = _candidate_counts(g, x)
    rate = addable * p_add + len(x.idxs) * p_rem + slides * p_slide
    if 8 * rate < m or not m:
        return _run_add_remove(g, x, p_add, p_rem, steps, rng,
                               p_slide=p_slide, target_edges=target_edges,
                               collect=collect, key_kind=key_kind, thin=thin,
                               burn_in=burn_in)
    snap, snap_step = None, None
    if target_edges >= 0 and len(x.idxs) == target_edges:
        snap, snap_step = x.covered, 0
    edges = g.edges
    ebits = g.edge_bits
    eindex = g.edge_index
    idxs = x.idxs
    partner = x.partner
    covered = x.covered
    rnd = rng.random
    countdown = thin if collect is not None else -1
    vertex_keys = key_kind == "vertexset"

    for t in range(1, steps + 1):
        r = rnd()
        i = int(r * m)
        if i == m:
            i = m - 1
        u, v = edges[i]
        pu = partner[u]
        pv = partner[v]
        if pu == -1 and pv == -1:
            if rnd() < p_add:
                idxs.add(i)
                covered |= ebits[i]
                partner[u] = v
                partner[v] = u
        elif pu == v:
            if rnd() < p_rem:
                idxs.remove(i)
                covered &= ~ebits[i]
                partner[u] = -1
                partner[v] = -1
        elif pu == -1 or pv == -1:
            # exactly one endpoint blocked: slide the blocking edge off
            if p_slide == 1.0 or rnd() < p_slide:
                if pu == -1:
                    w = pv
                    j = eindex[(v, w) if v < w else (w, v)]
                else:
                    w = pu
                    j = eindex[(u, w) if u < w else (w, u)]
                idxs.remove(j)
                covered &= ~ebits[j]
                partner[w] = -1
                idxs.add(i)
                covered |= ebits[i]
                partner[u] = v
                partner[v] = u
        # both endpoints blocked by other edges: hold
        if target_edges >= 0 and len(idxs) == target_edges:
            snap, snap_step = covered, t
        if countdown >= 0 and t > burn_in:
            countdown -= 1
            if countdown <= 0:
                countdown = thin
                collect[covered if vertex_keys else
                        tuple(sorted(edges[i] for i in idxs))] += 1
    x.covered = covered
    return snap, snap_step


_DRIVERS = {"glauber": _drive_glauber, "jerrum": _drive_jerrum}


def sample_states(g: Graph, cfg: ChainConfig, *, dynamics="glauber",
                  n_samples: int, thin: int = 1, burn_in: int = 0,
                  key_kind="matching") -> Counter:
    """Histogram of chain states along one trajectory.

    Runs ``burn_in + n_samples * thin`` steps and records every ``thin``-th
    state after burn-in, keyed either by canonical matching encoding
    (``key_kind="matching"``) or by covered-vertex bitset (``"vertexset"``).
    """
    run = _DRIVERS.get(dynamics)
    if run is None:
        raise ChainConfigError(
            f"unknown dynamics {dynamics!r}; use 'glauber' or 'jerrum'")
    rng = random.Random(cfg.seed)
    x = Matching(g)
    counts: Counter = Counter()
    total = burn_in + n_samples * thin
    run(g, x, cfg.resolved_fugacity(), cfg.lazy, total, rng,
        collect=counts, key_kind=key_kind, thin=thin, burn_in=burn_in)
    return counts
