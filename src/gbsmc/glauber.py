"""Single-loop Glauber dynamics over matchings, and Jerrum's variant.

Both chains walk the set of matchings of a host graph and leave the
monomer-dimer law mu(X) proportional to lambda^|X| invariant.  A step
picks an edge uniformly and then adds, removes or (jerrum only) slides it
in, with the probabilities of :func:`move_probabilities`: heat-bath coins
for glauber, Metropolis coins for jerrum.

With the rescaling lambda = c^2 the vertex-set marginal of mu is
Pr[S] proportional to c^|S| * Haf(S), which is what makes these chains
useful as samplers for hafnian-weighted vertex sets.

All three chains, the double loop's outer chain included, run on one
window loop, :func:`_run_add_remove`.  Where few steps are move candidates
it skips the steps that hold, one event at a time; where many are, it
takes plain steps on byte-drawn edge picks.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log, log1p

from .graphs import Graph, Matching
from .pm_chain import _picks


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


_STEP_BLOCK = 256  # plain steps between two readings of the candidate rate


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

    The loop runs in one of two modes, by the candidate rate
    R = A * p_add + |X| * p_rem + S * p_slide (A and S as in
    :func:`_candidate_counts`).  While 8R < m it runs events: it draws the
    Geometric(R/m) holding time to the next candidate, and then the
    candidate, the n-fold way of Bortz, Kalos and Lebowitz (1975).  A
    slide candidate is a covered vertex a drawn with weight deg a - 1 and
    a uniform neighbour w other than a's partner; it moves only when w is
    free (thinning, Lewis and Shedler 1979), so each edge with one covered
    end is proposed at rate p_slide / m and each edge with both ends
    covered by different edges holds, as in the step chain.  A move that
    lifts 8R to m hands over to plain steps, whose edge picks come from
    :func:`pm_chain._picks` in blocks of ``_STEP_BLOCK``; after each block
    the loop re-reads R and hands back once 8R < m.  Plain steps draw no
    coin whose probability is 1.  X_t has the step chain's law at every t;
    a refused removal is a hold.

    Tracks the most recent state of ``target_edges`` edges (post-selection)
    and fills ``collect`` (a Counter) with state keys every ``thin`` steps
    once past ``burn_in``; a state adds one count for each sample point it
    holds through.
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
    end = steps
    # the next sample point; they are burn_in + thin * j, j >= 1
    point = burn_in + thin if collect is not None else end + 1
    vertex_keys = key_kind == "vertexset"

    def count(covered, last, point):
        """Count the state ``covered`` at the sample points from ``point``
        to ``last``; returns the next point."""
        k = (last - point) // thin + 1
        collect[covered if vertex_keys else
                tuple(sorted(edges[i] for i in idxs))] += k
        return point + k * thin

    add_coin, rem_coin, slide_coin = p_add < 1, p_rem < 1, p_slide < 1
    snap, snap_step = None, None
    t = 0           # X is the state from step t on
    while True:
        p_out = len(idxs) * p_rem
        p_sl = slides * p_slide
        rate = addable * p_add + p_out + p_sl
        if 8 * rate >= m > 0:
            # plain steps; a move at step t first counts X_{t-1} at its
            # sample points and, if it changes the size, post-selects it
            covered = x.covered
            add, remove = idxs.add, idxs.remove
            for i in _picks(rng, m, min(_STEP_BLOCK, end - t)):
                t += 1
                u, v = edges[i]
                pu = partner[u]
                pv = partner[v]
                if pu == pv:  # both free: covered ends have distinct partners
                    if add_coin and rnd() >= p_add:
                        continue
                    if point < t:
                        point = count(covered, t - 1, point)
                    if len(idxs) == target_edges:
                        snap, snap_step = covered, t - 1
                    add(i)
                    partner[u] = v
                    partner[v] = u
                    covered |= ebits[i]
                elif pu == v:
                    if rem_coin and rnd() >= p_rem:
                        continue
                    if remove_ok is not None:
                        x.covered = covered
                        if not remove_ok(i, t):
                            continue
                    if point < t:
                        point = count(covered, t - 1, point)
                    if len(idxs) == target_edges:
                        snap, snap_step = covered, t - 1
                    remove(i)
                    partner[u] = -1
                    partner[v] = -1
                    covered ^= ebits[i]
                elif p_slide and (pu == -1 or pv == -1):
                    if slide_coin and rnd() >= p_slide:
                        continue
                    if point < t:
                        point = count(covered, t - 1, point)
                    # edge i slides in for edge j = (v, z) or (u, z)
                    if pu == -1:
                        z = pv
                        j = eindex[(v, z) if v < z else (z, v)]
                    else:
                        z = pu
                        j = eindex[(u, z) if u < z else (z, u)]
                    remove(j)
                    add(i)
                    partner[z] = -1
                    partner[u] = v
                    partner[v] = u
                    covered ^= ebits[i] ^ ebits[j]
            x.covered = covered
            if t < end:
                xs = sorted(idxs)
                addable, slides = _candidate_counts(g, x)
                continue
            rate = 0.0  # the window's last state holds to its end
        if rate <= 0.0:
            nxt = end + 1
        else:
            nxt = t + 1 + int(log(1.0 - rnd()) / log1p(-rate / m))
        last = min(nxt - 1, end)
        if len(idxs) == target_edges:
            snap, snap_step = x.covered, last
        if last >= point:
            point = count(x.covered, last, point)
        if nxt > end:
            break
        t = nxt
        covered = x.covered
        # the move: k = -1 adds edge i, k = -2 slides edge (a, w) in for
        # edge j = (a, z), and k >= 0 removes edge i = xs[k]
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


def _drive_jerrum(g, x, lam, lazy, steps, rng, **kw):
    """Jerrum-style counterpart of :func:`_drive_glauber` (same contract):
    its move probabilities, slides included, on :func:`_run_add_remove`."""
    p_add, p_rem, p_slide = map(float, move_probabilities(
        "jerrum", float(lam), lazy))
    return _run_add_remove(g, x, p_add, p_rem, steps, rng, p_slide=p_slide,
                           **kw)


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
