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
it skips the steps that hold, one event at a time, at a candidate rate
that depends on |X| alone (adds over all m edges, slides under the
largest degree, thinned); where many are, it takes plain steps on
byte-drawn edge picks.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import inf, log, log1p

from .graphs import Graph, Matching, bits_to_tuple
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
        try:
            flam = float(lam)
        except OverflowError:  # a Fraction past the largest float
            flam = inf
        if not 0 < flam < inf:
            raise ChainConfigError(
                f"fugacity {lam} is not a positive finite float")
        return lam


def move_probabilities(chain, lam, lazy=False):
    """``(p_add, p_rem, p_slide)`` of one pick-an-edge step of ``chain``,
    for the drivers and the exact kernels alike.  The double loop is
    glauber at lambda^2; its p_rem is the removal gate, before the inner
    draw.  ``lazy`` halves every move, for glauber and jerrum only.  Exact
    for a Fraction lambda; floats or exact constants for a float lambda."""
    if chain == "glauber":
        moves = lam / (1 + lam), 1 / (1 + lam), 0
    elif chain == "jerrum":
        moves = min(1, lam), min(1, 1 / lam), 1
    elif chain == "double_loop":
        if lazy:
            raise ChainConfigError("the double loop has no lazy form; "
                                   "lazy applies to glauber and jerrum")
        lam2 = lam * lam
        if lam2 == inf:
            raise ChainConfigError(f"fugacity {lam}: the double loop's "
                                   "lambda^2 is past the largest float")
        return lam2 / (1 + lam2), 1 / (1 + lam2), 0
    else:
        raise ChainConfigError(f"unknown chain {chain!r}; use 'glauber', "
                               "'jerrum' or 'double_loop'")
    return tuple(Fraction(1, 2) * p for p in moves) if lazy else moves


_STEP_BLOCK = 256  # plain steps between two readings of the candidate rate
# plain steps while _CROSSOVER * R >= m, events below: one event costs
# about as much as 3-9 plain steps (README, "The measured crossover")
_CROSSOVER = 4


def _run_add_remove(g, x, p_add, p_rem, steps, rng, remove_ok=None,
                    p_slide=0.0, target_edges=-1, collect=None,
                    key_kind="matching", thin=0, burn_in=0):
    """Advance ``x`` in place by ``steps`` steps of the add/remove/slide
    chain.

    A step picks an edge uniformly; an addable edge is added with
    probability ``p_add``, an edge of X is removed with probability
    ``p_rem`` (and then only if ``remove_ok(i, step, covered)`` agrees,
    when given; ``covered`` is X's vertex bitset),
    an edge with exactly one end covered slides in for the edge covering
    that end with probability ``p_slide``, and anything else holds.

    The loop runs in one of two modes, by the candidate rate
    R = m * p_add + |X| * p_rem + 2|X| * (D - 1) * p_slide, D the largest
    degree, which depends on |X| alone.  While _CROSSOVER * R < m it runs
    events: it draws the Geometric(R/m) holding time to the next candidate
    and then the candidate, the n-fold way of Bortz, Kalos and Lebowitz
    (1975) on a uniformized rate (Jensen 1953).  An add candidate is a
    uniform edge of all m, which holds if either end is covered.  A slide
    candidate is a uniform covered-vertex slot a and an offset o < D - 1;
    it holds if o >= deg a - 1, and otherwise names the o-th neighbour w of
    a other than its partner, which slides in if free (thinning, Lewis and
    Shedler 1979).  So each edge is proposed at the step chain's rate.  R
    and its holding-time constant change only when |X| does; a run of
    slides stays in the inner loop.  A move that lifts _CROSSOVER * R to m
    hands over to plain steps, whose edge picks come from
    :func:`pm_chain._picks` in blocks of ``_STEP_BLOCK``; after each block
    the loop re-reads R and hands back below it.  Plain steps draw no coin
    whose probability is 1.  X_t has the step chain's law at every t; a
    refused removal is a hold.

    Inside the window X is its partner table ``x.partner``: a move writes
    it, the loop's vertex bitset and size, and in events X's edge list.
    Code that runs mid-window reads X only through the partner table or
    the bitset it is handed: ``remove_ok`` gets the loop's bitset, current
    at every call, and a matching key is read from the partner table.
    Event slides leave the bitset to be summed from the edge list where
    next read.  ``x.covered`` and ``x.idxs`` hold the window's start state
    until it returns, and are written once, then.

    ``target_edges`` is both the post-selection size and a cap: at
    |X| = ``target_edges`` an add holds, and R drops its m * p_add term.
    This is the Metropolis restriction of the chain to |X| <= the cap: its
    stationary law is the uncapped one restricted there and renormalised,
    so the law at each size up to the cap does not change, and
    post-selection never kept a larger state.  A window started above the
    cap walks freely until it first comes down to it.

    Tracks the most recent state of ``target_edges`` edges (post-selection)
    and fills ``collect`` (a Counter) with state keys every ``thin`` steps
    once past ``burn_in``; a state adds one count for each sample point it
    holds through.  In both modes a move at step t first counts X_{t-1} at
    its sample points and, if it leaves the target size (a removal, as adds
    hold there), post-selects it.  Returns ``(post_snapshot, post_step)``:
    the vertex bitset of that state, or None if the window never reached
    the size, and its step counted from the window's start.
    """
    m = g.m
    edges = g.edges
    ebits = g.edge_bits
    eindex = g.edge_index
    nbrs = g.nbrs
    partner = x.partner
    rnd = rng.random
    # slide offsets per covered vertex, below the envelope D - 1
    offsets = g.max_degree - 1 if p_slide else 0
    per_edge = p_rem + 2 * offsets * p_slide  # R's share per edge of X
    per_slot = 1 / p_slide if p_slide else 0.0
    thin = max(1, thin)
    end = steps
    # the next sample point; they are burn_in + thin * j, j >= 1
    point = burn_in + thin if collect is not None else end + 1
    vertex_keys = key_kind == "vertexset"

    def count(covered, last, point, partner=partner):
        """Count the state ``covered`` at the sample points from ``point``
        to ``last``; returns the next point.  A matching key lists X's
        edges from the partner table over ``covered``, in index order."""
        k = (last - point) // thin + 1
        collect[covered if vertex_keys else
                tuple((u, partner[u]) for u in bits_to_tuple(covered)
                      if u < partner[u])] += k
        return point + k * thin

    add_coin, rem_coin, slide_coin = p_add < 1, p_rem < 1, p_slide < 1
    snap, snap_step = None, None
    covered = x.covered
    xs = sorted(x.idxs)  # the edges of X, as a list for uniform picks
    size = len(xs)
    t = 0           # X is the state from step t on
    while t < end:
        rate = (0 if size == target_edges else m * p_add) + size * per_edge
        if _CROSSOVER * rate >= m > 0:
            # plain steps; a move at step t first counts X_{t-1} at its
            # sample points and, if it leaves the target size, post-selects
            # it.  A move writes partner, covered and size; xs is rebuilt
            # where events next read it.
            xs = None
            for i in _picks(rng, m, min(_STEP_BLOCK, end - t)):
                t += 1
                u, v = edges[i]
                pu = partner[u]
                pv = partner[v]
                if pu == pv:  # both free: covered ends have distinct partners
                    if add_coin and rnd() >= p_add:
                        continue
                    if size == target_edges:
                        continue  # the cap: an add holds
                    if point < t:
                        point = count(covered, t - 1, point)
                    size += 1
                    partner[u] = v
                    partner[v] = u
                    covered |= ebits[i]
                elif pu == v:
                    if rem_coin and rnd() >= p_rem:
                        continue
                    if remove_ok and not remove_ok(i, t, covered):
                        continue
                    if point < t:
                        point = count(covered, t - 1, point)
                    if size == target_edges:
                        snap, snap_step = covered, t - 1
                    size -= 1
                    partner[u] = -1
                    partner[v] = -1
                    covered ^= ebits[i]
                elif p_slide and (pu == -1 or pv == -1):
                    if slide_coin and rnd() >= p_slide:
                        continue
                    if point < t:
                        point = count(covered, t - 1, point)
                    # edge i slides in for the edge that covers one of its
                    # ends: its free end w is covered, that edge's far end
                    # z is freed
                    if pu == -1:
                        w, z = u, pv
                    else:
                        w, z = v, pu
                    partner[z] = -1
                    partner[u] = v
                    partner[v] = u
                    covered ^= 1 << w | 1 << z
            continue
        if not rate:
            break  # no edges: the state holds to the window's end
        if xs is None:
            xs = _relist(partner, eindex)
        # events at this size: a candidate r in [0, R) slides if
        # q = r / p_slide names one of the slots (covered vertex, offset),
        # removes below ``out`` and adds above.  Slides write only xs and
        # partner, leaving covered stale, to be summed from xs where it is
        # next read.
        # R/m below 1e-300 holds to the window end: no float holds the wait
        scale = 1.0 / min(-1e-300, log1p(-rate / m))
        slots = 2 * size * offsets
        # at the cap no candidate adds, whatever the rounding of R
        out = rate if size == target_edges else slots * p_slide + size * p_rem
        stale = False
        while True:
            t += 1 + int(log(1.0 - rnd()) * scale)
            if t > end:
                break
            r = rnd() * rate
            q = int(r * per_slot)
            if q < slots:
                k = q // offsets
                o = q - k * offsets
                a, z = edges[xs[k >> 1]]
                if k & 1:
                    a, z = z, a
                nb = nbrs[a]
                if o >= len(nb) - 1:
                    continue  # past deg a - 1: the step holds
                w = nb[o]
                if w == z:
                    w = nb[-1]
                if partner[w] >= 0:
                    continue  # both ends covered: the step holds
                if point < t:
                    point = count(sum(map(ebits.__getitem__, xs)), t - 1,
                                  point)
                xs[k >> 1] = eindex[(a, w) if a < w else (w, a)]
                partner[z] = -1
                partner[a] = w
                partner[w] = a
                stale = True
                continue
            if stale:
                covered = sum(map(ebits.__getitem__, xs))
                stale = False
            if r < out:
                k = int(rnd() * size)
                i = xs[k]
                if remove_ok and not remove_ok(i, t, covered):
                    continue
            else:
                i = int(rnd() * m)
                if covered & ebits[i]:
                    continue  # an end is covered: the step holds
                k = -1
            if point < t:
                point = count(covered, t - 1, point)
            if size == target_edges:
                snap, snap_step = covered, t - 1
            u, v = edges[i]
            if k < 0:
                xs.append(i)
                size += 1
                partner[u] = v
                partner[v] = u
            else:
                xs[k] = xs[-1]
                xs.pop()
                size -= 1
                partner[u] = -1
                partner[v] = -1
            covered ^= ebits[i]
            break
        if stale:
            covered = sum(map(ebits.__getitem__, xs))
    # the window writes X's bitset and edge set once, here
    x.idxs.clear()
    x.idxs.update(_relist(partner, eindex) if xs is None else xs)
    x.covered = covered
    # the window's last state holds to its end
    if size == target_edges:
        snap, snap_step = covered, end
    if point <= end:
        count(covered, end, point)
    return snap, snap_step


def _relist(partner, eindex):
    """X's edge indices in ascending order, read from the partner table."""
    return [eindex[u, w] for u, w in enumerate(partner) if u < w]


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
