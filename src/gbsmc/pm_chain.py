"""(Near-)uniform sampling of perfect matchings via a local-move chain.

The chain walks perfect and near-perfect matchings (exactly one uncovered
vertex pair).  Pick an edge ``e = (u, v)`` uniformly at random:

* state perfect and ``e`` in it: drop ``e``;
* state near-perfect, both endpoints uncovered: add ``e``;
* state near-perfect, exactly one endpoint matched (say ``u`` to ``z``):
  slide — add ``e``, drop ``(z, u)``;
* anything else: hold.

Every move is matched by its mirror image at the same proposal probability,
so the stationary law is uniform over the state space.  The weighted variant
accepts removals with probability 1/w_e and slides with min(1, w_e/w_zu),
tilting the stationary law to Pr[M] proportional to the product of edge
weights.  On dense graphs the perfect states carry at least a 1/(2q^2+1)
share of the space (q = matching size), which is what makes "run, check,
retry" a practical uniform sampler for perfect matchings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .graphs import Graph, Matching


class PMStateError(ValueError):
    """Chain state is neither perfect nor near-perfect."""


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
    graph at hand when left as None.
    """
    inner_steps: Optional[int] = None
    max_attempts: Optional[int] = None

    def steps_for(self, n_vertices: int) -> int:
        if self.inner_steps is not None:
            return self.inner_steps
        return default_inner_steps(n_vertices)

    def attempts_for(self, n_vertices: int) -> int:
        if self.max_attempts is not None:
            return self.max_attempts
        return default_max_attempts(n_vertices)


def _pm_walk(g: Graph, partner, holes: int, moves, steps: int, rng,
             weighted: bool) -> int:
    """Advance the chain ``steps`` moves on the partner array ``partner``
    (-1 at an uncovered vertex), in place.  ``holes`` is the state's
    uncovered-vertex count, 0 or 2; returns the new one.

    ``moves[r]`` is ``(u, v, i)`` for the r-th proposable edge index ``i``,
    with the last entry repeated: it takes the rare proposal
    ``int(random() * k)``, k = ``len(moves) - 1``, that rounds up to k.
    """
    eindex = g.edge_index
    weights = g.weights
    k = len(moves) - 1
    rnd = rng.random
    for _ in range(steps):
        u, v, i = moves[int(rnd() * k)]
        pu = partner[u]
        pv = partner[v]
        if holes == 0:
            if pu == v and (not weighted or rnd() < 1.0 / float(weights[i])):
                partner[u] = -1
                partner[v] = -1
                holes = 2
        elif pu == -1 and pv == -1:
            partner[u] = v
            partner[v] = u
            holes = 0
        elif pu == -1 or pv == -1:
            # slide: add (u, v), drop the edge (w, z) blocking it at w
            w, z = (v, pv) if pu == -1 else (u, pu)
            if weighted:
                j = eindex[(w, z) if w < z else (z, w)]
                ratio = float(weights[i]) / float(weights[j])
                if ratio < 1.0 and rnd() >= ratio:
                    continue
            partner[z] = -1
            partner[u] = v
            partner[v] = u
    return holes


def _run_restricted(g: Graph, vbits: int, pool, start_idxs, steps: int,
                    attempts: int, rng, weighted: bool):
    """Drive the chain on the subgraph induced by ``vbits`` (edge indices in
    ``pool``), checking for perfection every ``steps`` moves.

    Returns the matching's edge-index set on success, None when the budget
    runs out.  Operates on host-graph labels throughout; ``start_idxs`` must
    cover ``vbits`` exactly (the outer chain's own state, in the double-loop
    context).
    """
    partner = [-1] * g.n
    for i in start_idxs:
        u, v = g.edges[i]
        partner[u] = v
        partner[v] = u
    holes = 0  # start state is perfect by contract
    moves = [g.edges[i] + (i,) for i in pool]
    moves += moves[-1:]  # see _pm_walk
    for _ in range(attempts):
        holes = _pm_walk(g, partner, holes, moves, steps, rng, weighted)
        if holes == 0:
            return {g.edge_index[(u, w)] for u, w in enumerate(partner)
                    if u < w}
    return None


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
    if g.weighted and min(g.weights) < 1:
        raise PMStateError("weighted chain needs all weights >= 1; "
                           "normalize_weights() first")
    steps = cfg.steps_for(g.n)
    attempts = cfg.attempts_for(g.n)
    got = _run_restricted(g, g.full_bits, range(g.m), initial.idxs,
                          steps, attempts, rng, weighted=g.weighted)
    if got is None:
        raise PMSampleBudgetError(attempts)
    return Matching(g, got)
