"""Double-loop Glauber dynamics: vertex sets weighted by squared hafnians.

The outer chain is the single-loop add/remove walk with fugacity lambda^2,
except that removing an edge ``e`` of the current matching X is gated by an
*inner* draw: sample a uniform perfect matching E of the subgraph induced by
V(X), and only if ``e`` landed in E may it be removed (with probability
1/(1+lambda^2)).  The gate thins removals by Haf(G_{X - e}) / Haf(G_X), which
tilts the stationary law from lambda^|X| to

    pi(X) proportional to lambda^(2|X|) * Haf(G_X),

whose vertex-set marginal is Pr[S] proportional to c^(2|S|) * Haf^2(S) with
lambda = c^2 — the Gaussian boson sampling distribution.

Two inner samplers are available: ``"chain"`` runs the perfect-matching
chain of :mod:`gbsmc.pm_chain` under a finite budget (the real algorithm),
and ``"exact"`` replaces it with an enumeration-backed exact draw — the
reference used by kernel-level diagnostics and the hard-instance experiment,
where the analysis assumes exactly-uniform inner samples.  Search proposals
run ``"auto"``: the exact gate on sets of fewer than ``EXACT_GATE_BELOW``
vertices, the chain on larger ones.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from .graphs import Graph, Matching
from .glauber import (ChainConfig, ChainConfigError, _drive_glauber,
                      _run_add_remove, move_probabilities)
from .hafnian import MEMO_LIMIT, hafnian_bits, memo_bound
from .pm_chain import PMSamplerConfig, _run_restricted
from .seeds import derive_seed


# Under inner="auto", a gate on fewer vertices than this takes the exact
# ratio.  One gate on ER(256, 0.4) (vertex sets of random matchings, 60 a
# size, 2 vCPUs, Python 3.11): the exact gate with a cold hafnian memo
# against one chain draw of the solvers' 1,024 steps x 2 attempts.
#
#   |V(X)|          4    6    8   10   12   14   16
#   exact gate, us  3    6   13   33   97  300  833
#   chain draw, us 127  137  143  140  145  154  152
#
# The crossover lies between 12 and 14.  Perfbench search-k16-k32 read
# op_s.double_loop alike with the constant at 12 or 14 (-4.8% and -4.1%
# against the chain draw on every set; 4 alternating pairs each, seed 1),
# so 12 keeps 12-vertex sets on the chain.  Below it no hafnian nears
# MEMO_LIMIT: K10's memo_bound is 88.
EXACT_GATE_BELOW = 12


class InnerSamplerError(RuntimeError):
    """Inner perfect-matching draw exhausted its budget (policy: abort)."""


class InnerGuardError(RuntimeError):
    """The exact inner draw met a V(X) whose hafnian may memoise more than
    ``hafnian.MEMO_LIMIT`` sub-sets (:func:`hafnian.memo_bound`)."""


class RejectionCapError(RuntimeError):
    """Rejection sampler hit its round cap without an acceptance."""


@dataclass
class InnerStats:
    """Bookkeeping for the inner sampler across one outer run.

    ``calls`` counts inner chain draws, ``shortcuts`` the |X| = 1 removals
    whose inner draw is forced.  Both count only removal candidates that
    passed the 1/(1+lambda^2) gate coin, which the outer chain flips
    first.
    """
    calls: int = 0
    shortcuts: int = 0
    failures: int = 0


@dataclass
class DoubleLoopConfig:
    """Outer chain config plus inner-sampler budgets and failure policy.

    ``on_inner_failure="stay"`` treats an exhausted inner budget as a
    rejected removal (the default: keeps the chain running and is counted in
    :class:`InnerStats`); ``"abort"`` raises; ``"fallback"`` substitutes the
    outer state's own matching for the missing draw — X is always a perfect
    matching of the subgraph it induces, so the proposed edge counts as hit.
    Frequent fallbacks loosen the removal gate (the stationary law drifts
    from Haf toward plain counting), which is fine for search proposals but
    not for law-grade sampling.  ``inner`` selects the chain inner sampler,
    the exact enumeration-backed one, or ``"auto"``, the search proposals'
    mix: the exact gate where |V(X)| < ``EXACT_GATE_BELOW``, the chain and
    its failure policy on larger sets.  A window whose cap keeps V(X)
    below that size (every proposal window of k < ``EXACT_GATE_BELOW``)
    therefore follows the capped Haf^2 law exactly; larger ones stay
    search-grade.
    """
    chain: ChainConfig = field(default_factory=ChainConfig)
    pm: PMSamplerConfig = field(default_factory=PMSamplerConfig)
    on_inner_failure: str = "stay"
    inner: str = "chain"

    def __post_init__(self):
        if self.on_inner_failure not in ("stay", "abort", "fallback"):
            raise ChainConfigError(
                f"unknown inner-failure policy {self.on_inner_failure!r}")
        if self.inner not in ("chain", "exact", "auto"):
            raise ChainConfigError(f"unknown inner sampler {self.inner!r}")


def _drive_double(g, x, lam, cfg, steps, rng, *, stats=None, haf_memo=None,
                  **kw):
    """Run ``steps`` outer moves, mutating ``x``; the keyword options and
    the result are :func:`_run_add_remove`'s.  Inner calls, shortcuts and
    failures are counted in ``stats`` when given.

    The outer walk is the add/remove loop at fugacity lambda^2, so a removal
    candidate has already passed the 1/(1+lambda^2) gate coin; the inner
    draw decides whether it moves.  The exact gate moves with probability
    Haf(V(X) - e) / Haf(V(X)), from ``haf_memo`` (a fresh one per window
    when not given); ``cfg.inner="auto"`` takes it on sets of fewer than
    ``EXACT_GATE_BELOW`` vertices and the chain draw on the others.
    A lazy ``cfg.chain`` raises ChainConfigError, and the exact inner draw
    raises :class:`InnerGuardError` on a V(X) whose hafnian could memoise
    more than ``hafnian.MEMO_LIMIT`` sub-sets.
    """
    p_add, p_gate, _ = map(float, move_probabilities(
        "double_loop", float(lam), cfg.chain.lazy))
    rnd = rng.random
    guard = cfg.inner == "exact"
    # the exact gate takes a matching of fewer edges than this
    exact_edges = (g.m + 1 if guard else
                   (EXACT_GATE_BELOW + 1) // 2 if cfg.inner == "auto" else 0)
    pm_cfg = cfg.pm
    abort = cfg.on_inner_failure == "abort"
    fallback = cfg.on_inner_failure == "fallback"
    if stats is None:
        stats = InnerStats()
    if haf_memo is None:
        haf_memo = {}
    tables = {}  # the window's inner-chain tables; see _run_restricted

    def in_inner(i, t):
        """Whether the gated removal of edge i goes ahead."""
        idxs = x.idxs
        covered = x.covered
        q = len(idxs)
        if q == 1:
            stats.shortcuts += 1
            return True  # 2-vertex subgraph: E is forced
        if q < exact_edges:
            rest = covered & ~g.edge_bits[i]
            for bits in (covered, rest):
                # A set in the memo passed this check or was reached from
                # one that did, so its hafnian costs no more.  "auto" checks
                # none: no set below EXACT_GATE_BELOW vertices nears it.
                if guard and bits not in haf_memo:
                    bound = memo_bound(g, bits)
                    if bound > MEMO_LIMIT:
                        raise InnerGuardError(
                            f"exact inner draw at step {t} of the window: "
                            f"the hafnian of {bits.bit_count()} vertices may "
                            f"memoise {bound} sub-sets, past the guard of "
                            f"{MEMO_LIMIT}")
            big = hafnian_bits(g, covered, haf_memo)
            small = hafnian_bits(g, rest, haf_memo)
            return rnd() < float(small) / float(big)
        stats.calls += 1
        nv = 2 * q
        got = _run_restricted(g, covered, idxs, pm_cfg.steps_for(nv),
                              pm_cfg.attempts_for(nv), rng, tables)
        if got is None:
            stats.failures += 1
            if abort:
                raise InnerSamplerError(
                    f"inner budget exhausted at step {t} of the window")
            # "stay" refuses the removal; "fallback" stands in X itself (a
            # perfect matching of V(X) that contains the proposed edge).
            return fallback
        return i in got

    return _run_add_remove(g, x, p_add, p_gate, steps, rng, in_inner, **kw)


def vertex_set_histogram(g: Graph, cfg: DoubleLoopConfig, n_samples: int,
                         thin: int = 1, burn_in: int = 0):
    """Counter of vertex-set bitsets visited by one long outer run
    (every ``thin``-th state after ``burn_in``), plus inner stats."""
    rng = random.Random(cfg.chain.seed)
    x = Matching(g)
    counts: Counter = Counter()
    stats = InnerStats()
    _drive_double(g, x, cfg.chain.resolved_fugacity(), cfg,
                  burn_in + n_samples * thin, rng, stats=stats,
                  collect=counts, key_kind="vertexset", thin=thin,
                  burn_in=burn_in)
    return counts, stats


def rejection_sample_stream(g: Graph, cfg: ChainConfig, *, max_rounds: int,
                            burn_in: int = 0, round_steps=None, limit=None):
    """Yield accepted vertex-set bitsets, at most ``limit`` of them.

    Both chains first run ``burn_in`` steps; each round then runs
    ``round_steps`` (default ``max(1, burn_in)``).  ``max_rounds`` caps the
    comparisons spent per accepted sample; exceeding it raises
    :class:`RejectionCapError`.
    """
    lam = cfg.resolved_fugacity()
    if round_steps is None:
        round_steps = max(1, burn_in)
    rng_a = random.Random(derive_seed(cfg.seed, "reject-a"))
    rng_b = random.Random(derive_seed(cfg.seed, "reject-b"))
    xa = Matching(g)
    xb = Matching(g)
    _drive_glauber(g, xa, lam, cfg.lazy, burn_in, rng_a)
    _drive_glauber(g, xb, lam, cfg.lazy, burn_in, rng_b)
    produced = 0
    while limit is None or produced < limit:
        for _ in range(max_rounds):
            if xa.covered == xb.covered:
                break
            _drive_glauber(g, xa, lam, cfg.lazy, round_steps, rng_a)
            _drive_glauber(g, xb, lam, cfg.lazy, round_steps, rng_b)
        else:
            raise RejectionCapError(
                f"no acceptance within {max_rounds} rounds")
        yield xa.covered
        produced += 1
        # decorrelate before hunting for the next acceptance
        _drive_glauber(g, xa, lam, cfg.lazy, round_steps, rng_a)
        _drive_glauber(g, xb, lam, cfg.lazy, round_steps, rng_b)
