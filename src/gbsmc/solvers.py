"""Stochastic search for max-hafnian and densest-k-subgraph targets.

Two algorithms over k-vertex subsets of a host graph: random search and
simulated annealing.  ``SolverConfig.sampler`` runs each in a plain flavor
(``"uniform"`` proposals) or an enhanced one whose proposals come from a
matching chain with post-selection — the chain is advanced until its most
recent state covers exactly k vertices, and that vertex set is the
proposal.  Chains
concentrate on subsets rich in perfect matchings, which is correlated with
both objectives, so the enhanced variants spend their evaluation budget in
a much better region than blind sampling.  Double-loop proposals gate
removals exactly on sets of fewer than ``double_loop.EXACT_GATE_BELOW``
vertices and with a search-grade inner chain on larger ones.

Budget fairness is a hard contract here: every variant performs exactly
``iterations`` objective evaluations per trial, so best-score comparisons
between plain and enhanced runs are like for like.  An evaluation is a
scored set.  Plain trials compute every score; a chain trial reads a set
it has already scored, or whose hafnian a double-loop exact gate has
summed, from its memo (``_ChainProposals.scores``), at the cost of one
dict lookup.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

from .graphs import Graph, Matching, bitset, bits_to_tuple
from .glauber import (ChainConfig, ChainConfigError, _drive_glauber,
                      _drive_jerrum, move_probabilities)
from .double_loop import DoubleLoopConfig, InnerStats, _drive_double
from .hafnian import count_induced_edges, hafnian_bits
from .seeds import child_rng, derive_seed


class SolverConfigError(ValueError):
    """Rejected solver configuration."""


OBJECTIVES = ("hafnian", "density")
SAMPLERS = ("uniform", "glauber", "jerrum", "double_loop")
_HAFNIAN_SIZE_GUARD = 32


@dataclass
class SAParams:
    """Annealing schedule: temperature starts at ``initial_temperature``
    and decays by ``gamma`` after every proposal."""
    initial_temperature: float = 1.0
    gamma: float = 0.95


@dataclass
class SolverConfig:
    objective: str = "hafnian"
    subset_size: int = 2
    iterations: int = 100
    sampler: str = "uniform"
    chain: Optional[ChainConfig] = None  # None: at proposal_fugacity
    sa: Optional[SAParams] = None
    seed: object = 0
    mixing_steps: int = 1000      # chain budget per enhanced proposal
    retry_bound: int = 3          # post-selection retries before fallback
    warm_start: bool = True       # keep chain state across iterations


@dataclass
class TrialRecord:
    """Full provenance of one solver trial."""
    algorithm: str
    config: SolverConfig
    best_set: Optional[int]       # vertex bitset, None if nothing scored > 0
    best_score: object
    score_trajectory: tuple       # running best, one entry per iteration
    evaluations: int
    inner_failures: int
    starvation_count: int
    wall_time: float

    def best_vertices(self):
        return None if self.best_set is None else bits_to_tuple(self.best_set)


def objective_value(g: Graph, objective: str, bits: int, memo=None):
    """Score a vertex set: perfect-matching count, or edge density.  The
    empty set scores 0 under both objectives.

    With a ``memo`` (a dict from vertex bitset to score, kept by the
    caller for one objective on ``g``), a score it holds for ``bits`` is
    returned as it is; otherwise the score is computed, stored there and
    returned.  ``hafnian_bits`` and ``count_induced_edges`` run only on a
    miss, and a hafnian miss is still one-shot (relabelled from
    ``hafnian.RELABEL_MIN`` vertices) and stores only the set's own value.
    """
    if bits == 0:
        return 0
    if memo is not None:
        got = memo.get(bits)
        if got is not None:
            return got
    if objective == "hafnian":
        value = hafnian_bits(g, bits)
    else:
        value = count_induced_edges(g, bits) / bits.bit_count()
    if memo is not None:
        memo[bits] = value
    return value


def _validate(g: Graph, cfg: SolverConfig):
    if cfg.objective not in OBJECTIVES:
        raise SolverConfigError(f"unknown objective {cfg.objective!r}")
    if cfg.sampler not in SAMPLERS:
        raise SolverConfigError(f"unknown sampler {cfg.sampler!r}")
    if not 1 <= cfg.subset_size <= g.n:
        raise SolverConfigError(
            f"subset size {cfg.subset_size} outside 1..{g.n}")
    if cfg.iterations < 1:
        raise SolverConfigError(
            f"iterations must be at least 1, got {cfg.iterations}")
    if cfg.mixing_steps < 1:
        raise SolverConfigError(
            f"mixing steps must be at least 1, got {cfg.mixing_steps}")
    if cfg.retry_bound < 0:
        raise SolverConfigError(
            f"retry bound must be non-negative, got {cfg.retry_bound}")
    if cfg.objective == "hafnian":
        if cfg.subset_size % 2:
            raise SolverConfigError(
                "hafnian objective needs an even subset size")
        if cfg.subset_size > _HAFNIAN_SIZE_GUARD:
            raise SolverConfigError(
                f"hafnian objective guarded at {_HAFNIAN_SIZE_GUARD} vertices")
    if cfg.sampler != "uniform" and cfg.subset_size % 2:
        raise SolverConfigError(
            "chain proposals cover an even number of vertices; "
            "chain samplers need an even subset size")


def proposal_fugacity(g: Graph, k: int, sampler: str) -> float:
    """The fugacity of a proposal chain given none, aimed at the
    post-selection size ``k``: at small fugacity the single loop holds
    about fugacity * m edges, so k/2 edges wants (k/2)/m, floored at 1e-6.
    The double loop gets its square root, the single loop's rule at its
    outer fugacity^2.  A proposal window holds adds at k/2 edges, so no
    larger size is reached, and post-selection conditions on the size: the
    fugacity only has to make that size reachable."""
    frac = (k / 2) / max(1, g.m)
    return max(1e-6, math.sqrt(frac) if sampler == "double_loop" else frac)


def drive(chain, g, x, cfg, steps, rng, *, stats=None, haf_memo=None,
          **window):
    """Advance ``x`` in place by ``steps`` steps of ``chain`` (``"glauber"``,
    ``"jerrum"`` or ``"double_loop"``) at the fugacity ``cfg`` resolves to;
    returns the vertex bitset of the window's latest post-selected state
    and its step, counted from the window's start, as
    :func:`~gbsmc.glauber._run_add_remove` does, whose options ``window``
    holds.

    ``cfg`` is the chain's ChainConfig, or for the double loop its
    DoubleLoopConfig; ``stats`` and ``haf_memo`` go to the double loop only.
    ``_drive_glauber``, ``_drive_jerrum`` and ``_drive_double`` are looked
    up in this module when called, with the step count as their fifth
    positional argument, so that a wrapper set on this module's attribute
    sees every window.
    """
    if chain == "glauber":
        return _drive_glauber(g, x, cfg.resolved_fugacity(), cfg.lazy, steps,
                              rng, **window)
    if chain == "jerrum":
        return _drive_jerrum(g, x, cfg.resolved_fugacity(), cfg.lazy, steps,
                             rng, **window)
    if chain == "double_loop":
        return _drive_double(g, x, cfg.chain.resolved_fugacity(), cfg, steps,
                             rng, stats=stats, haf_memo=haf_memo, **window)
    raise ChainConfigError(f"unknown chain {chain!r}; use 'glauber', "
                           "'jerrum' or 'double_loop'")


class _ChainProposals:
    """Post-selected k-subset proposals from a persistent chain.

    One instance per trial; the chain state and RNG stream persist across
    draws when ``warm_start`` (the default), or the chain restarts from the
    empty matching before every draw otherwise, and the double loop's
    hafnian memo persists either way.  The double loop runs
    ``inner="search"``: windows whose cap keeps V(X) below
    ``double_loop.EXACT_GATE_BELOW`` vertices (every k < 12 proposal) take
    the exact gate on every removal and follow the capped Haf^2 law
    exactly; larger ones take the search-grade chain draw, whose failures
    let removals go ahead.

    ``scores`` is the trial's objective memo (:func:`objective_value`).
    Under the hafnian objective it is ``haf_memo`` itself, so a proposal's
    score is read wherever an exact gate has summed its Haf(S), and a gate
    reads the hafnians the objective has stored; glauber and jerrum trials
    keep the same attribute, which no gate fills.  The density objective
    keeps a dict of its own, so no density value enters ``haf_memo``.
    """

    def __init__(self, g: Graph, cfg: SolverConfig):
        self.g = g
        self.cfg = cfg
        self.rng = child_rng(cfg.seed, "proposal-chain")
        self.stats = InnerStats()
        base = cfg.chain or ChainConfig(fugacity=proposal_fugacity(
            g, cfg.subset_size, cfg.sampler))
        if not isinstance(base, ChainConfig):
            raise SolverConfigError(
                f"{cfg.sampler} sampler takes a ChainConfig")
        self.chain = base  # the sampler's own config
        self.haf_memo = {}  # the exact gates' hafnians, kept for the trial
        self.scores = self.haf_memo if cfg.objective == "hafnian" else {}
        if cfg.sampler == "double_loop":
            self.chain = DoubleLoopConfig(chain=base, inner="search")
        # a bad fugacity or a lazy double loop fails before the first draw
        move_probabilities(cfg.sampler, base.resolved_fugacity(), base.lazy)
        self.x = Matching(g)

    def draw(self, k_vertices: int):
        """Vertex bitset of the latest size-k state, or None on starvation
        (``retry_bound`` extra windows exhausted); the windows hold adds
        at k/2 edges."""
        if not self.cfg.warm_start:
            self.x = Matching(self.g)
        target = k_vertices // 2
        for _ in range(self.cfg.retry_bound + 1):
            snap, _ = drive(self.cfg.sampler, self.g, self.x, self.chain,
                            self.cfg.mixing_steps, self.rng, stats=self.stats,
                            haf_memo=self.haf_memo, target_edges=target)
            if snap is not None:
                return snap
        return None


def _uniform_subset(rng, n: int, k: int) -> list:
    return sorted(rng.sample(range(n), k))


def _record(name, cfg, chain, best, best_set, traj, starved, t0):
    if cfg.sampler != "uniform":
        name = "enhanced_" + name
    failures = 0 if chain is None else chain.stats.failures
    return TrialRecord(name, cfg, best_set, best, tuple(traj), len(traj),
                       failures, starved, time.perf_counter() - t0)


def random_search(g: Graph, cfg: SolverConfig) -> TrialRecord:
    """Score ``iterations`` k-subsets; keep the strict best.

    The uniform sampler draws i.i.d. uniform subsets.  A chain sampler
    takes each from the chain's latest post-selected k-subset; a draw that
    starves falls back to one uniform subset, so the evaluation budget
    stays that of plain random search (the fallback is counted in
    ``starvation_count``).
    """
    _validate(g, cfg)
    t0 = time.perf_counter()
    chain = None if cfg.sampler == "uniform" else _ChainProposals(g, cfg)
    memo = None if chain is None else chain.scores
    rng = child_rng(cfg.seed, "rs" if chain is None else "ers-fallback")
    best, best_set = 0, None
    traj = []
    starved = 0
    for _ in range(cfg.iterations):
        bits = None if chain is None else chain.draw(cfg.subset_size)
        if bits is None:
            starved += chain is not None
            bits = bitset(_uniform_subset(rng, g.n, cfg.subset_size))
        score = objective_value(g, cfg.objective, bits, memo)
        if score > best:
            best, best_set = score, bits
        traj.append(best)
    return _record("random_search", cfg, chain, best, best_set, traj,
                   starved, t0)


def simulated_annealing(g: Graph, cfg: SolverConfig) -> TrialRecord:
    """Metropolis search with geometric cooling.

    Iteration 1 evaluates a uniform starting subset; each later iteration
    keeps a uniformly-chosen prefix of the current subset, refreshes the
    rest, and accepts with probability min(1, exp((f_new - f_cur)/t)).

    The uniform sampler refreshes with uniform vertices.  A chain sampler
    takes them from a chain proposal: vertices colliding with the kept part
    are discarded, the remainder is trimmed uniformly to the needed count.
    Draws that starve or cannot supply enough non-overlapping vertices are
    retried up to ``retry_bound`` times, then the iteration falls back to a
    uniform refresh (counted in ``starvation_count``).
    """
    _validate(g, cfg)
    if cfg.sa is None:
        raise SolverConfigError("this solver needs sa parameters")
    if not 0 < cfg.sa.gamma < 1:
        raise SolverConfigError(f"gamma {cfg.sa.gamma} outside (0, 1)")
    if not cfg.sa.initial_temperature > 0:
        raise SolverConfigError("initial temperature must be positive")
    t0 = time.perf_counter()
    chain = None if cfg.sampler == "uniform" else _ChainProposals(g, cfg)
    memo = None if chain is None else chain.scores
    rng = child_rng(cfg.seed, "sa" if chain is None else "esa")
    k = cfg.subset_size
    current = _uniform_subset(rng, g.n, k)
    f_cur = objective_value(g, cfg.objective, bitset(current), memo)
    best, best_set = (f_cur, bitset(current)) if f_cur > 0 else (0, None)
    traj = [best]
    starved = 0
    tries = 0 if chain is None else cfg.retry_bound + 1
    temp = cfg.sa.initial_temperature
    for _ in range(cfg.iterations - 1):
        m = rng.randint(0, k - 1)
        keep = sorted(rng.sample(current, m))
        banned = set(keep)
        need = k - m
        fresh = None
        for _ in range(tries):
            bits = chain.draw(k)
            if bits is None:
                break
            usable = [v for v in bits_to_tuple(bits) if v not in banned]
            if len(usable) >= need:
                fresh = (rng.sample(usable, need) if len(usable) > need
                         else usable)
                break
        if fresh is None:
            starved += chain is not None
            fresh = rng.sample([v for v in range(g.n) if v not in banned],
                               need)
        candidate = sorted(keep + fresh)
        f_new = objective_value(g, cfg.objective, bitset(candidate), memo)
        if f_new > best:
            best, best_set = f_new, bitset(candidate)
        delta = float(f_new) - float(f_cur)
        if delta >= 0 or rng.random() < math.exp(delta / temp):
            current, f_cur = candidate, f_new
        temp *= cfg.sa.gamma
        traj.append(best)
    return _record("simulated_annealing", cfg, chain, best, best_set, traj,
                   starved, t0)


def solver_for(cfg: SolverConfig):
    """Pick the solver a config describes: an ``sa`` block selects
    annealing, otherwise random search; either runs plain or
    chain-enhanced by ``cfg.sampler``."""
    return random_search if cfg.sa is None else simulated_annealing


def run_trials(g: Graph, cfg: SolverConfig, seeds) -> list:
    """One TrialRecord per seed, in the order of ``seeds``: the solver
    ``cfg`` describes, run on ``g`` with ``cfg.seed`` set to that seed."""
    trial_cfgs = [replace(cfg, seed=seed) for seed in seeds]
    return [solver_for(c)(g, c) for c in trial_cfgs]


def advantage_at(g: Graph, cfg_pair, k: int, n_seeds: int = 1) -> tuple:
    """(plain mean, enhanced mean, ratio) of the best scores at size ``k``.

    ``cfg_pair`` is (plain_cfg, enhanced_cfg); each runs ``n_seeds`` >= 1
    trials with seeds derived from its own seed field.  A zero plain mean
    gives ratio ``inf`` when the enhanced mean is positive, 1.0 when both
    found nothing.
    """
    if n_seeds < 1:
        raise SolverConfigError(f"n_seeds must be at least 1, got {n_seeds}")
    means = []
    for cfg in cfg_pair:
        records = run_trials(g, replace(cfg, subset_size=k), [
            derive_seed(cfg.seed, f"k{k}/t{j}") for j in range(n_seeds)])
        means.append(sum(float(r.best_score) for r in records) / n_seeds)
    plain_mean, enhanced_mean = means
    if plain_mean == 0:
        return plain_mean, enhanced_mean, (1.0 if enhanced_mean == 0
                                           else math.inf)
    return plain_mean, enhanced_mean, enhanced_mean / plain_mean
