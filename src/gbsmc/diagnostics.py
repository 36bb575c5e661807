"""Verification backbone: exact laws, exact kernels, TV, mixing profiles.

Everything here exists to check the samplers against ground truth.  Exact
stationary laws and one-step transition kernels are computed in rational
arithmetic (``fractions.Fraction``; a float fugacity is converted exactly),
so detailed-balance certificates come out as literal zeros rather than
"small floats".  The double-loop kernel uses the inner draw's
exact marginal — the probability that a uniform perfect matching of the
induced subgraph contains the proposed edge is a ratio of hafnians — which
is what "inner sampler replaced by exact enumeration" means operationally.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .graphs import (Graph, Matching, enumerate_matchings, hard_instance,
                     hard_instance_core_matching)
from .glauber import ChainConfig, move_probabilities
from .double_loop import DoubleLoopConfig, _drive_double
from .hafnian import hafnian_bits
from .seeds import child_rng


class OracleGuardError(RuntimeError):
    """A brute-force oracle was asked for more than its guard allows."""


# ---------------------------------------------------------------------------
# Laws and total variation
# ---------------------------------------------------------------------------

def _normalize(weights) -> dict:
    """``{state: mass}`` from a weight map (a law, or a Counter of samples).

    Masses are Fractions when every weight is an int or a Fraction, floats
    otherwise; states carrying zero mass are dropped.
    """
    total = sum(weights.values())
    if not total > 0:
        raise ValueError("all weights vanish; no distribution")
    items = sorted((k, w) for k, w in weights.items() if w > 0)
    exact = all(isinstance(w, (int, Fraction)) for _, w in items) \
        and isinstance(total, (int, Fraction))
    if exact:
        return {k: Fraction(w) / total for k, w in items}
    ftot = float(total)
    return {k: float(w) / ftot for k, w in items}


def tv_distance(p, q):
    """Total variation distance between two weight maps, each normalised
    first (a law, or a Counter of samples): half the L1 gap, supports
    unioned."""
    pd = _normalize(p)
    qd = _normalize(q)
    acc = 0
    for key in set(pd) | set(qd):
        acc += abs(pd.get(key, 0) - qd.get(key, 0))
    return acc / 2


# ---------------------------------------------------------------------------
# Exact stationary laws
# ---------------------------------------------------------------------------

def _matching_key(g: Graph, idxs) -> tuple:
    return tuple(sorted(g.edges[i] for i in idxs))


def even_subsets(n: int):
    for bits in range(1 << n):
        if bits.bit_count() % 2 == 0:
            yield bits


LAW_KINDS = ("matching_single", "matching_double",
             "vertexset_single", "vertexset_double")


def exact_stationary(g: Graph, lam, law: str) -> dict:
    """Exact stationary law ``{state: mass}`` of one of the four chain laws.

    * ``matching_single``:  mu(X)  ~ lambda^|X|           (keys: edge pairs)
    * ``matching_double``:  pi(X)  ~ lambda^(2|X|) Haf(G_X)
    * ``vertexset_single``: Pr[S]  ~ lambda^(|S|/2) Haf(S)  (keys: bitsets)
    * ``vertexset_double``: Pr[S]  ~ lambda^|S| Haf(S)^2

    With lambda = c^2 the two vertex-set laws are c^|S| Haf(S) and
    c^(2|S|) Haf(S)^2.  Masses are exact Fractions.
    Guarded brute force: 12 vertices for matching laws, 14 for vertex-set.
    """
    if law not in LAW_KINDS:
        raise ValueError(f"unknown law {law!r}")
    lamF = Fraction(lam)
    weights = {}
    if law.startswith("matching"):
        if g.n > 12:
            raise OracleGuardError("matching laws are enumerable up to 12 vertices")
        memo = {}
        for x in enumerate_matchings(g):
            key = _matching_key(g, x.idxs)
            if law == "matching_single":
                weights[key] = lamF ** len(x.idxs)
            else:
                weights[key] = (lamF ** (2 * len(x.idxs))
                                * hafnian_bits(g, x.covered, memo))
    else:
        if g.n > 14:
            raise OracleGuardError("vertex-set laws are enumerable up to 14 vertices")
        memo = {}
        for bits in even_subsets(g.n):
            size = bits.bit_count()
            haf = hafnian_bits(g, bits, memo)
            if law == "vertexset_single":
                w = lamF ** (size // 2) * haf
            else:
                w = lamF ** size * haf * haf
            if w > 0:
                weights[bits] = w
    return _normalize(weights)


# ---------------------------------------------------------------------------
# Exact one-step kernels
# ---------------------------------------------------------------------------

KERNEL_KINDS = ("glauber", "jerrum", "double_loop", "pm")


def transition_kernel(g: Graph, dynamics: str, lam=None, lazy=False) -> dict:
    """One-step transition matrix as nested dicts of exact Fractions.

    Keys are canonical matching encodings (sorted edge-pair tuples).  Rows
    sum to 1 exactly.  For matching-space dynamics the state space is every
    matching of ``g``; for the perfect-matching dynamics it is the perfect
    plus near-perfect matchings (``g.n`` must be even and a perfect matching
    must exist).  ``lazy`` (each move's probability halved) exists for
    glauber and jerrum only.
    """
    if dynamics not in KERNEL_KINDS:
        raise ValueError(f"unknown dynamics {dynamics!r}")
    if dynamics == "pm":
        if lazy:
            raise ValueError("no lazy pm kernel; lazy applies to glauber "
                             "and jerrum")
        states, q = _pm_states(g)
        return _local_kernel(g, states, 1,
                             lambda x, i: 1 if len(x.idxs) == q else 0, 1)
    if lam is None:
        raise ValueError(f"{dynamics} kernel needs a fugacity")
    p_add, p_rem, p_slide = move_probabilities(dynamics, Fraction(lam), lazy)
    if dynamics == "double_loop":
        # the inner draw marginalized exactly: a removal passes the gate
        # p_rem and the draw, where
        # Pr[e in E] = Haf(G_{V(X)} - {u,v}) / Haf(G_{V(X)})
        memo = {}

        def remove(x, i):
            return (Fraction(hafnian_bits(g, x.covered & ~g.edge_bits[i],
                                          memo),
                             hafnian_bits(g, x.covered, memo)) * p_rem)
    else:
        def remove(x, i):
            return p_rem

    return _local_kernel(g, enumerate_matchings(g), p_add, remove, p_slide)


def _local_kernel(g: Graph, states, p_add, p_rem, p_slide) -> dict:
    """Kernel of a pick-an-edge chain on ``states`` (Matchings).

    A step picks edge i uniformly.  If it joins two free vertices it is
    added with probability ``p_add``; if it is in X it is removed with
    probability ``p_rem(x, i)``; if exactly one end is blocked, by edge j,
    it slides in for j with probability ``p_slide``.  Anything else
    holds.
    """
    per_edge = Fraction(1, g.m or 1)  # with no edge every row holds
    eindex = g.edge_index
    kernel = {}
    for x in states:
        partner = x.partner
        row = Counter()
        for i, (u, v) in enumerate(g.edges):
            pu, pv = partner[u], partner[v]
            if pu == -1 and pv == -1:
                p, flip = p_add, {i}
            elif pu == v:
                p, flip = p_rem(x, i), {i}
            elif pu == -1 or pv == -1:
                a, z = (v, pv) if pu == -1 else (u, pu)
                j = eindex[(a, z) if a < z else (z, a)]
                p, flip = p_slide, {i, j}
            else:
                continue
            if p:
                row[_matching_key(g, x.idxs ^ flip)] += per_edge * p
        key = _matching_key(g, x.idxs)
        row[key] += 1 - sum(row.values())
        kernel[key] = dict(row)
    return kernel


def _pm_states(g: Graph):
    if g.n % 2:
        raise ValueError("perfect-matching chain needs an even vertex count")
    q = g.n // 2
    states = [x for x in enumerate_matchings(g)
              if len(x.idxs) in (q, q - 1)]
    if not any(len(x.idxs) == q for x in states):
        raise ValueError("graph has no perfect matching")
    return states, q


def pm_stationary(g: Graph) -> dict:
    """Stationary law ``{matching: mass}`` of the perfect-matching chain:
    uniform over perfect plus near-perfect matchings."""
    states, _ = _pm_states(g)
    return _normalize({_matching_key(g, x.idxs): 1 for x in states})


def check_detailed_balance(kernel: dict, law: dict):
    """Max over ordered state pairs of ``|pi(x) P(x,y) - pi(y) P(y,x)|``,
    for a kernel from :func:`transition_kernel` and a law ``{state: mass}``.
    With exact laws and kernels the result is an exact Fraction — a true
    zero certifies reversibility.
    """
    worst = 0
    for x, row in kernel.items():
        for y, pxy in row.items():
            if y == x:
                continue
            gap = abs(law.get(x, 0) * pxy
                      - law.get(y, 0) * kernel[y].get(x, 0))
            if gap > worst:
                worst = gap
    return worst


# ---------------------------------------------------------------------------
# Exact mixing profiles
# ---------------------------------------------------------------------------

def mixing_profile(kernel: dict, start, law: dict, checkpoints) -> dict:
    """Exact TV to ``law`` after t steps from ``start``, at each checkpoint:
    ``{t: tv_distance(P^t(start, .), law)}``.

    ``kernel`` is any one-step kernel in :func:`transition_kernel`'s format
    and ``start`` one of its states; row ``start`` is pushed forward one
    step at a time, with no sampling.  Exact Fractions stay exact; a
    kernel of floats gives floats.  The mixing time t_mix(eps) from
    ``start`` is the first t whose TV is at most eps (Levin, Peres and
    Wilmer, *Markov Chains and Mixing Times*).
    """
    row = {start: 1}
    t = 0
    profile = {}
    for stop in sorted(set(checkpoints)):
        while t < stop:
            pushed = Counter()
            for x, p in row.items():
                for y, pxy in kernel[x].items():
                    pushed[y] += p * pxy
            row = pushed
            t += 1
        profile[stop] = tv_distance(row, law)
    return profile


# ---------------------------------------------------------------------------
# Hard-instance escape experiment
# ---------------------------------------------------------------------------

def exit_probability(n_squares: int, lam) -> Fraction:
    """Per-step probability that the double-loop chain started at the
    isolated perfect matching of ``hard_instance(n_squares)`` removes one of
    its edges: (1/3) * 1/(1+2^n) * 1/(1+lambda^2)."""
    lamF = Fraction(lam)
    return (Fraction(1, 3) * Fraction(1, 1 + 2 ** n_squares)
            / (1 + lamF * lamF))


@dataclass
class ExitTimeResult:
    n_squares: int
    fugacity: object
    times: tuple
    mean: float
    stderr: float
    ci95: tuple
    expected_mean: float
    per_step_probability: Fraction

    def summary(self) -> str:
        lo, hi = self.ci95
        return (f"hard_instance({self.n_squares}) lambda={self.fugacity}: "
                f"mean first exit {self.mean:.2f} "
                f"(95% CI {lo:.2f}..{hi:.2f}, {len(self.times)} trials, "
                f"geometric prediction {self.expected_mean:.2f})")


# Most steps a trial of the exit-time experiment may be capped at.
EXIT_STEP_LIMIT = 10 ** 9


def exit_time_experiment(n_squares: int, lam, trials: int, seed=0,
                         max_steps=None) -> ExitTimeResult:
    """First-exit times from the isolated perfect matching.

    Each trial starts the double-loop chain exactly at the inter-square
    matching and counts steps until any of its edges is removed.  The inner
    draw is exact (enumeration marginal), matching the assumption behind the
    geometric escape law; each step then exits independently with
    probability :func:`exit_probability`, so the observed times should be
    Geometric(phi) with mean 1/phi.  ``trials`` must be at least 1.

    A trial that has not exited by ``max_steps`` (default the larger of
    10,000 and 200/phi) raises RuntimeError.  A square count or fugacity
    whose 200/phi passes ``EXIT_STEP_LIMIT`` raises ValueError: its trials
    could run for days.
    """
    if trials < 1:
        raise ValueError(f"exit-time experiment needs at least one trial, "
                         f"got {trials}")
    phi = exit_probability(n_squares, lam)
    if 200 > phi * EXIT_STEP_LIMIT:  # exact: 1/phi may pass every float
        raise ValueError(
            f"hard_instance({n_squares}) at lambda={lam}: the step cap "
            f"200/phi, phi the exit probability a step, passes the limit "
            f"of {EXIT_STEP_LIMIT:,} steps")
    g = hard_instance(n_squares)
    core = hard_instance_core_matching(g)
    expected = 1.0 / float(phi)
    if max_steps is None:
        max_steps = max(10_000, int(expected * 200))
    cfg = DoubleLoopConfig(chain=ChainConfig(fugacity=lam), inner="exact")
    haf_memo = {}
    times = []
    for trial in range(trials):
        rng = child_rng(seed, f"exit{trial}")
        x = Matching(g, core.idxs)
        start_size = len(x.idxs)
        for t in range(1, max_steps + 1):
            _drive_double(g, x, lam, cfg, 1, rng, haf_memo=haf_memo)
            if len(x.idxs) != start_size:
                times.append(t)
                break
        else:
            raise RuntimeError(
                f"trial {trial} did not exit within {max_steps} steps")
    mean = sum(times) / len(times)
    var = sum((t - mean) ** 2 for t in times) / max(1, len(times) - 1)
    stderr = math.sqrt(var / len(times))
    ci = (mean - 1.96 * stderr, mean + 1.96 * stderr)
    return ExitTimeResult(n_squares=n_squares, fugacity=lam,
                          times=tuple(times), mean=mean, stderr=stderr,
                          ci95=ci, expected_mean=expected,
                          per_step_probability=phi)


# ---------------------------------------------------------------------------
# Geometric goodness of fit
# ---------------------------------------------------------------------------

# 99th-percentile chi-square quantiles, 1..30 degrees of freedom.
_CHI2_99 = (6.635, 9.210, 11.345, 13.277, 15.086, 16.812, 18.475, 20.090,
            21.666, 23.209, 24.725, 26.217, 27.688, 29.141, 30.578, 32.000,
            33.409, 34.805, 36.191, 37.566, 38.932, 40.289, 41.638, 42.980,
            44.314, 45.642, 46.963, 48.278, 49.588, 50.892)


@dataclass
class GeometricFit:
    statistic: float
    dof: int
    critical_1pct: float
    passed: bool
    bins: tuple


def geometric_fit(samples, p, max_bins: int = 10) -> GeometricFit:
    """Pearson chi-square test of ``samples`` against Geometric(p) on
    support 1, 2, ...; bins chosen at geometric quantiles so each expects
    at least ~5 observations.  ``passed`` is judged at the 1% level."""
    n = len(samples)
    if n < 20:
        raise ValueError("need at least 20 samples for a stable fit")
    p = float(p)
    n_bins = max(2, min(max_bins, n // 20))
    # bin boundaries at equal-probability quantiles of the geometric law
    edges = []
    for k in range(1, n_bins):
        tail = 1.0 - k / n_bins
        t = math.ceil(math.log(tail) / math.log(1.0 - p))
        edges.append(max(1, t))
    edges = sorted(set(edges))
    bounds = edges + [None]  # final bin is the open tail
    observed = [0] * len(bounds)
    for s in samples:
        for b, hi in enumerate(bounds):
            if hi is None or s <= hi:
                observed[b] += 1
                break
    expected = []
    prev_cdf = 0.0
    for hi in bounds:
        cdf = 1.0 if hi is None else 1.0 - (1.0 - p) ** hi
        expected.append(n * (cdf - prev_cdf))
        prev_cdf = cdf
    stat = sum((o - e) ** 2 / e for o, e in zip(observed, expected) if e > 0)
    dof = len(bounds) - 1
    crit = _CHI2_99[min(dof, len(_CHI2_99)) - 1]
    return GeometricFit(statistic=stat, dof=dof, critical_1pct=crit,
                        passed=stat < crit, bins=tuple(zip(observed, expected)))
