"""Reference computations the benchmark checks gbsmc's outputs against.

Nothing here imports gbsmc.  Vertex sets are int bitsets, as in the
program, but every quantity is computed by a route of the benchmark's own:

* the hafnian pairs the *highest* vertex of a relabelled subgraph first
  (the program pairs the lowest vertex of the host graph);
* the induced-edge count tests every vertex pair of the subset against an
  edge set (the program scans all edges of the host graph);
* the K6 vertex-set laws are closed forms built from
  Haf(K_2j) = (2j-1)!!, with exact fractions.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def members(bits: int) -> list:
    """Sorted vertex labels of a bitset."""
    out = []
    v = 0
    while bits:
        if bits & 1:
            out.append(v)
        bits >>= 1
        v += 1
    return out


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def hafnian(vertices, edge_set) -> int:
    """Number of perfect matchings of the subgraph induced by ``vertices``.

    ``edge_set`` holds canonical pairs ``(u, v)`` with ``u < v``.
    """
    vs = sorted(vertices)
    n = len(vs)
    if n % 2:
        return 0
    nbr = [0] * n
    for i, j in combinations(range(n), 2):
        if (vs[i], vs[j]) in edge_set:
            nbr[i] |= 1 << j
            nbr[j] |= 1 << i
    memo = {0: 1}

    def rec(mask):
        got = memo.get(mask)
        if got is not None:
            return got
        top = mask.bit_length() - 1
        rest = mask ^ (1 << top)
        cand = nbr[top] & rest
        total = 0
        while cand:
            low = cand & -cand
            total += rec(rest ^ low)
            cand ^= low
        memo[mask] = total
        return total

    return rec((1 << n) - 1)


def induced_edges(vertices, edge_set) -> int:
    """Edges of the host graph with both endpoints in ``vertices``."""
    return sum(1 for pair in combinations(sorted(vertices), 2)
               if pair in edge_set)


def score(objective: str, bits: int, edge_set):
    """The solver objective recomputed: hafnian, or induced edges over the
    vertex count (the same int-over-int division the program makes)."""
    vs = members(bits)
    if objective == "hafnian":
        return hafnian(vs, edge_set)
    return induced_edges(vs, edge_set) / len(vs)


def k6_law(c, kind: str) -> dict:
    """Exact vertex-set law of a chain on K6, keyed by bitset.

    ``kind="single"``: Pr[S] ~ c^|S| Haf(S), the glauber and jerrum law at
    fugacity c^2.  ``kind="double"``: Pr[S] ~ c^(2|S|) Haf(S)^2, the
    double-loop law.  On K6 every even subset S has Haf(S) = (|S|-1)!!.
    """
    c = Fraction(c)
    weights = {}
    for bits in range(1 << 6):
        size = bits.bit_count()
        if size % 2:
            continue
        haf = double_factorial(size - 1)
        if kind == "single":
            weights[bits] = c ** size * haf
        elif kind == "double":
            weights[bits] = c ** (2 * size) * haf * haf
        else:
            raise ValueError(f"unknown law kind {kind!r}")
    total = sum(weights.values())
    return {bits: w / total for bits, w in weights.items()}


def tv(counts: dict, law: dict) -> float:
    """Total-variation distance between an empirical histogram and a law."""
    n = sum(counts.values())
    keys = set(counts) | set(law)
    return 0.5 * sum(abs(counts.get(s, 0) / n - float(law.get(s, 0)))
                     for s in keys)


def tv_bound(n_samples: int, n_states: int) -> float:
    """TV budget for ``n_samples`` thinned samples over ``n_states`` states.

    For independent samples the expected TV is at most
    sqrt(n_states / (2 pi n_samples)); twice sqrt(n_states / n_samples) is
    five times that, which leaves room for the correlation between
    thinned chain samples.
    """
    return 2.0 * math.sqrt(n_states / n_samples)


def law_problems(counts: dict, law: dict, wrong_laws=()) -> list:
    """Why ``counts`` does not pass as a sample of ``law`` (empty if it does).

    The bound must also separate ``law`` from every law in ``wrong_laws``:
    if it were at least half their distance, a sample of the wrong law
    could meet it.
    """
    n = sum(counts.values())
    bound = tv_bound(n, len(law))
    problems = []
    for wrong in wrong_laws:
        gap = tv(wrong, law)
        if bound >= gap / 2:
            problems.append(f"TV bound {bound:.4f} does not separate a law "
                            f"{gap:.4f} away")
    dist = tv(counts, law)
    if dist > bound:
        problems.append(f"TV {dist:.4f} above {bound:.4f} at {n} samples")
    return problems


def trial_problems(record, *, k: int, iterations: int, rescore) -> list:
    """Why a solver trial's record is wrong (empty if it is right).

    ``rescore(bits)`` is the benchmark's own objective.
    """
    problems = []
    traj = list(record.score_trajectory)
    if record.evaluations != iterations:
        problems.append(f"{record.evaluations} evaluations, not {iterations}")
    if len(traj) != iterations:
        problems.append(f"trajectory of {len(traj)}, not {iterations}")
    if any(a > b for a, b in zip(traj, traj[1:])):
        problems.append("running best decreases")
    if traj and traj[-1] != record.best_score:
        problems.append(f"trajectory ends at {traj[-1]}, "
                        f"best is {record.best_score}")
    if record.best_set is None:
        if record.best_score != 0:
            problems.append(f"no best set but best score {record.best_score}")
        return problems
    if record.best_set.bit_count() != k:
        problems.append(f"best set has {record.best_set.bit_count()} "
                        f"vertices, not {k}")
    expect = rescore(record.best_set)
    if expect != record.best_score:
        problems.append(f"best score {record.best_score}, recomputed {expect}")
    return problems
