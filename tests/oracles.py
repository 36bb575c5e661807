"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive — recursive pairing sums, brute-force
subset scans — and shares no code with ``gbsmc`` beyond plain edge lists.
Keep it that way: these functions are the ground truth the tests trust.
"""

from fractions import Fraction
from itertools import combinations


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def factorial(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


def naive_hafnian(n: int, edges):
    """Count of the perfect pairings of {0..n-1} that use only edges.

    ``edges`` is an iterable of (u, v) pairs.  Exponential-time
    recursion — fine for n <= 12.
    """
    adj = set()
    for u, v in edges:
        adj |= {(u, v), (v, u)}
    verts = list(range(n))

    def rec(remaining):
        if not remaining:
            return 1
        first = remaining[0]
        total = 0
        for j in range(1, len(remaining)):
            mate = remaining[j]
            if (first, mate) in adj:
                rest = remaining[1:j] + remaining[j + 1:]
                total += rec(rest)
        return total

    if n % 2:
        return 0
    return rec(verts)


def naive_hafnian_subset(n, edges, subset):
    """Hafnian of the subgraph induced by ``subset`` (vertex labels)."""
    keep = set(subset)
    relabel = {v: i for i, v in enumerate(sorted(keep))}
    return naive_hafnian(len(keep), [(relabel[u], relabel[v])
                                     for u, v in edges
                                     if u in keep and v in keep])


def all_matchings(edges, max_size=None):
    """Every matching (as a frozenset of vertex pairs), empty set included."""
    m = len(edges)
    cap = m if max_size is None else max_size
    found = [frozenset()]
    for size in range(1, cap + 1):
        hit = False
        for combo in combinations(range(m), size):
            seen = set()
            ok = True
            for i in combo:
                u, v = edges[i]
                if u in seen or v in seen:
                    ok = False
                    break
                seen.add(u)
                seen.add(v)
            if ok:
                found.append(frozenset(tuple(sorted(edges[i]))
                                       for i in combo))
                hit = True
        if not hit:
            break
    return found


def perfect_matchings(n, edges):
    return [m for m in all_matchings(edges) if 2 * len(m) == n]


def naive_tv(p: dict, q: dict):
    keys = set(p) | set(q)
    return sum(abs(p.get(k, 0) - q.get(k, 0)) for k in keys) / 2


def matching_law(edges, lam):
    """Exact single-loop stationary law, keys = sorted pair tuples."""
    lamF = Fraction(lam)
    weights = {}
    for match in all_matchings(edges):
        key = tuple(sorted(match))
        weights[key] = lamF ** len(match)
    total = sum(weights.values())
    return {k: w / total for k, w in weights.items()}


# 99th-percentile chi-square critical values, dof 1..10 (standard table).
CHI2_CRIT_1PCT = {
    1: 6.635, 2: 9.210, 3: 11.345, 4: 13.277, 5: 15.086,
    6: 16.812, 7: 18.475, 8: 20.090, 9: 21.666, 10: 23.209,
}
