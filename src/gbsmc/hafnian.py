"""Exact hafnian, perfect-matching enumeration, and subgraph density.

The hafnian of (the adjacency matrix of) an unweighted graph equals its
number of perfect matchings; with edge weights it is the sum over perfect
matchings of the product of edge weights.  Everything here is computed by
recursive branch-and-sum: repeatedly pair the lowest-indexed uncovered
vertex with each of its uncovered neighbors.  That exploits sparsity, yields
exact integers (Python ints never overflow) or exact Fractions, and doubles
as the enumerator; the hafnian memoises every sub-set it sums.

Which vertex is "lowest" is an elimination order, and host labels are
arbitrary.  A sub-set the recursion reaches has lost the first i vertices
of the order and some of their partners, which all lie on the *frontier*:
the vertices not yet ordered that neighbour an ordered one.  So there are
at most 2^|frontier| sub-sets per i.  A one-shot unweighted hafnian of
``RELABEL_MIN`` or more vertices therefore first relabels the set 0..k-1
in a static order that keeps the frontier small (:func:`_frontier_adj`),
then runs the same recursion on adjacency ints of k bits instead of n.
Memos kept by a caller, weighted graphs (whose float sums would change in
the last bits) and the enumerator stay in host order.

Fine up to ~32-vertex subgraphs, which covers every hafnian evaluation in
the benchmark experiments.
"""

from __future__ import annotations

from math import comb

from .graphs import (Graph, Matching, EnumerationCapError, bits_to_tuple,
                     bitset)


def _as_bits(g: Graph, s) -> int:
    if s is None:
        return g.full_bits
    return s if isinstance(s, int) else bitset(s)


# A memo that a caller keeps across calls is cleared on entry once it holds
# more than this many sub-results, so no caller's memo grows without limit.
MEMO_LIMIT = 1 << 18


def _haf(adj, wmap, bits, memo):
    # Not a nested closure: one that calls itself is a reference cycle and
    # keeps its memo alive until the cyclic garbage collector runs.
    if not bits:
        return 1
    got = memo.get(bits)
    if got is not None:
        return got
    low = bits & -bits
    v = low.bit_length() - 1
    rest = bits ^ low
    nb = adj[v] & rest
    total = 0
    if wmap is None:
        while nb:
            ub = nb & -nb
            total += _haf(adj, wmap, rest ^ ub, memo)
            nb ^= ub
    else:
        while nb:
            ub = nb & -nb
            u = ub.bit_length() - 1
            w = wmap[(v, u) if v < u else (u, v)]
            total += w * _haf(adj, wmap, rest ^ ub, memo)
            nb ^= ub
    memo[bits] = total
    return total


# One-shot unweighted hafnians of at least this many vertices are
# relabelled.  Measured on ER(256, 0.4) subsets: relabelling costs more than
# it saves at 10 vertices and less at 12.
RELABEL_MIN = 12


def _frontier_adj(adj, bits):
    """Adjacency of the subgraph induced by ``bits``, relabelled 0..k-1 in
    a static elimination order: vertex i is the one that leaves the fewest
    vertices on the frontier once it is ordered, ties going to the lowest
    host label.  The first is therefore a vertex of minimum degree."""
    left = list(bits_to_tuple(bits))
    order = []
    rest = bits      # not yet ordered
    front = 0        # not yet ordered, with an ordered neighbour
    while left:
        v = min(left, key=lambda u: (
            (front | adj[u]) & (rest ^ 1 << u)).bit_count())
        left.remove(v)
        order.append(v)
        rest ^= 1 << v
        front = (front | adj[v]) & rest
    local = {v: 1 << i for i, v in enumerate(order)}
    return [sum(local[u] for u in bits_to_tuple(adj[v] & bits))
            for v in order]


def hafnian_bits(g: Graph, uncovered: int, memo=None):
    """Hafnian of the subgraph of ``g`` induced by the ``uncovered`` bitset.

    With a ``memo`` kept by the caller for repeated evaluations on one graph,
    sub-results are memoised in it keyed by host-label bitset, so calls share
    them.  Without one, the call memoises in a dict of its own; a set of
    ``RELABEL_MIN`` or more vertices of an unweighted graph is first
    relabelled in a frontier-minimising order (module docstring), which
    changes the work but not the exact integer result.
    """
    size = uncovered.bit_count()
    if size & 1:
        return 0
    if memo is None:
        if size >= RELABEL_MIN and not g.weighted:
            return _haf(_frontier_adj(g.adj, uncovered), None,
                        (1 << size) - 1, {})
        memo = {}
    elif len(memo) > MEMO_LIMIT:
        memo.clear()
    return _haf(g.adj, g.weight_map() if g.weighted else None, uncovered,
                memo)


def memo_bound(g: Graph, uncovered: int) -> int:
    """Most sub-sets that :func:`hafnian_bits` with a caller's memo can
    store while it sums the ``uncovered`` bitset: a bound on the call's
    memory and work, found without running it.

    Host order.  A set the recursion reaches with lowest vertex v (the
    i-th of the set) has lost all i earlier vertices and r later ones.
    Those were partners of earlier vertices, so they lie on v's frontier
    of f later vertices adjacent to earlier ones; and r <= i, r = i mod 2.
    Exact on complete graphs.
    """
    adj = g.adj
    total = 0
    front = 0
    rest = uncovered
    i = 0
    while rest:
        low = rest & -rest
        rest ^= low
        front &= rest
        f = front.bit_count()
        total += sum(comb(f, r) for r in range(i & 1, min(i, f) + 1, 2))
        front |= adj[low.bit_length() - 1]
        i += 1
    return total


def hafnian(g: Graph, s=None):
    """Hafnian of the subgraph induced by vertex set ``s`` (default: all).

    Returns an exact int for unweighted graphs; for weighted graphs the
    result type follows the weight types (int/Fraction stay exact, floats
    give floats).  Odd-size sets give 0, the empty set gives 1.
    """
    return hafnian_bits(g, _as_bits(g, s))


def perfect_matchings_bits(g: Graph, uncovered: int, cap: int = 2_000_000):
    """All perfect matchings of the induced subgraph, as lists of edge
    indices of the *host* graph.  Always in host order (the recursion that
    :func:`hafnian_bits` runs with a caller's memo), so the output order
    does not depend on the set's size."""
    if uncovered.bit_count() & 1:
        return []
    adj = g.adj
    eindex = g.edge_index
    out = []
    stack = []

    def rec(bits):
        if not bits:
            if len(out) >= cap:
                raise EnumerationCapError(f"more than {cap} perfect matchings")
            out.append(list(stack))
            return
        low = bits & -bits
        v = low.bit_length() - 1
        rest = bits ^ low
        nb = adj[v] & rest
        while nb:
            ub = nb & -nb
            u = ub.bit_length() - 1
            stack.append(eindex[(v, u) if v < u else (u, v)])
            rec(rest ^ ub)
            stack.pop()
            nb ^= ub

    rec(uncovered)
    return out


def enumerate_perfect_matchings(g: Graph, cap: int = 2_000_000):
    """Exact list of the perfect matchings of ``g``.

    On unweighted graphs ``len(result) == hafnian(g)``.
    """
    return [Matching(g, idxs)
            for idxs in perfect_matchings_bits(g, g.full_bits, cap=cap)]


def count_induced_edges(g: Graph, s) -> int:
    bits = _as_bits(g, s) & g.full_bits
    adj = g.adj
    return sum((adj[v] & bits).bit_count() for v in bits_to_tuple(bits)) // 2


def density(g: Graph, s) -> float:
    """Edges of the induced subgraph divided by its vertex count."""
    bits = _as_bits(g, s)
    size = bits.bit_count()
    if size == 0:
        raise ValueError("density of the empty vertex set is undefined")
    return count_induced_edges(g, bits) / size


def matching_weight(g: Graph, idxs):
    """Product of edge weights over a matching (1 for the empty matching)."""
    if not g.weighted:
        return 1
    w = 1
    for i in idxs:
        w = w * g.weights[i]
    return w
