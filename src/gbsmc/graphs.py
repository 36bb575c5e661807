"""Graph containers, matchings, and benchmark graph generators.

Vertices are dense integers ``0..n-1``.  Vertex sets are plain Python ints
used as bitsets (bit ``v`` set means vertex ``v`` is a member), which keeps
set algebra cheap for graphs up to a few thousand vertices.  Edges are
canonical ``(u, v)`` tuples with ``u < v``; a :class:`Graph` stores them in
sorted order so that identical constructions are byte-identical on disk.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations


class GraphError(ValueError):
    """Invalid graph construction or generator parameters."""


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed its configured cap."""


def bitset(vertices) -> int:
    """Pack an iterable of vertex indices into an int bitset."""
    bits = 0
    for v in vertices:
        bits |= 1 << v
    return bits


def bits_to_tuple(bits: int) -> tuple:
    """Unpack a bitset into a sorted tuple of vertex indices."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return tuple(out)


class Graph:
    """Immutable undirected, unweighted graph.

    Attributes:
        n: vertex count.
        edges: sorted tuple of canonical ``(u, v)`` pairs, ``u < v``.
        adj: per-vertex neighbor bitsets.
        nbrs: per-vertex sorted tuples of neighbors, the same sets as ``adj``
            (for uniform neighbor draws and degrees).
        max_degree: the largest degree, 0 for an edgeless graph.
        edge_bits: per-edge endpoint bitsets ``(1<<u) | (1<<v)``.
        edge_index: dict mapping each canonical pair to its index in ``edges``.
    """

    __slots__ = ("n", "edges", "adj", "nbrs", "max_degree", "edge_bits",
                 "edge_index", "m", "full_bits")

    def __init__(self, n, edges):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        canon = []
        for e in edges:
            u, v = e
            if u == v:
                raise GraphError(f"self-loop on vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e} has an endpoint outside 0..{n - 1}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        if any(canon[i] == canon[i + 1] for i in range(len(canon) - 1)):
            raise GraphError("duplicate edge in edge list")

        self.n = n
        self.edges = tuple(canon)
        self.m = len(canon)
        nbrs = [[] for _ in range(n)]
        for u, v in canon:
            nbrs[u].append(v)  # sorted edges: each list comes out ascending
            nbrs[v].append(u)
        self.nbrs = tuple(map(tuple, nbrs))
        self.max_degree = max(map(len, nbrs), default=0)
        self.adj = tuple(map(bitset, nbrs))
        self.edge_bits = tuple((1 << u) | (1 << v) for u, v in canon)
        self.edge_index = dict(zip(canon, range(self.m)))
        self.full_bits = (1 << n) - 1

    def __eq__(self, other):
        return (isinstance(other, Graph) and self.n == other.n
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class Matching:
    """A set of pairwise vertex-disjoint edges of a host graph.

    The state of every chain in this package.  Stored as a set of edge
    *indices* into ``g.edges`` plus two derived views that the chains keep
    incrementally up to date: ``covered`` (bitset of matched vertices) and
    ``partner`` (list mapping each matched vertex to its partner, -1 when
    unmatched).  Mutating methods keep all three in sync.  Inside a chain
    window X is its partner table, and code running mid-window reads X
    only through it or the vertex bitset the window hands it;
    ``covered`` and ``idxs`` hold the window's start state until the
    window writes them when it returns.
    """

    __slots__ = ("g", "idxs", "covered", "partner")

    def __init__(self, g: Graph, edge_idxs=()):
        self.g = g
        self.idxs = set()
        self.covered = 0
        self.partner = [-1] * g.n
        for i in edge_idxs:
            self.add(i)

    @classmethod
    def from_pairs(cls, g: Graph, pairs):
        """Build from ``(u, v)`` pairs, which must be edges of ``g``."""
        idx = g.edge_index
        try:
            return cls(g, (idx[(u, v) if u < v else (v, u)] for u, v in pairs))
        except KeyError as exc:
            raise GraphError(f"{exc.args[0]} is not an edge of the graph") from None

    def add(self, i: int):
        u, v = self.g.edges[i]
        if self.covered & self.g.edge_bits[i]:
            raise GraphError(f"edge {(u, v)} collides with the current matching")
        self.idxs.add(i)
        self.covered |= self.g.edge_bits[i]
        self.partner[u] = v
        self.partner[v] = u

    def remove(self, i: int):
        self.idxs.remove(i)
        u, v = self.g.edges[i]
        self.covered &= ~self.g.edge_bits[i]
        self.partner[u] = -1
        self.partner[v] = -1

    def __contains__(self, i: int) -> bool:
        return i in self.idxs

    def __len__(self):
        return len(self.idxs)

    def pairs(self) -> tuple:
        """Canonical sorted tuple of ``(u, v)`` pairs."""
        return tuple(sorted(self.g.edges[i] for i in self.idxs))

    def validate(self):
        """Re-derive the cached views and assert coherence (test helper)."""
        covered = 0
        for i in self.idxs:
            b = self.g.edge_bits[i]
            if covered & b:
                raise GraphError("matching edges are not vertex-disjoint")
            covered |= b
            u, v = self.g.edges[i]
            if self.partner[u] != v:
                raise GraphError("partner array out of sync")
        if covered != self.covered:
            raise GraphError("covered bitset out of sync")
        if covered.bit_count() != 2 * len(self.idxs):
            raise GraphError("covered popcount != 2|matching|")
        for v in range(self.g.n):
            p = self.partner[v]
            if (p == -1) != (not covered >> v & 1) or (p != -1 and self.partner[p] != v):
                raise GraphError("partner array out of sync")

    def __repr__(self):
        return f"Matching({list(self.pairs())})"


def enumerate_matchings(g: Graph, max_size=None, cap: int = 2_000_000):
    """All matchings of ``g`` (including the empty one), as Matching objects.

    ``max_size`` bounds the number of edges per matching.  Enumeration stops
    with :class:`EnumerationCapError` once more than ``cap`` matchings have
    been produced — call sites that genuinely need huge enumerations must
    raise the cap explicitly.
    """
    out = []
    ebits = g.edge_bits
    m = g.m
    limit = g.m if max_size is None else max_size
    stack = []

    def walk(start, covered):
        if len(out) > cap:
            raise EnumerationCapError(f"more than {cap} matchings")
        out.append(Matching(g, stack))
        if len(stack) == limit:
            return
        for i in range(start, m):
            if not covered & ebits[i]:
                stack.append(i)
                walk(i + 1, covered | ebits[i])
                stack.pop()

    walk(0, 0)
    return out


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphSpec:
    """A generator request: ``kind`` plus keyword parameters.

    Together with a seed this pins down a graph exactly —
    ``gen_graph(spec, seed)`` is deterministic.
    """
    kind: str
    params: tuple = ()

    @classmethod
    def of(cls, kind, **params):
        return cls(kind, tuple(sorted(params.items())))

    def as_dict(self):
        return dict(self.params)


def complete(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} with left side ``0..m-1`` and right side ``m..m+n-1``."""
    return Graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise GraphError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def erdos_renyi(n: int, p: float, seed) -> Graph:
    """G(n, p): each pair independently an edge with probability p."""
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def planted_clique(n: int, clique_size: int, p: float, seed) -> Graph:
    """Background G(n, p) with a complete graph forced on vertices
    ``0..clique_size-1``.

    Placing the clique on the lowest labels is a convention of this package;
    tests rely on it to name the planted set.
    """
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    if clique_size > n:
        raise GraphError("clique larger than the graph")
    rng = random.Random(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if j < clique_size or rng.random() < p:
                edges.append((i, j))
    return Graph(n, edges)


def decreasing_degree(n: int) -> Graph:
    """Deterministic graph whose degrees decrease with the vertex label:
    the pair ``(i, j)`` with ``i < j`` is an edge iff ``j <= n - 1 - i``.

    Vertex 0 is adjacent to everything; vertex ``n-1`` only to vertex 0.
    Any prefix ``0..k-1`` with ``k <= n/2`` induces a complete subgraph.
    """
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if j <= n - 1 - i]
    return Graph(n, edges)


def random_bipartite(n_per_side: int, p: float, seed) -> Graph:
    """Bipartite G(n, n, p): left ``0..n-1``, right ``n..2n-1``."""
    if not 0 <= p <= 1:
        raise GraphError(f"edge probability {p} outside [0, 1]")
    rng = random.Random(seed)
    n = n_per_side
    edges = [(i, n + j) for i in range(n) for j in range(n)
             if rng.random() < p]
    return Graph(2 * n, edges)


def sparse_bipartite(n_per_side: int, n_edges: int, seed) -> Graph:
    """Bipartite graph on n+n vertices with exactly ``n_edges`` distinct
    edges drawn uniformly without replacement from the n*n cross pairs."""
    n = n_per_side
    if n_edges > n * n:
        raise GraphError(f"{n_edges} edges requested but only {n * n} cross pairs exist")
    rng = random.Random(seed)
    picks = rng.sample(range(n * n), n_edges)
    edges = [(k // n, n + k % n) for k in picks]
    return Graph(2 * n, edges)


def hard_instance(n_squares: int) -> Graph:
    """A cycle of ``n`` squares: a graph whose unique inter-square perfect
    matching is exponentially isolated under the double-loop dynamics.

    Square ``s`` occupies vertices ``4s..4s+3`` (corners 1..4 clockwise) and
    carries its 4 side edges plus the diagonal (corner1, corner3).  Squares
    are chained into a cycle by connector edges (corner2 of square ``s``,
    corner4 of square ``s-1``).  Total: ``4n`` vertices and ``6n`` edges.
    """
    if n_squares < 1:
        raise GraphError("need at least one square")
    edges = []
    for s in range(n_squares):
        c1, c2, c3, c4 = 4 * s, 4 * s + 1, 4 * s + 2, 4 * s + 3
        edges += [(c1, c2), (c2, c3), (c3, c4), (c4, c1), (c1, c3)]
        prev4 = 4 * ((s - 1) % n_squares) + 3
        edges.append((c2, prev4))
    return Graph(4 * n_squares, edges)


def hard_instance_core_matching(g: Graph) -> Matching:
    """The unique perfect matching of :func:`hard_instance` that uses only
    diagonal and connector edges (the isolated mode the chain starts in)."""
    n_squares = g.n // 4
    pairs = []
    for s in range(n_squares):
        pairs.append((4 * s, 4 * s + 2))                        # diagonal
        pairs.append((4 * s + 1, 4 * ((s - 1) % n_squares) + 3))  # connector
    return Matching.from_pairs(g, pairs)


_GENERATORS = {
    "complete": complete,
    "complete_bipartite": complete_bipartite,
    "path": path_graph,
    "cycle": cycle_graph,
    "erdos_renyi": erdos_renyi,
    "planted_clique": planted_clique,
    "decreasing_degree": decreasing_degree,
    "random_bipartite": random_bipartite,
    "sparse_bipartite": sparse_bipartite,
    "hard_instance": hard_instance,
}

SEEDED_KINDS = frozenset({"erdos_renyi", "planted_clique", "random_bipartite",
                          "sparse_bipartite"})


def gen_graph(spec: GraphSpec, seed=0) -> Graph:
    """Generate a benchmark graph; deterministic given (spec, seed)."""
    try:
        fn = _GENERATORS[spec.kind]
    except KeyError:
        raise GraphError(f"unknown generator kind {spec.kind!r}") from None
    kwargs = spec.as_dict()
    if spec.kind in SEEDED_KINDS:
        kwargs["seed"] = seed
    try:
        return fn(**kwargs)
    except TypeError as exc:
        raise GraphError(f"bad parameters for {spec.kind!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
#
# First data line: "n_vertices n_edges".  Then one edge per line, "u v", in
# canonical sorted order.  '#' starts a comment.  Saving the same graph twice
# is byte-stable.  gbsmc reads unweighted graphs only, so a "weighted" header
# or a third column on an edge line is refused.

_UNWEIGHTED_ONLY = "gbsmc reads unweighted edge lists"


def to_edge_list_text(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> Graph:
    data = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in data if ln and not ln.startswith("#")]
    if not data:
        raise GraphError("empty edge-list file")
    header = data[0].split()
    if header[2:] == ["weighted"]:
        raise GraphError(f"weighted header {data[0]!r}: {_UNWEIGHTED_ONLY}")
    if len(header) != 2:
        raise GraphError(f"bad header line {data[0]!r}")
    n, m = int(header[0]), int(header[1])
    if len(data) - 1 != m:
        raise GraphError(f"header promises {m} edges, file has {len(data) - 1}")
    edges = []
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) == 3:
            raise GraphError(f"edge line {ln!r} has a weight: "
                             f"{_UNWEIGHTED_ONLY}")
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return Graph(n, edges)


def load_edge_list(path) -> Graph:
    with open(path) as fh:
        return from_edge_list_text(fh.read())
