import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from gbsmc.graphs import Graph, GraphSpec, gen_graph

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("suite", max_examples=60, deadline=None)
settings.load_profile("suite")


@pytest.fixture
def k4():
    return gen_graph(GraphSpec.of("complete", n=4))


@pytest.fixture
def k6():
    return gen_graph(GraphSpec.of("complete", n=6))


@pytest.fixture
def k33():
    return gen_graph(GraphSpec.of("complete_bipartite", m=3, n=3))


@pytest.fixture
def square():
    """The 4-cycle: two perfect matchings and no triangle."""
    return Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def balance_suite():
    """The eight small graphs every exact kernel check runs over."""
    return [
        ("k4", gen_graph(GraphSpec.of("complete", n=4))),
        ("k6", gen_graph(GraphSpec.of("complete", n=6))),
        ("k33", gen_graph(GraphSpec.of("complete_bipartite", m=3, n=3))),
        ("path5", gen_graph(GraphSpec.of("path", n=5))),
        ("cycle6", gen_graph(GraphSpec.of("cycle", n=6))),
        ("er8", gen_graph(GraphSpec.of("erdos_renyi", n=8, p=0.6), seed=5)),
        ("square", Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])),
        ("hard2", gen_graph(GraphSpec.of("hard_instance", n_squares=2))),
    ]


def check_kernel_powers(g, kernel, advance, starts, label, runs=10_000):
    """The law of X_T from each start, for T in 1, 2, 5, against row
    ``start`` of P^T.

    ``advance(x, steps, rng)`` runs the shipped driver for ``steps`` steps
    on the Matching ``x``; each of the ``runs`` runs gets its own seeded
    RNG.  The empirical law must lie within TV 2 * sqrt(states / runs) of
    the exact row, which also pins the holding times, not only the
    stationary law.
    """
    import math
    import random
    from collections import Counter

    from gbsmc.graphs import Matching
    from oracles import naive_tv

    bound = 2 * math.sqrt(len(kernel) / runs)
    for start in starts:
        row = {tuple(sorted(start)): 1}
        done = 0
        for steps in (1, 2, 5):
            for _ in range(steps - done):
                nxt = Counter()
                for x, p in row.items():
                    for y, q in kernel[x].items():
                        nxt[y] += p * q
                row = nxt
            done = steps
            counts = Counter()
            for r in range(runs):
                x = Matching.from_pairs(g, start)
                advance(x, steps, random.Random(f"{label}/{start}/{steps}/{r}"))
                counts[x.pairs()] += 1
            tv = naive_tv({k: v / runs for k, v in counts.items()},
                          {k: float(v) for k, v in row.items()})
            assert tv <= bound, (label, start, steps, tv, bound)


def spy_plain_steps(monkeypatch):
    """Record the size of every batch of plain-step edge picks that the
    chains' window loop draws from now on (the inner perfect-matching
    chain's picks are not counted)."""
    from gbsmc import glauber

    real = glauber._picks
    batches = []

    def spy(rng, k, n):
        batches.append(n)
        return real(rng, k, n)

    monkeypatch.setattr(glauber, "_picks", spy)
    return batches


class ScriptedRng:
    """An RNG whose coins (``random``) and edge picks (``randbytes``, one
    byte per 32-bit word) come from two streams of their own, so that a
    window cut short at step s makes the same draws up to s as the whole
    window, whichever mode each step runs in."""

    def __init__(self, seed):
        self._coins = random.Random(f"coins/{seed}")
        self._bytes = random.Random(f"bytes/{seed}")

    def random(self):
        return self._coins.random()

    def randbytes(self, n):
        return bytes(self._bytes.getrandbits(8) for _ in range(n))


def spy_table_builds(monkeypatch):
    """Record every inner-chain transition table built from now on, as a
    list of (vertex set, table) pairs."""
    from gbsmc import pm_chain

    built = []

    class Spy(pm_chain._PMTable):
        def __init__(self, g, vbits):
            super().__init__(g, vbits)
            built.append((vbits, self))

    monkeypatch.setattr(pm_chain, "_PMTable", Spy)
    return built
