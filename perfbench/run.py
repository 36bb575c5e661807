#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of gbsmc.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout: gbsmc is imported from ``src/`` there
and from nowhere else.  A workload is a fixed batch of operations (solver
trials or sampling calls) run once, back to back on one thread: a closed
loop with one client.  The batch is fixed and takes 25-30 s here, within
the default ``--seconds``; ``--seconds`` changes no work, and a batch that
takes longer says so on standard error.  The batch's inputs (edge lists,
trial seeds, fugacities) come from the benchmark's own RNG, seeded by
``--seed``, so a change to gbsmc's generators cannot change a workload.
Every output is checked against ``oracles.py``.  Set-up runs seven times,
with a warm-up whose inputs do not depend on ``--seed``, and the warm-up
must give the same results each time.

Each workload ends with one line of standard output, a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones and nothing in gbsmc is
wrapped.  With ``--trace 1`` every operation runs twice, untraced and
traced, one right after the other; the two results must match, and the
metrics are the per-layer ones and the tracing overhead.  Results and
spans are also written to ``perfbench/out/``.  README.md describes the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path
from typing import Callable

import clock
import oracles
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOADS = ("law-k6", "search-k8", "search-k16-k32")
CHAINS = ("glauber", "jerrum", "double_loop")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
SETUP_REPEATS = 7

# law-k6: chain -> (sampling calls per batch, thinned samples per call)
LAW_CALLS = {"glauber": (8, 25_000), "jerrum": (8, 25_000),
             "double_loop": (16, 2_500)}
BURN_IN = 1000
DOUBLE_C = 0.5
WARM_UP_SAMPLES = 200

# search workloads: ((objective, k, trials per variant), ...), iterations
SEARCH = {
    "search-k8": ((("hafnian", 8, 10),), 200),
    "search-k16-k32": ((("hafnian", 16, 5), ("density", 32, 2)), 50),
}
HOST_N, HOST_P = 256, 0.4
MIXING_STEPS = 1000
FAMILIES = ("uniform",) + CHAINS
ALGS = ("rs", "sa")
WARM_UP_ITERATIONS = 5

E2E_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB",
             **{f"op_s.{c}": "s" for c in CHAINS}}
LAYER_UNITS = {
    "graphs.build_s": "s",
    "glauber.steps_per_s": "1/s", "jerrum.steps_per_s": "1/s",
    "double_loop.steps_per_s": "1/s", "double_loop.self_s": "s",
    "double_loop.inner_calls": "count",
    "double_loop.inner_failure_ratio": "ratio",
    "pm_chain.draw_s": "s",
    **{f"pm_chain.draw_us.v{v}": "us" for v in (4, 6, 8, 16)},
    "hafnian.haf_calls": "count", "hafnian.haf_s": "s",
    **{f"hafnian.haf_us.k{k}": "us" for k in (8, 16)},
    "hafnian.edges_s": "s",
    "solvers.objective_s": "s", "solvers.proposal_s": "s",
    "solvers.self_s": "s", "solvers.windows_per_draw": "ratio",
    "solvers.starved_draws": "count",
    "solvers.distinct_eval_ratio": "ratio",
    "solvers.nonzero_eval_ratio": "ratio",
    "solvers.plain_trial_s": "s", "solvers.score_ratio": "ratio",
    "trace.overhead": "ratio", "trace.wrapper_cost": "ratio",
}


def load_gbsmc():
    """Make gbsmc importable from this checkout's ``src/`` and nowhere else.
    """
    src = ROOT / "src"
    if not (src / "gbsmc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no gbsmc sources under {src}")
    sys.path.insert(0, str(src))
    gbsmc = importlib.import_module("gbsmc")
    if Path(gbsmc.__file__).resolve().parent != src / "gbsmc":
        raise SystemExit(f"perfbench: gbsmc came from {gbsmc.__file__}, "
                         f"not {src}")


def reimport_gbsmc():
    """Import gbsmc afresh, so that every set-up pays for its import."""
    for name in [m for m in sys.modules
                 if m == "gbsmc" or m.startswith("gbsmc.")]:
        del sys.modules[name]
    importlib.import_module("gbsmc")


@dataclass
class Op:
    """One operation of a batch: a sampling call or a solver trial.

    Ops of one ``group`` do the same kind of work; a family's time is the
    mean over its groups of the group's median op time, which keeps a burst
    of load from other processes out of the figure.
    """
    family: str
    group: tuple
    run: Callable
    check: Callable          # result -> list of problems
    key: Callable            # result -> what a rerun must reproduce
    span: str
    span_attrs: dict = field(default_factory=dict)


class LawK6:
    """Law-grade vertex-set sampling on K6 through the public samplers."""

    def __init__(self, seed):
        self.seed = seed

    def build(self):
        from gbsmc.graphs import Graph
        edges = list(combinations(range(6), 2))
        t0 = time.perf_counter()
        self.g = Graph(6, edges)
        return time.perf_counter() - t0

    def _sample(self, chain, label, n):
        from gbsmc.double_loop import DoubleLoopConfig, vertex_set_histogram
        from gbsmc.glauber import ChainConfig, sample_states
        if chain == "double_loop":
            cfg = DoubleLoopConfig(chain=ChainConfig(c=DOUBLE_C, seed=label))
            counts, stats = vertex_set_histogram(
                self.g, cfg, n_samples=n, thin=self.g.m, burn_in=BURN_IN)
            return counts, (stats.calls, stats.shortcuts, stats.failures)
        cfg = ChainConfig(fugacity=1.0, seed=label)
        return sample_states(self.g, cfg, dynamics=chain, n_samples=n,
                             thin=self.g.m, burn_in=BURN_IN,
                             key_kind="vertexset"), None

    def warm_up(self):
        return [self._sample(chain, "perfbench/warm-up/law-k6",
                             WARM_UP_SAMPLES) for chain in CHAINS]

    def ops(self):
        out = []
        most = max(calls for calls, _ in LAW_CALLS.values())
        for i in range(most):            # round-robin over the chains
            for chain, (calls, n) in LAW_CALLS.items():
                if i >= calls:
                    continue
                label = f"perfbench/{self.seed}/law-k6/{chain}/{i}"
                out.append(Op(
                    chain, (chain,),
                    lambda chain=chain, label=label, n=n:
                        self._sample(chain, label, n),
                    lambda res, n=n: _histogram_problems(res[0], n),
                    lambda res: (sorted(res[0].items()), res[1]),
                    f"{chain}.sample", {"steps": BURN_IN + n * self.g.m}))
        return out

    def pass_problems(self, ops, results):
        """Each chain's pooled histogram against its closed-form law; the
        law at the other loop count must lie outside the TV bound."""
        single, double = (oracles.k6_law(1, "single"),
                          oracles.k6_law(DOUBLE_C, "double"))
        laws = {"glauber": (single, oracles.k6_law(1, "double")),
                "jerrum": (single, oracles.k6_law(1, "double")),
                "double_loop": (double, oracles.k6_law(DOUBLE_C, "single"))}
        out = {}
        for chain, (law, wrong) in laws.items():
            pooled = Counter()
            for op, res in zip(ops, results):
                if op.family == chain and res is not None:
                    pooled.update(res[0])
            if pooled:
                out[chain] = oracles.law_problems(pooled, law, [wrong])
        return out

    def summary(self, ops, results):
        return {}


def _histogram_problems(counts, n):
    problems = []
    if sum(counts.values()) != n:
        problems.append(f"{sum(counts.values())} samples, not {n}")
    bad = [s for s in counts if not 0 <= s < 64 or s.bit_count() % 2]
    if bad:
        problems.append(f"states outside the even subsets of K6: {bad[:3]}")
    return problems


class Search:
    """Plain and chain-enhanced RS and SA on one ER(256, 0.4) host graph,
    drawn as G(n, M)."""

    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.specs, self.iterations = SEARCH[name]

    @staticmethod
    def _host(label):
        """G(n, M) with M = round(p * n(n-1)/2): the edge count, and with it
        the cost of every hafnian, does not vary from seed to seed.
        Returns (edge set, edge list)."""
        rng = random.Random(label)
        pairs = list(combinations(range(HOST_N), 2))
        edges = sorted(rng.sample(pairs, round(HOST_P * len(pairs))))
        return set(edges), edges

    def build(self):
        from gbsmc.graphs import Graph
        self.edge_set, edges = self._host(f"perfbench/{self.seed}/graph")
        t0 = time.perf_counter()
        self.g = Graph(HOST_N, edges)
        return time.perf_counter() - t0

    def _config(self, objective, k, alg, family, label, iterations):
        from gbsmc.glauber import ChainConfig
        from gbsmc.solvers import SAParams, SolverConfig
        chain = None
        if family != "uniform":
            frac = (k / 2) / self.g.m    # every host graph has the same m
            chain = ChainConfig(fugacity=math.sqrt(frac)
                                if family == "double_loop" else frac)
        return SolverConfig(objective=objective, subset_size=k,
                            iterations=iterations, sampler=family,
                            chain=chain,
                            sa=SAParams() if alg == "sa" else None,
                            seed=label, mixing_steps=MIXING_STEPS)

    @staticmethod
    def _trial(g, cfg):
        from gbsmc.solvers import solver_for
        return solver_for(cfg)(g, cfg)

    @staticmethod
    def _key(rec):
        return (rec.best_set, rec.best_score, rec.score_trajectory,
                rec.starvation_count, rec.inner_failures)

    def warm_up(self):
        """Every variant on a host graph of its own; neither depends on the
        seed, so set-up does the same work on every seed (the cost of a
        k=16 hafnian varies widely from graph to graph)."""
        from gbsmc.graphs import Graph
        label = f"perfbench/warm-up/{self.name}"
        g = Graph(HOST_N, self._host(label)[1])
        return [self._key(self._trial(g, self._config(
                    objective, k, alg, family, label, WARM_UP_ITERATIONS)))
                for objective, k, _ in self.specs
                for alg in ALGS for family in FAMILIES]

    def ops(self):
        out = []
        most = max(trials for _, _, trials in self.specs)
        for t in range(most):
            for objective, k, trials in self.specs:
                if t >= trials:
                    continue
                for alg in ALGS:
                    for family in FAMILIES:
                        label = (f"perfbench/{self.seed}/{self.name}/"
                                 f"{objective}{k}/{alg}/{family}/{t}")
                        cfg = self._config(objective, k, alg, family, label,
                                           self.iterations)
                        out.append(Op(
                            family, (objective, k, alg),
                            lambda cfg=cfg: self._trial(self.g, cfg),
                            lambda rec, k=k, objective=objective:
                                oracles.trial_problems(
                                    rec, k=k, iterations=self.iterations,
                                    rescore=lambda bits: oracles.score(
                                        objective, bits, self.edge_set)),
                            self._key, "solvers.trial",
                            {"family": family, "alg": alg,
                             "objective": objective, "k": k}))
        return out

    def pass_problems(self, ops, results):
        return {}

    def summary(self, ops, results):
        """Geometric mean over comparisons (objective, k, algorithm, chain)
        of the enhanced mean best score over the plain one."""
        best = {}
        for op, res in zip(ops, results):
            if res is not None:
                best.setdefault(op.group + (op.family,), []).append(
                    float(res.best_score))
        ratios = []
        for group_family, scores in best.items():
            plain = best.get(group_family[:-1] + ("uniform",))
            if group_family[-1] != "uniform" and plain:
                p = statistics.fmean(plain)
                ratios.append(statistics.fmean(scores) / p if p else math.inf)
        ok = ratios and all(0 < r < math.inf for r in ratios)
        return {"solvers.score_ratio":
                math.exp(statistics.fmean(math.log(r) for r in ratios))
                if ok else 0.0}


@dataclass
class PassOutcome:
    times: list          # reference seconds per op (untraced)
    walls: list          # wall seconds per op (untraced)
    slowness: list       # calibration reading around each untraced op
    results: list
    failed: set = field(default_factory=set)
    problems: list = field(default_factory=list)
    wrong: bool = False  # an op that did not raise gave a wrong result
    traced_walls: list = field(default_factory=list)
    traced_slowness: list = field(default_factory=list)
    missing: list = field(default_factory=list)   # span targets not found


def _run_op(op, tracer):
    """Run one op; returns (result or None, wall seconds, traceback or None,
    span targets not found).  With a tracer, gbsmc's layer boundaries are
    wrapped for this op only."""
    missing = []
    if tracer is not None:
        undo, missing = tracing.install(tracer)
        sid = tracer.open(op.span, **op.span_attrs)
    t0 = time.perf_counter()
    try:
        return op.run(), time.perf_counter() - t0, None, missing
    except Exception:
        return None, time.perf_counter() - t0, traceback.format_exc(), missing
    finally:
        if tracer is not None:
            tracer.close(sid)
            tracing.uninstall(undo)


def run_pass(workload, ops, tracer=None) -> PassOutcome:
    """Run every op once, untraced.  With a tracer, each op also runs traced,
    right after the untraced run or, for every other op, right before it,
    so that drift of the CPU's speed cancels out of the tracing overhead;
    the two runs must give the same result."""
    out = PassOutcome([], [], [], [])
    reading = clock.slowness()
    for i, op in enumerate(ops):
        copies = ((False,) if tracer is None
                  else (False, True) if i % 2 == 0 else (True, False))
        got = {}
        for traced in copies:
            res, wall, error, missing = _run_op(op, tracer if traced else None)
            after = clock.slowness()
            got[traced] = (res, wall, (reading + after) / 2, error)
            reading = after
            out.missing = out.missing or missing
        res, wall, slow, error = got[False]
        out.times.append(wall / slow)
        out.walls.append(wall)
        out.slowness.append(slow)
        problems = []
        if tracer is not None:
            t_res, t_wall, t_slow, t_error = got[True]
            out.traced_walls.append(t_wall)
            out.traced_slowness.append(t_slow)
            error = error or t_error
            if error is None and op.key(t_res) != op.key(res):
                problems.append("traced result differs from the untraced one")
        if error is not None:
            res = None
            out.problems.append(f"op {i} ({op.family}) raised:\n{error}")
        else:
            problems += op.check(res)
        out.results.append(res)
        if problems:
            out.wrong = True
            out.problems.append(f"op {i} ({op.family}): {'; '.join(problems)}")
        if error is not None or problems:
            out.failed.add(i)
    for family, found in workload.pass_problems(ops, out.results).items():
        if found:
            out.wrong = True
            out.failed.update(i for i, op in enumerate(ops)
                              if op.family == family)
            out.problems.append(f"{family} pooled: {'; '.join(found)}")
    return out


def family_times(ops, times) -> dict:
    """Per family: mean over its groups of the median op time."""
    groups = {}
    for op, dt in zip(ops, times):
        groups.setdefault((op.family, op.group), []).append(dt)
    medians = {}
    for (family, _), group_times in groups.items():
        medians.setdefault(family, []).append(statistics.median(group_times))
    return {f: statistics.fmean(m) for f, m in medians.items()}


def run_workload(name, seed, seconds, trace):
    """Set up, run the batch and check it.

    Returns (result, spans, missing span targets, a record of every op's
    family, group, reference and wall seconds).
    """
    workload = LawK6(seed) if name == "law-k6" else Search(name, seed)
    setups, builds, warm = [], [], []
    for _ in range(SETUP_REPEATS):
        (_, build, keys), ref, wall = clock.timed(
            lambda: (reimport_gbsmc(), workload.build(), workload.warm_up()))
        setups.append(ref)
        builds.append(build * ref / wall)
        warm.append(keys)
    ops = workload.ops()
    warm_ok = all(w == warm[0] for w in warm)
    problems = [] if warm_ok else ["warm-up results differ between set-ups"]

    tracer = tracing.Tracer() if trace else None
    outcome = run_pass(workload, ops, tracer)
    if sum(outcome.walls) > seconds:
        print(f"perfbench {name}: the batch took {sum(outcome.walls):.1f} s, "
              f"longer than --seconds {seconds:g}", file=sys.stderr)
    copies = 2 if trace else 1        # a traced run runs every op twice
    correct = warm_ok and not outcome.wrong
    for msg in (problems + outcome.problems)[:10]:
        print(f"perfbench {name}: {msg}", file=sys.stderr)
    for target in outcome.missing:
        print(f"perfbench {name}: span target {target} is missing",
              file=sys.stderr)

    if trace:
        values = tracing.layer_metrics(tracer.spans, outcome.traced_slowness)
        values["graphs.build_s"] = statistics.median(builds)
        values["solvers.plain_trial_s"] = family_times(
            ops, outcome.times).get("uniform", 0.0)
        values["solvers.score_ratio"] = 0.0
        values.update(workload.summary(ops, outcome.results))
        values["trace.overhead"] = (
            sum(outcome.traced_walls) / sum(outcome.walls) - 1.0)
        values["trace.wrapper_cost"] = (tracing.span_cost() * len(tracer.spans)
                                        / sum(outcome.walls))
        units = LAYER_UNITS
    else:
        per_chain = family_times(ops, outcome.times)
        values = {
            "setup_s": statistics.median(setups),
            "run_s": sum(outcome.times),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **{f"op_s.{c}": per_chain[c] for c in CHAINS},
        }
        units = E2E_UNITS
    result = {"correct": correct, "attempted": len(ops) * copies,
              "failed": len(outcome.failed) * copies,
              "metrics": {key: {"value": values[key], "unit": unit}
                          for key, unit in units.items()}}
    fields = ["family", "group", "ref_s", "wall_s", "slowness"]
    columns = [outcome.times, outcome.walls, outcome.slowness]
    if trace:
        fields.append("traced_wall_s")
        columns.append(outcome.traced_walls)
    record = {"setup_s": setups, "fields": fields,
              "ops": [[op.family, list(op.group), *row]
                      for op, row in zip(ops, zip(*columns))]}
    spans = tracer.spans if trace else []
    return result, spans, outcome.missing, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark gbsmc end to end (--trace 0) or per layer "
                    "(--trace 1).")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="time the batch is expected to fit in; a "
                             "longer batch is reported (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_gbsmc()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    OUT.mkdir(exist_ok=True)
    all_correct = True
    for name in names:
        result, spans, missing, record = run_workload(
            name, args.seed, args.seconds, args.trace)
        stem = OUT / f"{name}-seed{args.seed}"
        with open(f"{stem}-trace{args.trace}.json", "w") as fh:
            json.dump({"workload": name, "seed": args.seed, **result,
                       **record}, fh)
        if args.trace:
            with open(f"{stem}-spans.json", "w") as fh:
                json.dump({"fields": ["name", "parent", "start", "end",
                                      "attrs"],
                           "missing": missing, "spans": spans}, fh)
        for key, m in result["metrics"].items():
            print(f"{name:15s} {key:32s} {m['value']:14.6g} {m['unit']}",
                  file=sys.stderr)
        all_correct &= result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
