"""Command-line front end.

Subcommands
-----------
gen-graph   write a benchmark graph as a canonical edge list
sample      run a matching chain, one output line per sample
solve       run solver trials; persists records plus a trajectory CSV
verify      exactness checks: detailed-balance and stationary-law distance
bench       named experiment presets (or a spec file of command lines)
replot      regenerate SVG figures from a run directory's CSVs

Benchmark runs persist CSV tables, SVG figures drawn from those tables, and
a human-readable manifest.  CSVs are byte-deterministic for a given command
line (timing lives only in the manifest), and every row carries the run's
config hash and seed so any row can be reproduced in isolation.

A spec file (``gbsmc bench --spec FILE``) is the command lines it stands
for: ``{"runs": [["solve", "--gen", "complete", ...], ...]}``, strings only.
The parser below checks every line before the first runs, so a value it
refuses on any line writes nothing; the checks a command makes itself run
when its line runs.  The lines run in order, and the first that exits
non-zero stops the spec with its code.

Exit codes: 0 success, 1 failed check, 2 configuration error,
3 post-selection starvation, 4 inner-sampler budget exhaustion, 5 exactness
guard exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from .diagnostics import (LAW_KINDS, OracleGuardError, check_detailed_balance,
                          exact_stationary, exit_time_experiment,
                          geometric_fit, pm_stationary, transition_kernel,
                          tv_distance)
from .double_loop import DoubleLoopConfig, InnerGuardError, InnerSamplerError
from .glauber import ChainConfig, ChainConfigError, move_probabilities
from .graphs import (SEEDED_KINDS, EnumerationCapError, Graph, GraphSpec,
                     Matching, gen_graph, load_edge_list, to_edge_list_text)
from .pm_chain import PMSamplerConfig
from .seeds import child_rng, derive_seed
from .solvers import (SAParams, SolverConfig, advantage_at, drive,
                      proposal_fugacity, run_trials)
from .svg import Series, histogram_plot, line_plot

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_STARVATION = 3
EXIT_INNER_BUDGET = 4
EXIT_ORACLE_GUARD = 5


class CliError(Exception):
    """Error with a dedicated exit code."""

    def __init__(self, message, code=EXIT_CONFIG):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Small shared helpers
# ---------------------------------------------------------------------------

def _seed_arg(text: str):
    """Seeds may be integers or free-form strings."""
    try:
        return int(text)
    except ValueError:
        return text


def _rational_arg(text: str):
    """Fugacity-like numbers: "3/4" stays an exact Fraction, else float."""
    if "/" in text:
        try:
            return Fraction(text)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    return float(text)


def _dashed(text: str) -> str:
    """Choice names are kebab-case; the snake_case spelling is accepted."""
    return text.replace("_", "-")


def _num(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _config_hash(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _out_root() -> Path:
    return Path(os.environ.get("GBSMC_OUT_ROOT", "."))


def _resolve_out(path_text: str) -> Path:
    """An output path: a relative one lies under ``GBSMC_OUT_ROOT``."""
    p = Path(path_text)
    return p if p.is_absolute() else _out_root() / p


def _out_file(path_text: str) -> Path:
    """``--out``'s file, resolved by :func:`_resolve_out`, its directory
    made."""
    path = _resolve_out(path_text)
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_csv(path: Path, header, rows):
    # the directory comes with the first table: a refused run leaves none
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_num(v) for v in row])


def _read_csv(path: Path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def _manifest_lines(value, indent=0):
    """A dict as "key: value" lines, a list as "- item" lines; containers
    nest one level deeper under a bare "key:" or "-" line."""
    pad = "  " * indent
    heads = ([f"{pad}{key}:" for key in value] if isinstance(value, dict)
             else [f"{pad}-"] * len(value))
    items = value.values() if isinstance(value, dict) else value
    lines = []
    for head, item in zip(heads, items):
        if isinstance(item, (dict, list)):
            lines.append(head)
            lines.extend(_manifest_lines(item, indent + 1))
        else:
            lines.append(f"{head} {_num(item)}")
    return lines


def _write_manifest(path: Path, tree: dict):
    path.write_text("\n".join(_manifest_lines(tree)) + "\n")


def _check_counts(*counts):
    """Refuse each (flag, value, least) whose value is below least."""
    for flag, value, least in counts:
        if value < least:
            raise CliError(f"{flag} must be at least {least}, got {value}")


# dests whose flag is not "--" followed by the dest in kebab case
_FLAGS = {"fugacity": "--lambda", "iterations": "--iters"}


def _refuse_unread(args, who: str, dests):
    """Refuse each of ``dests`` given on the command line, which ``who``
    does not read; an option not given is None, or False for a switch."""
    unread = [_FLAGS.get(dest, _dashed("--" + dest)) for dest in dests
              if getattr(args, dest) is not None
              and getattr(args, dest) is not False]
    if unread:
        raise CliError(f"{who} does not use {', '.join(unread)}")


def _even(k: int) -> int:
    return k if k % 2 == 0 else k - 1


def _percentile(sorted_vals, q: float) -> float:
    n = len(sorted_vals)
    if n == 1:
        return float(sorted_vals[0])
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    frac = pos - lo
    return float(sorted_vals[lo]) * (1 - frac) + float(sorted_vals[hi]) * frac


# ---------------------------------------------------------------------------
# Graph sourcing (file or generator flags)
# ---------------------------------------------------------------------------

# cli kind -> (generator kind, ((flag attr, generator kwarg), ...))
_GRAPH_KINDS = {
    "complete": ("complete", (("n", "n"),)),
    "complete-bipartite": ("complete_bipartite", (("m", "m"), ("n", "n"))),
    "path": ("path", (("n", "n"),)),
    "cycle": ("cycle", (("n", "n"),)),
    "er": ("erdos_renyi", (("n", "n"), ("p", "p"))),
    "planted-clique": ("planted_clique",
                       (("n", "n"), ("clique", "clique_size"), ("p", "p"))),
    "decreasing-degree": ("decreasing_degree", (("n", "n"),)),
    "random-bipartite": ("random_bipartite",
                         (("n", "n_per_side"), ("p", "p"))),
    "sparse-bipartite": ("sparse_bipartite",
                         (("n", "n_per_side"), ("edges", "n_edges"))),
    "hard-instance": ("hard_instance", (("squares", "n_squares"),)),
}


def _add_generator_args(grp):
    grp.add_argument("--n", type=int, help="vertex count (per side for "
                     "bipartite kinds)")
    grp.add_argument("--m", type=int, help="left side size "
                     "(complete-bipartite)")
    grp.add_argument("--p", type=float, help="edge probability")
    grp.add_argument("--clique", type=int, help="planted clique size")
    grp.add_argument("--edges", type=int, help="edge count (sparse-bipartite)")
    grp.add_argument("--squares", type=int, help="square count (hard-instance)")


def _add_graph_args(p: argparse.ArgumentParser):
    grp = p.add_argument_group("graph source")
    grp.add_argument("--graph", metavar="FILE",
                     help="load an edge-list file instead of generating")
    grp.add_argument("--gen", choices=sorted(_GRAPH_KINDS),
                     help="generator kind")
    _add_generator_args(grp)
    grp.add_argument("--graph-seed", type=_seed_arg, help="seed for er, "
                     "planted-clique, random- and sparse-bipartite (default 0)")


_GEN_DESTS = ("n", "m", "p", "clique", "edges", "squares")


def _spec_from_flags(args, who: str, seed_dest: str) -> tuple:
    """(GraphSpec, seed) of generator ``args.gen``, refusing the generator
    flags it does not read and the seed of a kind that draws none."""
    gen_kind, mapping = _GRAPH_KINDS[args.gen]
    reads = {attr for attr, _ in mapping} | (
        {seed_dest} if gen_kind in SEEDED_KINDS else set())
    _refuse_unread(args, who, [dest for dest in (*_GEN_DESTS, seed_dest)
                               if dest not in reads])
    params = {}
    for attr, kwarg in mapping:
        value = getattr(args, attr)
        if value is None:
            raise CliError(f"generator {args.gen!r} needs --{attr}")
        params[kwarg] = value
    seed = getattr(args, seed_dest)
    return GraphSpec.of(gen_kind, **params), 0 if seed is None else seed


def _graph_from_args(args):
    """Build the graph plus a description dict for hashing/manifests."""
    if args.graph is not None:
        _refuse_unread(args, "--graph", ("gen", *_GEN_DESTS, "graph_seed"))
        g = load_edge_list(args.graph)
        return g, {"source": "file", "path": args.graph,
                   "n": g.n, "m": g.m}
    if args.gen is None:
        raise CliError("give --graph FILE or --gen KIND")
    spec, seed = _spec_from_flags(args, f"--gen {args.gen}", "graph_seed")
    g = gen_graph(spec, seed=seed)
    desc = {"source": "generator", "kind": spec.kind,
            **spec.as_dict(), "graph_seed": seed,
            "n": g.n, "m": g.m}
    return g, desc


# ---------------------------------------------------------------------------
# gen-graph
# ---------------------------------------------------------------------------

def _cmd_gen_graph(args) -> int:
    spec, seed = _spec_from_flags(args, f"gen-graph {args.gen}", "seed")
    g = gen_graph(spec, seed=seed)
    text = to_edge_list_text(g)
    if args.out:
        _out_file(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    print(f"{g.n} {g.m} {g.m / g.n if g.n else 0:.6g}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample
# ---------------------------------------------------------------------------

def _chain_config(fugacity, c, lazy=False, chain=None, default=1.0
                  ) -> ChainConfig:
    """A ChainConfig checked now, at fugacity ``default`` unless one is
    given; ``lazy`` only where the move rule of ``chain`` has a lazy form."""
    cfg = ChainConfig(fugacity=fugacity, c=c, lazy=lazy)
    if cfg.fugacity is None and cfg.c is None:
        cfg = replace(cfg, fugacity=default)
    lam = cfg.resolved_fugacity()
    if lazy:
        try:
            move_probabilities(chain, lam, lazy)
        except ChainConfigError:
            raise CliError(f"--lazy has no {_dashed(chain)} form") from None
    return cfg


# inner-sampler options (dests), read by the double loop only; their
# defaults are None, for "not given"
_INNER_DESTS = ("inner", "inner_steps", "max_attempts", "on_inner_failure")


def _window_config(chain: str, chain_cfg: ChainConfig, args):
    """The config a window of ``chain`` runs on: a DoubleLoopConfig for the
    double loop, else ``chain_cfg``, refusing the inner-sampler flags."""
    if chain != "double_loop":
        _refuse_unread(args, _dashed(chain), _INNER_DESTS)
        return chain_cfg
    if args.inner == "exact":
        _refuse_unread(args, "--inner exact", _INNER_DESTS[1:])
    return DoubleLoopConfig(
        chain=chain_cfg,
        pm=PMSamplerConfig(inner_steps=args.inner_steps,
                           max_attempts=args.max_attempts),
        **_given(on_inner_failure=args.on_inner_failure, inner=args.inner))


def _sample_lines(g: Graph, args):
    """Windowed sampling: the chain advances ``steps`` moves per sample and
    each window yields one "step,vertex_set_hex" line.  With post-selection
    the emitted state is the window's most recent one of the target size,
    and every window, burn-in included, holds adds at that size; a window
    without any such state aborts with the starvation exit code (lines
    already written stay on disk).  The options are checked before the
    first line is asked for."""
    chain = args.chain.replace("-", "_")
    _check_counts(("--steps", args.steps, 0), ("--burn-in", args.burn_in, 0),
                  ("--samples", args.samples, 0))
    cc = _chain_config(args.fugacity, args.c, args.lazy, chain)
    target = -1
    k = args.post_select_k
    if k is not None:
        _check_counts(("--post-select-k", k, 0))
        if k % 2:
            raise CliError(f"post-selection size {k} is odd")
        if k > g.n:
            raise CliError(f"post-selection size {k} exceeds {g.n} vertices")
        target = k // 2
    cfg = _window_config(chain, cc, args)

    def lines():
        rng = child_rng(args.seed, "sample")
        x = Matching(g)
        memo = {}
        at = 0  # steps before the window
        if args.burn_in:
            drive(chain, g, x, cfg, args.burn_in, rng, haf_memo=memo,
                  target_edges=target)
            at = args.burn_in
        window = args.steps
        for _ in range(args.samples):
            snap, snap_step = drive(chain, g, x, cfg, window, rng,
                                    haf_memo=memo, target_edges=target)
            if target < 0:
                yield f"{at + window},0x{x.covered:x}\n"
            elif snap is None:
                raise CliError(f"no size-{k} state in a {window}-step window",
                               EXIT_STARVATION)
            else:
                yield f"{at + snap_step},0x{snap:x}\n"
            at += window
    return lines()


def _cmd_sample(args) -> int:
    g, _ = _graph_from_args(args)
    lines = _sample_lines(g, args)
    if not args.out:
        sys.stdout.writelines(lines)
        return EXIT_OK
    with open(_out_file(args.out), "w") as fh:
        fh.writelines(lines)
    return EXIT_OK


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

_ALG_NAMES = {"rs": "random_search", "ers": "enhanced_random_search",
              "sa": "simulated_annealing",
              "esa": "enhanced_simulated_annealing"}


# solve options (dests) that only the enhanced algorithms read, and those
# that only annealing reads; solve's defaults are None, for "not given"
_CHAIN_DESTS = ("sampler", "fugacity", "c", "mixing_steps", "retry_bound",
                "cold_restart")
_ANNEAL_DESTS = ("t0", "gamma")


def _given(**values) -> dict:
    return {key: v for key, v in values.items() if v is not None}


def _solver_config(args, g: Graph) -> tuple:
    """(algorithm name, base SolverConfig) from the solve options on
    ``g``; a flag the algorithm does not read is refused."""
    alg = _ALG_NAMES.get(args.alg, args.alg)
    enhanced = alg.startswith("enhanced")
    anneal = alg.endswith("simulated_annealing")
    _refuse_unread(args, f"--alg {args.alg}",
                   (() if enhanced else _CHAIN_DESTS)
                   + (() if anneal else _ANNEAL_DESTS))
    sampler = (args.sampler or "double-loop").replace("-", "_") \
        if enhanced else "uniform"
    chain = _chain_config(args.fugacity, args.c, default=proposal_fugacity(
        g, args.k, sampler)) if enhanced else None
    sa = None
    if anneal:
        sa = SAParams(**_given(initial_temperature=args.t0, gamma=args.gamma))
    cfg = SolverConfig(
        objective=args.objective, subset_size=args.k,
        iterations=args.iterations, sampler=sampler, chain=chain, sa=sa,
        **_given(mixing_steps=args.mixing_steps, retry_bound=args.retry_bound,
                 warm_start=False if args.cold_restart else None))
    return alg, cfg


def _solver_fields(cfg: SolverConfig) -> dict:
    """What records.txt says of a SolverConfig, in its order: the chain
    fields for an enhanced run, the schedule for annealing."""
    fields = {"objective": cfg.objective, "subset_size": cfg.subset_size,
              "iterations": cfg.iterations, "sampler": cfg.sampler}
    if cfg.chain is not None:
        fields.update(fugacity=cfg.chain.resolved_fugacity(),
                      mixing_steps=cfg.mixing_steps,
                      warm_start=cfg.warm_start)
    if cfg.sa is not None:
        fields.update(initial_temperature=cfg.sa.initial_temperature,
                      gamma=cfg.sa.gamma)
    return fields


def _solver_cfg_payload(alg: str, cfg: SolverConfig) -> dict:
    """The config hash's options: the record's fields, with the fugacity as
    a string, and the chain budgets of plain runs too."""
    payload = {"algorithm": alg, "mixing_steps": cfg.mixing_steps,
               "retry_bound": cfg.retry_bound, "warm_start": cfg.warm_start,
               **_solver_fields(cfg)}
    if cfg.chain is not None:
        payload["fugacity"] = str(payload["fugacity"])
    return payload


def _record_block(rec, chash) -> str:
    """One trial of records.txt, in the manifest's "key: value" format."""
    best_vertices = rec.best_vertices()
    trial = {"algorithm": rec.algorithm, "config_hash": chash,
             "seed": rec.config.seed, **_solver_fields(rec.config),
             "best_score": rec.best_score,
             "best_vertices": (" ".join(map(str, best_vertices))
                               if best_vertices else "-"),
             "evaluations": rec.evaluations,
             "starvation_count": rec.starvation_count,
             "inner_failure_count": rec.inner_failures}
    return "\n".join(_manifest_lines({"trial": trial})) + "\n"


def _cmd_solve(args) -> int:
    _check_counts(("--seeds", args.seeds, 1))
    g, graph_desc = _graph_from_args(args)
    alg, base = _solver_config(args, g)
    master = args.seed
    chash = _config_hash({"command": "solve", "graph": graph_desc,
                          "options": _solver_cfg_payload(alg, base),
                          "seed": master})
    out_dir = _resolve_out(args.out_dir)
    records = run_trials(g, base, [derive_seed(master, f"trial{j}")
                                   for j in range(args.seeds)])
    _write_csv(out_dir / "trajectory.csv",
               ("config_hash", "seed", "iteration", "best_score"),
               [(chash, rec.config.seed, i, best) for rec in records
                for i, best in enumerate(rec.score_trajectory, start=1)])
    (out_dir / "records.txt").write_text(
        "\n".join(_record_block(rec, chash) for rec in records))
    for j, rec in enumerate(records):
        print(f"trial {j}: best={_num(rec.best_score)} "
              f"evaluations={rec.evaluations} "
              f"starved={rec.starvation_count} "
              f"wall_time_s={rec.wall_time:.3f}")
    mean_best = sum(float(r.best_score) for r in records) / len(records)
    print(f"mean_best {mean_best!r}")
    print(f"wrote {out_dir}/records.txt and {out_dir}/trajectory.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_BALANCE_LAWS = {"glauber": "matching_single", "jerrum": "matching_single",
                 "double_loop": "matching_double"}


def _cmd_verify_balance(args) -> int:
    g, _ = _graph_from_args(args)
    dynamics = args.dynamics.replace("-", "_")
    if dynamics == "pm":
        _refuse_unread(args, "--dynamics pm", ("fugacity", "c", "lazy"))
        lam, law = None, pm_stationary(g)
    else:
        lam = _chain_config(args.fugacity, args.c, args.lazy,
                            dynamics).resolved_fugacity()
        law = exact_stationary(g, lam, _BALANCE_LAWS[dynamics])
    kernel = transition_kernel(g, dynamics, lam=lam, lazy=args.lazy)
    violation = check_detailed_balance(kernel, law)
    ok = float(violation) < args.tol
    print(f"max_violation {float(violation)!r} tol {args.tol!r} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_verify_law(args) -> int:
    g, _ = _graph_from_args(args)
    n_samples, burn = args.samples, args.burn_in
    thin = max(1, g.m) if args.thin is None else args.thin  # one edge sweep
    _check_counts(("--samples", n_samples, 1), ("--burn-in", burn, 0),
                  ("--thin", thin, 1))
    chain = args.dynamics.replace("-", "_")
    cc = _chain_config(args.fugacity, args.c, args.lazy, chain)
    law_name = args.law
    if law_name is None:
        law_name = ("vertexset_double" if chain == "double_loop"
                    else "matching_single")
    exact = exact_stationary(g, cc.resolved_fugacity(), law_name)
    key_kind = ("vertexset" if law_name.startswith("vertexset")
                else "matching")
    rng = child_rng(args.seed, "verify")
    counts: Counter = Counter()
    cfg = _window_config(chain, cc, args)
    drive(chain, g, Matching(g), cfg, burn + n_samples * thin, rng,
          collect=counts, key_kind=key_kind, thin=thin, burn_in=burn)
    tv = float(tv_distance(counts, exact))
    ok = tv <= args.tol
    print(f"tv {tv!r} samples {n_samples} law {law_name} tol {args.tol!r} "
          f"{'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# bench: shared machinery
# ---------------------------------------------------------------------------

def _curve_rows(chash, master, results):
    rows = []
    for label, records in results.items():
        trajs = [rec.score_trajectory for rec in records]
        if not trajs[0]:
            continue
        for i in range(len(trajs[0])):
            vals = sorted(float(t[i]) for t in trajs)
            n = len(vals)
            mean = sum(vals) / n
            if n > 1:
                se = statistics.stdev(vals) / math.sqrt(n)
            else:
                se = 0.0
            rows.append((chash, master, label, i + 1, mean,
                         mean - 1.96 * se, mean + 1.96 * se,
                         _percentile(vals, 0.1), _percentile(vals, 0.9)))
    return rows


def _summary_rows(chash, results):
    rows = []
    for label, records in results.items():
        for rec in records:
            rows.append((chash, label, rec.config.seed, rec.best_score,
                         rec.evaluations, rec.starvation_count,
                         rec.inner_failures))
    return rows


_CURVES_HEADER = ("config_hash", "seed", "algorithm", "iteration",
                  "mean_best", "lo_se95", "hi_se95", "lo_pct10", "hi_pct90")
_SUMMARY_HEADER = ("config_hash", "algorithm", "seed", "best_score",
                   "evaluations", "starvation_count", "inner_failure_count")


def _plot_curves_file(csv_path: Path, svg_path: Path):
    header, rows = _read_csv(csv_path)
    alg_col = header.index("algorithm")
    it_col = header.index("iteration")
    mean_col = header.index("mean_best")
    lo_col = header.index("lo_se95")
    hi_col = header.index("hi_se95")
    data = {}
    for row in rows:
        xs, ys, lo, hi = data.setdefault(row[alg_col], ([], [], [], []))
        xs.append(float(row[it_col]))
        ys.append(float(row[mean_col]))
        lo.append(float(row[lo_col]))
        hi.append(float(row[hi_col]))
    series = [Series(label, tuple(xs), tuple(ys), band=(tuple(lo), tuple(hi)))
              for label, (xs, ys, lo, hi) in data.items()]
    svg_path.write_text(line_plot(
        series, title="best score by iteration (mean and 95% band)",
        x_label="iteration", y_label="running best"))


def _plot_advantage_file(csv_path: Path, svg_path: Path):
    header, rows = _read_csv(csv_path)
    k_col = header.index("k")
    ratio_col = header.index("ratio")
    xs, ys = [], []
    for row in rows:
        ratio = float(row[ratio_col])
        if math.isfinite(ratio):
            xs.append(float(row[k_col]))
            ys.append(ratio)
    series = [Series("enhanced / plain", tuple(xs), tuple(ys)),
              Series("break-even", tuple(xs), tuple(1.0 for _ in xs))]
    svg_path.write_text(line_plot(
        series, title="score advantage by subset size",
        x_label="subset size", y_label="best-score ratio"))


def _plot_exit_file(times_csv: Path, summary_csv: Path, svg_path: Path):
    _, time_rows = _read_csv(times_csv)
    times = [int(row[2]) for row in time_rows]
    header, rows = _read_csv(summary_csv)
    p = float(rows[0][header.index("per_step_probability")])
    tmin, tmax = min(times), max(times)
    width = max(1, math.ceil((tmax - tmin + 1) / 24))
    n_bins = math.ceil((tmax - tmin + 1) / width)
    edges = [tmin + j * width for j in range(n_bins + 1)]
    counts = [0] * n_bins
    for t in times:
        counts[min((t - tmin) // width, n_bins - 1)] += 1
    surv = lambda t: (1.0 - p) ** max(0, t)  # P(T > t)
    xs = [e + width / 2 for e in edges[:-1]]
    ys = [len(times) * (surv(edges[j] - 1) - surv(edges[j + 1] - 1))
          for j in range(n_bins)]
    overlay = Series("geometric prediction", tuple(xs), tuple(ys))
    svg_path.write_text(histogram_plot(
        edges, counts, overlay=overlay, title="first-exit times",
        x_label="exit step", y_label="trials"))


def _render_plots(run_dir: Path) -> list:
    """(Re)draw every known figure from the CSVs in a run directory."""
    written = []
    curves = run_dir / "curves.csv"
    if curves.exists():
        _plot_curves_file(curves, run_dir / "curves.svg")
        written.append("curves.svg")
    advantage = run_dir / "advantage.csv"
    if advantage.exists():
        _plot_advantage_file(advantage, run_dir / "advantage.svg")
        written.append("advantage.svg")
    times = run_dir / "exit_times.csv"
    summary = run_dir / "exit_summary.csv"
    if times.exists() and summary.exists():
        _plot_exit_file(times, summary, run_dir / "exit_times.svg")
        written.append("exit_times.svg")
    return written


def _preset_graph(name, opts, k=None):
    """The preset's graph at the run's scale."""
    spec = _PRESETS[name].graph(opts["scale"], k)
    return gen_graph(spec, seed=derive_seed(opts["seed"], "graph"))


# ---------------------------------------------------------------------------
# bench presets
# ---------------------------------------------------------------------------

def _bench_trajectory(name, opts, chash, out_dir: Path) -> dict:
    """Plain search against its three chain-enhanced twins, every one over
    the seed sweep; writes per-trial summaries and mean-best curves."""
    preset = _PRESETS[name]
    k = preset.k(opts["scale"])
    g = _preset_graph(name, opts, k)
    chains = {sampler: _chain_config(opts["fugacity"], None,
                                     default=proposal_fugacity(g, k, sampler))
              for sampler in ("glauber", "jerrum", "double_loop")}
    resolved = {
        "fugacity_resolved": float(chains["glauber"].resolved_fugacity()),
        "fugacity_resolved_double":
            float(chains["double_loop"].resolved_fugacity())}
    sa = None
    if preset.family == "sa":
        sa = SAParams(initial_temperature=opts["t0"], gamma=opts["gamma"])
    base = SolverConfig(objective=preset.objective, subset_size=k,
                        iterations=opts["iterations"], sampler="uniform",
                        sa=sa, mixing_steps=opts["mixing_steps"])
    algs = [(_ALG_NAMES[preset.family], base)]
    for sampler, chain in chains.items():
        algs.append((f"enhanced_{preset.family}_{sampler}",
                     replace(base, sampler=sampler, chain=chain)))
    master = opts["seed"]
    results = {label: run_trials(g, cfg, [derive_seed(master, f"{label}/s{j}")
                                          for j in range(opts["seeds"])])
               for label, cfg in algs}
    _write_csv(out_dir / "summary.csv", _SUMMARY_HEADER,
               _summary_rows(chash, results))
    _write_csv(out_dir / "curves.csv", _CURVES_HEADER,
               _curve_rows(chash, master, results))
    outputs = ["summary.csv", "curves.csv"] + _render_plots(out_dir)
    finals = {label: [float(rec.best_score) for rec in records]
              for label, records in results.items()}
    return {"outputs": outputs, "resolved": resolved,
            "final_means": {label: sum(v) / len(v)
                            for label, v in finals.items()},
            "positive_counts": {label: sum(1 for b in v if b > 0)
                                for label, v in finals.items()}}


def _bench_score_advantage(name, opts, chash, out_dir: Path) -> dict:
    sizes = range(opts["k_min"] + opts["k_min"] % 2, opts["k_max"] + 1, 2)
    if not sizes:
        raise CliError(f"--k-min {opts['k_min']} to --k-max {opts['k_max']} "
                       "holds no even subset size")
    g = _preset_graph(name, opts)
    master = opts["seed"]
    plain = SolverConfig(objective="hafnian", iterations=opts["iterations"],
                         sampler="uniform", mixing_steps=opts["mixing_steps"],
                         seed=derive_seed(master, "plain"))
    rows = []
    for k in sizes:
        chain = _chain_config(opts["fugacity"], None, default=(
            proposal_fugacity(g, k, "double_loop")))
        enhanced = replace(plain, sampler="double_loop", chain=chain,
                           seed=derive_seed(master, "enhanced"))
        rows.append((chash, master, k,
                     *advantage_at(g, (plain, enhanced), k, opts["seeds"]),
                     float(chain.resolved_fugacity()), opts["seeds"]))
    _write_csv(out_dir / "advantage.csv",
               ("config_hash", "seed", "k", "plain_mean", "enhanced_mean",
                "ratio", "fugacity", "seeds"), rows)
    outputs = ["advantage.csv"] + _render_plots(out_dir)
    return {"outputs": outputs,
            "ratios": {str(row[2]): row[5] for row in rows}}


def _bench_exit_time(name, opts, chash, out_dir: Path) -> dict:
    squares = opts["squares"]
    lam = ChainConfig(fugacity=opts["fugacity"]).resolved_fugacity()
    trials = opts["trials"]
    master = opts["seed"]
    result = exit_time_experiment(squares, lam, trials, seed=master)
    _write_csv(out_dir / "exit_times.csv",
               ("config_hash", "trial", "exit_step"),
               [(chash, i, t) for i, t in enumerate(result.times)])
    fit = None
    if trials >= 20:
        fit = geometric_fit(result.times,
                            float(result.per_step_probability))
    _write_csv(out_dir / "exit_summary.csv",
               ("config_hash", "seed", "n_squares", "fugacity", "trials",
                "mean", "stderr", "ci_lo", "ci_hi", "expected_mean",
                "per_step_probability", "fit_statistic", "fit_dof",
                "fit_passed_1pct"),
               [(chash, master, squares, lam, trials, result.mean,
                 result.stderr, result.ci95[0], result.ci95[1],
                 result.expected_mean, float(result.per_step_probability),
                 fit.statistic if fit else float("nan"),
                 fit.dof if fit else 0,
                 fit.passed if fit else False)])
    outputs = ["exit_times.csv", "exit_summary.csv"] + _render_plots(out_dir)
    print(result.summary())
    return {"outputs": outputs,
            "mean": result.mean, "expected_mean": result.expected_mean}


class _Preset(NamedTuple):
    """One bench preset: its runner, the options it reads (dest -> default;
    ``bench`` refuses any other), and for the search presets the graph,
    subset size, objective and solver family."""
    runner: Callable
    reads: dict
    graph: Optional[Callable] = None     # (scale, k) -> GraphSpec
    k: Optional[Callable] = None         # scale -> subset size
    objective: str = "hafnian"
    family: str = "rs"                   # plain solver: "rs" or "sa"


def _eighth(scale: int) -> int:
    return max(2, _even(scale // 8))


def _search_reads(iterations, mixing_steps, **more) -> dict:
    """The options a search preset reads, with its solver budgets; no
    fugacity means the proposal fugacity."""
    return {"scale": 64, "seeds": 10, "iterations": iterations,
            "mixing_steps": mixing_steps, "fugacity": None, "c": None,
            "seed": 0, **more}


_ANNEAL_READS = {"t0": 1.0, "gamma": 0.95}

_PRESETS = {
    "planted-clique": _Preset(
        _bench_trajectory, _search_reads(1000, 10000),
        lambda s, k: GraphSpec.of("planted_clique", n=s, clique_size=k,
                                  p=0.2), _eighth),
    "dense-subgraph": _Preset(
        _bench_trajectory, _search_reads(1000, 1000, **_ANNEAL_READS),
        lambda s, k: GraphSpec.of("decreasing_degree", n=s),
        lambda s: max(2, _even(s * 5 // 16)), "density", "sa"),
    "bipartite-hafnian": _Preset(
        _bench_trajectory, _search_reads(1000, 1000, **_ANNEAL_READS),
        lambda s, k: GraphSpec.of("random_bipartite", n_per_side=s // 2,
                                  p=0.3), _eighth, family="sa"),
    # Average degree 2: uniform k-subsets almost never hold a perfect
    # matching, so plain search scores zero and the chains must find one.
    "sparse-bipartite": _Preset(
        _bench_trajectory, _search_reads(200, 1000),
        lambda s, k: GraphSpec.of("sparse_bipartite", n_per_side=s // 2,
                                  n_edges=2 * (s // 2)), _eighth),
    "score-advantage": _Preset(
        _bench_score_advantage, _search_reads(100, 1000, k_min=4, k_max=12),
        lambda s, k: GraphSpec.of("erdos_renyi", n=s, p=0.4)),
    "exit-time": _Preset(_bench_exit_time, {
        "squares": 4, "trials": 200, "fugacity": 1.0, "c": None, "seed": 0}),
}


def _cmd_bench(args) -> int:
    # the options a preset may read; their parser defaults are None, for
    # "not given"
    dests = [dest for dest in vars(args) if dest not in (
        "command", "func", "preset", "spec", "out_dir")]
    if args.spec:
        if args.preset:
            raise CliError("give a preset name or --spec, not both")
        _refuse_unread(args, "bench --spec", dests + ["out_dir"])
        return _run_spec(args.spec)
    if not args.preset:
        raise CliError(f"choose a preset {sorted(_PRESETS)} or --spec FILE")
    preset = _PRESETS[args.preset]
    _refuse_unread(args, f"bench {args.preset}",
                   [dest for dest in dests if dest not in preset.reads])
    opts = {dest: getattr(args, dest) for dest in preset.reads}
    if opts.pop("c") is not None:  # --c runs and hashes as the lambda it gives
        opts["fugacity"] = ChainConfig(
            fugacity=args.fugacity, c=args.c).resolved_fugacity()
    opts = {dest: preset.reads[dest] if value is None else value
            for dest, value in opts.items()}
    if "seeds" in opts:
        _check_counts(("--seeds", opts["seeds"], 1))
    chash = _config_hash({"experiment": args.preset, "options": {
        dest: str(value) for dest, value in opts.items()}})
    out_dir = _resolve_out(args.out_dir or f"runs/{args.preset}")
    t0 = time.perf_counter()
    info = preset.runner(args.preset, opts, chash, out_dir)
    wall = time.perf_counter() - t0
    options = {key: opts[key] for key in sorted(opts)
               if opts[key] is not None}
    options.update(info.pop("resolved", {}))
    outputs = info.pop("outputs")
    manifest = {"experiment": args.preset,
                "config_hash": chash,
                "seed": opts["seed"],
                "options": options,
                "outputs": outputs,
                "results": info,
                "timing": {"wall_time_s": f"{wall:.3f}"}}
    _write_manifest(out_dir / "manifest.txt", manifest)
    print(f"wrote {out_dir} ({', '.join(outputs)})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Spec files: lists of command lines
# ---------------------------------------------------------------------------

class _SpecParser(argparse.ArgumentParser):
    """Reports a spec line that does not parse, --help included, as a
    configuration error."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, add_help=False, **kwargs)

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def _run_spec(path) -> int:
    """Run the command lines of the spec file ``path``, a JSON object
    {"runs": [[word, ...], ...]} of strings only.  Every line is parsed
    before the first runs; the run stops at the first line that exits
    non-zero and returns its code."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:  # ValueError: JSON or UTF-8
        raise CliError(f"cannot read spec {path}: {err}")
    runs = data.get("runs") if isinstance(data, dict) and len(data) == 1 \
        else None
    if not (isinstance(runs, list) and runs and all(
            isinstance(line, list) and line
            and all(isinstance(word, str) for word in line)
            for line in runs)):
        raise CliError('a spec is {"runs": [[word, ...], ...]}: one key, a '
                       "non-empty list of non-empty lists of strings")
    parser = build_parser(_SpecParser)
    parsed = [parser.parse_args(line) for line in runs]
    if any(getattr(args, "spec", None) is not None for args in parsed):
        raise CliError("a spec line cannot run bench --spec")
    for args in parsed:
        code = args.func(args)
        if code != EXIT_OK:
            return code
    return EXIT_OK


def _cmd_replot(args) -> int:
    run_dir = Path(args.dir)
    if not run_dir.is_dir():
        raise CliError(f"{args.dir} is not a directory")
    written = _render_plots(run_dir)
    if not written:
        print("no known CSV tables found", file=sys.stderr)
        return EXIT_FAILURE
    print("rewrote " + ", ".join(written))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_fugacity_args(p):
    p.add_argument("--lambda", dest="fugacity", type=_rational_arg,
                   default=None, metavar="L",
                   help="fugacity (accepts fractions like 1/4)")
    p.add_argument("--c", type=_rational_arg, default=None,
                   help="rescaling parameter; implies fugacity c^2")


def _add_inner_args(p):
    """The double loop's inner-sampler flags; other chains refuse them."""
    p.add_argument("--inner", choices=("chain", "exact"),
                   help="inner perfect-matching sampler (default chain)")
    p.add_argument("--inner-steps", type=int,
                   help="inner chain steps per attempt")
    p.add_argument("--max-attempts", type=int,
                   help="inner chain attempts before giving up")
    p.add_argument("--on-inner-failure", choices=("stay", "abort"),
                   help="policy when the inner budget runs out (default stay)")


def _add_anneal_args(p):
    p.add_argument("--gamma", type=float,
                   help="annealing cooling factor per proposal")
    p.add_argument("--t0", type=float,
                   help="initial annealing temperature")


def build_parser(parser_class=argparse.ArgumentParser
                 ) -> argparse.ArgumentParser:
    parser = parser_class(
        prog="gbsmc",
        description="Matching-chain samplers, inner-loop perfect-matching "
                    "dynamics, and chain-enhanced subgraph search.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-graph", help="write a benchmark graph")
    p.add_argument("gen", metavar="kind", choices=sorted(_GRAPH_KINDS))
    p.add_argument("--out", help="edge-list path (default stdout)")
    _add_generator_args(p)
    p.add_argument("--seed", type=_seed_arg)  # default 0 where read
    p.set_defaults(func=_cmd_gen_graph)

    p = sub.add_parser("sample", help="sample chain states")
    _add_graph_args(p)
    p.add_argument("--chain", choices=("glauber", "jerrum", "double-loop"),
                   type=_dashed, default="glauber")
    _add_fugacity_args(p)
    p.add_argument("--steps", type=int, default=10000,
                   help="chain steps per sample window (default 10000)")
    p.add_argument("--burn-in", type=int, default=0)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--post-select-k", type=int, default=None,
                   help="emit the latest state covering exactly k "
                        "vertices; adds hold at k/2 edges")
    p.add_argument("--lazy", action="store_true")
    _add_inner_args(p)
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--out", help="output file (default stdout)")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("solve", help="run solver trials")
    _add_graph_args(p)
    p.add_argument("--alg", default="rs",
                   choices=sorted(_ALG_NAMES) + sorted(_ALG_NAMES.values()))
    p.add_argument("--objective", choices=("hafnian", "density"),
                   default="hafnian")
    p.add_argument("--k", type=int, required=True, help="subset size")
    p.add_argument("--iters", dest="iterations", type=int, default=1000)
    p.add_argument("--sampler", choices=("glauber", "jerrum", "double-loop"),
                   type=_dashed)  # default double-loop
    _add_fugacity_args(p)
    p.add_argument("--mixing-steps", type=int)  # default 1000
    p.add_argument("--retry-bound", type=int)  # default 3
    _add_anneal_args(p)
    p.add_argument("--seeds", type=int, default=1, help="seed-sweep size")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--cold-restart", action="store_true", default=None,
                   help="reset the proposal chain before every draw")
    p.add_argument("--out-dir", default="runs/solve")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="exactness checks")
    vsub = p.add_subparsers(dest="check", required=True)
    pb = vsub.add_parser("balance", help="detailed-balance certificate")
    _add_graph_args(pb)
    pb.add_argument("--dynamics", type=_dashed, default="glauber",
                    choices=("glauber", "jerrum", "double-loop", "pm"))
    _add_fugacity_args(pb)
    pb.add_argument("--lazy", action="store_true")
    pb.add_argument("--tol", type=float, default=1e-12)
    pb.set_defaults(func=_cmd_verify_balance)
    pl = vsub.add_parser("law", help="empirical-vs-exact stationary TV")
    _add_graph_args(pl)
    pl.add_argument("--dynamics", type=_dashed,
                    choices=("glauber", "jerrum", "double-loop"),
                    default="glauber")
    _add_fugacity_args(pl)
    pl.add_argument("--law", choices=LAW_KINDS, default=None,
                    help="target law (default fits the dynamics)")
    pl.add_argument("--samples", type=int, default=100000)
    pl.add_argument("--thin", type=int, default=None,
                    help="steps between kept samples (default: edge count)")
    pl.add_argument("--burn-in", type=int, default=1000)
    pl.add_argument("--tol", type=float, default=0.05)
    pl.add_argument("--lazy", action="store_true")
    _add_inner_args(pl)
    pl.add_argument("--seed", type=_seed_arg, default=0)
    pl.set_defaults(func=_cmd_verify_law)

    # a preset reads only some of these; its _PRESETS row holds the defaults
    p = sub.add_parser("bench", help="run a named experiment preset")
    p.add_argument("preset", nargs="?", choices=sorted(_PRESETS))
    p.add_argument("--spec", metavar="FILE", help="JSON file of command lines")
    p.add_argument("--out-dir", help="run directory (default runs/PRESET)")
    p.add_argument("--scale", type=int,
                   help="total vertex count (structures shrink with it)")
    p.add_argument("--seeds", type=int)
    p.add_argument("--iters", dest="iterations", type=int,
                   help="solver iterations")
    p.add_argument("--mixing-steps", type=int,
                   help="proposal-chain steps")
    _add_fugacity_args(p)
    _add_anneal_args(p)
    p.add_argument("--trials", type=int, help="exit-time trial count")
    p.add_argument("--squares", type=int)
    p.add_argument("--k-min", type=int)
    p.add_argument("--k-max", type=int)
    p.add_argument("--seed", type=_seed_arg)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("replot", help="regenerate figures from CSVs")
    p.add_argument("--dir", required=True)
    p.set_defaults(func=_cmd_replot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code
    except InnerSamplerError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INNER_BUDGET
    except (OracleGuardError, EnumerationCapError, InnerGuardError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ORACLE_GUARD
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
