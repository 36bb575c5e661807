"""Spans around gbsmc's layer boundaries, for the traced run only.

A span is ``[name, parent, start, end, attrs]``; ``parent`` is the index of
the span that was open when it began (-1 at the top).  Spans stay in memory
and are written out once the run ends.

Each boundary is wrapped at the module attribute through which one layer
calls the next, so the wrapper sees exactly the calls the program makes,
and an untraced run, or the untraced copy of an operation in a traced run,
installs nothing and runs the program untouched.  A
target that a refactor has removed is reported as missing and its metrics
read 0; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name, **attrs) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), 0.0, attrs])
        self._stack.append(sid)
        return sid

    def close(self, sid):
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()


def _steps(args, kwargs):
    # the chain drivers take (g, x, lam, lazy_or_cfg, steps, rng, ...)
    return args[4] if len(args) > 4 else kwargs.get("steps", 0)


# (module, attribute path, span name, attrs from (args, kwargs, result))
TARGETS = (
    ("gbsmc.solvers", "objective_value", "solvers.objective",
     lambda a, kw, r: {"objective": a[1], "bits": a[2], "nonzero": r > 0}),
    ("gbsmc.solvers", "_ChainProposals.draw", "solvers.proposal",
     lambda a, kw, r: {"starved": r is None}),
    ("gbsmc.solvers", "hafnian_bits", "hafnian.haf",
     lambda a, kw, r: {"size": a[1].bit_count()}),
    ("gbsmc.solvers", "count_induced_edges", "hafnian.edges",
     lambda a, kw, r: {}),
    ("gbsmc.solvers", "_drive_glauber", "glauber.window",
     lambda a, kw, r: {"steps": _steps(a, kw)}),
    ("gbsmc.solvers", "_drive_jerrum", "jerrum.window",
     lambda a, kw, r: {"steps": _steps(a, kw)}),
    ("gbsmc.solvers", "_drive_double", "double_loop.window",
     lambda a, kw, r: {"steps": _steps(a, kw)}),
    ("gbsmc.double_loop", "_run_restricted", "pm_chain.draw",
     lambda a, kw, r: {"v": a[1].bit_count(), "failed": r is None}),
)


def _wrap(tracer, name, fn, describe):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        tracer.spans[sid][4] = describe(args, kwargs, result)
        return result
    return traced


def install(tracer):
    """Wrap every target that exists; returns (undo list, missing names)."""
    undo, missing = [], []
    for module_name, path, span, describe in TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None)
        if original is None:
            missing.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, _wrap(tracer, span, original, describe))
        undo.append((owner, attr, original))
    return undo, missing


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def span_cost(calls=20_000, best_of=5) -> float:
    """Wall seconds a wrapper adds to one call: a wrapped no-op against the
    bare no-op, best of ``best_of`` loops of ``calls`` calls each."""
    def noop(*args, **kwargs):
        return 0

    wrapped = _wrap(Tracer(), "noop", noop, lambda a, kw, r: {})

    def loop(fn):
        best = float("inf")
        for _ in range(best_of):
            t0 = time.perf_counter()
            for i in range(calls):
                fn(None, i)
            best = min(best, time.perf_counter() - t0)
        return best

    return max(loop(wrapped) - loop(noop), 0.0) / calls


def _median_us(durations):
    return statistics.median(durations) * 1e6 if durations else 0.0


def layer_metrics(spans, slowness) -> dict:
    """Per-layer figures of one batch, from its spans.

    ``slowness[i]`` is the calibration reading of the batch's i-th top-level
    span (one operation); every span inside it is divided by it, to give
    reference seconds.  A layer's self time is its spans' duration minus
    the duration of their child spans (children nest and never overlap:
    one thread).
    """
    top, n_ops = [], 0              # index of the operation around each span
    for s in spans:
        if s[1] < 0:
            top.append(n_ops)
            n_ops += 1
        else:
            top.append(top[s[1]])
    dur = [(s[3] - s[2]) / slowness[t] for s, t in zip(spans, top)]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]
    total = defaultdict(float)
    self_time = defaultdict(float)
    count = defaultdict(int)
    steps = defaultdict(int)
    draw_us = defaultdict(list)
    haf_us = defaultdict(list)
    evals = defaultdict(list)   # trial span -> evaluated bitsets
    failed_draws = starved = haf_evals = haf_nonzero = 0
    for i, (name, parent, _, _, attrs) in enumerate(spans):
        total[name] += dur[i]
        self_time[name] += dur[i] - child[i]
        count[name] += 1
        layer = name.split(".")[0]
        if "steps" in attrs:
            steps[layer] += attrs["steps"]
            total[layer + ".chain"] += dur[i]
            self_time[layer + ".chain"] += dur[i] - child[i]
        if name == "pm_chain.draw":
            draw_us[attrs.get("v")].append(dur[i])
            failed_draws += attrs.get("failed", 0)
        elif name == "hafnian.haf":
            haf_us[attrs.get("size")].append(dur[i])
        elif name == "solvers.proposal":
            starved += attrs.get("starved", 0)
        elif name == "solvers.objective" and attrs:
            evals[parent].append(attrs["bits"])
            if attrs["objective"] == "hafnian":
                haf_evals += 1
                haf_nonzero += attrs["nonzero"]

    def rate(layer):
        t = total[layer + ".chain"]
        return steps[layer] / t if t else 0.0

    windows = sum(count[f"{c}.window"]
                  for c in ("glauber", "jerrum", "double_loop"))
    n_evals = sum(len(v) for v in evals.values())
    inner = count["pm_chain.draw"]
    out = {
        "glauber.steps_per_s": rate("glauber"),
        "jerrum.steps_per_s": rate("jerrum"),
        "double_loop.steps_per_s": rate("double_loop"),
        "double_loop.self_s": self_time["double_loop.chain"],
        "double_loop.inner_calls": inner,
        "double_loop.inner_failure_ratio":
            failed_draws / inner if inner else 0.0,
        "pm_chain.draw_s": total["pm_chain.draw"],
        "hafnian.haf_calls": count["hafnian.haf"],
        "hafnian.haf_s": total["hafnian.haf"],
        "hafnian.edges_s": total["hafnian.edges"],
        "solvers.objective_s": total["solvers.objective"],
        "solvers.proposal_s": total["solvers.proposal"],
        "solvers.self_s": self_time["solvers.trial"],
        "solvers.windows_per_draw":
            windows / count["solvers.proposal"]
            if count["solvers.proposal"] else 0.0,
        "solvers.starved_draws": starved,
        "solvers.distinct_eval_ratio":
            sum(len(set(v)) for v in evals.values()) / n_evals
            if n_evals else 0.0,
        "solvers.nonzero_eval_ratio":
            haf_nonzero / haf_evals if haf_evals else 0.0,
    }
    for v in (4, 6, 8, 16):
        out[f"pm_chain.draw_us.v{v}"] = _median_us(draw_us[v])
    for k in (8, 16):
        out[f"hafnian.haf_us.k{k}"] = _median_us(haf_us[k])
    return out
