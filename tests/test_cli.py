"""End-to-end command-line checks: exit codes, files, determinism."""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

from gbsmc.cli import (
    EXIT_CONFIG,
    EXIT_FAILURE,
    EXIT_INNER_BUDGET,
    EXIT_OK,
    EXIT_ORACLE_GUARD,
    EXIT_STARVATION,
    main,
)
from gbsmc.diagnostics import transition_kernel
from gbsmc.graphs import GraphSpec, from_edge_list_text, gen_graph
from gbsmc.solvers import proposal_fugacity


def run(*argv):
    return main([str(a) for a in argv])


def exit_code(*argv):
    """``run``'s code, or the code of the SystemExit an argparse error
    raises."""
    try:
        return run(*argv)
    except SystemExit as stop:
        return stop.code


# --- gen-graph -------------------------------------------------------------

def test_gen_graph_writes_a_loadable_edge_list(tmp_path, capsys):
    out = tmp_path / "k6.txt"
    assert run("gen-graph", "complete", "--n", 6, "--out", out) == EXIT_OK
    assert capsys.readouterr().out.strip() == "6 15 2.5"
    g = from_edge_list_text(out.read_text())
    assert (g.n, g.m) == (6, 15)


def test_gen_graph_stdout_roundtrip(capsys):
    assert run("gen-graph", "cycle", "--n", 5) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    g = from_edge_list_text("\n".join(lines[:-1]))  # last line is the summary
    assert (g.n, g.m) == (5, 5)


def test_gen_graph_missing_parameter_is_config_error(capsys):
    assert run("gen-graph", "er", "--n", 8) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_gen_graph_of_no_vertices_has_density_zero(capsys):
    assert run("gen-graph", "complete", "--n", 0) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "0 0 0"


# --- sample ------------------------------------------------------------------

def test_sample_emits_one_hex_state_per_window(capsys):
    assert run("sample", "--gen", "complete", "--n", 4, "--steps", 5,
               "--samples", 7, "--lambda", 1) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 7
    for i, line in enumerate(lines, start=1):
        step, state = line.split(",")
        assert int(step) == 5 * i
        assert state.startswith("0x")


def test_sample_window_labels_count_the_burn_in(capsys):
    assert run("sample", "--gen", "complete", "--n", 4, "--lambda", 1,
               "--burn-in", 100, "--steps", 10, "--samples", 3) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [int(line.split(",")[0]) for line in lines] == [110, 120, 130]


def test_sample_refuses_a_zero_denominator_fugacity(capsys):
    assert exit_code("sample", "--gen", "complete", "--n", 4, "--lambda",
                     "1/0", "--samples", 1) == EXIT_CONFIG
    assert "error: argument --lambda" in capsys.readouterr().err


@pytest.mark.parametrize("chain,fugacity", [
    ("glauber", "1e-308"), ("glauber", "1e-320"), ("jerrum", "1e-320"),
    ("double-loop", "1e-160")])
def test_sample_at_a_fugacity_too_small_to_add_holds_at_empty(capsys, chain,
                                                              fugacity):
    # the holding time of an add overflows a float, so every window holds
    assert run("sample", "--gen", "complete", "--n", 4, "--chain", chain,
               "--lambda", fugacity, "--samples", 20) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines] == ["0x0"] * 20


def test_sample_post_selection_emits_the_requested_size(tmp_path):
    out = tmp_path / "states.txt"
    assert run("sample", "--gen", "complete", "--n", 6, "--steps", 200,
               "--samples", 25, "--post-select-k", 4, "--lambda", 1,
               "--out", out) == EXIT_OK
    rows = out.read_text().splitlines()
    assert len(rows) == 25
    assert all(int(r.split(",")[1], 16).bit_count() == 4 for r in rows)


def test_sample_odd_post_selection_is_rejected(capsys):
    assert run("sample", "--gen", "complete", "--n", 6,
               "--post-select-k", 3) == EXIT_CONFIG
    assert "odd" in capsys.readouterr().err


def test_rejected_sample_leaves_no_output_file(tmp_path, capsys):
    out = tmp_path / "odd.txt"
    assert run("sample", "--gen", "complete", "--n", 6,
               "--post-select-k", 3, "--out", out) == EXIT_CONFIG
    assert "odd" in capsys.readouterr().err
    assert not out.exists()


def test_sample_starvation_has_its_own_exit_code(capsys):
    # A single edge can never reach two matched edges.
    assert run("sample", "--gen", "path", "--n", 2, "--steps", 50,
               "--samples", 3, "--post-select-k", 4) == EXIT_STARVATION


def test_law_grade_double_loop_post_selects_at_paper_scale(capsys):
    """ER(256, 0.4) (m = 13,084) at the double loop's proposal fugacity
    for k = 8, sqrt(4/m), with the default inner budget and the "stay"
    policy: adds hold at four edges, so the chain cannot run away above
    them, and each 20,000-step window post-selects an 8-vertex set."""
    assert run("sample", "--gen", "er", "--n", 256, "--p", 0.4, "--chain",
               "double-loop", "--lambda", 0.017485, "--post-select-k", 8,
               "--steps", 20_000, "--samples", 3, "--seed", 1) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(int(line.split(",")[1], 16).bit_count() == 8
               for line in lines)


def test_inner_budget_exhaustion_has_its_own_exit_code(capsys):
    assert run("sample", "--gen", "complete", "--n", 6, "--chain",
               "double-loop", "--lambda", 1, "--inner-steps", 1,
               "--max-attempts", 1,
               "--on-inner-failure", "abort") == EXIT_INNER_BUDGET
    assert "inner budget" in capsys.readouterr().err


def test_an_exact_inner_draw_past_the_hafnian_guard_exits_5(tmp_path,
                                                            capsys):
    """On K28 at a large lambda X grows to a perfect matching, whose
    hafnian could memoise 514,228 sub-sets, past hafnian.MEMO_LIMIT."""
    assert run("sample", "--gen", "complete", "--n", 28, "--chain",
               "double-loop", "--lambda", 10, "--inner", "exact", "--steps",
               3000, "--samples", 1, "--out", tmp_path / "states.txt"
               ) == EXIT_ORACLE_GUARD
    err = capsys.readouterr().err
    assert "the hafnian of 28 vertices may memoise 514228 sub-sets" in err


@pytest.mark.parametrize("flag,value", [("--inner-steps", -3),
                                        ("--inner-steps", 0),
                                        ("--max-attempts", 0)])
def test_sample_refuses_an_inner_budget_below_one(tmp_path, capsys, flag,
                                                  value):
    # No inner steps would hand back X itself, so every gated removal goes
    # ahead; no attempts would refuse every removal.
    out = tmp_path / "states.txt"
    assert run("sample", "--gen", "complete", "--n", 6, "--chain",
               "double-loop", flag, value, "--out", out) == EXIT_CONFIG
    assert "must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--steps", "--burn-in", "--samples",
                                  "--post-select-k"])
def test_sample_refuses_a_negative_count(tmp_path, capsys, flag):
    # -2 is even, so --post-select-k is refused for its sign
    out = tmp_path / "states.txt"
    assert run("sample", "--gen", "complete", "--n", 4, flag, -2,
               "--out", out) == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not out.exists()


# --- solve -------------------------------------------------------------------

def _read_trajectory(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    by_seed = {}
    for row in rows:
        by_seed.setdefault(row["seed"], []).append(
            (int(row["iteration"]), float(row["best_score"])))
    return by_seed


def test_solve_writes_records_and_a_monotone_trajectory(tmp_path, capsys):
    out_dir = tmp_path / "solve"
    assert run("solve", "--gen", "planted-clique", "--n", 14, "--clique", 4,
               "--p", 0.3, "--alg", "rs", "--k", 4, "--iters", 30,
               "--seeds", 2, "--out-dir", out_dir) == EXIT_OK
    printed = capsys.readouterr().out
    assert "trial 0: best=" in printed and "mean_best" in printed
    assert (out_dir / "records.txt").exists()
    by_seed = _read_trajectory(out_dir / "trajectory.csv")
    assert len(by_seed) == 2
    for rows in by_seed.values():
        rows.sort()
        scores = [s for _, s in rows]
        assert len(scores) == 30
        assert all(a <= b for a, b in zip(scores, scores[1:]))


def test_solve_enhanced_chain_sampler(tmp_path, capsys):
    out_dir = tmp_path / "ers"
    assert run("solve", "--gen", "complete", "--n", 10, "--alg", "ers",
               "--sampler", "glauber", "--lambda", "1/4", "--k", 4,
               "--iters", 15, "--mixing-steps", 50,
               "--out-dir", out_dir) == EXIT_OK
    assert "starved=" in capsys.readouterr().out


def test_solve_without_a_fugacity_records_the_proposal_fugacity(tmp_path,
                                                                capsys):
    """With no --lambda, enhanced search runs at the solvers' proposal
    fugacity, starves no draw on a planted clique, and writes what an
    explicit --lambda at that fugacity writes."""
    def solve(out, *flags):
        return run("solve", "--gen", "planted-clique", "--n", 64,
                   "--clique", 8, "--p", 0.2, "--alg", "ers",
                   "--sampler", "glauber", "--k", 8, "--iters", 50,
                   "--seeds", 2, *flags, "--out-dir", tmp_path / out)

    assert solve("default") == EXIT_OK
    assert capsys.readouterr().out.count(" starved=0 ") == 2
    g = gen_graph(GraphSpec.of("planted_clique", n=64, clique_size=8, p=0.2),
                  seed=0)
    lam = proposal_fugacity(g, 8, "glauber")
    records = (tmp_path / "default" / "records.txt").read_text()
    assert records.count(f"  fugacity: {lam!r}\n") == 2
    assert solve("explicit", "--lambda", repr(lam)) == EXIT_OK
    for name in ("records.txt", "trajectory.csv"):
        assert ((tmp_path / "default" / name).read_bytes()
                == (tmp_path / "explicit" / name).read_bytes())


def test_solve_refuses_chain_flags_a_plain_algorithm_ignores(tmp_path,
                                                              capsys):
    for alg in ("rs", "sa"):
        assert run("solve", "--gen", "complete", "--n", 8, "--alg", alg,
                   "--k", 4, "--iters", 5, "--sampler", "jerrum",
                   "--lambda", "1/5", "--mixing-steps", 7, "--retry-bound", 1,
                   "--cold-restart",
                   "--out-dir", tmp_path / alg) == EXIT_CONFIG
        err = capsys.readouterr().err
        for flag in ("--sampler", "--lambda", "--mixing-steps",
                     "--retry-bound", "--cold-restart"):
            assert flag in err
        assert not (tmp_path / alg).exists()


def test_solve_refuses_anneal_flags_random_search_ignores(tmp_path, capsys):
    for alg in ("rs", "ers"):
        assert run("solve", "--gen", "complete", "--n", 8, "--alg", alg,
                   "--k", 4, "--iters", 5, "--gamma", 0.5, "--t0", 3,
                   "--out-dir", tmp_path / alg) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "--gamma" in err and "--t0" in err


def test_solve_odd_hafnian_subset_is_config_error(tmp_path, capsys):
    assert run("solve", "--gen", "complete", "--n", 8, "--alg", "rs",
               "--k", 3, "--iters", 5,
               "--out-dir", tmp_path / "x") == EXIT_CONFIG
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("argv,flag", [
    (("solve", "--gen", "complete", "--n", 6, "--k", 4, "--seeds", 0),
     "--seeds"),
    (("bench", "planted-clique", "--scale", 16, "--seeds", 0), "--seeds"),
    (("bench", "score-advantage", "--scale", 16, "--k-min", 8, "--k-max", 4),
     "--k-max"),
], ids=["solve", "bench", "score-advantage-sizes"])
def test_a_run_of_no_trials_is_refused(tmp_path, capsys, argv, flag):
    assert run(*argv, "--out-dir", tmp_path / "out") == EXIT_CONFIG
    assert flag in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.*"))


@pytest.mark.parametrize("argv", [
    ("solve", "--gen", "complete", "--n", 6, "--alg", "rs", "--k", 4),
    ("solve", "--gen", "complete", "--n", 6, "--alg", "sa", "--k", 4),
    ("bench", "planted-clique", "--scale", 16, "--seeds", 1),
], ids=["solve-rs", "solve-sa", "bench"])
def test_a_run_of_no_iterations_is_refused(tmp_path, capsys, argv):
    assert run(*argv, "--iters", 0, "--out-dir", tmp_path / "out"
               ) == EXIT_CONFIG
    assert "iterations must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.*"))


@pytest.mark.parametrize("argv,message", [
    (("solve", "--gen", "complete", "--n", 6, "--alg", "ers", "--k", 4,
      "--mixing-steps", -5), "mixing steps must be at least 1"),
    (("solve", "--gen", "complete", "--n", 6, "--alg", "ers", "--k", 4,
      "--iters", 3, "--retry-bound", -1), "retry bound must be non-negative"),
    (("bench", "planted-clique", "--scale", 16, "--mixing-steps", -1),
     "mixing steps must be at least 1"),
], ids=["solve-mixing-steps", "solve-retry-bound", "bench-mixing-steps"])
def test_a_budget_that_starves_every_draw_is_refused(tmp_path, capsys, argv,
                                                     message):
    assert run(*argv, "--out-dir", tmp_path / "out") == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("out/*.*"))


@pytest.mark.parametrize("argv", [
    ("score-advantage", "--scale", 16, "--k-min", 8, "--k-max", 4),
    ("exit-time", "--squares", 1, "--trials", 0)],
    ids=["score-advantage-sizes", "exit-time-trials"])
def test_a_refused_bench_run_makes_no_run_directory(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run("bench", *argv, "--out-dir", out) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_algorithm_is_an_argparse_error():
    with pytest.raises(SystemExit):
        run("solve", "--gen", "complete", "--n", 8, "--alg", "tabu",
            "--k", 4)


# --- verify ------------------------------------------------------------------

def test_verify_balance_reports_an_exact_zero(capsys):
    assert run("verify", "balance", "--gen", "complete", "--n", 4,
               "--dynamics", "glauber", "--lambda", "3/2") == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("max_violation 0.0 ")
    assert "PASS" in out


def test_verify_balance_certifies_the_chains_on_an_edge_list(tmp_path,
                                                              capsys):
    graph_file = tmp_path / "square.txt"
    graph_file.write_text("4 5\n0 1\n0 2\n0 3\n1 2\n2 3\n")
    for flags in (("--dynamics", "double-loop", "--lambda", "1/2"),
                  ("--dynamics", "pm")):
        assert run("verify", "balance", "--graph", graph_file,
                   *flags) == EXIT_OK
        assert capsys.readouterr().out.startswith("max_violation 0.0 ")


@pytest.mark.parametrize("text", [
    "4 5 weighted\n0 1 2\n0 2 7/4\n0 3 3/2\n1 2 1\n2 3 5/4\n",
    "4 5\n0 1 2\n0 2 7/4\n0 3 3/2\n1 2 1\n2 3 5/4\n",
], ids=["weighted-header", "weight-column"])
def test_verify_balance_refuses_a_weighted_edge_list(tmp_path, capsys, text):
    graph_file = tmp_path / "w.txt"
    graph_file.write_text(text)
    assert run("verify", "balance", "--graph", graph_file,
               "--dynamics", "pm") == EXIT_CONFIG
    assert "gbsmc reads unweighted edge lists" in capsys.readouterr().err


@pytest.mark.parametrize("dynamics", ["glauber", "jerrum"])
def test_verify_balance_lazy_certifies_the_lazy_kernel(monkeypatch, capsys,
                                                       dynamics):
    import gbsmc.cli as cli
    built = []

    def kernel(g, dyn, lam=None, lazy=False):
        built.append(lazy)
        return transition_kernel(g, dyn, lam=lam, lazy=lazy)

    monkeypatch.setattr(cli, "transition_kernel", kernel)
    for flags in ((), ("--lazy",)):
        assert run("verify", "balance", "--gen", "complete", "--n", 4,
                   "--dynamics", dynamics, "--lambda", "3/2",
                   *flags) == EXIT_OK
        assert "PASS" in capsys.readouterr().out
    assert built == [False, True]


@pytest.mark.parametrize("dynamics", ["double-loop", "pm"])
def test_verify_balance_lazy_without_a_lazy_kernel_is_config_error(
        capsys, dynamics):
    assert run("verify", "balance", "--gen", "complete", "--n", 4,
               "--dynamics", dynamics, "--lambda", "3/2",
               "--lazy") == EXIT_CONFIG
    assert "--lazy" in capsys.readouterr().err


@pytest.mark.parametrize("command", [("sample", "--chain"),
                                     ("verify", "law", "--dynamics")],
                         ids=["sample", "verify-law"])
def test_lazy_double_loop_is_config_error(tmp_path, capsys, command):
    out = tmp_path / "states.txt"
    flags = ("--out", out) if command[0] == "sample" else ()
    assert run(*command, "double-loop", "--gen", "complete", "--n", 4,
               "--lambda", 1, "--lazy", *flags) == EXIT_CONFIG
    assert "--lazy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [("sample", "--chain"),
                                     ("verify", "law", "--dynamics")],
                         ids=["sample", "verify-law"])
def test_inner_flags_without_the_double_loop_are_config_errors(
        tmp_path, capsys, command):
    out = tmp_path / "states.txt"
    flags = ("--out", out) if command[0] == "sample" else ()
    for chain in ("glauber", "jerrum"):
        for flag, value in (("--inner", "exact"), ("--inner-steps", 3),
                            ("--max-attempts", 1),
                            ("--on-inner-failure", "abort")):
            assert run(*command, chain, "--gen", "complete", "--n", 4,
                       flag, value, *flags) == EXIT_CONFIG
            assert flag in capsys.readouterr().err
            assert not out.exists()


def test_verify_balance_pm_refuses_a_fugacity(capsys):
    for flag, value in (("--lambda", "3/2"), ("--c", "1/2")):
        assert run("verify", "balance", "--gen", "complete", "--n", 4,
                   "--dynamics", "pm", flag, value) == EXIT_CONFIG
        assert flag in capsys.readouterr().err


def test_verify_law_passes_with_a_modest_sample_budget(capsys):
    assert run("verify", "law", "--gen", "complete", "--n", 4,
               "--dynamics", "glauber", "--lambda", 1,
               "--samples", 20000, "--seed", 1) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("tv ") and "PASS" in out


def test_verify_law_fails_at_an_impossible_tolerance(capsys):
    assert run("verify", "law", "--gen", "complete", "--n", 6,
               "--dynamics", "glauber", "--lambda", 1, "--samples", 500,
               "--tol", 1e-6, "--seed", 1) == EXIT_FAILURE
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flag,value", [("--samples", 0), ("--burn-in", -5),
                                        ("--thin", 0)])
def test_verify_law_refuses_a_count_below_its_least(capsys, flag, value):
    assert run("verify", "law", "--gen", "complete", "--n", 4,
               "--samples", 10, flag, value) == EXIT_CONFIG
    assert flag in capsys.readouterr().err


def test_verify_law_oracle_guard_exit_code(capsys):
    assert run("verify", "law", "--gen", "complete", "--n", 16,
               "--dynamics", "glauber", "--lambda", 1,
               "--samples", 10) == 5  # oracle guard
    assert "error:" in capsys.readouterr().err


# --- bench / replot ----------------------------------------------------------

def _bench_exit_time(out_dir, trials=40, fugacity=("--lambda", 1)):
    return exit_code("bench", "exit-time", "--squares", 1, "--trials",
                     trials, *fugacity, "--out-dir", out_dir)


def test_bench_exit_time_runs_at_the_fugacity_c_gives(tmp_path):
    tables = {}
    for name, fugacity in (("c", ("--c", "1/2")),
                           ("quarter", ("--lambda", "1/4")),
                           ("one", ("--lambda", 1))):
        assert _bench_exit_time(tmp_path / name,
                                fugacity=fugacity) == EXIT_OK
        tables[name] = {p.name: p.read_bytes()
                        for p in (tmp_path / name).glob("*.csv")}
    assert tables["c"] == tables["quarter"] != tables["one"]


def test_bench_exit_time_runs_on_cheap_hafnians_of_many_vertices(tmp_path):
    # Trials start at a matching on all 36 vertices of hard_instance(9),
    # whose sparse hafnians pass the exact inner draw's guard.
    assert run("bench", "exit-time", "--squares", 9, "--trials", 3,
               "--out-dir", tmp_path / "exit") == EXIT_OK


@pytest.mark.parametrize("trials,fugacity", [
    (40, ("--lambda", 0)), (40, ("--lambda", -1)), (40, ("--c", 0)),
    (0, ("--lambda", 1)), (40, ("--c", "1/0")), (1, ("--lambda", "inf")),
    (1, ("--lambda", "1e200")), (1, ("--lambda", "1e150"))],
    ids=["lambda-0", "lambda-negative", "c-0", "no-trials",
         "c-zero-denominator", "lambda-inf", "exit-probability-underflows",
         "step-cap-past-the-limit"])
def test_bench_exit_time_refuses_a_bad_fugacity_or_trial_count(
        tmp_path, capsys, trials, fugacity):
    assert _bench_exit_time(tmp_path / "exit", trials,
                            fugacity) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert not list((tmp_path / "exit").glob("*.csv"))


def test_bench_exit_time_produces_manifest_tables_and_figures(tmp_path,
                                                              capsys):
    out_dir = tmp_path / "exit"
    assert _bench_exit_time(out_dir) == EXIT_OK
    assert "wrote" in capsys.readouterr().out
    manifest = (out_dir / "manifest.txt").read_text()
    assert manifest.startswith("experiment: exit-time\n")
    assert "config_hash: " in manifest and "options:" in manifest
    csvs = list(out_dir.glob("*.csv"))
    svgs = list(out_dir.glob("*.svg"))
    assert csvs and svgs
    for table in csvs:
        head = table.read_text().splitlines()[0]
        assert "," in head  # header row present


def test_bench_reruns_are_byte_identical(tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    assert _bench_exit_time(first) == EXIT_OK
    assert _bench_exit_time(second) == EXIT_OK
    names = sorted(p.name for p in first.iterdir()
                   if p.suffix in (".csv", ".svg"))
    assert names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_replot_regenerates_identical_figures(tmp_path, capsys):
    out_dir = tmp_path / "exit"
    assert _bench_exit_time(out_dir) == EXIT_OK
    before = {p.name: p.read_bytes() for p in out_dir.glob("*.svg")}
    capsys.readouterr()
    assert run("replot", "--dir", out_dir) == EXIT_OK
    assert "rewrote" in capsys.readouterr().out
    after = {p.name: p.read_bytes() for p in out_dir.glob("*.svg")}
    assert before == after


def test_bench_figures_are_wellformed_svg(tmp_path):
    out_dir = tmp_path / "exit"
    assert _bench_exit_time(out_dir) == EXIT_OK
    for fig in out_dir.glob("*.svg"):
        root = ET.parse(fig).getroot()
        assert root.tag.endswith("svg")


def test_replot_on_an_empty_directory_fails(tmp_path, capsys):
    assert run("replot", "--dir", tmp_path) == EXIT_FAILURE


def test_bench_spec_file_drives_a_run(tmp_path):
    out_dir = tmp_path / "from-spec"
    spec = {"task": "bench", "name": "exit-time",
            "out_dir": str(out_dir),
            "config": {"squares": 1, "trials": 30, "fugacity": 1}}
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    assert run("bench", "--spec", spec_file) == EXIT_OK
    assert (out_dir / "manifest.txt").exists()


def test_bench_spec_rejects_unknown_keys(tmp_path, capsys):
    spec_file = tmp_path / "bad.json"
    spec_file.write_text(json.dumps({"task": "bench", "name": "exit-time",
                                     "squares": 1}))
    assert run("bench", "--spec", spec_file) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


def test_bench_needs_a_preset_or_spec(capsys):
    assert run("bench") == EXIT_CONFIG
    assert "preset" in capsys.readouterr().err


def test_solve_records_hold_no_timing(tmp_path, capsys):
    out_dir = tmp_path / "solve"
    assert run("solve", "--gen", "complete", "--n", 8, "--alg", "sa",
               "--k", 4, "--iters", 10, "--seeds", 2,
               "--out-dir", out_dir) == EXIT_OK
    assert "time" not in (out_dir / "records.txt").read_text()
    assert "wall_time_s=" in capsys.readouterr().out


# --- every preset ------------------------------------------------------------

_SEARCH_FLAGS = ("--scale", 16, "--seeds", 2, "--iters", 20,
                 "--mixing-steps", 200)
# the flags each preset reads; exit-time runs at its defaults
_PRESET_FLAGS = {
    "planted-clique": _SEARCH_FLAGS,
    "dense-subgraph": _SEARCH_FLAGS,
    "bipartite-hafnian": _SEARCH_FLAGS,
    "sparse-bipartite": _SEARCH_FLAGS,
    "score-advantage": _SEARCH_FLAGS + ("--k-min", 4, "--k-max", 6),
    "exit-time": (),
}
_PRESET_FILES = {
    "planted-clique": {"summary.csv", "curves.csv", "curves.svg"},
    "dense-subgraph": {"summary.csv", "curves.csv", "curves.svg"},
    "bipartite-hafnian": {"summary.csv", "curves.csv", "curves.svg"},
    "sparse-bipartite": {"summary.csv", "curves.csv", "curves.svg"},
    "score-advantage": {"advantage.csv", "advantage.svg"},
    "exit-time": {"exit_times.csv", "exit_summary.csv", "exit_times.svg"},
}


def _run_files(out_dir):
    """Every file of a run directory, the manifest without its timing."""
    files = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    manifest = files.pop("manifest.txt").decode()
    files["manifest.txt"] = manifest.split("timing:")[0]
    return files


@pytest.mark.parametrize("preset", sorted(_PRESET_FILES))
def test_every_preset_runs_and_reruns_byte_identical(tmp_path, preset):
    first, second = tmp_path / "a", tmp_path / "b"
    for out_dir in (first, second):
        assert run("bench", preset, *_PRESET_FLAGS[preset],
                   "--out-dir", out_dir) == EXIT_OK
    files = _run_files(first)
    assert set(files) == _PRESET_FILES[preset] | {"manifest.txt"}
    assert files == _run_files(second)
    assert files["manifest.txt"].startswith(f"experiment: {preset}\n")


# one flag per preset that the preset does not read
_UNREAD_FLAG = {"planted-clique": ("--t0", 2),
                "dense-subgraph": ("--squares", 3),
                "bipartite-hafnian": ("--trials", 5),
                "sparse-bipartite": ("--k-min", 4),
                "score-advantage": ("--gamma", 0.5),
                "exit-time": ("--scale", 16)}


@pytest.mark.parametrize("preset", sorted(_UNREAD_FLAG))
def test_a_preset_refuses_a_flag_it_does_not_read(tmp_path, capsys, preset):
    flag, value = _UNREAD_FLAG[preset]
    out = tmp_path / "run"
    assert run("bench", preset, flag, value, "--out-dir", out) == EXIT_CONFIG
    assert f"bench {preset} does not use {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("preset", ["planted-clique", "score-advantage"])
def test_c_and_the_lambda_it_gives_write_the_same_tables(tmp_path, preset):
    tables = []
    for name, fugacity in (("c", ("--c", "1/2")),
                           ("lambda", ("--lambda", "1/4"))):
        assert run("bench", preset, *_PRESET_FLAGS[preset], *fugacity,
                   "--out-dir", tmp_path / name) == EXIT_OK
        tables.append({p.name: p.read_bytes()
                       for p in (tmp_path / name).glob("*.csv")})
    assert tables[0] and tables[0] == tables[1]


# --- specs are command lines -------------------------------------------------

def _write_spec(tmp_path, spec):
    spec_file = tmp_path / "spec.json"
    spec_file.write_text(json.dumps(spec))
    return spec_file


@pytest.mark.parametrize("spec", [
    {"task": "solve", "graph": {"kind": "complete", "params": {"n": 6}},
     "config": {"k": "4"}},
    {"task": "exit-time", "config": {"squares": "two"}},
    {"task": "sample", "graph": {"kind": "complete", "params": {"n": 6}},
     "config": {"chain": "metropolis"}},
    {"task": "sample", "graph": {"kind": "complete", "params": {"n": 6}},
     "config": {"steps": -1}},
], ids=["solve-k-string", "exit-time-squares-word", "sample-unknown-chain",
        "sample-negative-steps"])
def test_malformed_spec_values_are_config_errors(tmp_path, capsys, spec):
    out_dir = tmp_path / "out"
    spec["out_dir"] = str(out_dir)
    assert run("bench", "--spec", _write_spec(tmp_path, spec)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_dir.exists()


def test_a_bench_spec_refuses_every_other_bench_option(tmp_path, capsys):
    spec = {"task": "bench", "name": "exit-time",
            "out_dir": str(tmp_path / "out"),
            "config": {"squares": 1, "trials": 20}}
    assert run("bench", "--spec", _write_spec(tmp_path, spec), "--scale", 3,
               "--trials", 5, "--k-min", 9) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "bench --spec does not use --scale, --trials, --k-min" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spec", [
    {"task": "solve", "graph": {"kind": "complete", "params": {"n": 6}},
     "config": {"k": 4, "iterations": 5}},
    {"task": "verify", "graph": {"kind": "complete", "params": {"n": 4}},
     "config": {"mode": "balance"}},
    {"task": "exit-time", "config": {"squares": 1, "trials": 20}},
    {"task": "bench", "name": "exit-time",
     "config": {"squares": 1, "trials": 20}},
], ids=["solve", "verify", "exit-time", "bench-exit-time"])
def test_spec_replicates_outside_sample_and_bench_are_refused(tmp_path,
                                                               capsys, spec):
    spec.update(replicates=3, out_dir=str(tmp_path / "out"))
    assert run("bench", "--spec", _write_spec(tmp_path, spec)) == EXIT_CONFIG
    assert "replicates" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spec_writes_what_its_command_line_writes(tmp_path):
    spec = {"task": "solve", "seed": 5, "out_dir": str(tmp_path / "spec"),
            "graph": {"kind": "planted_clique", "seed": 2,
                      "params": {"n": 14, "clique_size": 4, "p": 0.3}},
            "config": {"alg": "esa", "sampler": "double_loop",
                       "fugacity": "1/5", "k": 4, "iterations": 20,
                       "mixing_steps": 50, "seeds": 2, "cold_restart": True}}
    assert run("bench", "--spec", _write_spec(tmp_path, spec)) == EXIT_OK
    assert run("solve", "--gen", "planted-clique", "--n", 14, "--clique", 4,
               "--p", 0.3, "--graph-seed", 2, "--seed", 5, "--alg", "esa",
               "--sampler", "double-loop", "--lambda", "1/5", "--k", 4,
               "--iters", 20, "--mixing-steps", 50, "--seeds", 2,
               "--cold-restart", "--out-dir", tmp_path / "cli") == EXIT_OK
    names = {"records.txt", "trajectory.csv"}
    for name in names:
        assert ((tmp_path / "spec" / name).read_bytes()
                == (tmp_path / "cli" / name).read_bytes())

    spec = {"task": "bench", "name": "exit-time",
            "out_dir": str(tmp_path / "exit-spec"),
            "config": {"squares": 1, "trials": 40, "fugacity": 1}}
    assert run("bench", "--spec", _write_spec(tmp_path, spec)) == EXIT_OK
    assert run("bench", "exit-time", "--squares", 1, "--trials", 40,
               "--lambda", 1, "--out-dir", tmp_path / "exit-cli") == EXIT_OK
    assert (_run_files(tmp_path / "exit-spec")
            == _run_files(tmp_path / "exit-cli"))

    # a sample task runs one command line per replicate, seeded
    # "<seed>/replicate<r>"; each run makes the directory of its --out file
    spec = {"task": "sample", "seed": 3, "out_dir": str(tmp_path / "s-spec"),
            "graph": {"kind": "complete", "params": {"n": 6}},
            "config": {"steps": 20, "samples": 5, "fugacity": 1}}
    assert run("bench", "--spec", _write_spec(tmp_path, spec)) == EXIT_OK
    assert run("sample", "--gen", "complete", "--n", 6, "--steps", 20,
               "--samples", 5, "--lambda", 1, "--seed", "3/replicate0",
               "--out", tmp_path / "s-cli" / "samples.csv") == EXIT_OK
    assert ((tmp_path / "s-spec" / "samples.csv").read_bytes()
            == (tmp_path / "s-cli" / "samples.csv").read_bytes())
