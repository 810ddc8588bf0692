"""Command-line harness: runs, sweeps, conversion, exit codes, reproducibility."""

import ast
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import cfl
from cfl.cli import USAGE, main, parse_args
from cfl.config import Config, ConfigError
from cfl.graphs import (MAX_EDGELIST_N, VertexSet, cycle_graph,
                        format_edgelist, format_graph6, parse_graph,
                        random_gnp)
from cfl.regularity import exhaustive_fits, pair_density

from support import reference_parser, strip_timings


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def write(path, text):
    path.write_text(text, encoding="utf-8")     # cfl reads every file as UTF-8
    return str(path)


def run_cli(args):
    return main(list(args))


def read_report(capsys):
    out = capsys.readouterr().out
    return json.loads(out)


def test_alpha_run_on_c5(tmp_path, capsys):
    cfg = write(tmp_path / "a.ini", "[run]\nkind = alpha\nseed = 7\n"
                                    "[alpha]\ngraph = c5\nell = 2\n")
    assert run_cli(["alpha", "--config", cfg]) == 0
    rep = read_report(capsys)
    assert rep["schema"] == 1
    assert rep["result"]["value"] == 2
    assert rep["tool"]["rng"] == "splitmix64"
    assert rep["config_hash"]


def test_construct_then_tile_pipeline(tmp_path, capsys):
    gpath = tmp_path / "lb7.el"
    cfg1 = write(tmp_path / "c.ini", f"""
[run]
kind = construct
seed = 1
[construct]
family = lower-bound
n = 7
r = 3
ell = 2
clique_size = 2
inner = c5
graph_out = {gpath}
""")
    assert run_cli(["construct", "--config", cfg1]) == 0
    capsys.readouterr()
    assert gpath.exists()
    cfg2 = write(tmp_path / "t.ini", f"[run]\nkind = tile\n"
                                     f"[tile]\ngraph = {gpath}\nr = 3\n")
    assert run_cli(["tile", "--config", cfg2]) == 0
    rep = read_report(capsys)
    assert rep["result"]["deficiency"] >= 1
    assert rep["result"]["optimal"] is True


def test_thresholds_kind(tmp_path, capsys):
    cfg = write(tmp_path / "th.ini", "[run]\nkind = thresholds\n"
                                     "[thresholds]\nr = 4\nell = 3\n"
                                     "rho_star = 0\nparts = 1 3 3\n")
    assert run_cli(["thresholds", "--config", cfg]) == 0
    rep = read_report(capsys)
    dt = rep["result"]["degree_thresholds"]
    assert dt["tiling_term"] == "1/4"
    assert dt["cover_term"] == "1/2"
    assert dt["threshold"] == "1/2"
    assert rep["result"]["chi_cr"] == "7/3"


def test_bounds_kind(tmp_path, capsys):
    cfg = write(tmp_path / "b.ini", "[run]\nkind = bounds\n"
                                    "[bounds]\nformula = janson\n"
                                    "a_size = 5\nell = 3\np = 0.5\n")
    assert run_cli(["bounds", "--config", cfg]) == 0
    rep = read_report(capsys)
    assert rep["result"]["expected_x"] == pytest.approx(1.25)


def test_exit_code_config_error(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", "[run]\nkind = alpha\n"
                                      "[alpha]\ngraph = c5\nell = two\n")
    assert run_cli(["alpha", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert "[alpha] ell" in err


def test_exit_code_missing_input(tmp_path, capsys):
    cfg = write(tmp_path / "miss.ini", "[run]\nkind = alpha\n"
                                       "[alpha]\ngraph = ./no-such-file.g6\n"
                                       "ell = 2\n")
    assert run_cli(["alpha", "--config", cfg]) == 3


@pytest.mark.parametrize("kind", ["tile", "factor"])
def test_exit_code_r_below_two(tmp_path, capsys, kind):
    cfg = write(tmp_path / "r1.ini", f"[run]\nkind = {kind}\n"
                                     f"[{kind}]\ngraph = complete:4\nr = 1\n")
    assert run_cli([kind, "--config", cfg]) == 2
    assert f"[{kind}] r" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, field", [
    ("vertex", "99", "[cover] vertex"),
    ("vertex", "-1", "[cover] vertex"),
    ("forbidden", "0,3", "[cover] forbidden"),
    ("r", "0", "[cover] r"),
])
def test_cover_user_errors_exit_two(tmp_path, capsys, key, value, field):
    params = {"vertex": "0", "r": "2", key: value}
    cfg = write(tmp_path / "cv.ini",
                "[run]\nkind = cover\n[cover]\ngraph = petersen\n"
                + "".join(f"{k} = {v}\n" for k, v in params.items()))
    assert run_cli(["cover", "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_a_cover_past_the_hub_degree_answers_at_once(tmp_path, capsys):
    # the clique search once walked every subset of the hub's 39 neighbours
    cfg = write(tmp_path / "cv.ini",
                "[run]\nkind = cover\n[cover]\ngraph = complete:40\n"
                "vertex = 0\nr = 41\n")
    assert run_cli(["cover", "--config", cfg]) == 0
    assert read_report(capsys)["result"]["cover"] is None


def test_a_search_past_the_recursion_limit_exits_three(tmp_path, capsys):
    # a K_999 through vertex 0 of K_1000 recurses once per clique vertex;
    # it once ended in a RecursionError traceback with exit 1
    cover = "[cover]\ngraph = complete:1000\nvertex = 0\n"
    cfg = write(tmp_path / "cv.ini", "[run]\nkind = cover\n" + cover + "r = 999\n")
    assert run_cli(["cover", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("input error: cover: ") and "recursion limit" in err
    # a scan point gets an error row, and the other points still run
    cfg = write(tmp_path / "scan.ini", "[run]\nkind = cover\n" + cover
                + "r = 2\n[scan]\nparam = cover.r\nvalues = 2, 999\n")
    outdir = tmp_path / "out"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir)]) == 3
    rows = (outdir / "scan.csv").read_text().strip().split("\n")[1:]
    assert [row.split(",")[3:5] for row in rows] == [["ok", "0"], ["error", "3"]]


@pytest.mark.parametrize("kind, body, field", [
    ("alpha", "graph = c5\nell = 1\n", "[alpha] ell"),
    ("alpha", "graph = c5\nell = 0\nmode = greedy\n", "[alpha] ell"),
    ("rtt", "n = 0\nr = 3\nell = 2\nalpha_bound = 3\n", "[rtt] n"),
    ("rtt", "n = 3\nr = 1\nell = 2\nalpha_bound = 3\n", "[rtt] r"),
    ("rtt", "n = 3\nr = 3\nell = 1\nalpha_bound = 3\n", "[rtt] ell"),
    ("embed", "graph = complete:6\nclasses = 0-2;3-6\np = 1\n",
     "[embed] classes[1]"),
    ("embed", "graph = complete:6\nclasses = 0,7;3-5\np = 1\n",
     "[embed] classes[0]"),
    ("embed", "graph = complete:6\nclasses = 0-5\np = 1\n", "[embed] classes"),
    ("embed", "graph = complete:6\nclasses = 0-2;2-5\np = 1\n",
     "[embed] classes[1]"),
    ("embed", "graph = complete:6\nclasses = 0-2;3-5\np = 0\n", "[embed] p"),
    ("embed", "graph = complete:6\nclasses = 0-2;3-5\np = 1\ns = 0\n",
     "[embed] s"),
    ("embed", "graph = complete:6\nclasses = 0-2;3-5\np = 1\ns = 1.5\n",
     "[embed] s"),
    ("embed", "graph = complete:6\nclasses = 0-2;3-5\np = 1\nalpha_bound = x\n",
     "[embed] alpha_bound"),
    ("alpha", "graph = gnp:12\nell = 2\n", "[alpha] graph"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\nu_set = 0,99\n",
     "[absorb] u_set"),
    ("absorb", "task = reachable\ngraph = petersen\nr = 3\nu = 0\nv = 99\n"
     "s_set = 1,2\n", "[absorb] v"),
    ("absorb", "task = reachable\ngraph = petersen\nr = 3\nu = -1\nv = 0\n"
     "s_set = 1,2\n", "[absorb] u"),
    ("absorb", "task = reachable\ngraph = petersen\nr = 3\nu = 4\nv = 4\n"
     "s_set = 1,2\n", "[absorb] v"),
    ("absorb", "task = reachable\ngraph = petersen\nr = 3\nu = 1\nv = 4\n"
     "s_set = 1,2\n", "[absorb] s_set"),
    ("absorb", "task = absorber\ngraph = petersen\nr = 3\ns_set = 0,1\n"
     "a_set = 2,3,4\nt = 1\n", "[absorb] s_set"),
    ("absorb", "task = absorber\ngraph = petersen\nr = 3\ns_set = 0,1,2\n"
     "a_set = 2,3,4\nt = 1\n", "[absorb] a_set"),
    ("absorb", "task = gadget\nr = 1\n", "[absorb] r"),
    ("absorb", "task = xi\ngraph = petersen\nr = 0\na_set = 0,1,2\nxi = 0\n",
     "[absorb] r"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 4-9\nt = 1\nr = 2\nm = 1\n",
     "[drc] witness"),
    ("drc", "graph = petersen\ntarget =\nwitness =\nt = 1\nr = 2\nm = 1\n",
     "[drc] target"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 0\nr = 2\nm = 1\n",
     "[drc] t"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 1\nr = 1\nm = 1\n",
     "[drc] r"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 1\nr = 2\nm = 0\n",
     "[drc] m"),
    ("regcheck", "graph = multipartite:3,3,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 0\nd = 0.5\n",
     "[regcheck] epsilon"),
    ("regcheck", "graph = multipartite:3,3,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 1/4\nd = 0.5\n"
     "samples = 0\n", "[regcheck] samples"),
    ("regcheck", "graph = multipartite:3,3,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 1/4\nd = 0.5\n"
     "samples = -3\n", "[regcheck] samples"),
    ("absorb", "task = xi\ngraph = petersen\nr = 3\na_set = 0,1,2\nxi = 1/5\n"
     "mode = sampled\nsamples = 0\n", "[absorb] samples"),
    ("absorb", "task = xi\ngraph = petersen\nr = 3\na_set = 0,1,2\nxi = 1/5\n"
     "mode = sampled\nsamples = -5\n", "[absorb] samples"),
    ("thresholds", "parts = 1 0 3\n", "[thresholds] parts"),
    ("thresholds", "parts =\n", "[thresholds] parts"),
    ("thresholds", "r = 4\nell = 2\nprofile_c = 0.5\nprofile_n = 1\n",
     "[thresholds] profile_n"),
    ("thresholds", "r = 4\nell = 2\nprofile_c = -1e6\nprofile_n = 12\n",
     "[thresholds] profile_c"),
    ("thresholds", "r = 4\nell = 2\nprofile_c = nan\nprofile_n = 12\n",
     "[thresholds] profile_c: expected a finite number"),
    ("thresholds", "r = 4\nell = 2\nprofile_c = inf\nprofile_n = 12\n",
     "[thresholds] profile_c: expected a finite number"),
    ("bounds", "formula = janson\na_size = 5\nell = 3\np = 2\n", "[bounds] p"),
    ("bounds", "formula = fkg\nn = 5\nell = 2\np = nan\n", "[bounds] p"),
    ("bounds", "formula = janson\na_size = -3\nell = 3\np = 0.5\n",
     "[bounds] a_size"),
    ("bounds", "formula = janson\na_size = 5\nell = 0\np = 0.5\n",
     "[bounds] ell"),
    ("bounds", "formula = fkg\nn = 2\nell = -2\np = 0.5\n", "[bounds] ell"),
    # n = -5 once reported lower_bound 1.0 with exit 0
    ("bounds", "formula = fkg\nn = -5\nell = 2\np = 0.5\n", "[bounds] n"),
    ("bounds", "formula = drc-condition\nn = 0\navg_degree = 1\nt = 1\nr = 1\n"
     "m = 1\na = 0\n", "[bounds] n"),
    ("bounds", "formula = drc-condition\nn = 5\navg_degree = -1\nt = 1\nr = 1\n"
     "m = 1\na = 0\n", "[bounds] avg_degree"),
    ("bounds", "formula = drc-condition\nn = 5\navg_degree = 1\nt = 1\nr = 1\n"
     "m = 1\na = nan\n", "[bounds] a: expected a finite number"),
    ("bounds", "formula = fkg\nn = 5\nell = 2\np = 1\n", "[bounds] p"),
    ("bounds", "formula = drc-condition\nn = 5\navg_degree = 1e308\nt = 2\n"
     "r = 2\nm = 1\na = 0\n", "[bounds] avg_degree: the slack overflows"),
    ("bounds", "formula = drc-condition\nn = 5\navg_degree = 2\nt = 2\n"
     "r = 2\nm = 1e308\na = 0\n", "[bounds] m: the slack overflows"),
    ("bounds", "formula = drc-condition\nn = 5\navg_degree = inf\nt = 1\n"
     "r = 1\nm = inf\na = 0\n", "[bounds] avg_degree: expected a finite number"),
    ("bounds", "formula = fkg\nn = 100000\nell = 300\np = 0.5\n",
     "[bounds] n: C(n, ell + 1)"),
    ("bounds", "formula = janson\na_size = 1000\nell = 150\np = 0.5\n",
     "[bounds] a_size: the exact Delta"),
    ("bounds", "formula = janson\na_size = 100000\nell = 300\np = 0.99\n",
     "[bounds] a_size: E[X] or Delta"),
    ("construct", "family = lower-bound\nn = 0\nr = 3\nell = 2\nclique_size = 1\n"
     "inner = empty:1\n", "[construct] n"),
    ("construct", "family = sparse-klfree\nn = 0\nell = 3\ngamma = 0.1\n",
     "[construct] n"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 1\nr = 2\nm = 1\n"
     "trials = -1\n", "[drc] trials"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 1\nr = 2\nm = 1\n"
     "trials = 0\n", "[drc] trials"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\npair_budget = -1\n",
     "[absorb] pair_budget"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\nt = -1\n",
     "[absorb] t"),
    ("absorb", "task = absorber\ngraph = petersen\nr = 3\ns_set = 0,1,2\n"
     "a_set = 3,4,5\nt = -2\n", "[absorb] t"),
    ("embed", "graph = complete:12\nclasses = 0-3;4-7;8-11\np = 2\n"
     "alpha_bound = 1\ntrials = -3\n", "[embed] trials"),
    ("embed", "graph = complete:12\nclasses = 0-3;4-7;8-11\np = 2\n"
     "alpha_bound = -1\n", "[embed] alpha_bound"),
    ("thresholds", "r = 4\nell = 2\nn = -5\n", "[thresholds] n"),
    ("alpha", "node_budget = -1\n[alpha]\ngraph = petersen\nell = 2\n",
     "[run] node_budget"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\nlimit = 0\n",
     "[absorb] limit"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\nlimit = -4\n",
     "[absorb] limit"),
    ("absorb", "task = xi\ngraph = complete:6\nr = 3\na_set = 0-2\nxi = -1/2\n",
     "[absorb] xi"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\nu_set = 2\n",
     "[absorb] u_set"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\nu_set =\n",
     "[absorb] u_set"),
    ("regcheck", "graph = multipartite:3,3,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 1/4\nd = -1\n"
     "super = true\n", "[regcheck] d"),
    ("regcheck", "graph = multipartite:3,3,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 1/4\nd = 3/2\n"
     "super = true\n", "[regcheck] d"),
    ("construct", "family = sparse-klfree\nn = 12\nell = 3\ngamma = 0.1\n"
     "max_tries = 0\n", "[construct] max_tries"),
    # epsilon >= 1 made every pair regular: gnp:9,0.5,3 passed all three
    ("regcheck", "graph = gnp:9,0.5,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 2\nd = 0.5\n",
     "[regcheck] epsilon"),
    ("regcheck", "graph = gnp:9,0.5,3\n"
     "partition = {golden}/regcheck-partition.txt\nepsilon = 1\nd = 0.5\n",
     "[regcheck] epsilon"),
    # the slack is -inf, which a JSON report cannot hold
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 70\nr = 2\n"
     "m = 1000000\n", "[drc] m: the condition's slack"),
    # here d^t / n^(t-1) is +inf: the average degree 199 is taken over the
    # whole graph, n = 2 only over target and witness
    ("drc", "graph = complete:200\ntarget = 0\nwitness = 1\nt = 200\nr = 2\n"
     "m = 1\n", "[drc] t: the condition's slack"),
    ("thresholds", "r = 2\nell = 3\n", "[thresholds] r"),
    ("thresholds", "r = 4\nell = 1\n", "[thresholds] ell"),
    ("thresholds", "r = 4\nell = 2\nrho_star = 1\n", "[thresholds] rho_star"),
    ("construct", "family = lower-bound\nn = 6\nr = 2\nell = 3\nclique_size = 1\n"
     "inner = empty:5\n", "[construct] r"),
    ("construct", "family = sparse-klfree\nn = 12\nell = 3\ngamma = 0.9\n",
     "[construct] gamma"),
    ("construct", "family = sparse-klfree\nn = 12\nell = 2\ngamma = 0.1\n",
     "[construct] ell"),
    # a refused lower-bound or cover-threshold spec names its key, not just
    # the section; eta and clique_size both set |X1|, and the config's names
    ("construct", "family = lower-bound\nn = 10\nr = 3\nell = 2\neta = 9/10\n"
     "inner = empty:1\n", "[construct] eta: eta=9/10 outside"),
    ("construct", "family = lower-bound\nn = 10\nr = 3\nell = 2\n"
     "clique_size = 5\ninner = empty:5\n", "[construct] clique_size: eta=1/2 outside"),
    ("construct", "family = lower-bound\nn = 4\nr = 3\nell = 2\neta = 1/10\n"
     "inner = empty:4\n", "[construct] eta: clique part X1 must have"),
    ("construct", "family = lower-bound\nn = 7\nr = 3\nell = 2\nclique_size = 2\n"
     "inner = empty:4\n", "[construct] inner: inner graph has 4 vertices"),
    ("construct", "family = lower-bound\nn = 7\nr = 3\nell = 2\nclique_size = 2\n"
     "inner = complete:5\n", "[construct] inner: inner graph contains a K_3"),
    ("construct", "family = cover-threshold\nn = 16\nr = 4\nx = 3/2\n"
     "inner = cycle:8\n", "[construct] x: x=3/2 outside"),
    ("construct", "family = cover-threshold\nn = 4\nr = 3\nx = 1/10\n"
     "inner = empty:1\n", "[construct] x: hub neighborhood must be nonempty"),
    ("construct", "family = cover-threshold\nn = 4\nr = 3\nx = 9/10\n"
     "inner = empty:4\n", "[construct] x: clique part must have"),
    ("construct", "family = cover-threshold\nn = 16\nr = 4\nx = 1/2\n"
     "inner = cycle:7\n", "[construct] inner: inner graph has 7 vertices"),
    ("construct", "family = cover-threshold\nn = 16\nr = 4\nx = 1/2\n"
     "inner = complete:8\n", "[construct] inner: inner graph contains a K_3"),
    ("absorb", "task = bogus\nr = 3\ngraph = c5\n",
     "[absorb] task: expected absorber|reachable|xi|closedness|gadget"),
    ("thresholds", "", "[thresholds]: nothing to compute"),
    ("thresholds", "r = 4\nell = 2\nrho_star = x\n",
     "[thresholds] rho_star: expected rational"),
    ("absorb", "task = closedness\ngraph = petersen\nr = 3\ninner = maybe\n",
     "[absorb] inner: expected boolean, got 'maybe'"),
    ("thresholds", "parts = 1 x 3\n", "[thresholds] parts: expected integer list"),
    ("drc", "graph = petersen\ntarget = 4-1\nwitness = 5-9\nt = 1\nr = 2\nm = 1\n",
     "[drc] target: descending range '4-1'"),
    ("drc", "graph = petersen\ntarget = 1-x\nwitness = 5-9\nt = 1\nr = 2\nm = 1\n",
     "[drc] target: bad range '1-x'"),
    ("drc", "graph = petersen\ntarget = 0-4\nwitness = 5,y\nt = 1\nr = 2\nm = 1\n",
     "[drc] witness: bad vertex id 'y'"),
    ("drc", "graph = c5\ntarget = 0-1000000\nwitness = 0-1\nt = 1\nr = 2\nm = 1\n",
     "[drc] target: vertex ids out of range for n=5: '0-1000000'\n"),
    ("drc", "graph = petersen\ntarget = 0-4,2,2\nwitness = 5-9\nt = 1\nr = 2\n"
     "m = 1\n", "config error: [drc] target: vertex id repeated in '0-4,2,2'\n"),
    ("construct", "family = bogus\n",
     "[construct] family: expected lower-bound|cover-threshold|sparse-klfree|spec"),
    ("alpha", "graph = complete:-3\nell = 2\n",
     "[alpha] graph: vertex count must be nonnegative"),
])
def test_out_of_range_parameters_exit_two(tmp_path, capsys, kind, body, field):
    body = body.replace("{golden}", GOLDEN)
    # a body that opens its kind's section itself starts with [run] keys
    if f"[{kind}]" not in body:
        body = f"[{kind}]\n{body}"
    cfg = write(tmp_path / "oor.ini", f"[run]\nkind = {kind}\n{body}")
    assert run_cli([kind, "--config", cfg]) == 2
    assert field in capsys.readouterr().err


def test_cover_threshold_builds_without_ell(tmp_path, capsys):
    """The cover-threshold family has no ell; the key is ignored (it once
    was stored unread, so ell = -7 built the graph and exited 0)."""
    with open(os.path.join(GOLDEN, "construct-cover.ini"), encoding="utf-8") as fh:
        golden = fh.read()
    assert "ell = 2\n" in golden
    graphs_out = []
    for name, text in (("with", golden),
                       ("without", golden.replace("ell = 2\n", "")),
                       ("negative", golden.replace("ell = 2\n", "ell = -7\n"))):
        cfg = write(tmp_path / f"{name}.ini", text + "graph_out = g.el\n")
        assert run_cli(["construct", "--config", cfg, "--out",
                        str(tmp_path / name)]) == 0
        graphs_out.append((tmp_path / name / "g.el").read_text())
        capsys.readouterr()
    assert graphs_out[0] == graphs_out[1] == graphs_out[2]
    assert parse_graph(graphs_out[0]).n == 16


def test_negative_node_budget_from_the_environment_exits_two(tmp_path, capsys,
                                                             monkeypatch):
    cfg = write(tmp_path / "nb.ini", "[run]\nkind = alpha\n"
                                     "[alpha]\ngraph = petersen\nell = 2\n")
    monkeypatch.setenv("CFL_NODE_BUDGET", "-1")
    assert run_cli(["alpha", "--config", cfg]) == 2
    assert "CFL_NODE_BUDGET" in capsys.readouterr().err


def test_janson_delta_past_the_digit_limit_exits_two_before_summing(tmp_path):
    # p = 0.3 is m / 2^54: the exact Delta's denominator has about 1.46 M
    # digits, and summing it took minutes before the check could reject it
    cfg = write(tmp_path / "j.ini", "[run]\nkind = bounds\n[bounds]\n"
                                    "formula = janson\na_size = 100000\n"
                                    "ell = 300\np = 0.3\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    out = subprocess.run([sys.executable, "-m", "cfl.cli", "bounds",
                          "--config", cfg], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=20)
    assert out.returncode == 2
    assert "[bounds] a_size: the exact Delta" in out.stderr


def test_exit_code_kind_mismatch(tmp_path):
    cfg = write(tmp_path / "mm.ini", "[run]\nkind = tile\n"
                                     "[alpha]\ngraph = c5\nell = 2\n")
    assert run_cli(["alpha", "--config", cfg]) == 2


def test_exit_code_cap_hit(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path / "cap.ini", "[run]\nkind = tile\n"
                                      "[tile]\ngraph = gnp:24,0.28,4\nr = 3\n")
    monkeypatch.setenv("CFL_NODE_BUDGET", "2")
    assert run_cli(["tile", "--config", cfg, "--out", str(tmp_path)]) == 4
    out = capsys.readouterr().out.strip()
    with open(out) as fh:
        rep = json.load(fh)
    assert rep["result"]["optimal"] is False      # partial result was written
    monkeypatch.delenv("CFL_NODE_BUDGET")
    assert run_cli(["tile", "--config", cfg]) == 0


def test_factor_exit_code_cap_hit(tmp_path, capsys, monkeypatch):
    cfg = write(tmp_path / "fcap.ini", "[run]\nkind = factor\n"
                                       "[factor]\ngraph = gnp:24,0.28,4\nr = 3\n")
    monkeypatch.setenv("CFL_NODE_BUDGET", "2")
    assert run_cli(["factor", "--config", cfg]) == 4
    assert read_report(capsys)["result"]["status"] == "cap"
    monkeypatch.delenv("CFL_NODE_BUDGET")
    assert run_cli(["factor", "--config", cfg]) == 0
    assert read_report(capsys)["result"]["status"] == "none"


def test_embed_fallback_obeys_the_node_budget(tmp_path, capsys, monkeypatch):
    # trials = 0 sends the run straight to the brute-force fallback
    cfg = write(tmp_path / "eb.ini", "[run]\nkind = embed\n"
                                     "[embed]\ngraph = complete:12\n"
                                     "classes = 0-3;4-7;8-11\np = 2\n"
                                     "alpha_bound = 1\ntrials = 0\n")
    monkeypatch.setenv("CFL_NODE_BUDGET", "1")
    assert run_cli(["embed", "--config", cfg]) == 4
    rep = read_report(capsys)
    assert rep["flags"]["cap_hit"] is True and rep["result"]["path"] == "none"
    monkeypatch.delenv("CFL_NODE_BUDGET")
    assert run_cli(["embed", "--config", cfg]) == 0
    assert read_report(capsys)["result"]["path"] == "fallback"


def test_embed_auto_alpha_obeys_the_node_budget(tmp_path, capsys, monkeypatch):
    # a capped alpha search is only a lower bound, so the run counts as capped
    cfg = write(tmp_path / "ea.ini", "[run]\nkind = embed\n"
                                     "[embed]\ngraph = gnp:40,0.9,9\n"
                                     "classes = 0-19;20-39\np = 2\n")
    monkeypatch.setenv("CFL_NODE_BUDGET", "1")
    assert run_cli(["embed", "--config", cfg]) == 4
    rep = read_report(capsys)
    assert rep["caps"]["node_budget"] == 1 and rep["flags"]["cap_hit"] is True
    monkeypatch.delenv("CFL_NODE_BUDGET")
    assert run_cli(["embed", "--config", cfg]) == 0
    assert read_report(capsys)["flags"]["cap_hit"] is False


@pytest.mark.parametrize("command", ["alpha", "scan"])
def test_out_naming_a_file_is_an_input_error(tmp_path, capsys, command):
    cfg = write(tmp_path / "a.ini", "[run]\nkind = alpha\n"
                                    "[alpha]\ngraph = c5\nell = 2\n"
                                    "[scan]\nparam = alpha.ell\nvalues = 2\n")
    taken = write(tmp_path / "taken", "")
    assert run_cli([command, "--config", cfg, "--out", taken]) == 3
    assert "input error: " in capsys.readouterr().err


def test_config_naming_a_directory_is_an_input_error(tmp_path, capsys):
    assert run_cli(["alpha", "--config", str(tmp_path)]) == 3
    assert str(tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("body, command", [
    ("[run]\nkind = alpha\n[alpha]\ngraph = {path}\nell = 2\n", ["alpha"]),
    ("[run]\nkind = regcheck\n[regcheck]\ngraph = petersen\n"
     "partition = {path}\nepsilon = 1/4\nd = 0\n", ["regcheck"]),
    (None, ["graph", "convert", "--from", "edgelist", "--to", "graph6",
            "--in", "{path}"]),
], ids=["graph", "partition", "convert"])
def test_a_file_that_is_not_utf8_is_an_input_error(tmp_path, capsys, body,
                                                    command):
    # a graph file and convert --in ended in UnicodeDecodeError with a
    # traceback and exit 1; a partition file already exited 3, because
    # regcheck catches ValueError around the read
    path = tmp_path / "latin.el"
    path.write_bytes(b"\xff\xfe0 1\n")
    args = [a.replace("{path}", str(path)) for a in command]
    if body is not None:
        args += ["--config", write(tmp_path / "u.ini",
                                   body.replace("{path}", str(path)))]
    assert run_cli(args) == 3
    assert f"input error: cannot read {path}" in capsys.readouterr().err


def test_stdin_that_is_not_utf8_is_an_input_error(tmp_path):
    # convert from stdin read outside the decode handling --in gets, and
    # ended in a UnicodeDecodeError traceback with exit 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "cfl.cli", "graph", "convert", "--from",
         "edgelist", "--to", "graph6"], input=b"3 1\n0 \xff\n", cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src, PYTHONIOENCODING="utf-8"),
        capture_output=True, timeout=60)
    assert proc.returncode == 3
    assert b"input error: cannot read stdin: " in proc.stderr
    assert b"Traceback" not in proc.stderr


@pytest.mark.parametrize("command", [
    ["construct", "--config", "{cfg}"],
    ["graph", "convert", "--from", "edgelist", "--to", "graph6", "--in", "{path}"],
], ids=["config", "convert"])
def test_a_graph_file_with_a_byte_order_mark_parses(tmp_path, capsys, command):
    # a UTF-8 byte-order mark is no graph6 byte, so the sniffer must not see it
    path = tmp_path / "bom.el"
    path.write_bytes(b"\xef\xbb\xbf" + format_edgelist(cycle_graph(5)).encode())
    cfg = write(tmp_path / "b.ini", "[run]\nkind = construct\n[construct]\n"
                                    f"family = spec\ngraph = {path}\n")
    args = [a.replace("{cfg}", cfg).replace("{path}", str(path)) for a in command]
    assert run_cli(args) == 0
    assert format_graph6(cycle_graph(5)) in capsys.readouterr().out


def test_a_config_with_a_byte_order_mark_runs(tmp_path, capsys):
    # the mark must not hide the first section header
    cfg = tmp_path / "bom.ini"
    cfg.write_bytes(b"\xef\xbb\xbf[run]\nkind = alpha\n[alpha]\ngraph = c5\n"
                    b"ell = 2\n")
    assert run_cli(["alpha", "--config", str(cfg)]) == 0
    assert read_report(capsys)["result"]["value"] == 2


@pytest.mark.parametrize("args, body, code, message", [
    (["alpha"], "[run]\nkind = alpha\n[alpha]\ngraph = {bad}\nell = 2\n", 3,
     "input error: {bad}: "),
    (["alpha"], "kind = alpha\n", 2, "config error: (file): not parseable as INI"),
    (["scan"], "[run]\nkind = bogus\n[scan]\nparam = run.seed\nvalues = 1\n", 2,
     "config error: [run] kind: unknown kind 'bogus'"),
    (["graph", "convert", "--from", "csv", "--to", "graph6", "--in", "{bad}"],
     None, 2, "config error: --from/--to: formats are"),
    (["alpha"], "[run]\nkind = alpha\n", 2, "config error: [alpha]: missing section"),
    (["scan"], "[run]\nkind = alpha\n[alpha]\ngraph = c5\nell = 2\n"
     "[scan]\nparam = ell\nvalues = 2\n", 2,
     "config error: [scan] param: expected '<section>.<key>'"),
    (["scan"], "[run]\nkind = alpha\n[alpha]\ngraph = c5\nell = 2\n"
     "[scan]\nparam = scan.values\nvalues = 2\n", 2,
     "config error: [scan] param: cannot sweep a [scan] key"),
    (["bounds"], "[run]\nkind = bounds\n[bounds]\nformula = chernoff\n", 2,
     "config error: [bounds] formula: expected fkg|janson|drc-condition, "
     "got 'chernoff'"),
], ids=["malformed-graph-file", "unparseable-ini", "scan-unknown-kind",
        "convert-from-csv", "missing-section", "scan-param-without-dot",
        "scan-sweeps-scan", "bounds-unknown-formula"])
def test_command_line_errors_exit_with_their_code(tmp_path, capsys, args, body,
                                                  code, message):
    bad = write(tmp_path / "bad.el", "3 9\n0 1\n")
    args = [a.replace("{bad}", bad) for a in args]
    if body is not None:
        args += ["--config", write(tmp_path / "e.ini", body.replace("{bad}", bad)),
                 "--out", str(tmp_path / "out")]
    assert run_cli(args) == code
    assert message.replace("{bad}", bad) in capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    ("", "empty payload (line 1)"),
    ("3 3\n", "expected 'k m n0' header, got '3 3' (line 1)"),
    ("3 0 9\n", "cluster size m must be at least 1 (line 1)"),
    ("3 3 0\n0 1 2\n3 4 5\n", "expected 3 cluster lines plus exceptional line (line 3)"),
    ("3 3 0\n0 1 2\n3 4\n6 7 8\n", "cluster line must list exactly 3 vertex ids (line 3)"),
    ("2 3 3\n0 1 2\n3 4 5\n6 x 8\n", "exceptional line must list vertex ids (line 4)"),
    ("2 3 2\n0 1 2\n3 4 5\n6 7 8\n", "exceptional line lists 3 ids, header says 2 (line 4)"),
    # digits such as '\u00b2' pass str.isdigit but not int
    ("3 3 \u00b2\n", "expected 'k m n0' header, got '3 3 \u00b2' (line 1)"),
    ("3 3 0\n0 1 2\n3 4 \u00b2\n6 7 8\n",
     "cluster line must list exactly 3 vertex ids (line 3)"),
    ("2 3 3\n0 1 2\n3 4 5\n6 7 \u00b2\n", "exceptional line must list vertex ids (line 4)"),
    # ids past the graph or used twice were caught later, with no line
    ("3 3 0\n0 0 2\n3 4 5\n6 7 8\n", "duplicate vertex 0 (line 2)"),
    ("3 3 0\n0 1 2\n2 4 5\n6 7 8\n", "duplicate vertex 2 (line 3)"),
    ("2 3 3\n0 1 2\n3 4 5\n6 7 0\n", "duplicate vertex 0 (line 4)"),
    ("3 3 0\n0 1 2\n3 4 5\n6 7 99\n", "vertex 99 out of range for n=9 (line 4)"),
])
def test_malformed_partition_files_exit_three(tmp_path, capsys, payload, message):
    part = write(tmp_path / "part.txt", payload)
    cfg = write(tmp_path / "rc.ini", "[run]\nkind = regcheck\n[regcheck]\n"
                "graph = multipartite:3,3,3\npartition = " + part
                + "\nepsilon = 1/4\nd = 0\n")
    assert run_cli(["regcheck", "--config", cfg]) == 3
    assert f"input error: {part}: {message}" in capsys.readouterr().err


_ALPHA = "[run]\nkind = alpha\n[alpha]\ngraph = c5\nell = 2\n"
_REGCHECK = ("[run]\nkind = regcheck\n[regcheck]\ngraph = multipartite:3,3,3\n"
             "partition = {part}\nepsilon = 1/4\nd = 0\n")


@pytest.mark.parametrize("payload, message, line", [
    ("3 3 0\n0 1 2\n3 4 5\n6 7 " + "9" * 5000 + "\n",
     "vertex " + "9" * 5000 + " out of range for n=9", 4),
    ("3 3 " + "1" * 5000 + "\n", "header past n=9: '3 3 1111", 1),
    # leading zeros do not count: the last id is 0, used on line 2
    ("3 3 0\n0 1 2\n3 4 5\n6 7 " + "0" * 5000 + "\n", "duplicate vertex 0", 4),
], ids=["id", "header", "padded-id"])
def test_a_partition_field_past_every_in_range_value_names_its_line(
        tmp_path, capsys, payload, message, line):
    # the first two passed int's 4,300-digit limit and exited 3 with no line
    part = write(tmp_path / "part.txt", payload)
    cfg = write(tmp_path / "rc.ini", _REGCHECK.replace("{part}", part))
    assert run_cli(["regcheck", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {part}: {message}")
    assert err.endswith(f" (line {line})\n")


@pytest.mark.parametrize("kind, body, env, args, message", [
    ("alpha", _ALPHA.replace("ell = 2", "ell = \u0662"), None, [],
     "config error: [alpha] ell: expected integer, got '\u0662'"),
    ("alpha", _ALPHA.replace("ell = 2", "ell = 1_0"), None, [],
     "config error: [alpha] ell: expected integer, got '1_0'"),
    ("thresholds", "[run]\nkind = thresholds\n[thresholds]\nparts = 2,\u0663\n",
     None, [], "config error: [thresholds] parts: expected integer list"),
    ("embed", "[run]\nkind = embed\n[embed]\ngraph = complete:8\n"
     "classes = 0-3;4-\u0667\np = 2\n", None, [],
     "config error: [embed] classes[1]: bad range '4-\u0667'"),
    ("alpha", _ALPHA.replace("c5", "cycle:\u0661\u0660"), None, [],
     "config error: [alpha] graph: expected an ASCII number without '_'"),
    ("regcheck", _REGCHECK.replace("1/4", "\u0661/\u0664"), None, [],
     "config error: [regcheck] epsilon: expected rational"),
    ("bounds", "[run]\nkind = bounds\n[bounds]\nformula = fkg\nn = 10\n"
     "ell = 2\np = \u0660.5\n", None, [],
     "config error: [bounds] p: expected number, got '\u0660.5'"),
    ("alpha", _ALPHA, "\u0661", [],
     "config error: CFL_NODE_BUDGET: expected integer, got '\u0661'"),
    ("alpha", _ALPHA, None, ["--seed", "\u0663"],
     "argument --seed: invalid int value: '\u0663'"),
], ids=["ell-arabic-indic", "ell-underscore", "parts", "classes", "graph-spec",
        "epsilon", "p", "node-budget", "seed"])
def test_every_number_is_ascii_without_separators(tmp_path, capsys, monkeypatch,
                                                  kind, body, env, args, message):
    # Python's int, float and Fraction read these; cfl used to run them
    if env is not None:
        monkeypatch.setenv("CFL_NODE_BUDGET", env)
    part = write(tmp_path / "part.txt", "3 3 0\n0 1 2\n3 4 5\n6 7 8\n")
    cfg = write(tmp_path / "n.ini", body.replace("{part}", part))
    assert run_cli([kind, "--config", cfg] + args) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec, message", [
    ("kneser:5", "expected kneser:N,K, got 'kneser:5'"),
    ("kneser:5,2,9", "expected kneser:N,K, got 'kneser:5,2,9'"),
    ("cycle:x", "expected an integer, got 'x', in cycle:N"),
    ("cycle:", "expected an integer, got '', in cycle:N"),
    ("complete:4,7", "expected complete:N, got 'complete:4,7'"),
    ("multipartite:", "expected an integer, got '', in multipartite:A,B,..."),
    ("petersen:3", "expected petersen, got 'petersen:3'"),
    ("c5:3", "expected c5, got 'c5:3'"),
    ("gnp:10,0.5,3,9", "expected gnp:N,P[,SEED], got 'gnp:10,0.5,3,9'"),
])
def test_a_misread_graph_spec_names_its_form(tmp_path, capsys, spec, message):
    # these used to pass Python's unpacking or int() message through, or
    # (the last three) drop the extra arguments and exit 0
    cfg = write(tmp_path / "s.ini", _ALPHA.replace("c5", spec))
    assert run_cli(["alpha", "--config", cfg]) == 2
    assert f"config error: [alpha] graph: {message}\n" == capsys.readouterr().err


@pytest.mark.parametrize("payload, message", [
    # '\u00b2' passes str.isdigit but not int; these ended in a traceback
    ("3 1\n0 \u00b2\n", "expected 'u v', got '0 \u00b2' (line 2)"),
    ("\u00b2 0\n", "byte '\u00b2' outside graph6 alphabet (byte 0)"),
    ("200000000 0\n",
     f"n = 200000000 exceeds the limit {MAX_EDGELIST_N} (line 1)"),
], ids=["edge-digit", "header-digit", "absurd-n"])
def test_malformed_graph_files_exit_three(tmp_path, capsys, payload, message):
    graph = write(tmp_path / "g.el", payload)
    cfg = write(tmp_path / "a.ini", "[run]\nkind = alpha\n[alpha]\n"
                f"graph = {graph}\nell = 2\n")
    assert run_cli(["alpha", "--config", cfg]) == 3
    assert f"input error: {graph}: {message}" in capsys.readouterr().err


def test_construct_spec_family_reports_its_graph(tmp_path, capsys):
    cfg = write(tmp_path / "s.ini", "[run]\nkind = construct\n[construct]\n"
                                    "family = spec\ngraph = petersen\n")
    assert run_cli(["construct", "--config", cfg]) == 0
    result = read_report(capsys)["result"]
    assert result == {"family": "spec", "min_degree": 3, "edges": 15,
                      "graph": {"n": 10, "graph6": "IheA@GUAo"}}


def test_a_config_that_is_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "latin.ini"
    cfg.write_bytes(b"[run]\nkind = alpha\n# \xff\n[alpha]\ngraph = c5\n"
                    b"ell = 2\n")
    assert run_cli(["alpha", "--config", str(cfg)]) == 2
    assert "config error: (file): not UTF-8 text" in capsys.readouterr().err


def test_report_reproducible_modulo_timings(tmp_path, capsys):
    cfg = write(tmp_path / "r.ini", "[run]\nkind = drc\nseed = 11\n"
                                    "[drc]\ngraph = gnp:40,0.5,77\n"
                                    "target = 0-19\nwitness = 20-39\n"
                                    "t = 2\nr = 2\nm = 3\n")
    assert run_cli(["drc", "--config", cfg]) == 0
    rep1 = read_report(capsys)
    assert run_cli(["drc", "--config", cfg]) == 0
    rep2 = read_report(capsys)
    assert strip_timings(rep1) == strip_timings(rep2)
    assert run_cli(["drc", "--config", cfg, "--seed", "12"]) == 0
    rep3 = read_report(capsys)
    assert rep3["seed"] == 12


def test_report_file_written_atomically(tmp_path, capsys):
    cfg = write(tmp_path / "w.ini", "[run]\nkind = alpha\nseed = 2\n"
                                    "[alpha]\ngraph = petersen\nell = 2\n")
    outdir = tmp_path / "reports"
    assert run_cli(["alpha", "--config", cfg, "--out", str(outdir)]) == 0
    printed = capsys.readouterr().out.strip()
    files = os.listdir(outdir)
    assert len(files) == 1 and printed.endswith(files[0])
    rep = json.loads((outdir / files[0]).read_text())
    assert rep["result"]["value"] == 4
    assert not [f for f in files if f.startswith(".tmp")]


def test_rerunning_a_construct_leaves_its_graph_file_alone(tmp_path, capsys):
    gpath = tmp_path / "lb.el"
    cfg = write(tmp_path / "c.ini", "[run]\nkind = construct\nseed = 3\n"
                                    "[construct]\nfamily = lower-bound\nn = 7\n"
                                    "r = 3\nell = 2\nclique_size = 2\n"
                                    f"inner = c5\ngraph_out = {gpath}\n")
    assert run_cli(["construct", "--config", cfg]) == 0
    rep1 = read_report(capsys)
    inode = os.stat(gpath).st_ino
    assert run_cli(["construct", "--config", cfg]) == 0
    rep2 = read_report(capsys)
    assert os.stat(gpath).st_ino == inode
    assert strip_timings(rep1) == strip_timings(rep2)
    assert sorted(os.listdir(tmp_path)) == ["c.ini", "lb.el"]


def test_convert_onto_a_directory_is_an_input_error(tmp_path, capsys):
    src = write(tmp_path / "c5.el", format_edgelist(cycle_graph(5)))
    (tmp_path / "out").mkdir()
    assert run_cli(["graph", "convert", "--from", "edgelist", "--to", "graph6",
                    "--in", src, "--out", str(tmp_path / "out")]) == 3
    assert "input error: " in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["c5.el", "out"]


@pytest.mark.parametrize("seeds, budgets", [
    (("1", "2"), (None, None)),
    (("1", "1"), ("10", "20")),
])
def test_report_files_differ_by_seed_and_node_budget(tmp_path, capsys,
                                                    monkeypatch, seeds, budgets):
    cfg = write(tmp_path / "a.ini", "[run]\nkind = alpha\n"
                                    "[alpha]\ngraph = gnp:12,0.5\nell = 3\n")
    outdir = tmp_path / "o"
    for seed, budget in zip(seeds, budgets):
        if budget is None:
            monkeypatch.delenv("CFL_NODE_BUDGET", raising=False)
        else:
            monkeypatch.setenv("CFL_NODE_BUDGET", budget)
        assert run_cli(["alpha", "--config", cfg, "--seed", seed,
                        "--out", str(outdir)]) in (0, 4)
    paths = capsys.readouterr().out.split()
    assert len(set(paths)) == 2
    assert sorted(os.listdir(outdir)) == sorted(os.path.basename(p) for p in paths)


def test_scan_sweep_writes_reports_and_csv(tmp_path, capsys):
    cfg = write(tmp_path / "s.ini", """
[run]
kind = factor
seed = 5
[factor]
graph = gnp-min-degree:12,0.5,6
r = 3
[scan]
param = factor.graph
values = gnp-min-degree:12,0.5,4; gnp-min-degree:12,0.5,6; gnp-min-degree:12,0.5,8; gnp-min-degree:12,0.5,10
""")
    outdir = tmp_path / "sweep"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir),
                    "--threads", "2"]) == 0
    capsys.readouterr()
    files = sorted(os.listdir(outdir))
    points = [f for f in files if f.startswith("point-")]
    assert len(points) == 4
    csv_text = (outdir / "scan.csv").read_text()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("index,param,param_value,")
    assert len(lines) == 5
    # raw statuses in the aggregate match the per-point reports exactly
    for i, fname in enumerate(points):
        rep = json.loads((outdir / fname).read_text())
        assert rep["result"]["status"] in lines[i + 1]


def test_scan_points_write_their_graphs_to_files_of_their_own(tmp_path, capsys):
    """A construct scan with one graph_out name keeps every point's graph:
    point NNN writes point-NNN/<name> and its report names that file."""
    cfg = write(tmp_path / "s.ini", "[run]\nkind = construct\n"
                                    "[construct]\nfamily = spec\ngraph = cycle:5\n"
                                    "graph_out = g.el\n"
                                    "[scan]\nparam = construct.graph\n"
                                    "values = cycle:5, cycle:7\n")
    outdir = tmp_path / "out"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir)]) == 0
    capsys.readouterr()
    reports = sorted(f for f in os.listdir(outdir) if f.endswith(".json"))
    assert [f[:len("point-000")] for f in reports] == ["point-000", "point-001"]
    for idx, (fname, n) in enumerate(zip(reports, (5, 7))):
        path = os.path.join(str(outdir), f"point-{idx:03d}", "g.el")
        rep = json.loads((outdir / fname).read_text())
        assert rep["result"]["graph_path"] == path
        with open(path, encoding="utf-8") as fh:
            assert parse_graph(fh.read()) == cycle_graph(n)
    assert not (outdir / "g.el").exists()


def test_scan_exits_four_when_a_point_is_capped(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("CFL_NODE_BUDGET", raising=False)
    cfg = write(tmp_path / "sc.ini", "[run]\nkind = factor\nnode_budget = 2\n"
                                     "[factor]\ngraph = gnp:24,0.28,4\nr = 3\n"
                                     "[scan]\nparam = run.node_budget\n"
                                     "values = 2, 1000\n")
    outdir = tmp_path / "capped"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir)]) == 4
    lines = (outdir / "scan.csv").read_text().strip().split("\n")
    assert lines == ["index,param,param_value,status,exit_code,r,result.status",
                     "0,run.node_budget,2,cap,4,3,cap",
                     "1,run.node_budget,1000,ok,0,3,none"]


def test_scan_point_errors_are_rows_not_aborts(tmp_path, capsys):
    cfg = write(tmp_path / "bad.ini", "[run]\nkind = alpha\nseed = 1\n"
                                      "[alpha]\ngraph = c5\nell = 2\n"
                                      "[scan]\nparam = alpha.ell\n"
                                      "values = 2, x, 3, 1\n")
    outdir = tmp_path / "bad"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir),
                    "--threads", "2"]) == 2
    err = capsys.readouterr().err
    first = err.index("point 1 (alpha.ell = x): config error: [alpha] ell")
    assert first < err.index("point 3 (alpha.ell = 1): config error: [alpha] ell")
    lines = (outdir / "scan.csv").read_text().strip().split("\n")
    assert lines[0].startswith("index,param,param_value,status,exit_code,value,")
    assert [line.split(",")[:6] for line in lines[1:]] == [
        ["0", "alpha.ell", "2", "ok", "0", "2"],
        ["1", "alpha.ell", "x", "error", "2", ""],
        ["2", "alpha.ell", "3", "ok", "0", "5"],
        ["3", "alpha.ell", "1", "error", "2", ""]]
    points = sorted(f for f in os.listdir(outdir) if f.startswith("point-"))
    assert [p[:len("point-000")] for p in points] == ["point-000", "point-002"]


def test_scan_exits_with_the_first_failing_points_code(tmp_path, capsys):
    cfg = write(tmp_path / "mixed.ini",
                "[run]\nkind = alpha\n[alpha]\ngraph = c5\nell = 2\n"
                "[scan]\nparam = alpha.graph\n"
                "values = c5; ./missing.el; gnp:12; petersen\n")
    outdir = tmp_path / "mixed"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir)]) == 3
    assert "point 2 (alpha.graph = gnp:12): config error: [alpha] graph" in (
        capsys.readouterr().err)
    rows = [line.split(",")[3:5] for line in
            (outdir / "scan.csv").read_text().strip().split("\n")[1:]]
    assert rows == [["ok", "0"], ["error", "3"], ["error", "2"], ["ok", "0"]]


def test_scan_points_use_their_swept_seed(tmp_path, capsys):
    cfg = write(tmp_path / "seed.ini", "[run]\nkind = alpha\n"
                                       "[alpha]\ngraph = gnp:12,0.5\nell = 2\n"
                                       "[scan]\nparam = run.seed\nvalues = 1, 2\n")
    for extra, seeds in (([], [1, 2]), (["--seed", "7"], [7, 7])):
        outdir = tmp_path / f"out{len(extra)}"
        assert run_cli(["scan", "--config", cfg, "--out", str(outdir)] + extra) == 0
        reports = [json.loads((outdir / f).read_text())
                   for f in sorted(os.listdir(outdir)) if f.startswith("point-")]
        assert [rep["seed"] for rep in reports] == seeds
        assert [rep["config"]["run.seed"] for rep in reports] == ["1", "2"]
    capsys.readouterr()


def test_scan_cannot_sweep_the_kind(tmp_path, capsys):
    cfg = write(tmp_path / "kind.ini", "[run]\nkind = alpha\n"
                                       "[alpha]\ngraph = c5\nell = 2\n"
                                       "[scan]\nparam = run.kind\nvalues = tile\n")
    outdir = tmp_path / "kind"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir)]) == 2
    assert "[scan] param: cannot sweep run.kind" in capsys.readouterr().err
    assert not outdir.exists()


SOLVERS = {"absorption", "bounds", "constructions", "embedding", "invariants",
           "regularity", "tiling"}
# what a cfl process must not load unless the interpreter's own start
# (``site``) already has: ``dataclasses`` brings ``inspect`` and its
# compiler modules, ``_hashlib`` is OpenSSL, ``absorb`` needs no
# ``statistics`` for its one median, no command line needs ``argparse``
# (whose first parse loads ``gettext`` and ``locale``), and no config or
# report needs ``configparser`` or ``json``, whatever it holds
START_PATH = ("dataclasses", "inspect", "_hashlib", "statistics", "argparse",
              "configparser", "gettext", "locale", "json")
# what a run that reads and reports no rational must not load
RATIONALS = ("fractions", "decimal", "numbers")


@pytest.mark.parametrize("commands, body, solvers, light", [
    ((), "", set(), True),
    (("thresholds",), "[thresholds]\nr = 4\nell = 2\n", {"bounds"}, False),
    (("tile", "scan"), "[tile]\ngraph = {graph}\nr = 3\n"
     "[scan]\nparam = tile.r\nvalues = 2, 3\n", {"tiling"}, False),
    (("factor",), "[factor]\ngraph = {graph}\nr = 3\n", {"tiling"}, True),
    (("alpha",), "[alpha]\ngraph = {graph}\nell = 2\n", {"invariants"}, True),
    (("tile",), "[tile]\ngraph = gnp:24,0.28,4\nr = 3\n",
     {"tiling", "constructions", "invariants"}, True),
    (("rtt",), "[rtt]\nn = 7\nr = 7\nell = 2\nalpha_bound = 1\n",
     {"invariants"}, True),
    (("absorb",), "[absorb]\ntask = closedness\ngraph = {graph}\nr = 3\nt = 1\n"
     "pair_budget = 6\n", {"absorption", "tiling"}, False),
    (("absorb",), "[absorb]\ntask = gadget\nr = 3\n", {"absorption", "tiling"},
     True),
    (("drc",), "[drc]\ngraph = petersen\ntarget = 0-4\nwitness = 5-9\nt = 1\n"
     "r = 2\nm = 1\n", {"bounds", "embedding", "constructions", "invariants"},
     True),
    (("bounds",), "[bounds]\nformula = fkg\nn = 20\nell = 2\np = 0.5\n",
     {"bounds"}, True),
    (("alpha",), "[alpha]\ngraph = {graph}\nell = 2\nnote = K\u2083-free\t\u2113\n",
     {"invariants"}, True),
    (("graph",), "", set(), True),
], ids=["import", "thresholds", "tile-and-scan", "factor", "alpha", "tile-spec",
        "rtt", "absorb", "absorb-gadget", "drc", "bounds-fkg", "non-ascii-config",
        "graph-convert"])
def test_a_run_loads_only_its_kinds_solvers(tmp_path, commands, body, solvers,
                                            light):
    """Each handler imports its own solver modules, so ``import cfl.cli``
    loads none of them and a run loads only its kind's; a generator spec
    adds ``constructions`` and the ``invariants`` it imports.  The n <= 7
    rtt oracle works on Python ints, so even its full n = 7 scan loads
    neither ``tiling`` nor numpy; no run, and no ``graph convert``, loads
    numpy or a thread pool, or any of ``START_PATH`` that the bare
    interpreter had not.  A ``light``
    run reads and reports no rational, so it loads none of ``RATIONALS``
    that the bare interpreter had not either.  The harness itself imports
    nothing beyond ``sys``: it prints its findings with ``repr``."""
    graph = write(tmp_path / "g.el", format_edgelist(random_gnp(24, 0.28, 4)))
    kind = commands[0] if commands else "alpha"
    cfg = write(tmp_path / "k.ini", f"[run]\nkind = {kind}\n"
                + body.replace("{graph}", graph))
    argvs = [["graph", "convert", "--from", "edgelist", "--to", "graph6",
              "--in", graph, "--out", str(tmp_path / "g.g6")]
             if command == "graph" else
             [command, "--config", cfg, "--out", str(tmp_path), "--threads", "2"]
             for command in commands]
    code = ("import sys\n"
            f"bare = [m for m in {START_PATH + RATIONALS!r} if m in sys.modules]\n"
            "import cfl.cli\n"
            f"codes = [cfl.cli.main(argv) for argv in {argvs!r}]\n"
            "print(repr([codes, sorted(m[4:] for m in sys.modules "
            "if m.startswith('cfl.')), [m for m in ('numpy', 'concurrent.futures') "
            "if m in sys.modules] + [m for m in "
            f"{START_PATH!r} if m in sys.modules and m not in bare], "
            f"[m for m in {RATIONALS!r} if m in sys.modules and m not in bare]]))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    codes, modules, heavy, rationals = ast.literal_eval(out.stdout.splitlines()[-1])
    assert codes == [0] * len(commands)
    assert SOLVERS.intersection(modules) == solvers
    assert heavy == []
    if light:
        assert rationals == []


_BAD_SEED = "cfl: error: argument --seed: invalid int value: 'x'\n"


@pytest.mark.parametrize("argv, code, stdout, stderr", [
    (["--help"], 0, USAGE, ""),
    (["alpha", "--config", "a.ini", "--seed", "x"], 2, "", USAGE + _BAD_SEED),
], ids=["help", "bad-seed"])
def test_help_and_usage_errors_in_a_process(tmp_path, argv, code, stdout,
                                            stderr):
    """Help is the grammar on stdout, exit 0; a usage error is the grammar
    and one ``cfl: error:`` line on stderr, exit 2."""
    assert USAGE.startswith(
        "usage: cfl <kind> --config PATH [--out DIR] [--seed N] [--threads N]\n"
        "       cfl scan   --config PATH [--out DIR] [--seed N] [--threads N]\n"
        "       cfl graph convert --from FMT --to FMT [--in PATH] [--out PATH]\n"
        "kinds: construct, alpha, tile, factor, cover, regcheck, drc, embed, ")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    proc = subprocess.run([sys.executable, "-m", "cfl.cli", *argv], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, stdout, stderr)


# the rows that once pinned the pruned parser to the full tree, then a seeded
# corpus of command lines near and far from the plain shape
_ARGV_ROWS = [
    ["--help"], [], ["alpha", "--help"], ["scan", "--help"],
    ["graph", "convert", "--help"], ["alpha"], ["graph"], ["bogus"],
    ["alpha", "--config", "a.ini", "--seed", "x"],
    ["alpha", "--config", "a.ini", "--bogus"],
    ["graph", "convert", "--from", "graph6", "--to", "edgelist"],
    ["scan", "--config", "s.ini", "--seed", "3", "--threads", "2"],
]
_ARGV_COMMANDS = ["thresholds", "thresholds", "alpha", "scan", "scan", "graph",
                  "bogus", "", "-h", "--help", "thr", "Thresholds"]
_ARGV_OPTIONS = ["--config", "--config", "--out", "--seed", "--threads",
                 "--conf", "--co", "--s", "--see", "--thread", "--out=OUT",
                 "--config=CFG", "--seed=3", "--", "-h", "--help", "--bogus",
                 "-c", "--CONFIG"]
_ARGV_VALUES = ["CFG", "CFG", "SCAN", "OUT", "MISSING", "3", "0", "-1", "-x",
                "+3", " 3", "3 ", "1_0", "٣", "²", "x", "", "1e3",
                "-", "--", "9" * 4400, "convert", "a=b"]
_PLAIN_VALUES = {"--config": ["CFG", "SCAN", "MISSING"], "--out": ["OUT"],
                 "--seed": ["3", "0", "+3", " 3"], "--threads": ["2", "1"]}


def _argv_corpus(seed, count):
    """``_ARGV_ROWS``, two ``graph convert`` lines, then plain command lines
    (options in any order, some repeated), half of them with one token
    replaced, dropped or added, and command lines drawn from the pools."""
    rng = random.Random(seed)
    corpus = [list(row) for row in _ARGV_ROWS]
    corpus += [["graph", "convert", "--from", "edgelist", "--to", "graph6",
                "--in", "GRAPH"], ["graph", "convert", "--to", "graph6",
                                   "--from", "edgelist", "--out", "OUT"]]
    while len(corpus) < count:
        if rng.random() < 0.6:
            names = ["--config"] + [rng.choice(list(_PLAIN_VALUES))
                                    for _ in range(rng.randrange(4))]
            rng.shuffle(names)
            argv = [rng.choice(["thresholds", "scan", "alpha"])]
            for name in names:
                argv += [name, rng.choice(_PLAIN_VALUES[name])]
            if rng.random() < 0.5:
                at = rng.randrange(len(argv))
                token = rng.choice(_ARGV_OPTIONS + _ARGV_VALUES)
                edit = rng.randrange(3)
                if edit == 0:
                    argv[at] = token
                elif edit == 1:
                    del argv[at]
                else:
                    argv.insert(at, token)
        else:
            argv = [rng.choice(_ARGV_COMMANDS)]
            for _ in range(rng.randrange(4)):
                argv.append(rng.choice(_ARGV_OPTIONS))
                if rng.random() < 0.9:
                    argv.append(rng.choice(_ARGV_VALUES))
        corpus.append(argv)
    return corpus


def _argparse_only(argv):
    """Whether ``argv`` holds ``--``, an ``--opt=value`` or an abbreviated
    option: forms that argparse took and ``parse_args`` refuses."""
    names = ("--config", "--out", "--seed", "--threads", "--from", "--to",
             "--in", "--help")
    return any(token == "--" or token.startswith("-") and "=" in token
               or token.startswith("--") and token not in names
               and any(name.startswith(token) for name in names)
               for token in argv)


def test_the_reader_agrees_with_argparse(tmp_path, capsys, monkeypatch):
    """On every command line that the argparse reference takes, bar the
    forms that only argparse reads, ``parse_args`` returns exactly its
    attributes; through ``main`` every other command line prints the help
    text on stdout and exits 0, or prints nothing on stdout and a usage
    error on stderr and exits 2."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 1\n0 2\n"))
    taken = 0
    for argv in _argv_corpus(3401, 400):
        try:
            expected = vars(reference_parser().parse_args(argv))
        except SystemExit:
            expected = None
        capsys.readouterr()
        if expected is not None and not _argparse_only(argv):
            taken += 1
            assert vars(parse_args(argv)) == expected, argv
            continue
        code, (out, err) = main(list(argv)), capsys.readouterr()
        assert ((code, out, err) == (0, USAGE, "")
                or (code, out) == (2, "")
                and err.startswith(USAGE + "cfl: error: ")), argv
    assert 100 <= taken <= 300


def _imported(argv, cwd):
    """The modules a ``python -X importtime`` process imports, in order."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cfl.__file__)))
    out = subprocess.run([sys.executable, "-X", "importtime"] + argv, cwd=cwd,
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    return out.returncode, [line.rsplit("|", 1)[1].strip()
                            for line in out.stderr.splitlines()
                            if line.startswith("import time:") and "|" in line]


def test_no_process_loads_the_start_path_weight(tmp_path):
    """``python -m cfl.cli thresholds``, the benchmark's no-op, and a
    process that imports every cfl module load none of ``START_PATH``
    beyond what the bare interpreter loads; the no-op loads one solver."""
    _, bare = _imported(["-c", "pass"], tmp_path)
    cfg = write(tmp_path / "noop.ini", "[run]\nkind = thresholds\n"
                                       "[thresholds]\nparts = 2, 3, 3\n")
    code, noop = _imported(["-m", "cfl.cli", "thresholds", "--config", cfg,
                            "--out", str(tmp_path)], tmp_path)
    assert code == 0
    assert [m for m in START_PATH if m in noop and m not in bare] == []
    assert SOLVERS.intersection(m[4:] for m in noop if m.startswith("cfl.")) \
        == {"bounds"}
    modules = sorted(f"cfl.{name[:-3]}" for name in os.listdir(
        os.path.dirname(os.path.abspath(cfl.__file__)))
        if name.endswith(".py") and name != "__init__.py")
    code, every = _imported(["-c", f"import {', '.join(modules)}"], tmp_path)
    assert code == 0 and set(modules) <= set(every)
    assert [m for m in START_PATH if m in every and m not in bare] == []


def test_scan_point_config_sets_one_key_and_drops_scan():
    cfg = Config.from_text("[run]\nkind = alpha\n[alpha]\ngraph = c5\nell = 2\n"
                           "[scan]\nparam = alpha.ell\nvalues = 3, 4\n")
    point = cfg.scan_point("alpha", "ell", "3")
    assert point.flat() == {"run.kind": "alpha", "alpha.graph": "c5",
                            "alpha.ell": "3"}
    assert cfg.get_int("alpha", "ell") == 2          # the original is untouched
    added = cfg.scan_point("run", "seed", "9")
    assert added.get_int("run", "seed") == 9 and not added.has("scan", "param")
    with pytest.raises(ConfigError):
        cfg.scan_point("tile", "r", "3")


def test_scan_empty_grid_is_success(tmp_path, capsys):
    cfg = write(tmp_path / "e.ini", "[run]\nkind = alpha\nseed = 1\n"
                                    "[alpha]\ngraph = c5\nell = 2\n"
                                    "[scan]\nparam = alpha.ell\nvalues =\n")
    outdir = tmp_path / "empty"
    assert run_cli(["scan", "--config", cfg, "--out", str(outdir)]) == 0
    csv_text = (outdir / "scan.csv").read_text()
    assert csv_text.strip() == "index,param,param_value,status,exit_code"


def test_graph_convert_roundtrip(tmp_path, capsys):
    g = cycle_graph(7)
    src = write(tmp_path / "c7.el", format_edgelist(g))
    dst = tmp_path / "c7.g6"
    assert run_cli(["graph", "convert", "--from", "edgelist", "--to", "graph6",
                    "--in", src, "--out", str(dst)]) == 0
    assert parse_graph(dst.read_text()) == g
    back = tmp_path / "c7b.el"
    assert run_cli(["graph", "convert", "--from", "graph6", "--to", "edgelist",
                    "--in", str(dst), "--out", str(back)]) == 0
    assert back.read_text() == format_edgelist(g)


def test_graph_convert_rejects_malformed(tmp_path, capsys):
    src = write(tmp_path / "bad.el", "3 9\n0 1\n")
    assert run_cli(["graph", "convert", "--from", "edgelist", "--to", "graph6",
                    "--in", src]) == 3


def test_regcheck_kind(tmp_path, capsys):
    part = write(tmp_path / "p.txt", "3 3 0\n0 1 2\n3 4 5\n6 7 8\n\n")
    cfg = write(tmp_path / "rc.ini", f"""
[run]
kind = regcheck
[regcheck]
graph = multipartite:3,3,3
partition = {part}
epsilon = 0.25
d = 0.5
""")
    assert run_cli(["regcheck", "--config", cfg]) == 0
    rep = read_report(capsys)
    assert rep["result"]["reduced_min_degree"] == 2
    assert all(p["regular"] for p in rep["result"]["pairs"].values())


_HUGE = "1" + "0" * 5000   # past int's 4,300-digit limit


@pytest.mark.parametrize("payload, message, line", [
    (f"{_HUGE} 0\n", f"n = {_HUGE} exceeds the limit 1000000", 1),
    (f"3 {_HUGE}\n", f"header declares {_HUGE} edges but payload has 0 edge lines", 1),
    (f"3 1\n0 {_HUGE}\n", f"vertex {_HUGE} out of range for n=3", 2),
    # leading zeros do not count: line 2 is the edge 0 1, and line 3 repeats it
    (f"3 2\n{'0' * 5000} 1\n0 1\n", "duplicate edge 0 1", 3),
], ids=["n", "m", "id", "padded-id"])
def test_an_edge_list_field_past_every_in_range_value_exits_three(
        tmp_path, capsys, payload, message, line):
    # the first three ended in int's ValueError with a traceback and exit 1
    src = write(tmp_path / "big.el", payload)
    assert run_cli(["graph", "convert", "--from", "edgelist", "--to", "graph6",
                    "--in", src]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: {message}")
    assert err.endswith(f" (line {line})\n")


@pytest.mark.parametrize("check_super", ["false", "true"])
def test_regcheck_sampled_reports_each_pairs_density(tmp_path, capsys,
                                                     check_super):
    # clusters of 24 at eps = 1/4 are past the exhaustive work bound
    g = random_gnp(72, 0.5, 3)
    assert not exhaustive_fits(24, 24, Fraction(1, 4))
    clusters = [range(24 * i, 24 * (i + 1)) for i in range(3)]
    graph = write(tmp_path / "g.el", format_edgelist(g))
    part = write(tmp_path / "p.txt", "3 24 0\n" + "".join(
        " ".join(map(str, c)) + "\n" for c in clusters))
    cfg = write(tmp_path / "rc.ini", "[run]\nkind = regcheck\n[regcheck]\n"
                f"graph = {graph}\npartition = {part}\nepsilon = 1/4\n"
                f"d = 1/2\nsamples = 20\nsuper = {check_super}\n")
    assert run_cli(["regcheck", "--config", cfg]) == 0
    result = read_report(capsys)["result"]
    assert result["mode"] == "sampled"
    assert len(result["pairs"]) == 3
    for key, pair in result["pairs"].items():
        i, j = map(int, key.split("-"))
        d = pair_density(g, VertexSet.of(g, clusters[i]),
                         VertexSet.of(g, clusters[j]))
        assert pair["mode"] == "sampled"
        assert pair["density"] == f"{d.numerator}/{d.denominator}"


def test_absorb_gadget_kind(tmp_path, capsys):
    cfg = write(tmp_path / "g.ini", "[run]\nkind = absorb\n"
                                    "[absorb]\ntask = gadget\nr = 4\n")
    assert run_cli(["absorb", "--config", cfg]) == 0
    rep = read_report(capsys)
    assert rep["result"]["certified"] is True
    assert len(rep["result"]["reach_set"]) == 15


def test_rtt_kind(tmp_path, capsys):
    cfg = write(tmp_path / "rtt.ini", "[run]\nkind = rtt\n"
                                      "[rtt]\nn = 4\nr = 2\nell = 2\n"
                                      "alpha_bound = 4\n")
    assert run_cli(["rtt", "--config", cfg]) == 0
    rep = read_report(capsys)
    assert rep["result"]["exhaustive"] is True
    # best 4-vertex graph with no perfect matching: triangle + isolated
    # vertex has min degree 0; a K_4 minus nothing always has one; the
    # oracle reports the true maximum
    assert rep["result"]["value"] is not None


def test_rtt_kind_searches_past_the_exhaustive_limit(tmp_path, capsys):
    cfg = write(tmp_path / "rtt.ini", "[run]\nkind = rtt\n[rtt]\nn = 9\nr = 3\n"
                                      "ell = 2\nalpha_bound = 4\n")
    results = []
    for seed in ("0", "1"):
        assert run_cli(["rtt", "--config", cfg, "--seed", seed]) == 0
        rep = read_report(capsys)
        assert rep["flags"]["exhaustive"] is False
        results.append(json.dumps(rep["result"]))
    # the barrier scan draws nothing, so the seed cannot change the result
    assert results[0] == results[1]
    result = json.loads(results[0])
    assert result["exhaustive"] is False and result["feasible"] is True
    witness = parse_graph(result["witness"]["graph6"])
    assert witness.n == 9 and witness.min_degree() == result["value"]


def test_rtt_tries_is_no_longer_read(tmp_path, capsys):
    # [rtt] tries sized the seeded search that the barrier scan replaced;
    # tries = 0 was a config error, and now the key is only warned about
    cfg = write(tmp_path / "rtt.ini", "[run]\nkind = rtt\n[rtt]\nn = 9\nr = 3\n"
                                      "ell = 2\nalpha_bound = 3\ntries = 0\n")
    assert run_cli(["rtt", "--config", cfg]) == 0
    assert capsys.readouterr().err == "warning: [rtt] tries was never read\n"


RTT_N4 = "[run]\nkind = rtt\n[rtt]\nn = 4\nr = 2\nell = 2\nalpha_bound = 4\n"


def test_a_key_the_run_never_reads_is_warned_about(tmp_path, capsys):
    plain = write(tmp_path / "p.ini", RTT_N4)
    assert run_cli(["rtt", "--config", plain]) == 0
    expected = read_report(capsys)
    cfg = write(tmp_path / "t.ini", RTT_N4 + "trys = 1\n")
    assert run_cli(["rtt", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: [rtt] trys was never read\n"
    report = json.loads(captured.out)
    assert report["config"].pop("rtt.trys") == "1"
    assert report["result"] == expected["result"]


def test_a_scan_warns_once_about_a_swept_key_no_point_reads(tmp_path, capsys):
    cfg = write(tmp_path / "s.ini", RTT_N4 + "[scan]\nparam = rtt.trys\n"
                                             "values = 1, 2\nvaules = 3\n")
    assert run_cli(["scan", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ("warning: [scan] vaules was never read\n"
                                       "warning: [rtt] trys was never read\n")


def test_a_config_whose_keys_are_all_read_prints_no_warning(tmp_path, capsys):
    cfg = write(tmp_path / "a.ini", "[run]\nkind = alpha\nseed = 7\n"
                                    "[alpha]\ngraph = c5\nell = 2\n")
    assert run_cli(["alpha", "--config", cfg]) == 0
    assert capsys.readouterr().err == ""
    parsed = Config.from_text("[alpha]\ngraph = c5\nell = 2\n")
    parsed.flat()
    assert parsed.unread_keys() == [("alpha", "graph"), ("alpha", "ell")]


def test_embed_kind_auto_alpha(tmp_path, capsys):
    cfg = write(tmp_path / "em.ini", "[run]\nkind = embed\nseed = 3\n"
                                     "[embed]\ngraph = gnp:40,0.9,9\n"
                                     "classes = 0-19;20-39\np = 2\n"
                                     "alpha_bound = auto\n")
    assert run_cli(["embed", "--config", cfg]) == 0
    rep = read_report(capsys)
    assert rep["result"]["success"] is True
    assert len(rep["result"]["vertices"]) == 4


@pytest.mark.parametrize("beta", ["0.1", "0.9", "1", "x"])
def test_embed_ignores_a_beta_key(tmp_path, capsys, beta):
    # nothing reads [embed] beta, so like any unknown key it leaves the
    # result as it is and is never range-checked
    body = ("[run]\nkind = embed\nseed = 3\n[embed]\ngraph = gnp:45,0.93,77\n"
            "classes = 0-14;15-29;30-44\np = 2\nalpha_bound = 1\n")
    results = []
    for extra in ("", f"beta = {beta}\n"):
        cfg = write(tmp_path / "b.ini", body + extra)
        assert run_cli(["embed", "--config", cfg]) == 0
        results.append(strip_timings(read_report(capsys))["result"])
    assert results[0] == results[1]


def test_absorb_xi_past_the_cap_runs_sampled(tmp_path, capsys):
    # floor(5 * 6) = 30 leftovers is past the exhaustive cap of 4; this used
    # to exit 2 with a message that named no key
    cfg = write(tmp_path / "xi.ini", "[run]\nkind = absorb\n[absorb]\ntask = xi\n"
                                     "graph = complete:6\nr = 3\na_set = 0-2\n"
                                     "xi = 5\nsamples = 50\n")
    assert run_cli(["absorb", "--config", cfg]) == 0
    res = read_report(capsys)["result"]
    assert res["mode"] == "sampled" and res["absorbing"] is True
    assert res["checked"] == 50


def test_absorb_xi_ignores_a_mode_key(tmp_path, capsys):
    # the leftover count and n decide the mode; an [absorb] mode line is
    # ignored like any unknown key
    body = ("[run]\nkind = absorb\nseed = 4\n[absorb]\ntask = xi\n"
            "graph = gnp:12,0.7,9\nr = 3\na_set = 0-5\nxi = 1/4\n")
    results = []
    for extra in ("", "mode = exhaustive\n", "mode = sampled\n", "mode = other\n"):
        cfg = write(tmp_path / "m.ini", body + extra)
        assert run_cli(["absorb", "--config", cfg]) == 0
        results.append(strip_timings(read_report(capsys))["result"])
    assert results[0]["mode"] == "exhaustive"
    assert all(res == results[0] for res in results)


# -- fuzzing over generated configs ---------------------------------------------

_JUNK = st.sampled_from(["", "x", "1.5", "-", "1e3", "0x10", "3 4", "\u0662",
                        "1_0"])


def _value(lo, hi=5):
    """Mostly an integer in lo..hi, sometimes one just outside, sometimes junk."""
    valid = st.integers(lo, hi).map(str)
    return st.one_of(valid, valid, valid, valid,
                     st.integers(lo - 2, hi + 1).map(str), _JUNK)


_VALID_GRAPHS = st.one_of(
    st.sampled_from(["c5", "petersen"]),
    st.integers(1, 8).map(lambda n: f"complete:{n}"),
    st.integers(3, 12).map(lambda n: f"cycle:{n}"),
    st.integers(0, 8).map(lambda n: f"empty:{n}"),
    st.integers(1, 10).map(lambda n: f"path:{n}"),
    st.tuples(st.integers(1, 6), st.integers(1, 3)).map(
        lambda a: f"kneser:{a[0]},{a[1]}"),
    st.lists(st.integers(1, 4), min_size=1, max_size=4).map(
        lambda ps: "multipartite:" + ",".join(map(str, ps))),
    st.tuples(st.integers(0, 14), st.sampled_from(["0", "0.3", "0.5", "1"]),
              st.integers(0, 9)).map(lambda a: f"gnp:{a[0]},{a[1]},{a[2]}"),
    st.tuples(st.integers(1, 12), st.sampled_from(["0.2", "0.5"]),
              st.integers(0, 12)).map(
        lambda a: f"gnp-min-degree:{a[0]},{a[1]},{a[2]}"))


@st.composite
def _malformed_graphs(draw):
    name = draw(st.sampled_from(
        ["cycle", "complete", "empty", "kneser", "multipartite", "gnp",
         "gnp-min-degree", "nosuch", "./missing.g6"]))
    if name in ("nosuch", "./missing.g6"):
        return name
    args = draw(st.lists(st.one_of(st.integers(-2, 2).map(str), _JUNK,
                                   st.sampled_from(["1.5", "-0.2"])),
                         max_size=4))
    return f"{name}:{','.join(args)}"


def _graph_specs():
    """Generator specs of at most 15 vertices, about a quarter malformed."""
    return st.one_of(_VALID_GRAPHS, _VALID_GRAPHS, _VALID_GRAPHS,
                     _malformed_graphs())


def _vertex_lists():
    return st.lists(st.integers(-1, 16), max_size=5).map(
        lambda vs: ",".join(map(str, vs)))


def _class_lists():
    """Consecutive disjoint ranges '0-2;3-4', arbitrary vertex lists, or
    classes that the embedder refuses: one class, or two that overlap."""
    ranges = st.lists(st.integers(1, 4), min_size=2, max_size=3).map(
        lambda sizes: ";".join(f"{sum(sizes[:i])}-{sum(sizes[:i + 1]) - 1}"
                               for i in range(len(sizes))))
    return st.one_of(ranges, ranges, ranges,
                     st.lists(_vertex_lists(), min_size=1, max_size=3).map(";".join),
                     st.sampled_from(["0-3", "0-2;2-4", "0-1;0-1", "0-1;2-3;3-5"]))


_FRACTIONS = st.sampled_from(["0", "1/4", "0.5", "1", "2", "-1/3", "1/100", "x"])
_FLOATS = st.sampled_from(["0", "0.1", "0.5", "1", "1.5", "2", "-0.1", "1e6",
                           "-1e6", "nan", "inf", "x"])


def _int_lists():
    return st.one_of(st.lists(st.integers(-1, 4), max_size=4).map(
        lambda ps: " ".join(map(str, ps))), _JUNK)


# fields past int's 4,300-digit limit, some of them zero-padded small ids
_OVERSIZE_PARTITIONS = [f"1 1 0\n{_HUGE}\n", f"{_HUGE} 1 0\n0\n",
                        f"1 1 0\n{'0' * 5000}\n", f"1 {'0' * 4999}1 0\n0\n"]
_OVERSIZE_EDGELISTS = [f"{_HUGE} 0\n", f"2 {_HUGE}\n", f"2 1\n0 {_HUGE}\n",
                       f"2 1\n{'0' * 5000} 1\n", f"{'0' * 4999}2 0\n"]


@st.composite
def _partitioned_graphs(draw):
    """A graph spec and a partition file: mostly k clusters of m consecutive
    ids and an exceptional rest, matching the graph's order; sometimes
    malformed or for another graph."""
    k, m, n0 = draw(st.integers(0, 4)), draw(st.integers(0, 4)), draw(st.integers(0, 2))
    n = k * m + n0
    graph = draw(st.one_of(
        st.sampled_from([f"complete:{n}", f"empty:{n}", f"cycle:{n}"]),
        st.integers(0, 9).map(lambda s: f"gnp:{n},0.5,{s}"),
        _graph_specs()))
    lines = [f"{k} {m} {n0}"]
    lines += [" ".join(map(str, range(i * m, (i + 1) * m))) for i in range(k)]
    lines.append(" ".join(map(str, range(k * m, n))))
    partition = draw(st.one_of(
        st.just("\n".join(lines) + "\n"), st.just("\n".join(lines) + "\n"),
        st.sampled_from(["", "x\n", "2 2 0\n0 1\n", "1 1 0\n99\n",
                         "1 2 0\n0 0\n", *_OVERSIZE_PARTITIONS])))
    return graph, partition


def _kind_keys(draw, kind):
    """The [kind] section of a generated config, and the files it names."""
    keys = {}
    files = {}
    if kind == "absorb":
        keys["task"] = draw(st.sampled_from(
            ["absorber", "reachable", "xi", "closedness", "gadget", "other"]))
    if kind == "construct":
        keys["family"] = draw(st.sampled_from(
            ["lower-bound", "cover-threshold", "sparse-klfree", "spec", "other"]))
    if kind not in ("rtt", "thresholds", "bounds", "regcheck"):
        keys["graph"] = draw(_graph_specs())
        if draw(st.sampled_from([False] * 7 + [True])):
            keys["graph"] = "{dir}/g.el"
            files["g.el"] = draw(st.sampled_from(_OVERSIZE_EDGELISTS))
    if kind == "alpha":
        keys["ell"] = draw(_value(2))
        keys["mode"] = draw(st.sampled_from(["exact", "exact", "greedy", "other"]))
    elif kind in ("tile", "factor"):
        keys["r"] = draw(_value(2))
    elif kind == "cover":
        keys["vertex"] = draw(_value(0, 14))
        keys["r"] = draw(_value(1))
        keys["forbidden"] = draw(st.one_of(st.just(""), _vertex_lists(),
                                           st.just(keys["vertex"])))
    elif kind == "rtt":
        # n <= 7 scans at most 2^21 graphs, a min-degree level at a time;
        # n = 8 scans the barrier family
        keys["n"] = draw(st.one_of(_value(1, 7), st.just("8")))
        keys["r"] = draw(_value(2))
        keys["ell"] = draw(_value(2))
        keys["alpha_bound"] = draw(_value(0, 8))
    elif kind == "absorb":
        keys["r"] = draw(_value(2, 4))
        keys["s_set"] = draw(_vertex_lists())
        # the certifiers' refusals: a_set meeting s_set, u == v, s_set
        # holding an endpoint
        keys["a_set"] = draw(st.one_of(_vertex_lists(), st.just(keys["s_set"])))
        keys["u"] = draw(_value(0, 14))
        keys["v"] = draw(st.one_of(_value(0, 14), st.just(keys["u"])))
        if draw(st.booleans()):
            keys["s_set"] = ",".join(filter(None, (keys["s_set"], keys["v"])))
        keys["u_set"] = draw(st.one_of(st.just("all"), _vertex_lists()))
        keys["t"] = draw(_value(0, 3))
        keys["xi"] = draw(st.sampled_from(["0", "1/5", "0.25", "-1", "2", "x"]))
        keys["mode"] = draw(st.sampled_from(["exhaustive", "sampled", "other"]))
        keys["samples"] = draw(st.integers(-1, 20).map(str))
        keys["pair_budget"] = draw(_value(0, 4))
        keys["limit"] = draw(_value(0, 3))
        keys["inner"] = draw(st.sampled_from(["true", "false", "x"]))
    elif kind == "drc":
        keys["target"] = draw(_vertex_lists())
        keys["witness"] = draw(st.one_of(_vertex_lists(), st.just(keys["target"])))
        keys["t"] = draw(_value(1, 3))
        keys["r"] = draw(_value(2, 4))
        keys["m"] = draw(_value(1, 4))
        keys["trials"] = draw(st.integers(-1, 3).map(str))
    elif kind == "regcheck":
        keys["graph"], files["part.txt"] = draw(_partitioned_graphs())
        keys["partition"] = "{dir}/part.txt"
        keys["epsilon"] = draw(_FRACTIONS)
        keys["d"] = draw(_FRACTIONS)
        keys["super"] = draw(st.sampled_from(["true", "false", "x"]))
    elif kind == "thresholds":
        optional = {"parts": _int_lists(), "r": _value(2, 6), "ell": _value(2, 4),
                    "n": _value(-1, 12), "rho_star": _FRACTIONS,
                    "profile_c": _FLOATS,
                    "profile_n": st.one_of(_value(0, 12), st.just("1"))}
        for k, values in optional.items():
            if draw(st.sampled_from([True, True, True, False])):
                keys[k] = draw(values)
    elif kind == "bounds":
        keys["formula"] = draw(st.sampled_from(
            ["fkg", "janson", "drc-condition", "other"]))
        for k in ("n", "ell", "a_size", "t", "r"):
            keys[k] = draw(_value(0, 6))
        for k in ("p", "avg_degree", "m", "a"):
            keys[k] = draw(_FLOATS)
    elif kind == "construct":
        keys["n"] = draw(_value(0, 12))
        keys["r"] = draw(_value(2, 5))
        keys["ell"] = draw(_value(2, 4))
        keys["eta"] = draw(_FRACTIONS)
        keys["x"] = draw(_FRACTIONS)
        if draw(st.booleans()):
            keys["clique_size"] = draw(_value(0, 6))
        keys["inner"] = draw(st.one_of(
            _graph_specs(), st.integers(0, 8).map(lambda n: f"empty:{n}"),
            st.integers(3, 8).map(lambda n: f"cycle:{n}")))
        keys["gamma"] = draw(_FLOATS)
        keys["max_tries"] = draw(_value(-1, 3))
        keys["graph_out"] = draw(st.sampled_from(["g.g6", "g.el", "sub/g.el"]))
    else:
        keys["classes"] = draw(_class_lists())
        keys["p"] = draw(_value(1, 3))
        keys["alpha_bound"] = draw(st.one_of(st.just("auto"), _value(0)))
        keys["s"] = draw(_value(1, 3))
        keys["trials"] = draw(st.integers(-1, 3).map(str))
    return keys, files


def _scan_section(draw, kind, keys):
    """A [scan] section: mostly a sweep of one of the kind's own keys over
    values drawn like the key's own, sometimes a [run] key or a bad param."""
    param = draw(st.one_of(
        st.sampled_from([f"{kind}.{k}" for k in sorted(keys)] or [f"{kind}.x"]),
        st.sampled_from(["run.seed", "run.node_budget", "run.kind", "scan.param",
                         "nosuch.x", "noperiod", f"{kind}."])))
    section, _, key = param.partition(".")
    values = []
    for _ in range(draw(st.integers(0, 3))):
        if section == kind:
            values.append(_kind_keys(draw, kind)[0].get(key, "x"))
        else:
            values.append(draw(_value(-1)))
    return f"[scan]\nparam = {param}\nvalues = {'; '.join(values)}\n"


@st.composite
def _fuzz_configs(draw):
    kind = draw(st.sampled_from(["alpha", "rtt", "embed", "cover", "tile",
                                 "factor", "absorb", "drc", "regcheck",
                                 "thresholds", "bounds", "construct"]))
    keys, files = _kind_keys(draw, kind)
    dropped = draw(st.one_of(st.none(), st.none(), st.none(),
                             st.sampled_from(sorted(keys)))) if keys else None
    body = "".join(f"{k} = {v}\n" for k, v in keys.items() if k != dropped)
    text = f"[run]\nkind = {kind}\n[{kind}]\n{body}"
    command = kind
    if draw(st.sampled_from([False, False, True])):
        command = "scan"
        text += _scan_section(draw, kind, keys)
    budget = draw(st.sampled_from([None, None, None, "-1", "0", "3", "50", "x"]))
    return command, text, budget, files


_EXTREME_FLOATS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "-0.0"])


@st.composite
def _float_key_configs(draw):
    """A valid config whose float keys that reach a report (bounds a, p,
    avg_degree and m; thresholds profile_c) mostly hold non-finite, huge or
    negative-zero values, run directly or swept."""
    kind, base = draw(st.sampled_from([
        ("bounds", {"formula": "drc-condition", "n": "5", "avg_degree": "2",
                    "t": "2", "r": "2", "m": "1", "a": "0"}),
        ("bounds", {"formula": "fkg", "n": "5", "ell": "2", "p": "0.5"}),
        ("bounds", {"formula": "janson", "a_size": "5", "ell": "3", "p": "0.5"}),
        ("thresholds", {"r": "4", "ell": "2", "profile_c": "0.5",
                        "profile_n": "12"})]))
    keys = dict(base)
    floats = [k for k in ("a", "p", "avg_degree", "m", "profile_c")
              if k in keys]
    values = st.one_of(_EXTREME_FLOATS, _FLOATS)
    for k in draw(st.lists(st.sampled_from(floats), min_size=1, unique=True)):
        keys[k] = draw(values)
    text = f"[run]\nkind = {kind}\n[{kind}]\n" + "".join(
        f"{k} = {v}\n" for k, v in keys.items())
    if not draw(st.booleans()):
        return kind, text, None, {}
    swept = draw(st.lists(values, min_size=1, max_size=3))
    text += (f"[scan]\nparam = {kind}.{draw(st.sampled_from(floats))}\n"
             f"values = {'; '.join(swept)}\n")
    return "scan", text, None, {}


def _no_constant(name):
    raise AssertionError(f"report holds {name}, which is not JSON")


@settings(max_examples=450, deadline=None)
@given(st.one_of(_fuzz_configs(), _float_key_configs()))
def test_generated_configs_never_end_in_a_traceback(case):
    command, text, budget, files = case
    saved = os.environ.pop("CFL_NODE_BUDGET", None)
    if budget is not None:
        os.environ["CFL_NODE_BUDGET"] = budget
    try:
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                    fh.write(content)
            path = os.path.join(tmp, "fuzz.ini")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace("{dir}", tmp))
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = run_cli([command, "--config", path, "--out", tmp])
            for name in os.listdir(tmp):
                if name.endswith(".json"):          # strict JSON: no NaN or Infinity
                    with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                        json.loads(fh.read(), parse_constant=_no_constant)
    finally:
        os.environ.pop("CFL_NODE_BUDGET", None)
        if saved is not None:
            os.environ["CFL_NODE_BUDGET"] = saved
    assert code in (0, 2, 3, 4)
