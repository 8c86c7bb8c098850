"""Command-line surface: output formats, exit codes, and reproducibility."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nbtree.bounds import bound_table
from nbtree.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_bounds_csv_matches_library(capsys):
    code, out = run_cli(capsys, "bounds", "--d", "3", "--k-max", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,k,vertex_bound,hull_bound,edge_bound,bnorm_bound"
    assert len(lines) == 9
    rows = bound_table(3, 8)
    for line, row in zip(lines[1:], rows):
        d, k, vb, hb, eb, nb = line.split(",")
        assert (int(d), int(k)) == (row.d, row.k)
        assert float(vb) == row.vertex_bound  # 17 digits round-trip exactly
        assert float(nb) == row.bnorm_bound


def test_bounds_json_lines(capsys):
    code, out = run_cli(capsys, "bounds", "--d", "4", "--k-max", "2", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().split("\n")]
    assert rows[0]["d"] == 4 and rows[1]["k"] == 2
    assert set(rows[0]) == {"d", "k", "vertex_bound", "hull_bound",
                            "edge_bound", "bnorm_bound"}


def test_ball_info(capsys):
    code, out = run_cli(capsys, "ball-info", "--d", "3", "--radius", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["n_vertices"] == 10
    assert doc["n_directed_edges"] == 18
    assert doc["sphere_sizes"] == [1, 3, 6]


def test_nb_norm_pass_and_nonconverged_exit(capsys):
    code, out = run_cli(capsys, "nb-norm", "--d", "3", "--radius", "6", "--k", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] and doc["estimate"] <= doc["bound"]
    code, out = run_cli(capsys, "nb-norm", "--d", "3", "--radius", "6", "--k", "2",
                        "--tol", "1e-16", "--max-iter", "2")
    assert code == 1


def test_nb_certify(capsys):
    code, out = run_cli(capsys, "nb-certify", "--d", "3", "--radius", "8", "--k", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["max_s_inv"] < doc["bound"] == pytest.approx(5 * 2 ** 2.5, rel=1e-12)
    assert doc["max_s_fwd"] < doc["bound"]
    assert set(doc) >= {"d", "radius", "k", "max_s_inv", "max_s_fwd", "bound",
                        "interior_edge_count"}


#: sha256 of the concatenated stdout of ``nb-certify`` over each grid of
#: (d, radius, k), as the per-edge cone enumeration printed it
NB_CERTIFY_GRIDS = [
    ([(3, k + 2, k) for k in range(1, 13)],
     "aa339a30278f8ecf2319782f54cdd90c7aaed45817f4992e72d29c946e08867f"),
    ([(d, max(k + 2, 2 * k), k) for d in (3, 4, 5) for k in range(1, 6)],
     "64d3b593d85cab73a6d3646958bd9d8a5b00d70f6e453b382e1489b0f5e23cd6"),
]


@pytest.mark.parametrize("grid,digest", NB_CERTIFY_GRIDS, ids=["nb-scale", "report"])
def test_nb_certify_bytes_are_pinned_and_build_no_ball(capsys, no_ball, grid, digest):
    h = hashlib.sha256()
    for d, radius, k in grid:
        code, out = run_cli(capsys, "nb-certify", "--d", str(d), "--radius", str(radius),
                            "--k", str(k))
        assert code == 0, (d, radius, k)
        h.update(out.encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("argv,message", [
    (["--d", "2", "--radius", "4", "--k", "1"], "degree must be an integer >= 3, got 2"),
    (["--d", "3", "--radius", "3", "--k", "2"],
     "radius 3 too small: need R >= k+2 = 4 so that some cones are interior"),
    (["--d", "3", "--radius", "4", "--k", "0"], "k must be >= 1"),
    (["--d", "3", "--radius", "4", "--k", "-1"], "k must be >= 1"),
    (["--d", "3", "--radius", "-1", "--k", "1"], "radius must be an integer >= 0, got -1"),
    (["--d", "3", "--radius", "40", "--k", "2"],
     "ball d=3, R=40 has 6597069766650 directed edges (cap 50000000)"),
    (["--d", "3", "--radius", "23", "--k", "2"],
     "ball d=3, R=23 has 50331642 directed edges (cap 50000000)"),
    (["--d", "7", "--radius", "10", "--k", "2"],
     "ball d=7, R=10 has 169305290 directed edges (cap 50000000)"),
])
def test_nb_certify_refuses_what_build_ball_refuses(capsys, no_ball, argv, message):
    # the class recursion needs no ball, but takes exactly the balls
    # build_ball would build, so the cap still bounds its work
    assert main(["nb-certify"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


def _simulate_grid(command):
    """d, k and rule radius (view depth for edges) over both profiles, at
    2000 samples and seed 5."""
    for d in (3, 4):
        for k in (0, 1, 2, 5, 8):
            for r in (0, 1, 3):
                if command == "simulate-edge":
                    yield [command, "--d", str(d), "--k", str(k), "--depth", str(r)]
                    continue
                for profile in ("geometric", "flat"):
                    yield [command, "--d", str(d), "--k", str(k), "--r", str(r),
                           "--profile", profile]


#: sha256 of each grid's exit codes and stdout, as the sampler built from
#: two views on a ball printed them
SIMULATE_GRID_SHA256 = {
    "simulate-vertex": "1ecb4f93490e170d22eac737506f18f504dda8e3537292f145e5c4a84f81661b",
    "simulate-edge": "24b60f7a7f7c83ad47924a3b8acecd8532c934932fe5ff8ec9a358e639c5e63b",
}


@pytest.mark.parametrize("command", sorted(SIMULATE_GRID_SHA256))
def test_simulate_bytes_are_pinned_and_build_no_ball(capsys, no_ball, command):
    h = hashlib.sha256()
    for argv in _simulate_grid(command):
        code, out = run_cli(capsys, *argv, "--samples", "2000", "--seed", "5")
        h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == SIMULATE_GRID_SHA256[command]


@pytest.mark.parametrize("argv,message", [
    (["simulate-vertex", "--d", "3", "--k", "1", "--r", "-2"], "rule radius must be >= 0, got -2"),
    (["simulate-vertex", "--d", "2", "--k", "1", "--r", "-2"],
     "degree must be an integer >= 3, got 2"),
    (["simulate-vertex", "--d", "3", "--k", "-1"], "k must be >= 0"),
    (["simulate-vertex", "--d", "3", "--k", "1", "--r", "17"],
     "pair support has 524286 labels (cap 262144)"),
    (["simulate-edge", "--d", "3", "--k", "1", "--depth", "-2"],
     "view depth must be >= 0, got -2"),
    (["simulate-edge", "--d", "2", "--k", "1"], "degree must be an integer >= 3, got 2"),
])
def test_simulate_refusals_name_the_arguments(capsys, no_ball, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["simulate-vertex", "--d", "3", "--k", "50", "--r", "2"],
    ["simulate-edge", "--d", "3", "--k", "60", "--depth", "2"],
])
def test_simulate_runs_at_distances_beyond_the_ball_cap(capsys, no_ball, argv):
    # two views this far apart once needed a ball above DIRECTED_EDGE_CAP
    code, out = run_cli(capsys, *argv, "--samples", "2000")
    assert code == 0 and json.loads(out)["verdict"] == "PASS"


def test_walk_count_command(capsys):
    code, out = run_cli(capsys, "walk-count", "--d", "3", "--radius", "6",
                        "--k", "3", "--edge", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 8 and doc["interior"]


def test_hull_distance_command(capsys):
    # hull of the two children of vertex 1 contains vertex 1 itself,
    # which is two steps from vertex 2 through the root
    code, out = run_cli(capsys, "hull-distance", "--d", "3", "--radius", "5",
                        "--set1", "4,5", "--set2", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 2 and doc["witness1"] == 1 and doc["witness2"] == 2


def test_exact_corr_command(capsys):
    code, out = run_cli(capsys, "exact-corr", "--d", "3", "--k", "2",
                        "--rule", "sum", "--r", "1", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("d,k,rule,mode,value,stderr,bound,verdict")
    assert ",exact," in row and row.split(",")[7] == "PASS"


@pytest.mark.parametrize("k,value,n_configs", [(1, 0.6, 16384), (4, 0.1, 524288),
                                                (9, 0.0, 1048576)])
def test_exact_corr_sum_rule_values_are_pinned(capsys, k, value, n_configs):
    # values the index-arithmetic enumeration gave
    code, out = run_cli(capsys, "exact-corr", "--d", "3", "--k", str(k),
                        "--rule", "sum", "--r", "2")
    doc = json.loads(out)
    assert code == 0
    assert (doc["value"], doc["n_samples"]) == (value, n_configs)


def _exact_cli_grid_digest() -> str:
    """sha256 of the exit code, standard output and standard error of
    exact-corr over rules x d x k x alphabet, and of symmetrize-check over
    k x rule x alphabet."""
    import contextlib
    import io

    argvs = [["exact-corr", "--d", d, "--k", k, "--rule", rule, "--alphabet", a]
             for rule in ("sum", "parity", "xor-pair", "threshold")
             for d in (3, 4) for k in range(7) for a in (2, 3)]
    argvs += [["symmetrize-check", "--d", 3, "--k", k, "--rule", rule, "--alphabet", a]
              for k in (1, 2) for rule in ("first-child", "table") for a in (2, 3)]
    digest = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([str(x) for x in argv])
        digest.update(f"{argv}\n{code}\n{out.getvalue()}{err.getvalue()}".encode())
    return digest.hexdigest()


def test_exact_cli_bytes_are_pinned():
    # the digest of full enumeration of the union support: elimination over
    # the overlap reproduces every byte, refusals included
    assert _exact_cli_grid_digest() == \
        "090c01ce067548151f429a1348dd9d5a406c11cff6c9f1ec23cba410f1afb75b"


def test_exact_corr_symmetrizes_order_sensitive_rules(capsys):
    # the raw pair rule is order-sensitive and correlates perfectly at
    # k = 1; the command must test its orbit average instead and pass
    code, out = run_cli(capsys, "exact-corr", "--d", "3", "--k", "1",
                        "--rule", "xor-pair", "--format", "csv")
    assert code == 0
    row = out.strip().split("\n")[1]
    assert row.split(",")[2].startswith("sym(")
    assert row.split(",")[7] == "PASS"


#: label domain of each rule family's exact row without --alphabet: the one
#: the family declares (Rademacher for majority), else two letters
FAMILY_DOMAINS = {"sum": "alphabet:2", "parity": "alphabet:2", "threshold": "alphabet:2",
                  "majority": "rademacher", "xor-pair": "alphabet:2"}


@pytest.mark.parametrize("rule", sorted(FAMILY_DOMAINS))
def test_exact_corr_runs_each_family_on_its_domain(capsys, rule):
    from nbtree import acceptance
    from nbtree.factor_engine import BLOCK_RULE_FAMILIES

    for d, k, r in ((3, 1, 1), (4, 2, 1), (3, 3, 2)):
        code, out = run_cli(capsys, "exact-corr", "--d", str(d), "--k", str(k),
                            "--rule", rule, "--r", str(r))
        family = BLOCK_RULE_FAMILIES[rule](radius=r, theta=2.0)
        assert json.loads(out) == acceptance.vertex_exact_row(d, k, family,
                                                              FAMILY_DOMAINS[rule])


def test_exact_corr_alphabet_overrides_the_family_domain(capsys):
    from nbtree.factor_engine import vertex_ball_levels
    from nbtree.tree_core import build_ball, vertices_at_distance

    ball = build_ball(3, 2)
    u, v = vertices_at_distance(ball, 1)
    support = np.unique(np.concatenate(vertex_ball_levels(ball, u, 1)
                                       + vertex_ball_levels(ball, v, 1)))
    code, out = run_cli(capsys, "exact-corr", "--d", "3", "--k", "1", "--rule", "majority",
                        "--alphabet", "3")
    assert code in (0, 1)
    assert json.loads(out)["n_samples"] == 3 ** len(support) == 729
    assert main(["exact-corr", "--d", "3", "--rule", "majority", "--alphabet", "0"]) == 2


def test_simulate_edge_command(capsys):
    code, out = run_cli(capsys, "simulate-edge", "--d", "3", "--k", "3",
                        "--samples", "5000", "--seed", "3", "--format", "csv")
    assert code == 0
    assert out.strip().split("\n")[1].split(",")[7] == "PASS"


def test_symmetrize_check_command(capsys):
    code, out = run_cli(capsys, "symmetrize-check", "--d", "3", "--k", "2",
                        "--rule", "first-child")
    assert code == 0
    doc = json.loads(out)
    assert doc["cross_moment_residual"] <= 1e-12


#: sha256 of symmetrize-check stdout at d=3 (seed 0, alphabet 2), per (k, rule)
SYMMETRIZE_CHECK_SHA256 = {
    (1, "first-child"): "c3d828908af3d25728532a328931fc7865068bf46188339ab2e6b465dacf35ce",
    (1, "table"): "fb3e3cba0536718d3988800708510abf19e59fea86d02d9e78d070c93868b0e0",
    (2, "first-child"): "501f387d4729c42e43126e19b17534617c5222ea89c3569cd8a76fbae8ae7d3d",
    (2, "table"): "2f5df654633643f23b4e47e797cb0d12c0ee6d1bfe2d30112732e626a657bb36",
}


@pytest.mark.parametrize("k, rule", sorted(SYMMETRIZE_CHECK_SHA256))
def test_symmetrize_check_bytes_are_pinned(capsys, k, rule):
    code, out = run_cli(capsys, "symmetrize-check", "--d", "3", "--k", str(k), "--rule", rule)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SYMMETRIZE_CHECK_SHA256[k, rule]


#: universal-check stdout (trials, successes, collisions), one argv each
UNIVERSAL_CHECK_OUTPUTS = [
    (["--d", "3", "--depth", "3", "--trials", "500", "--seed", "0"], (500, 500, 0)),
    (["--d", "4", "--depth", "2", "--trials", "200", "--seed", "7", "--radius", "7"],
     (200, 200, 0)),
    (["--d", "5", "--depth", "1", "--trials", "300", "--seed", str(2**64 - 1)], (300, 300, 0)),
    (["--d", "3", "--depth", "0", "--trials", "40", "--seed", "-5"], (40, 40, 0)),
    (["--d", "3", "--depth", "2", "--trials", "0", "--seed", "1"], (0, 0, 0)),
]


@pytest.mark.parametrize("argv, counts", UNIVERSAL_CHECK_OUTPUTS)
def test_universal_check_bytes_are_pinned(capsys, argv, counts):
    code, out = run_cli(capsys, "universal-check", *argv)
    assert code == 0
    trials, successes, collisions = counts
    assert out == (f'{{\n  "trials": {trials},\n  "successes": {successes},\n'
                   f'  "collisions": {collisions}\n}}\n')


def test_universal_check_command(capsys):
    code, out = run_cli(capsys, "universal-check", "--d", "3", "--depth", "3",
                        "--trials", "40", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"trials": 40, "successes": 40, "collisions": 0}


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["bounds", "--d", "3"]) == 2          # missing required flag
    assert main(["bounds", "--d", "2", "--k-max", "3"]) == 2  # precondition
    assert main(["exact-corr", "--d", "3", "--rule", "bogus"]) == 2
    assert main(["ball-info", "--d", "3", "--radius", "40"]) == 2  # size cap


def test_reused_parser_reports_usage_errors(capsys):
    # the parser outlives a successful call; a later usage error keeps its
    # exit code and its message
    assert main(["bounds", "--d", "3", "--k-max", "2"]) == 0
    capsys.readouterr()
    for _ in range(2):
        assert main(["bounds", "--d", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: nbtree bounds ")
        assert captured.err.endswith(
            "nbtree bounds: error: the following arguments are required: --k-max\n")


def test_help_exits_zero_twice(capsys):
    helps = []
    for _ in range(2):
        assert main(["--help"]) == 0
        helps.append(capsys.readouterr().out)
    assert helps[0].startswith("usage: nbtree ") and helps[0] == helps[1]


#: counts ArgumentParser constructions in a fresh interpreter: after the
#: import, then after each of three exact-corr runs, whose stdouts it prints
_PARSER_BUILDS = """
import argparse, contextlib, io, json

builds = 0
init = argparse.ArgumentParser.__init__

def counting(self, *args, **kwargs):
    global builds
    builds += 1
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting
from nbtree.cli import main
counts, outs = [builds], []
for extra in ([], ["--alphabet", "3"], []):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["exact-corr", "--d", "3", "--k", "2"] + extra) == 0
    counts.append(builds)
    outs.append(out.getvalue())
print(json.dumps({"counts": counts, "outs": outs}))
"""


def test_parser_is_built_once_per_process(checkout_env):
    # not at import; 13 parsers (the top level and 12 subcommands) at the
    # first call and none after; a flag given once does not stick
    proc = subprocess.run([sys.executable, "-c", _PARSER_BUILDS], capture_output=True,
                          text=True, env=checkout_env, check=True)
    doc = json.loads(proc.stdout)
    assert doc["counts"] == [0, 13, 13, 13]
    first, alphabet3, again = doc["outs"]
    assert json.loads(first)["n_samples"] == 128
    assert json.loads(alphabet3)["n_samples"] == 2187
    assert again == first


@pytest.mark.parametrize("argv", [
    ["exact-corr", "--d", "3", "--k", "3", "--r", "-1"],
    ["simulate-vertex", "--d", "3", "--k", "4", "--r", "-1"],
])
def test_negative_rule_radius_is_a_usage_error(capsys, argv):
    # the error names the rule, not a ball too small for the distance
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: rule radius must be >= 0, got -1\n"


@pytest.mark.parametrize("argv", [
    ["bounds", "--d", "3", "--k-max", "8"],
    ["nb-certify", "--d", "3", "--radius", "6", "--k", "2"],
])
@pytest.mark.parametrize("unbuffered", [False, True])
def test_closed_stdout_pipe_exits_quietly(checkout_env, argv, unbuffered):
    # the read end is closed before the child writes: no traceback, no
    # "Exception ignored" line at exit, and 128 + SIGPIPE, as a shell
    # reports a process that SIGPIPE ended, not a verdict or usage code;
    # buffered, the write fails only when stdout is flushed
    env = {key: value for key, value in checkout_env.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "nbtree.cli"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""


def test_byte_identical_repeat_runs(capsys):
    args = ["simulate-vertex", "--d", "4", "--k", "7",
            "--lambda", "0.5774", "--samples", "100000", "--seed", "7",
            "--format", "csv"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_failed_norm_and_certificate_verdicts_exit_one(capsys, monkeypatch):
    # a bound set below the true values must come back as a FAIL verdict
    # (JSON on stdout, exit 1), not as an error
    from fractions import Fraction

    from nbtree import nb_operator

    monkeypatch.setattr(nb_operator.bounds, "bnorm_bound", lambda d, k: 1.0)
    monkeypatch.setattr(nb_operator, "_bound_exact", lambda d, k: (Fraction(1), Fraction(0)))
    code, out = run_cli(capsys, "nb-norm", "--d", "3", "--radius", "6", "--k", "2")
    doc = json.loads(out)
    assert code == 1 and doc["converged"] and doc["estimate"] > doc["bound"] == 1.0
    code, out = run_cli(capsys, "nb-certify", "--d", "3", "--radius", "6", "--k", "2")
    doc = json.loads(out)
    assert code == 1 and doc["strict"] is False and doc["bound"] == 1.0


def _constant_pair_sampler(*_args):
    def sampler(seed, idx):
        return np.ones(len(idx)), np.ones(len(idx))

    return sampler


def test_degenerate_monte_carlo_rows_fail(capsys, monkeypatch):
    # a zero-variance observable gives correlation 0 with stderr 0, which
    # trivially meets any bound; such a row must FAIL and exit 1
    from nbtree import acceptance

    monkeypatch.setattr(acceptance, "linear_pair_sampler", _constant_pair_sampler)
    for argv in (["simulate-vertex", "--d", "3", "--k", "2", "--samples", "1000"],
                 ["simulate-edge", "--d", "3", "--k", "1", "--depth", "1",
                  "--samples", "1000"]):
        code, out = run_cli(capsys, *argv, "--format", "json")
        doc = json.loads(out)
        assert code == 1 and doc["verdict"] == "FAIL", argv
        assert doc["value"] == 0.0 and doc["stderr"] == 0.0


def test_degenerate_monte_carlo_rows_fail_the_bound_sweep(monkeypatch):
    from nbtree import acceptance

    monkeypatch.setattr(acceptance, "linear_pair_sampler", _constant_pair_sampler)
    res = acceptance.criterion_bound_sweep(0)
    mc_rows = [r for r in res["rows"] if r["mode"] == "mc"]
    assert not res["passed"] and res["n_fail"] == len(mc_rows) == 48
    assert all(r["verdict"] == "FAIL" for r in mc_rows)


@pytest.mark.parametrize("theta", ["1e200"])
def test_degenerate_exact_rows_fail(capsys, theta):
    # no neighbourhood sum reaches such a threshold, so the rule is constant
    # and its correlation is 0 by convention; that meets any bound, so the
    # row must FAIL and exit 1, as a degenerate Monte Carlo row does
    code, out = run_cli(capsys, "exact-corr", "--d", "3", "--k", "1", "--rule", "threshold",
                        f"--theta={theta}", "--format", "json")
    doc = json.loads(out)
    assert code == 1 and doc["verdict"] == "FAIL"
    assert doc["value"] == 0.0 and doc["stderr"] == 0.0


def test_degenerate_exact_rows_fail_the_bound_sweep(monkeypatch):
    from nbtree import acceptance
    from nbtree.correlation import CorrEstimate, ExactCorrResult

    def constant(*args, **kwargs):
        return ExactCorrResult(0.0, 0.0, 1.0, 0.0, 1)

    def sampled(sampler, n_samples, seed):
        return CorrEstimate(0.0, n_samples, 0.01, -0.02, 0.02, seed)

    monkeypatch.setattr(acceptance, "exact_corr_discrete", constant)
    monkeypatch.setattr(acceptance, "exact_edge_corr", constant)
    monkeypatch.setattr(acceptance, "monte_carlo_corr", sampled)
    res = acceptance.criterion_bound_sweep(0)
    enumerated = [r for r in res["rows"]
                  if r["mode"] == "exact" and r["rule"] != "linear-geom:r6"]
    assert not res["passed"] and res["n_fail"] == len(enumerated) == 144
    assert all(r["verdict"] == "FAIL" for r in enumerated)


def test_norm_and_walk_count_build_no_sparse_operator(capsys):
    # the power iteration runs on (orientation, height) class values and
    # walk counts on cones; the package has no sparse form of the operator
    from nbtree import acceptance, nb_operator

    assert not hasattr(nb_operator, "build_operator")
    code, out = run_cli(capsys, "nb-norm", "--d", "3", "--radius", "17", "--k", "6")
    assert code == 0
    assert json.loads(out) == {  # the digits of the full-vector fsum iteration
        "d": 3, "radius": 17, "k": 6, "estimate": 31.467645841219518,
        "bound": 79.19595949289331, "residual": 3.899688521910216e-11,
        "iterations": 16, "converged": True}
    code, out = run_cli(capsys, "walk-count", "--d", "3", "--radius", "12", "--k", "6",
                        "--edge", "0")
    assert code == 0 and json.loads(out)["count"] == 64
    assert acceptance.criterion_norm_bound(0)["passed"]
    assert acceptance.criterion_walk_counts(0)["passed"]


def test_removed_flags_are_usage_errors(capsys):
    assert main(["bounds", "--d", "3", "--k-max", "2", "--threads", "2"]) == 2
    assert main(["report", "--threads", "1"]) == 2
    assert main(["simulate-vertex", "--d", "3", "--samples", "200", "--threads", "1"]) == 2
    assert main(["simulate-edge", "--d", "3", "--samples", "200", "--threads", "1"]) == 2
    assert main(["nb-norm", "--d", "3", "--radius", "3", "--format", "csv"]) == 2
    assert main(["report", "--format", "json"]) == 2
    assert main(["symmetrize-check", "--d", "3", "--k", "3"]) == 2
    assert main(["simulate-vertex", "--d", "3", "--k", "1", "--rule", "linear"]) == 2


#: cheap valid arguments per subcommand, perturbed by the fuzz test below
FUZZ_BASE = {
    "bounds": ["--d", "3", "--k-max", "3"],
    "ball-info": ["--d", "3", "--radius", "2"],
    "nb-norm": ["--d", "3", "--radius", "3", "--k", "1"],
    "nb-certify": ["--d", "3", "--radius", "3", "--k", "1"],
    "walk-count": ["--d", "3", "--radius", "3", "--k", "1", "--edge", "0"],
    "hull-distance": ["--d", "3", "--radius", "3", "--set1", "1", "--set2", "2"],
    "simulate-vertex": ["--d", "3", "--k", "1", "--r", "1", "--samples", "200"],
    "simulate-edge": ["--d", "3", "--k", "1", "--depth", "1", "--samples", "200"],
    "exact-corr": ["--d", "3", "--k", "1"],
    "symmetrize-check": ["--d", "3", "--k", "1", "--rule", "first-child"],
    "universal-check": ["--d", "3", "--depth", "1", "--trials", "3"],
}


#: float settings per subcommand (after the arguments that make them matter),
#: set to non-finite and overflowing values by the fuzz test below
FUZZ_FLOATS = {
    "simulate-vertex": [["--lambda"]],
    "simulate-edge": [["--lambda"]],
    "nb-norm": [["--tol"]],
    "exact-corr": [["--theta"], ["--rule", "threshold", "--theta"]],
}


def _fuzz_cases(command):
    base = FUZZ_BASE[command]
    cases = [base]
    for extra in (["--bogus"], ["--format", "csv"], ["--threads", "2"],
                  ["--radius", "40"], ["--k", "0"], ["--k", "3"], ["--k", "-1"]):
        cases.append(base + extra)
    for i, flag in enumerate(base):
        if flag.startswith("--"):
            for value in ("0", "-1", "1", "2", "x", ""):
                cases.append(base[:i + 1] + [value] + base[i + 2:])
    for value in ("nan", "inf", "-inf", "1e200"):
        for *prefix, flag in FUZZ_FLOATS.get(command, []):
            # --flag=value, so that -inf is not read as an option
            cases.append(base + prefix + [f"{flag}={value}"])
    return cases


@pytest.mark.parametrize("command", sorted(FUZZ_BASE))
def test_bad_and_edge_arguments_never_traceback(command, capsys):
    for argv in _fuzz_cases(command):
        code = main([command] + argv)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv


@pytest.mark.parametrize("argv", [
    ["simulate-edge", "--d", "3", "--k", "1", "--samples", "1000", "--lambda=nan"],
    ["simulate-edge", "--d", "3", "--k", "1", "--samples", "1000", "--lambda=inf"],
    ["simulate-edge", "--d", "3", "--k", "1", "--depth", "1", "--lambda=1e200"],
    ["simulate-vertex", "--d", "3", "--k", "1", "--r", "1", "--lambda=1e200"],
    ["simulate-vertex", "--d", "3", "--k", "1", "--r", "1", "--lambda=1e100"],
    ["simulate-vertex", "--d", "3", "--k", "1", "--samples", "1000", "--lambda=-inf"],
    ["nb-norm", "--d", "3", "--radius", "3", "--tol=nan"],
    ["nb-norm", "--d", "3", "--radius", "3", "--tol=inf"],
    ["nb-norm", "--d", "3", "--radius", "3", "--max-iter", "0"],
    ["universal-check", "--d", "3", "--depth", "1", "--trials", "-1"],
    ["simulate-edge", "--d", "3", "--k", "0", "--depth", "-1"],
    ["exact-corr", "--d", "3", "--k", "1", "--rule", "threshold", "--theta=inf"],
    ["exact-corr", "--d", "3", "--k", "1", "--rule", "threshold", "--theta=nan"],
])
def test_non_finite_and_out_of_range_settings_exit_two(argv, capsys):
    # each used to print a verdict (some PASS), or to die with a traceback
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, argv
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1, captured.err


def test_usage_error_messages_are_kept(capsys):
    # the degree is checked before the geometric profile divides by d - 1
    for argv in (["simulate-vertex", "--d", "1"], ["simulate-edge", "--d", "1"],
                 ["exact-corr", "--d", "1"], ["symmetrize-check", "--d", "1", "--k", "1"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err == "error: degree must be an integer >= 3, got 1\n"
    assert main(["simulate-edge", "--d", "3", "--k", "-1"]) == 2
    assert capsys.readouterr().err == "error: k must be >= 0\n"


def _sweep_row(rows, d, k, rule):
    (row,) = [r for r in rows if (r["d"], r["k"], r["rule"]) == (d, k, rule)]
    return row


@pytest.fixture(scope="module")
def sweep_rows():
    from nbtree import acceptance

    return acceptance.criterion_bound_sweep(0)["rows"]


@pytest.mark.parametrize("d,k", [(3, 1), (3, 5), (4, 1), (4, 5)])
def test_cli_rows_are_the_bound_sweep_rows(capsys, sweep_rows, d, k):
    # the subcommands and criterion 6 run the same builders: same instance,
    # same seed, same row
    edge_seed, vertex_seed = 9001 * d + 17 * k, 101 * d + 13 * k
    code, out = run_cli(capsys, "simulate-edge", "--d", str(d), "--k", str(k),
                        "--samples", "50000", "--seed", str(edge_seed))
    assert json.loads(out) == _sweep_row(sweep_rows, d, k, "edge-geom:D3")
    for rule, name in (("xor-pair", "sym(xor-pair)"), ("parity", "parity:r1")):
        code, out = run_cli(capsys, "exact-corr", "--d", str(d), "--k", str(k),
                            "--rule", rule, "--r", "1")
        assert json.loads(out) == _sweep_row(sweep_rows, d, k, name)
    code, out = run_cli(capsys, "simulate-vertex", "--d", str(d), "--k", str(k),
                        "--r", "4", "--samples", "50000", "--seed", str(vertex_seed))
    row, swept = json.loads(out), _sweep_row(sweep_rows, d, k, "linear-geom:r4")
    for key in ("value", "stderr", "bound", "verdict"):
        assert row[key] == swept[key], key


def test_report_argument_errors_exit_two(capsys):
    for argv in (["--bogus"], ["--seed", "x"], ["--threads", "x"], ["--format", "csv"]):
        assert main(["report"] + argv) == 2
        assert "Traceback" not in capsys.readouterr().err


def test_out_writes_the_file(capsys, tmp_path):
    path = tmp_path / "bounds.csv"
    assert main(["bounds", "--d", "3", "--k-max", "2", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    _, out = run_cli(capsys, "bounds", "--d", "3", "--k-max", "2")
    assert path.read_text() == out


def test_unwritable_out_is_a_usage_error(capsys, tmp_path):
    # a missing directory and a directory: exit 2 with one error line
    for path in (tmp_path / "no" / "such" / "x.csv", tmp_path):
        assert main(["bounds", "--d", "3", "--k-max", "2", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --out {path}: ")
        assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_report_metrics_sidecar(capsys, tmp_path):
    # one timing per criterion in report order, each from a worker process;
    # standard output keeps its bytes
    from test_acceptance import REPORT_SEED0_SHA256
    path = tmp_path / "metrics.json"
    code, out = run_cli(capsys, "report", "--seed", "0", "--metrics", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SEED0_SHA256
    metrics = json.loads(path.read_text())
    report = json.loads(out)
    assert [(c["id"], c["name"]) for c in metrics["criteria"]] == \
        [(c["id"], c["name"]) for c in report["criteria"][:-1]]
    pids = {c["pid"] for c in metrics["criteria"]}
    assert os.getpid() not in pids and 1 <= len(pids) <= metrics["workers"]
    assert all(c["wall_s"] >= 0.0 for c in metrics["criteria"])
    # the exact route's criteria, and only they, tabulate labelings
    assert {c["name"] for c in metrics["criteria"] if c["configs_tabulated"]} == {
        "oracle-agreement", "bound-compliance-sweep", "orbit-average-moments",
        "edge-homogeneity"}
    # 48 sweep rows of 50,000 samples and 20 coverage runs of 100,000
    assert {c["name"]: c["mc_samples"] for c in metrics["criteria"] if c["mc_samples"]} == {
        "bound-compliance-sweep": 2_400_000, "oracle-agreement": 2_000_000}
    # only the norm criterion runs power iteration
    assert [c["name"] for c in metrics["criteria"] if c["power_iterations"]] == ["norm-vs-bound"]
    # site tables go with tabulated labelings; homogeneity builds one per
    # source (66) and one per target (264)
    assert {c["name"] for c in metrics["criteria"] if c["site_tables"]} == {
        c["name"] for c in metrics["criteria"] if c["configs_tabulated"]}
    assert metrics["criteria"][9]["site_tables"] == 330


def test_unwritable_metrics_is_a_usage_error(capsys, monkeypatch, tmp_path):
    # exit 2 with the --out message form, before any criterion runs
    from nbtree import acceptance

    def refuse(*_args, **_kwargs):
        raise AssertionError("ran the report")

    monkeypatch.setattr(acceptance, "run_report", refuse)
    for path in (tmp_path / "no" / "such" / "m.json", tmp_path):
        assert main(["report", "--metrics", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write --metrics {path}: ")
        assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def _raise_value_error(seed=0):
    raise ValueError("criterion refused")


@pytest.mark.parametrize("index,fn,want", [
    # the largest criterion raises while the other worker is still busy
    (5, _raise_value_error, 2),
    (9, lambda seed=0: {"passed": False}, 1),
])
def test_report_worker_outcomes_reach_the_exit_code(capsys, monkeypatch, index, fn, want):
    # an exception in a worker keeps its type (a usage error, exit 2) and a
    # failed verdict exits 1; neither prints a traceback or leaves a worker
    import multiprocessing

    from nbtree import acceptance

    criteria = list(acceptance.CRITERIA)
    cid, name, _ = criteria[index]
    criteria[index] = (cid, name, fn)
    monkeypatch.setattr(acceptance, "CRITERIA", criteria)
    assert main(["report", "--seed", "0"]) == want
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    if want == 2:
        assert captured.out == "" and captured.err == "error: criterion refused\n"
    else:
        doc = json.loads(captured.out)
        assert [c["id"] for c in doc["criteria"] if c["passed"] is False] == [cid]
    assert multiprocessing.active_children() == []


def _session_members(sid: int) -> list[int]:
    """Pids of the live processes in session `sid`, read off /proc."""
    members = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):  # not a pid, or the process just exited
            continue
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the session off /proc")
def test_report_into_a_closed_pipe_leaves_no_worker(checkout_env):
    # the report runs in a session of its own, so every process it forks
    # stays in that session; after exit 141 none of them is left
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen([sys.executable, "-m", "nbtree.cli", "report", "--seed", "0"],
                                stdout=write_end, stderr=subprocess.PIPE, text=True,
                                env=checkout_env, start_new_session=True)
        _, stderr = proc.communicate(timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert stderr == ""
    assert _session_members(proc.pid) == []


#: runs each argv given as JSON in argv[1] with every scipy import refused,
#: and prints each exit code, stdout sha256 and whether multiprocessing was
#: loaded by the end of that run, and the scipy and concurrent modules loaded
_WITHOUT_SCIPY = """
import contextlib, hashlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} refused")

def loaded(package):
    return [m for m in sys.modules if m.split(".")[0] == package]

sys.meta_path.insert(0, RefuseScipy())
from nbtree.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                 bool(loaded("multiprocessing"))])
print(json.dumps({"runs": runs, "scipy": loaded("scipy"), "concurrent": loaded("concurrent")}))
"""

def test_every_subcommand_runs_without_scipy(checkout_env):
    # the package needs no scipy: every subcommand runs and the report
    # keeps its bytes with every scipy import refused, no run loads the
    # thread pool, and only the report, which runs last, loads the process pool
    from test_acceptance import REPORT_SEED0_SHA256
    argvs = [[command] + argv for command, argv in sorted(FUZZ_BASE.items())]
    argvs.append(["report", "--seed", "0"])
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, env=checkout_env, check=True)
    doc = json.loads(proc.stdout)
    assert [code for code, _, _ in doc["runs"]] == [0] * len(argvs)
    assert doc["runs"][-1][1] == REPORT_SEED0_SHA256
    assert [pool for _, _, pool in doc["runs"]] == [False] * (len(argvs) - 1) + [True]
    assert doc["scipy"] == [] and doc["concurrent"] == []
