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


def test_byte_identical_repeat_runs(capsys):
    args = ["simulate-vertex", "--d", "4", "--k", "7",
            "--lambda", "0.5774", "--samples", "100000", "--seed", "7",
            "--format", "csv"]
    code1, out1 = run_cli(capsys, *args)
    code2, out2 = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_thread_count_does_not_change_output():
    env = dict(os.environ)
    outs = []
    for threads in ("1", "4"):
        env["NBTREE_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-m", "nbtree.cli", "simulate-vertex", "--d", "3",
             "--k", "2", "--samples", "20000", "--seed", "5", "--format", "csv"],
            capture_output=True, env=env, text=True, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


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
    res = acceptance.criterion_bound_sweep(0, threads=1)
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

    def sampled(sampler, n_samples, seed, threads=None):
        return CorrEstimate(0.0, n_samples, 0.01, -0.02, 0.02, seed)

    monkeypatch.setattr(acceptance, "exact_corr_discrete", constant)
    monkeypatch.setattr(acceptance, "exact_edge_corr", constant)
    monkeypatch.setattr(acceptance, "monte_carlo_corr", sampled)
    res = acceptance.criterion_bound_sweep(0, threads=1)
    enumerated = [r for r in res["rows"]
                  if r["mode"] == "exact" and r["rule"] != "linear-geom:r6"]
    assert not res["passed"] and res["n_fail"] == len(enumerated) == 144
    assert all(r["verdict"] == "FAIL" for r in enumerated)


def test_norm_and_walk_count_build_no_sparse_operator(capsys, monkeypatch):
    # the power iteration runs on (orientation, height) class values and
    # walk counts on cones: neither subcommand, nor criteria 2 and 4,
    # builds the sparse matrix
    from nbtree import acceptance, nb_operator

    def refuse(ball):
        raise AssertionError("the sparse operator was built")

    build = nb_operator.build_operator
    for name, mod in list(sys.modules.items()):
        if ((name == "nbtree" or name.startswith("nbtree."))
                and getattr(mod, "build_operator", None) is build):
            monkeypatch.setattr(mod, "build_operator", refuse)
    code, out = run_cli(capsys, "nb-norm", "--d", "3", "--radius", "17", "--k", "6")
    assert code == 0
    assert json.loads(out) == {  # the digits of the sparse power iteration
        "d": 3, "radius": 17, "k": 6, "estimate": 31.467645841222165,
        "bound": 79.19595949289331, "residual": 3.9581155948848265e-11,
        "iterations": 16, "converged": True}
    code, out = run_cli(capsys, "walk-count", "--d", "3", "--radius", "12", "--k", "6",
                        "--edge", "0")
    assert code == 0 and json.loads(out)["count"] == 64
    assert acceptance.criterion_norm_bound(0)["passed"]
    assert acceptance.criterion_walk_counts(0)["passed"]


def test_removed_flags_are_usage_errors(capsys):
    assert main(["bounds", "--d", "3", "--k-max", "2", "--threads", "2"]) == 2
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

    return acceptance.criterion_bound_sweep(0, threads=1)["rows"]


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


#: runs each argv given as JSON in argv[1] with every scipy import refused,
#: and prints each exit code and stdout sha256 and the scipy modules loaded
_WITHOUT_SCIPY = """
import contextlib, hashlib, io, json, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} refused")

sys.meta_path.insert(0, RefuseScipy())
from nbtree.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, hashlib.sha256(out.getvalue().encode()).hexdigest()])
print(json.dumps({"runs": runs,
                  "scipy": [m for m in sys.modules if m.split(".")[0] == "scipy"]}))
"""

#: builds the sparse operator in an interpreter that has not loaded scipy
_SPARSE_ON_FIRST_USE = """
import json, sys
import numpy as np
from nbtree import apply, apply_transpose, build_ball, build_operator
before = "scipy.sparse" in sys.modules
op = build_operator(build_ball(3, 3))
ones = np.ones(op.m)
print(json.dumps({
    "before": before, "after": "scipy.sparse" in sys.modules,
    "apply": apply(op, ones).tolist() == [op.predecessors(e).size for e in range(op.m)],
    "apply_transpose":
        apply_transpose(op, ones).tolist() == [op.successors(e).size for e in range(op.m)]}))
"""


def test_every_subcommand_runs_without_scipy():
    # only build_operator needs scipy, and no subcommand calls it; the
    # report keeps its bytes with every scipy import refused
    from test_acceptance import REPORT_SEED0_SHA256
    argvs = [[command] + argv for command, argv in sorted(FUZZ_BASE.items())]
    argvs.append(["report", "--seed", "0"])
    proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    doc = json.loads(proc.stdout)
    assert [code for code, _ in doc["runs"]] == [0] * len(argvs)
    assert doc["runs"][-1][1] == REPORT_SEED0_SHA256
    assert doc["scipy"] == []
    proc = subprocess.run([sys.executable, "-c", _SPARSE_ON_FIRST_USE],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == {
        "before": False, "after": True, "apply": True, "apply_transpose": True}
