"""Acceptance gate: every criterion at its stated tolerance and runtime.

Each test prints one PASS/FAIL line.  Criterion 12 runs the report
command twice, each in a fresh process (the second with OpenBLAS on one
thread), compares the emitted JSON byte for byte and checks it against
the recorded digest; a third run, pinned to one CPU and so to one worker
process, must emit the same digest.
"""

import functools
import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from nbtree import acceptance, rng
from nbtree.correlation import random_exchangeable_joint
from nbtree.tree_core import build_ball, forward_cone_interior

# (id, name, function, runtime limit in seconds or None)
CASES = [
    (1, "bound-formulas", acceptance.criterion_bound_formulas, 1.0),
    (2, "norm-vs-bound", acceptance.criterion_norm_bound, 60.0),
    (3, "cone-sum-certificates", acceptance.criterion_certificates, 120.0),
    (4, "walk-counts", acceptance.criterion_walk_counts, None),
    (5, "oracle-agreement", acceptance.criterion_oracle_agreement, None),
    (6, "bound-compliance-sweep", acceptance.criterion_bound_sweep, 300.0),
    (7, "sharpness-decay-rate", acceptance.criterion_sharpness, None),
    (8, "orbit-average-moments", acceptance.criterion_symmetrization, None),
    (9, "polarization-and-transfer", acceptance.criterion_polarization, None),
    (10, "edge-homogeneity", acceptance.criterion_homogeneity, None),
    (11, "universal-roundtrip", acceptance.criterion_universal, None),
]


@pytest.mark.parametrize("cid,name,fn,limit", CASES, ids=[c[1] for c in CASES])
def test_criterion(cid, name, fn, limit):
    start = time.monotonic()
    result = fn(seed=0)
    elapsed = time.monotonic() - start
    status = "PASS" if result["passed"] else "FAIL"
    print(f"criterion {cid:2d} {name}: {status} ({elapsed:.1f}s)")
    assert result["passed"], result
    if limit is not None:
        assert elapsed < limit, f"criterion {cid} took {elapsed:.1f}s (limit {limit}s)"


def test_certificate_criterion_builds_no_ball(no_ball):
    # both closed-form cases are read off the class table, like the maxima
    assert acceptance.criterion_certificates(seed=0)["passed"]


def test_linear_oracle_and_monte_carlo_rows_build_no_ball(no_ball):
    # both read the closed-form pair-class tables of factor_engine
    assert acceptance.criterion_sharpness(seed=0)["passed"]
    for d, k in ((3, 0), (3, 1), (4, 5)):
        for profile in ("geometric", "flat"):
            row = acceptance.vertex_mc_row(d, k, profile, 4, 5000, 1, "linear")
            assert row["verdict"] == "PASS", row
        assert acceptance.edge_mc_row(d, k, 3, 5000, 2)["verdict"] == "PASS"


def test_polarization_criterion_is_pinned():
    # values of the Fraction implementation; criterion 12 compares two runs
    # with each other and would not see a change that drifts consistently
    assert acceptance.criterion_polarization(seed=0) == {
        "passed": True, "worst_residual": 0.0, "scan_pairs": 729,
        "scan_alpha": 0.3088352029149968, "scan_ok": True}


@pytest.mark.parametrize("seed", [0, 7, -3001, 2**64 - 1500])
def test_polarization_inputs_are_the_per_pair_draws(seed):
    # one rng call per stream gives every joint and table byte for byte,
    # with keys that wrap past 2^64
    inputs = acceptance._polarization_inputs(seed)
    assert len(inputs) == 1000
    for i, (joint, f1, f2) in enumerate(inputs):
        n = 2 + i % 4
        assert joint.tobytes() == random_exchangeable_joint(n, seed + 3000 + i).tobytes()
        for table, offset in ((f1, 4000), (f2, 5000)):
            want = rng.to_unit(rng.words(seed + offset + i, np.arange(n))) * 2.0 - 1.0
            assert table.tobytes() == want.tobytes()


def test_dispatch_order_is_the_criteria_by_cost():
    # every criterion once, largest recorded cost first, ties in report order
    order = acceptance._DISPATCH_ORDER
    assert sorted(order) == list(range(len(acceptance.CRITERIA)))
    cost = [entry[3] for entry in acceptance._COSTED_CRITERIA]
    assert all(cost[a] > cost[b] or (cost[a] == cost[b] and a < b)
               for a, b in zip(order, order[1:]))
    assert [entry[:3] for entry in acceptance._COSTED_CRITERIA] == acceptance.CRITERIA


@functools.lru_cache(maxsize=None)
def _scanned_interior_draws(d, k, stream, count):
    """The walk-count criterion's former draw loop: one randint call per edge."""
    ball = build_ball(d, 8)
    edges = []
    draw = 0
    while len(edges) < count:
        e = int(rng.randint(stream, draw, ball.n_edges)[0])
        draw += 1
        if forward_cone_interior(ball, e, k):
            edges.append(e)
    return edges


@pytest.mark.parametrize("block", [512, 100, 7])
def test_walk_count_edges_are_the_scanned_draws(monkeypatch, block):
    monkeypatch.setattr(acceptance, "_DRAW_BLOCK", block)
    for seed in (0, 41):
        for d in (3, 4):
            ball = build_ball(d, 8)
            for k in range(1, 6):
                stream = seed + 17 * d + k
                want = _scanned_interior_draws(d, k, stream, 100)
                assert acceptance._interior_draws(ball, k, stream, 100) == want
                assert acceptance._interior_draws(ball, k, stream, 37) == want[:37]


#: sha256 of ``nbtree report --seed 0``.  The report's bytes are its
#: contract: a change that means to alter them updates this constant and
#: records the new digest in CHANGES.md.
REPORT_SEED0_SHA256 = "cedb5a1a84b28051b04ea5a615f9058aa2776f4392de5ace1792cec650b49bfd"


def test_criterion_12_report_determinism(checkout_env):
    # the second process runs OpenBLAS on one thread: no report field may
    # depend on how a BLAS library blocks or threads its sums
    outputs = []
    for env in (checkout_env, dict(checkout_env, OPENBLAS_NUM_THREADS="1")):
        proc = subprocess.run(
            [sys.executable, "-m", "nbtree.cli", "report", "--seed", "0"],
            capture_output=True, env=env, check=True)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    identical = outputs[0] == outputs[1]
    print(f"criterion 12 report-determinism: {'PASS' if identical else 'FAIL'}")
    assert identical
    assert b'"all_passed": true' in outputs[0]
    assert hashlib.sha256(outputs[0]).hexdigest() == REPORT_SEED0_SHA256


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_report_pinned_to_one_cpu_keeps_its_bytes(checkout_env, tmp_path):
    # one CPU in the affinity mask means a pool of one worker; the criteria
    # then run one after another in dispatch order, and the bytes stay
    cpu = min(os.sched_getaffinity(0))
    metrics = tmp_path / "metrics.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nbtree.cli", "report", "--seed", "0",
         "--metrics", str(metrics)],
        capture_output=True, env=checkout_env, check=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}), timeout=120)
    assert hashlib.sha256(proc.stdout).hexdigest() == REPORT_SEED0_SHA256
    timings = json.loads(metrics.read_text())
    assert timings["workers"] == 1
    assert len({c["pid"] for c in timings["criteria"]}) == 1
