"""End-to-end verification suite combining every check the package makes.

Each criterion function returns a JSON-ready dict with a boolean
``passed`` and enough detail to diagnose a failure.  ``run_report``
executes all of them with one master seed and fixed derived seeds, in
forked worker processes whose results it merges in report order, so the
emitted document is byte-identical across runs and CPU counts.
"""

from __future__ import annotations

import functools
import math
import os
import time

import numpy as np

from . import bounds, correlation, nb_operator, rng
from .correlation import (
    edge_homogeneity_check,
    exact_corr_discrete,
    exact_edge_corr,
    exchangeable_joints,
    h_parity,
    h_sum,
    lemma_consequence_check,
    linear_pair_sampler,
    monte_carlo_corr,
    polarization_check,
    random_exchangeable_joint,
    symmetrization_moment_check,
    verify_bound,
)
from .factor_engine import (
    LinearRule,
    edge_first_child_rule,
    edge_sum_rule,
    edge_table_rule,
    edge_tail_rule,
    flat_profile,
    geometric_profile,
    linear_rule_covariance_exact,
    parity_rule,
    subtree_pair_classes,
    sum_rule,
    symmetrize_rule,
    vertex_pair_classes,
    xor_pair_rule,
)
from .nb_operator import certify_claims, cone_weight_sums, operator_norm_pow, walk_counts
from .tree_core import (
    TreeBall,
    build_ball,
    edge_between,
    forward_cone_interior,
    hull_distance,
    path_vertices,
    vertices_at_distance,
)
from .universal_factor import roundtrip_check, sphere_overlap_count

_BALLS: dict[tuple[int, int], TreeBall] = {}


def _ball(d: int, radius: int) -> TreeBall:
    key = (d, radius)
    if key not in _BALLS:
        _BALLS[key] = build_ball(d, radius)
    return _BALLS[key]


def _rel_close(a: float, b: float, rel: float = 1e-12) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# experiments: one builder each, shared by the report and the CLI
# ---------------------------------------------------------------------------


def corr_row(d, k, rule, mode, value, stderr, bound, n_samples, seed, degenerate=False) -> dict:
    """One correlation row with its `verify_bound` verdict; the key order is the schema."""
    verdict = verify_bound(value, bound, stderr, degenerate)
    return {
        "d": d, "k": k, "rule": rule, "mode": mode, "value": value,
        "stderr": stderr, "bound": bound, "verdict": verdict.label,
        "n_samples": n_samples, "seed": seed,
    }


def vertex_mc_row(d: int, k: int, profile: str, r: int, n_samples: int, seed: int,
                  name: str, rate: float | None = None) -> dict:
    """Monte Carlo correlation of a radius-r "geometric" (rate^i, critical rate
    by default) or "flat" linear rule at two vertices k apart."""
    bounds.check_degree(d)  # before the profile divides by d - 1
    rule = geometric_profile(d, r, rate) if profile == "geometric" else flat_profile(r)
    sampler = linear_pair_sampler(vertex_pair_classes(d, k, r), rule.profile)
    est = monte_carlo_corr(sampler, n_samples, seed)
    return corr_row(d, k, name, "mc", est.estimate, est.stderr,
                    bounds.vertex_corr_bound(d, k), n_samples, seed, est.degenerate)


def edge_pair(ball: TreeBall, k: int) -> tuple[int, int, int]:
    """(e1, e2 same direction, e2 facing) at edge distance k >= 0, on one shallow path."""
    a, b = vertices_at_distance(ball, k + 1)
    path = path_vertices(ball, a, b)
    return (edge_between(ball, path[0], path[1]),
            edge_between(ball, path[k], path[k + 1]),
            edge_between(ball, path[k + 1], path[k]))


def edge_mc_row(d: int, k: int, depth: int, n_samples: int, seed: int,
                rate: float | None = None) -> dict:
    """Monte Carlo correlation of depth-D geometric subtree sums behind two
    same-direction edges at edge distance k; rate defaults to 1/sqrt(d-1)."""
    classes = subtree_pair_classes(d, k, depth)
    sampler = linear_pair_sampler(classes, geometric_profile(d, depth, rate).profile)
    est = monte_carlo_corr(sampler, n_samples, seed)
    return corr_row(d, k, f"edge-geom:D{depth}", "mc", est.estimate, est.stderr,
                    bounds.edge_corr_bound(d, k), n_samples, seed, est.degenerate)


def vertex_exact_row(d: int, k: int, rule, domain) -> dict:
    """Exact correlation of a block rule at two vertices k apart."""
    if not rule.symmetric:
        # the raw rule defines no equivariant process, so the decay bound
        # covers only its average over the view automorphisms
        rule = symmetrize_rule(rule, d)
    ball = _ball(d, (k + 1) // 2 + rule.radius)
    u, v = vertices_at_distance(ball, k)
    res = exact_corr_discrete(ball, rule, domain, [u], [v])
    return corr_row(d, k, rule.name, "exact", res.corr, 0.0,
                    bounds.vertex_corr_bound(d, k), res.n_configs, 0, res.degenerate)


#: hull distance k -> directed edges (e1, e2) of the radius-4 ball whose
#: depth-1 subtree views sit k apart: root->1 vs 1->root; 1->root vs 2->root
SYMMETRIZATION_PAIRS = {1: (0, 1), 2: (1, 3)}


def symmetrization_case(d: int, k: int, rule, alphabet: int):
    """Orbit-average moment check of a subtree-view rule on the pair at
    distance k, over a parity block factor of alphabet-valued labels."""
    e1, e2 = SYMMETRIZATION_PAIRS[k]
    return symmetrization_moment_check(_ball(d, 4), e1, e2, rule,
                                       f"alphabet:{alphabet}", parity_rule(1))


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def criterion_bound_formulas(seed: int = 0) -> dict:
    """Spot values of all four closed forms, to 1e-12 relative."""
    checks = [
        ("vertex(3,2)", bounds.vertex_corr_bound(3, 2), 5.0 / 6.0),
        ("hull(4,6)", bounds.hull_corr_bound(4, 6), 2.0 / 3.0),
        ("edge(4,7)", bounds.edge_corr_bound(4, 7), 8.0 / 27.0),
        ("bnorm(3,3)", bounds.bnorm_bound(3, 3), 16.0),
    ]
    rows = [{"name": n, "value": v, "expected": e, "ok": _rel_close(v, e)}
            for n, v, e in checks]
    return {"passed": all(r["ok"] for r in rows), "checks": rows}


def criterion_norm_bound(seed: int = 0) -> dict:
    """Norm estimates below the closed-form bound, with the expected growth rate."""
    rows = []
    passed = True
    for d in (3, 4):
        ball = _ball(d, 8)
        estimates = {}
        for k in range(1, 7):
            rep = operator_norm_pow(ball, k)
            estimates[k] = rep.estimate
            passed &= rep.passed
            rows.append(rep.to_json_dict() | {"ok": rep.passed})
        target = 0.5 * math.log(d - 1)
        for k in range(3, 6):
            inc = math.log(estimates[k + 1] / estimates[k])
            ok = abs(inc - target) <= 0.15
            passed &= ok
            rows.append({"d": d, "increment_from_k": k, "value": inc,
                         "target": target, "ok": ok})
    return {"passed": passed, "rows": rows}


def criterion_certificates(seed: int = 0) -> dict:
    """Exact cone-sum maxima strictly below the bound, plus both closed forms."""
    rows = []
    passed = True
    for d in (3, 4, 5):
        for k in range(1, 6):
            radius = max(k + 2, 2 * k)
            rep = certify_claims(d, radius, k)
            away_expect = bounds.half_power(d, k)
            deep_expect = bounds.half_power(d, k) + k * (d - 2) * bounds.half_power(d, k - 1)
            table = cone_weight_sums(d, radius, k)
            ws_away, ws_deep = table["away", 1], table["toward", k + 1]
            ok = (rep.strict
                  and ws_away.source_interior and ws_deep.source_interior
                  and _rel_close(ws_away.s_inv, away_expect)
                  and _rel_close(ws_deep.s_inv, deep_expect))
            passed &= ok
            rows.append(rep.to_json_dict() | {
                "away_case": ws_away.s_inv, "away_expected": away_expect,
                "deep_case": ws_deep.s_inv, "deep_expected": deep_expect,
                "ok": ok,
            })
    return {"passed": passed, "rows": rows}


def criterion_walk_counts(seed: int = 0) -> dict:
    """walk_counts equals (d-1)^k on 100 random interior edges per (d, k)."""
    rows = []
    passed = True
    for d in (3, 4):
        ball = _ball(d, 8)
        for k in range(1, 6):
            expected = (d - 1) ** k
            edges = _interior_draws(ball, k, seed + 17 * d + k, 100)
            hits = int((walk_counts(ball, edges, k) == expected).sum())
            ok = hits == 100
            passed &= ok
            rows.append({"d": d, "k": k, "expected": expected,
                         "matches": hits, "ok": ok})
    return {"passed": passed, "rows": rows}


#: stream positions the walk-count criterion draws per randint call
_DRAW_BLOCK = 512


def _interior_draws(ball: TreeBall, k: int, stream: int, count: int) -> list[int]:
    """The first `count` edges of the randint stream whose k-cones are interior.

    Draws _DRAW_BLOCK stream positions at a time; the kept edges are those
    a one-at-a-time scan of the stream would keep, in draw order.
    """
    edges: list[int] = []
    start = 0
    while len(edges) < count:
        draws = rng.randint(stream, np.arange(start, start + _DRAW_BLOCK), ball.n_edges)
        edges += draws[forward_cone_interior(ball, draws, k)][:count - len(edges)].tolist()
        start += _DRAW_BLOCK
    return edges


def _oracle_cases(seed: int):
    """50 deterministic (profile, k) instances with radius <= 2, k <= 4."""
    cases = []
    counter = 0
    for r, reps in ((0, 3), (1, 4), (2, 3)):
        for k in range(0, 5):
            for _ in range(reps):
                w = rng.to_unit(rng.words(seed + 811, np.arange(counter * 8, counter * 8 + r + 2)))
                signs = 1.0 - 2.0 * np.round(rng.to_unit(
                    rng.words(seed + 977, np.arange(counter * 8, counter * 8 + r + 2))))
                coeffs = tuple((0.2 + 0.8 * w[i]) * signs[i] for i in range(r + 1))
                cases.append((coeffs, k))
                counter += 1
    return cases[:50]


def criterion_oracle_agreement(seed: int = 0) -> dict:
    """Full-enumeration correlations match the geometry oracle; MC covers exact."""
    rows = []
    passed = True
    for coeffs, k in _oracle_cases(seed):
        r = len(coeffs) - 1
        oracle = linear_rule_covariance_exact(3, coeffs, k)
        ball = _ball(3, r + (k + 1) // 2) if k > 0 or r > 0 else _ball(3, 1)
        u, v = vertices_at_distance(ball, k)
        rule = LinearRule(r, coeffs)
        enum = exact_corr_discrete(ball, rule, "rademacher", [u], [v])
        ok = (_rel_close(enum.corr, oracle.corr)
              and _rel_close(enum.cov, oracle.cov)
              and _rel_close(enum.var1, oracle.var))
        passed &= ok
        rows.append({"radius": r, "k": k, "enum_corr": enum.corr,
                     "oracle_corr": oracle.corr, "ok": ok})

    profile = (1.0, 0.6, 0.3)
    k = 2
    oracle = linear_rule_covariance_exact(3, profile, k)
    sampler = linear_pair_sampler(vertex_pair_classes(3, k, 2), profile)
    covered = 0
    for s in range(20):
        est = monte_carlo_corr(sampler, 100_000, seed * 7919 + 31 + s)
        if est.ci_low <= oracle.corr <= est.ci_high:
            covered += 1
    mc_ok = covered >= 17
    passed &= mc_ok
    return {"passed": passed, "instances": len(rows),
            "agree": sum(r["ok"] for r in rows),
            "mc_covered": covered, "mc_needed": 17, "rows": rows[:5]}


def _sweep_regions(ball: TreeBall, d: int, k: int):
    """Two small connected regions at hull distance exactly k."""
    u, v = vertices_at_distance(ball, k)
    path = set(path_vertices(ball, u, v))
    if d == 3:
        reg1 = [u] + [int(c) for c in ball.children(u) if int(c) not in path]
        reg2 = [v] + [int(c) for c in ball.neighbors(v) if int(c) not in path][:2]
    else:
        reg1 = [u] + [int(c) for c in ball.children(u) if int(c) not in path][:1]
        reg2 = [v] + [int(c) for c in ball.neighbors(v) if int(c) not in path][:1]
    return reg1, reg2


def criterion_bound_sweep(seed: int = 0) -> dict:
    """Every built-in rule family obeys its bound: vertex, hull, and edge pairs."""
    rows = []
    n_mc = 50_000
    for d in (3, 4):
        for k in range(1, 9):
            vb = bounds.vertex_corr_bound(d, k)
            hb = bounds.hull_corr_bound(d, k)
            eb = bounds.edge_corr_bound(d, k)

            # vertex pairs, exact enumeration (alphabet 2)
            for rule in (sum_rule(1), parity_rule(1), xor_pair_rule()):
                rows.append(vertex_exact_row(d, k, rule, "alphabet:2"))

            # vertex pairs, exact linear oracle
            geo6 = geometric_profile(d, 6)
            res = linear_rule_covariance_exact(d, geo6.profile, k)
            rows.append(corr_row(d, k, "linear-geom:r6", "exact", res.corr, 0.0, vb, 0, 0))

            # vertex pairs, Monte Carlo (rademacher)
            for name, profile, r, shift in (("linear-geom:r4", "geometric", 4, 0),
                                            ("linear-flat:r2", "flat", 2, 7)):
                row_seed = seed * 65537 + 101 * d + 13 * k + shift
                rows.append(vertex_mc_row(d, k, profile, r, n_mc, row_seed, name))

            # region pairs at hull distance k, exact
            ball_r = _ball(d, (k + 1) // 2 + 2)
            reg1, reg2 = _sweep_regions(ball_r, d, k)
            kk, _, _ = hull_distance(ball_r, reg1, reg2)
            if kk != k:
                rows.append(corr_row(d, k, "region-setup", "exact", math.inf, 0.0, hb, 0, 0))
                continue
            for rule, h1, h2, name in (
                (sum_rule(1), h_sum, h_parity, "region-sum:r1"),
                (parity_rule(1), h_sum, h_sum, "region-parity:r1"),
            ):
                res = exact_corr_discrete(ball_r, rule, "alphabet:2", reg1, reg2, h1, h2)
                rows.append(corr_row(d, k, name, "exact", res.corr, 0.0, hb, res.n_configs, 0,
                                     res.degenerate))

            # edge pairs at edge distance k, exact and Monte Carlo
            ball_e = _ball(d, (k + 2) // 2 + 4)
            e1, e2_same, e2_facing = edge_pair(ball_e, k)
            for rule in (edge_sum_rule(1), edge_tail_rule()):
                for pair_name, e2 in (("same", e2_same), ("facing", e2_facing)):
                    res = exact_edge_corr(ball_e, rule, "alphabet:2", e1, e2)
                    rows.append(corr_row(d, k, f"{rule.name}:{pair_name}", "exact",
                                         res.corr, 0.0, eb, res.n_configs, 0, res.degenerate))
            rows.append(edge_mc_row(d, k, 3, n_mc, seed * 65537 + 9001 * d + 17 * k))

    failures = [r for r in rows if r["verdict"] != "PASS"]
    return {"passed": not failures, "n_rows": len(rows),
            "n_fail": len(failures), "failures": failures[:10], "rows": rows}


def criterion_sharpness(seed: int = 0) -> dict:
    """Near-critical linear rule decays at the predicted geometric rate.

    The decay rate is the least-squares slope of log corr(k) over
    k = 2..8; the polynomial prefactor makes individual steps wobble, and
    the fitted rate must sit within 5% of -log(d-1)/2.
    """
    d = 3
    rule = geometric_profile(d, 8)
    corrs = []
    for k in range(2, 9):
        corrs.append(linear_rule_covariance_exact(d, rule.profile, k).corr)
    ks = np.arange(2, 9, dtype=np.float64)
    slope = float(np.polyfit(ks, np.log(corrs), 1)[0])
    target = -0.5 * math.log(d - 1)
    ok = abs(slope - target) <= 0.05 * abs(target)
    return {"passed": ok, "slope": slope, "target": target,
            "rel_dev": abs(slope - target) / abs(target),
            "corr": dict(zip(range(2, 9), corrs))}


def criterion_symmetrization(seed: int = 0) -> dict:
    """Orbit averaging preserves mean and cross-moment, contracts variance.

    The pair consists of the depth-1 subtree views behind two opposing
    edges whose subtrees sit at hull distance k, over a parity block
    factor of alphabet-2 labels; five order-sensitive view rules are
    averaged over child permutations.
    """
    view_rules = [edge_first_child_rule()] + [
        edge_table_rule(1, 2, seed + 211 + i) for i in range(4)
    ]
    rows = []
    passed = True
    for k in SYMMETRIZATION_PAIRS:
        for rule in view_rules:
            chk = symmetrization_case(3, k, rule, 2)
            passed &= chk.passed
            rows.append({"k": k, "rule": rule.name,
                         "mean_residual": max(chk.mean_residual_1, chk.mean_residual_2),
                         "cross_residual": chk.cross_moment_residual,
                         "second_moment_gap": chk.second_moment_gap_1,
                         "ok": chk.passed})
    return {"passed": passed, "rows": rows}


def _polarization_inputs(seed: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Criterion 9's 1000 (joint, f1, f2) on n = 2 + i % 4 points: pair i reads
    the streams keyed by seed + 3000 + i (its joint, as in
    `random_exchangeable_joint`), seed + 4000 + i and seed + 5000 + i (its
    tables), each stream drawn for every i in one call."""
    words = [rng.words(np.arange(1000, dtype=np.uint64) + np.uint64((seed + key) % 2 ** 64),
                       np.arange(25)) for key in (3000, 4000, 5000)]
    joints = {n: exchangeable_joints(words[0][n - 2::4, :n * n], n) for n in range(2, 6)}
    f1s, f2s = (rng.to_unit(w[:, :5]) * 2.0 - 1.0 for w in words[1:])
    return [(joints[n][i // 4], f1s[i, :n], f2s[i, :n])
            for i, n in ((i, 2 + i % 4) for i in range(1000))]


def criterion_polarization(seed: int = 0) -> dict:
    """Polarization identity on 1000 random pairs; bound transfer on a full scan."""
    worst = 0.0
    for joint, f1, f2 in _polarization_inputs(seed):
        res = polarization_check(joint, f1, f2)
        worst = max(worst, res.residual, res.swap_residual)
    identity_ok = worst <= 1e-12

    joint3 = random_exchangeable_joint(3, seed + 6007)
    tables = [np.array([a, b, c], dtype=np.float64)
              for a in (-1.0, 0.0, 1.0) for b in (-1.0, 0.0, 1.0)
              for c in (-1.0, 0.0, 1.0)]
    marg = np.asarray(joint3).sum(axis=1)
    alpha = 0.0
    for f in tables:
        res = polarization_check(joint3, f, f)
        var = float(marg @ (f * f) - (marg @ f) ** 2)
        if var > 0:
            alpha = max(alpha, abs(res.cross_covariance) / var)
    alpha = alpha * (1.0 + 1e-12)
    scan_ok = True
    checked = 0
    for f1 in tables:
        for f2 in tables:
            scan_ok &= lemma_consequence_check(joint3, f1, f2, alpha)
            checked += 1
    return {"passed": identity_ok and scan_ok, "worst_residual": worst,
            "scan_pairs": checked, "scan_alpha": alpha, "scan_ok": scan_ok}


def criterion_homogeneity(seed: int = 0) -> dict:
    """E[Y_e1 Y_e2] identical over interior congruent pairs; counts match."""
    ball = _ball(3, 5)
    res = edge_homogeneity_check(ball, edge_sum_rule(1), 2, "alphabet:2")
    ok = (res.max_deviation <= 1e-12 and res.source_counts_ok
          and res.pairs_per_source == 4)
    return {"passed": ok, "max_deviation": res.max_deviation,
            "common_value": res.common_value, "n_sources": res.n_sources,
            "n_pairs": res.n_pairs, "pairs_per_source": res.pairs_per_source}


def criterion_universal(seed: int = 0) -> dict:
    """Encode/reconstruct roundtrip is exact; path spheres overlap in one vertex."""
    r1 = roundtrip_check(_ball(3, 6), 3, 500, seed + 71)
    r2 = roundtrip_check(_ball(4, 5), 2, 200, seed + 72)
    ball = _ball(3, 6)
    pairs = rng.randint(seed + 90, np.arange(100), ball.n).reshape(50, 2).tolist()
    sphere_ok = all(bool(np.all(sphere_overlap_count(ball, u, v)[1:-1] == 1)) for u, v in pairs)
    pairs_checked = len(pairs)
    ok = r1.passed and r2.passed and sphere_ok
    return {"passed": ok,
            "roundtrip_d3": r1.to_json_dict(), "roundtrip_d4": r2.to_json_dict(),
            "sphere_pairs_checked": pairs_checked, "sphere_ok": sphere_ok}


#: (id, name, criterion, seconds): the seconds are the criterion's median
#: wall time at seed 0 over 7 `report --metrics` runs on a 2-CPU machine,
#: and set only the dispatch order
_COSTED_CRITERIA = [
    (1, "bound-formulas", criterion_bound_formulas, 0.00002),
    (2, "norm-vs-bound", criterion_norm_bound, 0.025),
    (3, "cone-sum-certificates", criterion_certificates, 0.0047),
    (4, "walk-counts", criterion_walk_counts, 0.0037),
    (5, "oracle-agreement", criterion_oracle_agreement, 0.105),
    (6, "bound-compliance-sweep", criterion_bound_sweep, 0.148),
    (7, "sharpness-decay-rate", criterion_sharpness, 0.0007),
    (8, "orbit-average-moments", criterion_symmetrization, 0.0075),
    (9, "polarization-and-transfer", criterion_polarization, 0.045),
    (10, "edge-homogeneity", criterion_homogeneity, 0.037),
    (11, "universal-roundtrip", criterion_universal, 0.016),
]

CRITERIA = [entry[:3] for entry in _COSTED_CRITERIA]

#: CRITERIA indices (criterion id - 1), largest cost first, so that the last
#: task a worker takes is short
_DISPATCH_ORDER = tuple(sorted(range(len(CRITERIA)), key=lambda i: -_COSTED_CRITERIA[i][3]))


def _run_criterion(index: int, seed: int) -> tuple[int, dict, dict]:
    """Pool task: (index, result, metrics) of CRITERIA[index]; the metrics
    are its wall seconds, the worker's pid, the labelings the exact route
    tabulated for it (`correlation.configs_tabulated`) and the site tables
    it built for them (`correlation.site_tables`), the Monte Carlo
    samples it drew (`correlation.mc_samples`) and the power iterations it
    ran (`nb_operator.power_iterations`).

    The task is the index, not the function: the pool pickles its tasks,
    and a traced CRITERIA entry is a closure, which does not pickle.
    """
    tabulated, tables = correlation.configs_tabulated, correlation.site_tables
    sampled = correlation.mc_samples
    iterated = nb_operator.power_iterations
    start = time.perf_counter()
    result = CRITERIA[index][2](seed=seed)
    return index, result, {"wall_s": time.perf_counter() - start, "pid": os.getpid(),
                           "configs_tabulated": correlation.configs_tabulated - tabulated,
                           "site_tables": correlation.site_tables - tables,
                           "mc_samples": correlation.mc_samples - sampled,
                           "power_iterations": nb_operator.power_iterations - iterated}


def _pool_size() -> int:
    """CPUs this process may run on, at most one per criterion."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, len(CRITERIA))


def run_report(seed: int = 0, metrics: dict | None = None) -> dict:
    """Run criteria 1..11 and assemble the verdict document.

    The criteria run in a pool of forked worker processes, one per CPU the
    process may run on (at most one per criterion), largest first; their
    results are put back in report order, so the document's bytes do not
    depend on the CPU count.  An exception raised by a criterion is raised
    here with its own type, and no worker outlives the call.  If `metrics`
    is a dict, it receives the worker count and, per criterion, its id,
    name, wall seconds, the pid of the worker that ran it, and the labelings
    and site tables the exact route tabulated, the Monte Carlo samples drawn
    and the power iterations run for it in that worker.

    Criterion 12 (byte-identical repeat runs in fresh processes) is a
    statement about this very command, so it is exercised externally by
    the test suite; it appears here as a documented external entry.
    """
    import multiprocessing  # only the report forks: every other command skips this import

    workers = _pool_size()
    done = {}
    # leaving the block terminates the workers, so an exception leaves none behind
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        task = functools.partial(_run_criterion, seed=seed)
        for index, result, measured in pool.imap(task, _DISPATCH_ORDER):
            done[index] = result, measured
        pool.close()
        pool.join()
    criteria = []
    timings = []
    all_passed = True
    for index, (cid, name, _) in enumerate(CRITERIA):
        result, measured = done[index]
        all_passed &= bool(result["passed"])
        entry = {"id": cid, "name": name, "passed": bool(result["passed"])}
        entry.update({k: v for k, v in result.items() if k != "passed"})
        criteria.append(entry)
        timings.append({"id": cid, "name": name} | measured)
    if metrics is not None:
        metrics.update(workers=workers, criteria=timings)
    criteria.append({
        "id": 12, "name": "report-determinism", "passed": None,
        "status": "external",
        "note": "run this command twice, each in a fresh process; "
                "the emitted JSON must be byte-identical",
    })
    return {"suite": "nbtree-acceptance", "seed": seed,
            "all_passed": all_passed, "criteria": criteria}
