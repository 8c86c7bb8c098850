"""Command-line front end: every verification workflow, reproducible by seed.

Exit codes: 0 all verdicts pass, 1 some bound or identity verdict failed,
2 usage or precondition error.  All floats print with 17 significant
digits; identical (argv, seed, NBTREE_THREADS-independent) runs emit
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import acceptance, bounds
from .correlation import (
    edge_linear_sampler,
    exact_corr_discrete,
    monte_carlo_corr,
    resolve_threads,
    symmetrization_moment_check,
    verify_bound,
    vertex_linear_sampler,
)
from .errors import NbtreeError
from .factor_engine import (
    BLOCK_RULE_FAMILIES,
    LinearRule,
    edge_table_rule,
    edge_first_child_rule,
    geometric_profile,
    parity_rule,
    symmetrize_rule,
)
from .nb_operator import build_operator, certify_claims, operator_norm_pow, walk_count
from .tree_core import (
    build_ball,
    edge_between,
    forward_cone_interior,
    hull_distance,
    path_vertices,
    vertices_at_distance,
)
from .universal_factor import roundtrip_check, roundtrip_min_radius


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit_json(doc, out) -> None:
    out.write(json.dumps(doc, indent=2))
    out.write("\n")


def _emit_rows(rows: list[dict], header: list[str], fmt: str, out) -> None:
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(row[h]) for h in header) + "\n")
    else:
        for row in rows:
            out.write(json.dumps({h: row[h] for h in header}))
            out.write("\n")


def _corr_row(d, k, rule, mode, value, stderr, bound, n_samples, seed,
              degenerate=False):
    verdict = verify_bound(value, bound, stderr, degenerate)
    return {
        "d": d, "k": k, "rule": rule, "mode": mode, "value": value,
        "stderr": stderr, "bound": bound, "verdict": verdict.label,
        "n_samples": n_samples, "seed": seed,
    }, verdict.passed


CORR_HEADER = ["d", "k", "rule", "mode", "value", "stderr", "bound",
               "verdict", "n_samples", "seed"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bounds(args, out) -> int:
    rows = [
        {"d": r.d, "k": r.k, "vertex_bound": r.vertex_bound,
         "hull_bound": r.hull_bound, "edge_bound": r.edge_bound,
         "bnorm_bound": r.bnorm_bound}
        for r in bounds.bound_table(args.d, args.k_max)
    ]
    _emit_rows(rows, ["d", "k", "vertex_bound", "hull_bound", "edge_bound",
                      "bnorm_bound"], args.format, out)
    return 0


def _cmd_ball_info(args, out) -> int:
    ball = build_ball(args.d, args.radius)
    _emit_json({
        "d": ball.d, "radius": ball.radius, "n_vertices": ball.n,
        "n_directed_edges": ball.n_edges,
        "sphere_sizes": [len(ball.vertices_at_depth(j)) for j in range(ball.radius + 1)],
    }, out)
    return 0


def _cmd_nb_norm(args, out) -> int:
    op = build_operator(build_ball(args.d, args.radius))
    rep = operator_norm_pow(op, args.k, tol=args.tol, max_iter=args.max_iter)
    _emit_json(rep.to_json_dict(), out)
    return 0 if (rep.converged and rep.estimate <= rep.bound) else 1


def _cmd_nb_certify(args, out) -> int:
    rep = certify_claims(build_ball(args.d, args.radius), args.k)
    _emit_json(rep.to_json_dict(), out)
    return 0 if rep.strict else 1


def _cmd_walk_count(args, out) -> int:
    ball = build_ball(args.d, args.radius)
    op = build_operator(ball)
    count = walk_count(op, args.edge, args.k)
    interior = forward_cone_interior(ball, args.edge, args.k)
    expected = (args.d - 1) ** args.k
    _emit_json({"d": args.d, "radius": args.radius, "edge": args.edge,
                "k": args.k, "count": count, "interior": interior,
                "expected_if_interior": expected}, out)
    return 0 if (not interior or count == expected) else 1


def _cmd_hull_distance(args, out) -> int:
    ball = build_ball(args.d, args.radius)
    set1 = [int(x) for x in args.set1.split(",")]
    set2 = [int(x) for x in args.set2.split(",")]
    k, v1, v2 = hull_distance(ball, set1, set2)
    _emit_json({"d": args.d, "radius": args.radius, "k": k,
                "witness1": v1, "witness2": v2}, out)
    return 0


def _linear_rule_from_args(args) -> LinearRule:
    if args.profile == "geometric":
        return geometric_profile(args.d, args.r, args.lam)
    if args.profile == "flat":
        return LinearRule(args.r, (1.0,) * (args.r + 1))
    raise NbtreeError(f"unknown profile {args.profile!r}")


def _cmd_simulate_vertex(args, out) -> int:
    ball = build_ball(args.d, (args.k + 1) // 2 + args.r)  # validates d first
    rule = _linear_rule_from_args(args)
    u, v = vertices_at_distance(ball, args.k)
    sampler = vertex_linear_sampler(ball, rule, u, v)
    est = monte_carlo_corr(sampler, args.samples, args.seed,
                           threads=resolve_threads(args.threads))
    row, ok = _corr_row(args.d, args.k, f"linear-{args.profile}", "mc",
                        est.estimate, est.stderr,
                        bounds.vertex_corr_bound(args.d, args.k),
                        args.samples, args.seed, est.degenerate)
    _emit_rows([row], CORR_HEADER, args.format, out)
    return 0 if ok else 1


def _cmd_simulate_edge(args, out) -> int:
    if args.k < 0:
        raise ValueError("k must be >= 0")
    depth = args.depth
    ball = build_ball(args.d, (args.k + 2) // 2 + depth + 1)
    a, b = vertices_at_distance(ball, args.k + 1)
    path = path_vertices(ball, a, b)
    e1 = edge_between(ball, path[0], path[1])
    e2 = edge_between(ball, path[args.k], path[args.k + 1])
    rate = args.lam if args.lam is not None else 1.0 / math.sqrt(args.d - 1)
    sampler = edge_linear_sampler(ball, depth, rate, e1, e2)
    est = monte_carlo_corr(sampler, args.samples, args.seed,
                           threads=resolve_threads(args.threads))
    row, ok = _corr_row(args.d, args.k, f"edge-geom:D{depth}", "mc",
                        est.estimate, est.stderr,
                        bounds.edge_corr_bound(args.d, args.k),
                        args.samples, args.seed, est.degenerate)
    _emit_rows([row], CORR_HEADER, args.format, out)
    return 0 if ok else 1


def _cmd_exact_corr(args, out) -> int:
    if args.rule not in BLOCK_RULE_FAMILIES:
        raise NbtreeError(f"unknown rule family {args.rule!r}; "
                          f"choose from {sorted(BLOCK_RULE_FAMILIES)}")
    rule = BLOCK_RULE_FAMILIES[args.rule](radius=args.r, theta=args.theta)
    if not rule.symmetric:
        # the decay bound only covers order-invariant rules; average the
        # rule over its view automorphisms before testing it
        rule = symmetrize_rule(rule, args.d)
    ball = build_ball(args.d, (args.k + 1) // 2 + rule.radius)
    u, v = vertices_at_distance(ball, args.k)
    domain = "rademacher" if args.rule == "majority" else f"alphabet:{args.alphabet}"
    res = exact_corr_discrete(ball, rule, domain, [u], [v])
    row, ok = _corr_row(args.d, args.k, rule.name, "exact", res.corr, 0.0,
                        bounds.vertex_corr_bound(args.d, args.k),
                        res.n_configs, 0)
    _emit_rows([row], CORR_HEADER, args.format, out)
    return 0 if ok else 1


def _cmd_symmetrize_check(args, out) -> int:
    ball = build_ball(args.d, 4)
    process = parity_rule(1)
    rule = (edge_first_child_rule() if args.rule == "first-child"
            else edge_table_rule(1, args.alphabet, args.seed))
    pairs = {1: (0, 1), 2: (1, 3)}
    e1, e2 = pairs[args.k]
    chk = symmetrization_moment_check(ball, e1, e2, rule,
                                      f"alphabet:{args.alphabet}", process)
    doc = {
        "d": args.d, "k": args.k, "rule": rule.name,
        "mean_residual_1": chk.mean_residual_1,
        "mean_residual_2": chk.mean_residual_2,
        "second_moment_gap": chk.second_moment_gap_1,
        "cross_moment_residual": chk.cross_moment_residual,
        "variance_gap": chk.variance_gap_1,
    }
    _emit_json(doc, out)
    return 0 if chk.passed else 1


def _cmd_universal_check(args, out) -> int:
    radius = max(args.radius or 0, roundtrip_min_radius(args.depth))
    res = roundtrip_check(build_ball(args.d, radius), args.depth, args.trials, args.seed)
    _emit_json(res.to_json_dict(), out)
    return 0 if (res.successes == res.trials and res.collisions == 0) else 1


def _cmd_report(args, out) -> int:
    doc = acceptance.run_report(seed=args.seed, threads=args.threads)
    _emit_json(doc, out)
    return 0 if doc["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbtree",
        description="Correlation decay on regular trees: bounds, certificates, "
                    "and exact/Monte-Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def out_flag(p):
        p.add_argument("--out", type=str, default=None,
                       help="output file (default: standard output)")

    def common(p, k=None):
        p.add_argument("--d", type=int, required=True, help="vertex degree, >= 3")
        if k is not None:
            p.add_argument("--k", type=int, default=k)
        out_flag(p)

    def rows(p, default="json"):
        p.add_argument("--format", choices=("csv", "json"), default=default)

    def threads(p):
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: NBTREE_THREADS or cpu count)")

    p = sub.add_parser("bounds", help="emit the closed-form bound table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    rows(p, default="csv")
    out_flag(p)
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("ball-info", help="vertex/edge counts of a tree ball")
    common(p)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(fn=_cmd_ball_info)

    p = sub.add_parser("nb-norm", help="power-iteration estimate of ||B^k||")
    common(p, k=1)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=10_000)
    p.set_defaults(fn=_cmd_nb_norm)

    p = sub.add_parser("nb-certify", help="exact cone-sum certificate vs the norm bound")
    common(p, k=1)
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(fn=_cmd_nb_certify)

    p = sub.add_parser("walk-count", help="k-step non-backtracking walk count from an edge")
    common(p, k=1)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--edge", type=int, default=0)
    p.set_defaults(fn=_cmd_walk_count)

    p = sub.add_parser("hull-distance", help="distance between two convex hulls")
    common(p)
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--set1", type=str, required=True, help="comma-separated vertex ids")
    p.add_argument("--set2", type=str, required=True)
    p.set_defaults(fn=_cmd_hull_distance)

    p = sub.add_parser("simulate-vertex", help="Monte Carlo vertex-pair correlation vs bound")
    common(p, k=1)
    rows(p)
    threads(p)
    p.add_argument("--rule", choices=("linear",), default="linear")
    p.add_argument("--profile", choices=("geometric", "flat"), default="geometric")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="geometric decay rate (default 1/sqrt(d-1))")
    p.add_argument("--r", type=int, default=4, help="rule radius")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate_vertex)

    p = sub.add_parser("simulate-edge", help="Monte Carlo edge-pair correlation vs bound")
    common(p, k=1)
    rows(p)
    threads(p)
    p.add_argument("--depth", type=int, default=3, help="subtree view depth")
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_simulate_edge)

    p = sub.add_parser("exact-corr", help="exact vertex-pair correlation vs bound")
    common(p, k=1)
    rows(p)
    p.add_argument("--rule", type=str, default="sum")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--theta", type=float, default=2.0)
    p.add_argument("--alphabet", type=int, default=2)
    p.set_defaults(fn=_cmd_exact_corr)

    p = sub.add_parser("symmetrize-check",
                       help="orbit-average moment identities on a subtree pair")
    common(p)
    p.add_argument("--k", type=int, choices=(1, 2), default=2)
    p.add_argument("--rule", choices=("first-child", "table"), default="table")
    p.add_argument("--alphabet", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_symmetrize_check)

    p = sub.add_parser("universal-check", help="encode/reconstruct roundtrip test")
    common(p)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--radius", type=int, default=None)
    p.add_argument("--trials", type=int, default=500)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_universal_check)

    p = sub.add_parser("report", help="run the full verification suite, emit one JSON doc")
    p.add_argument("--seed", type=int, default=0)
    threads(p)
    out_flag(p)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    out_path = getattr(args, "out", None)
    try:
        if out_path:
            with open(out_path, "w") as fh:
                return args.fn(args, fh)
        return args.fn(args, sys.stdout)
    except (NbtreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
