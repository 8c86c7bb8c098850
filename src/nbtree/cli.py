"""Command-line front end: every verification workflow, reproducible by seed.

Each subcommand parses its arguments, makes one library call and prints
the result.  The correlation experiments call the builders in `acceptance`
that the report runs, so they share its instances, rows and verdicts.

Exit codes: 0 all verdicts pass, 1 some bound or identity verdict failed,
2 usage or precondition error, 141 (128 + SIGPIPE) stdout's reader left.
All floats print with 17 significant digits; identical runs emit identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import acceptance, bounds
from .errors import NbtreeError
from .factor_engine import BLOCK_RULE_FAMILIES, edge_first_child_rule, edge_table_rule
from .nb_operator import certify_claims, operator_norm_pow, walk_count
from .tree_core import build_ball, forward_cone_interior, hull_distance
from .universal_factor import roundtrip_check, roundtrip_min_radius


def _open_for_write(flag: str, path: str):
    try:
        return open(path, "w")
    except OSError as exc:  # a missing directory, a directory, no permission
        raise NbtreeError(f"cannot write {flag} {path}: {exc.strerror}") from exc


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit_json(doc, out) -> None:
    out.write(json.dumps(doc, indent=2))
    out.write("\n")


def _emit_rows(rows: list[dict], fmt: str, out) -> None:
    """Rows as CSV under their key order, or as JSON lines."""
    if fmt == "csv":
        out.write(",".join(rows[0]) + "\n")
        for row in rows:
            out.write(",".join(_fmt(x) for x in row.values()) + "\n")
    else:
        for row in rows:
            out.write(json.dumps(row))
            out.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_bounds(args, out) -> int:
    _emit_rows([asdict(r) for r in bounds.bound_table(args.d, args.k_max)], args.format, out)
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
    rep = operator_norm_pow(build_ball(args.d, args.radius), args.k, tol=args.tol,
                            max_iter=args.max_iter)
    _emit_json(rep.to_json_dict(), out)
    return 0 if rep.passed else 1


def _cmd_nb_certify(args, out) -> int:
    rep = certify_claims(args.d, args.radius, args.k)
    _emit_json(rep.to_json_dict(), out)
    return 0 if rep.strict else 1


def _cmd_walk_count(args, out) -> int:
    ball = build_ball(args.d, args.radius)
    count = walk_count(ball, args.edge, args.k)
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


def _cmd_simulate_vertex(args, out) -> int:
    row = acceptance.vertex_mc_row(args.d, args.k, args.profile, args.r, args.samples,
                                   args.seed, f"linear-{args.profile}", rate=args.lam)
    _emit_rows([row], args.format, out)
    return 0 if row["verdict"] == "PASS" else 1


def _cmd_simulate_edge(args, out) -> int:
    row = acceptance.edge_mc_row(args.d, args.k, args.depth, args.samples, args.seed,
                                 rate=args.lam)
    _emit_rows([row], args.format, out)
    return 0 if row["verdict"] == "PASS" else 1


def _cmd_exact_corr(args, out) -> int:
    if args.rule not in BLOCK_RULE_FAMILIES:
        raise NbtreeError(f"unknown rule family {args.rule!r}; "
                          f"choose from {sorted(BLOCK_RULE_FAMILIES)}")
    rule = BLOCK_RULE_FAMILIES[args.rule](radius=args.r, theta=args.theta)
    domain = (f"alphabet:{args.alphabet}" if args.alphabet is not None
              else rule.domain or "alphabet:2")
    row = acceptance.vertex_exact_row(args.d, args.k, rule, domain)
    _emit_rows([row], args.format, out)
    return 0 if row["verdict"] == "PASS" else 1


def _cmd_symmetrize_check(args, out) -> int:
    rule = (edge_first_child_rule() if args.rule == "first-child"
            else edge_table_rule(1, args.alphabet, args.seed))
    chk = acceptance.symmetrization_case(args.d, args.k, rule, args.alphabet)
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
    return 0 if res.passed else 1


def _cmd_report(args, out) -> int:
    if args.metrics is None:
        doc = acceptance.run_report(seed=args.seed)
    else:
        metrics = {}
        with _open_for_write("--metrics", args.metrics) as fh:  # before any criterion runs
            doc = acceptance.run_report(seed=args.seed, metrics=metrics)
            _emit_json(metrics, fh)
    _emit_json(doc, out)
    return 0 if doc["all_passed"] else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The `nbtree` parser, built on first use and kept for the process.

    Building its 13 parsers costs as much as a small subcommand's work.
    Reuse is safe: `parse_args` fills a fresh namespace on each call and
    leaves the parser as it was.
    """
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
    p.add_argument("--alphabet", type=int, default=None,
                   help="labels uniform on {0..A-1} (default: the rule's own domain, "
                        "else A=2)")
    p.set_defaults(fn=_cmd_exact_corr)

    p = sub.add_parser("symmetrize-check",
                       help="orbit-average moment identities on a subtree pair")
    common(p)
    p.add_argument("--k", type=int, choices=sorted(acceptance.SYMMETRIZATION_PAIRS), default=2)
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
    p.add_argument("--metrics", type=str, default=None,
                   help="also write each criterion's wall seconds, worker pid, "
                        "exact-route labelings and site tables tabulated, Monte "
                        "Carlo samples drawn and power iterations run to this JSON file")
    out_flag(p)
    p.set_defaults(fn=_cmd_report)

    return parser


def main(argv=None) -> int:
    """Run one `nbtree` command line; returns its exit code.

    The parser is built once per process, at the first call, not at
    import, so repeated calls in one process pay only for parsing.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    out_path = getattr(args, "out", None)
    try:
        if not out_path:
            code = args.fn(args, sys.stdout)
            sys.stdout.flush()  # a closed pipe raises here, not at exit
            return code
        with _open_for_write("--out", out_path) as fh:
            return args.fn(args, fh)
    except (NbtreeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # what stdout still buffers goes to devnull, not to a second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
