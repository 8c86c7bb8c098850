"""Operator assembly, adjointness, walk counts, norm estimates, certificates."""

import math

import numpy as np
import pytest

from nbtree import rng
from nbtree.bounds import bnorm_bound, half_power
from nbtree.nb_operator import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    NormReport,
    apply,
    apply_transpose,
    build_operator,
    certify_claims,
    cone_weight_sums,
    operator_norm_pow,
    walk_count,
)
from nbtree.tree_core import build_ball, reverse_edge, successors


def _op(d, radius):
    return build_operator(build_ball(d, radius))


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_star_ball_predecessor_counts():
    # d=3, R=1: 4 vertices, 6 directed edges.  Toward-root edges end at
    # leaves' only neighbor, so they have no predecessors; each edge out of
    # the root is fed by the two toward edges from the other leaves.
    op = _op(3, 1)
    ball = op.ball
    assert op.m == 6
    for e in range(6):
        preds = op.predecessors(e)
        if ball.is_away(e):
            assert len(preds) == 2
            assert all(not ball.is_away(int(p)) for p in preds)
        else:
            assert len(preds) == 0


def test_depth1_to_depth2_edge_has_two_predecessors():
    op = _op(3, 2)
    ball = op.ball
    w = int(ball.vertices_at_depth(1)[0])
    c = int(ball.children(w)[0])
    e = 2 * (c - 1)  # away edge w -> c
    assert ball.edge_tail(e) == w
    assert len(op.predecessors(e)) == 2


def test_total_predecessors_equal_total_successors():
    for d, radius in ((3, 3), (4, 2)):
        op = _op(d, radius)
        n_pred = sum(len(op.predecessors(e)) for e in range(op.m))
        n_succ = sum(len(op.successors(e)) for e in range(op.m))
        assert n_pred == n_succ


def test_operator_rows_match_successor_definition():
    # e -> e' exactly when head(e) = tail(e') and e' != reverse(e), checked
    # over every ordered edge pair against both CSR matrices
    for d, radius in ((3, 3), (4, 2), (5, 2)):
        op = _op(d, radius)
        ball = op.ball
        heads = [ball.edge_head(e) for e in range(op.m)]
        tails = [ball.edge_tail(e) for e in range(op.m)]
        succ = [[f for f in range(op.m) if heads[e] == tails[f] and f != reverse_edge(e)]
                for e in range(op.m)]
        b = op.succ.T.tocsr()  # B, rows = target edge, cols = predecessor
        b.sort_indices()
        for e in range(op.m):
            pred = [f for f in range(op.m) if e in succ[f]]
            assert successors(ball, e).tolist() == succ[e]
            assert op.successors(e).tolist() == succ[e]
            assert op.predecessors(e).tolist() == pred
            assert _row(op.succ, e) == succ[e]
            assert _row(b, e) == pred


def _row(mat, e):
    return mat.indices[mat.indptr[e]:mat.indptr[e + 1]].tolist()


def _sorted_b(op):
    """B as the former NbOperator stored it: a CSR copy of the transpose
    with sorted column indices."""
    mat = op.succ.T.tocsr()
    mat.sort_indices()
    return mat


def test_apply_is_byte_equal_to_the_sorted_csr_of_b():
    for d, radius in ((3, 1), (3, 9), (4, 5), (5, 4)):
        op = _op(d, radius)
        b = _sorted_b(op)
        assert op.succ.T.format == "csc"
        for seed in range(3):
            f = (rng.to_unit(rng.words(seed, np.arange(op.m))) - 0.5) * 1e3
            g, h = f, f
            for _ in range(4):  # also repeated application, as in power iteration
                g, h = apply(op, g), b @ h
                assert g.tobytes() == h.tobytes()


def _csr_norm_pow(op, k, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Power iteration on the sparse matrices, B as the sorted CSR of the
    transpose and B^T as the successor CSR: the reference loop whose every
    NormReport field operator_norm_pow must reproduce."""
    b = _sorted_b(op)
    v = np.full(op.m, 1.0 / math.sqrt(op.m))
    rho, rho_prev, residual, converged = 0.0, None, math.inf, False
    for iterations in range(1, max_iter + 1):
        w = v
        for _ in range(k):
            w = b @ w
        for _ in range(k):
            w = op.succ @ w
        rho = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0 or rho <= 0.0:
            rho, residual, converged = max(rho, 0.0), 0.0, True
            break
        if rho_prev is not None:
            residual = abs(rho - rho_prev) / rho
            if residual <= tol:
                converged = True
                break
        rho_prev = rho
        v = w / norm_w
    return NormReport(op.ball.d, op.ball.radius, k, math.sqrt(max(rho, 0.0)),
                      bnorm_bound(op.ball.d, k), iterations, residual, converged)


#: (d, largest radius) of the class-iteration grid
NORM_GRID = ((3, 9), (4, 6), (5, 5), (6, 4))


def test_norm_estimate_matches_the_sorted_csr_power_iteration():
    # the class-value iteration is the sparse one bit for bit: converged,
    # at a tighter tolerance, and stopped before convergence
    cases = 0
    for d, max_radius in NORM_GRID:
        for radius in range(1, max_radius + 1):
            op = _op(d, radius)
            for k in range(1, 8):
                for tol, max_iter in ((DEFAULT_TOL, DEFAULT_MAX_ITER),
                                      (1e-12, DEFAULT_MAX_ITER), (1e-16, 3)):
                    got = operator_norm_pow(op.ball, k, tol, max_iter)
                    want = _csr_norm_pow(op, k, tol, max_iter)
                    assert got == want, (d, radius, k, tol, max_iter)
                    assert repr(got) == repr(want)  # also tells -0.0 from 0.0
                    cases += 1
    assert cases == 24 * 7 * 3


# ---------------------------------------------------------------------------
# apply / adjoint
# ---------------------------------------------------------------------------


def test_apply_zero_and_linearity():
    op = _op(3, 3)
    z = np.zeros(op.m)
    assert np.array_equal(apply(op, z), z)
    f = rng.to_unit(rng.words(3, np.arange(op.m)))
    g = rng.to_unit(rng.words(4, np.arange(op.m)))
    lhs = apply(op, 2.0 * f - 3.0 * g)
    rhs = 2.0 * apply(op, f) - 3.0 * apply(op, g)
    assert np.allclose(lhs, rhs, rtol=1e-13, atol=1e-13)


def test_apply_indicator_spreads_over_successors():
    op = _op(3, 3)
    e0 = 0
    f = np.zeros(op.m)
    f[e0] = 1.0
    out = apply(op, f)
    hit = set(np.flatnonzero(out).tolist())
    assert hit == set(op.successors(e0).tolist())


def test_apply_all_ones_counts_predecessors():
    d = 3
    op = _op(d, 3)
    out = apply(op, np.ones(op.m))
    for e in range(op.m):
        assert out[e] == len(op.predecessors(e))
    interior = [e for e in range(op.m) if len(op.predecessors(e)) == d - 1]
    assert interior and all(out[e] == 2.0 for e in interior)


def test_transpose_all_ones_counts_successors():
    d = 4
    op = _op(d, 3)
    out = apply_transpose(op, np.ones(op.m))
    ball = op.ball
    for e in range(op.m):
        expected = d - 1 if ball.depth[ball.edge_head(e)] < ball.radius else 0
        assert out[e] == expected


def test_adjoint_identity_on_random_vectors():
    op = _op(3, 4)
    for trial in range(100):
        f = rng.to_unit(rng.words(100 + trial, np.arange(op.m))) - 0.5
        g = rng.to_unit(rng.words(300 + trial, np.arange(op.m))) - 0.5
        lhs = float(apply(op, f) @ g)
        rhs = float(f @ apply_transpose(op, g))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_length_mismatch_rejected():
    op = _op(3, 2)
    with pytest.raises(ValueError):
        apply(op, np.ones(op.m + 1))
    with pytest.raises(ValueError):
        apply_transpose(op, np.ones(3))


# ---------------------------------------------------------------------------
# ---------------------------------------------------------------------------
# walk counts
# ---------------------------------------------------------------------------


def test_walk_count_zero_steps():
    assert walk_count(build_ball(3, 2), 0, 0) == 1


def test_walk_count_interior_powers():
    assert walk_count(build_ball(3, 6), 0, 3) == 8  # away edge from the root, 2^3
    assert walk_count(build_ball(4, 4), 0, 2) == 9  # 3^2


def test_walk_count_dies_at_boundary():
    ball = build_ball(3, 2)
    e = 0  # away from root, height 1: cone exits at k = 2
    assert walk_count(ball, e, 1) == 2
    assert walk_count(ball, e, 2) == 0


# ---------------------------------------------------------------------------
# norm estimation
# ---------------------------------------------------------------------------


def test_norm_estimates_below_bounds():
    ball = build_ball(3, 8)
    r1 = operator_norm_pow(ball, 1)
    assert r1.converged and r1.estimate <= 4.0
    r4 = operator_norm_pow(ball, 4)
    assert r4.converged and r4.estimate <= 5 * half_power(3, 5)
    assert r4.residual <= 1e-10


def test_norm_report_fields_and_bound_value():
    rep = operator_norm_pow(build_ball(4, 6), 2)
    assert rep.d == 4 and rep.radius == 6 and rep.k == 2
    assert rep.bound == bnorm_bound(4, 2)
    doc = rep.to_json_dict()
    assert set(doc) == {"d", "radius", "k", "estimate", "bound", "residual",
                        "iterations", "converged"}


def test_norm_estimate_dominates_random_rayleigh_vectors():
    op = _op(3, 7)
    for k in (1, 3):
        rep = operator_norm_pow(op.ball, k, tol=1e-10)
        for trial in range(20):
            f = rng.to_unit(rng.words(7000 + trial, np.arange(op.m))) - 0.5
            w = f
            for _ in range(k):
                w = apply(op, w)
            ratio = float(np.linalg.norm(w)) / float(np.linalg.norm(f))
            assert ratio <= rep.estimate * (1.0 + 3e-10)


def test_norm_estimate_monotone_in_radius():
    prev = 0.0
    for radius in (4, 5, 6, 7, 8):
        rep = operator_norm_pow(build_ball(3, radius), 2)
        assert rep.estimate >= prev - 1e-8
        prev = rep.estimate


def test_norm_nonconvergence_flagged():
    rep = operator_norm_pow(build_ball(3, 6), 2, tol=1e-16, max_iter=3)
    assert not rep.converged
    assert rep.iterations == 3


def test_norm_invalid_k():
    with pytest.raises(ValueError):
        operator_norm_pow(build_ball(3, 4), 0)


@pytest.mark.parametrize("fn, args", [(operator_norm_pow, (2,)), (walk_count, (0, 2)),
                                      (cone_weight_sums, (0, 2)), (certify_claims, (2,))])
def test_operator_in_place_of_ball_is_a_type_error(fn, args):
    # these take the ball; an NbOperator used to fail deep inside with an
    # AttributeError on .d, .radius or ._check_edge
    with pytest.raises(TypeError, match=rf"{fn.__name__} takes a TreeBall .*, got NbOperator"):
        fn(_op(3, 4), *args)


# ---------------------------------------------------------------------------
# cone-sum certificates
# ---------------------------------------------------------------------------


def test_away_cone_sum_closed_form():
    # away edges spread only upward: the weighted sum telescopes to
    # (d-1)^(k/2); at d=3, k=4 that is exactly 4
    ball = build_ball(3, 7)
    e = 2 * (int(ball.level_start[1]) - 1)
    ws = cone_weight_sums(ball, e, 4)
    assert ws.source_interior
    assert ws.s_inv == pytest.approx(4.0, rel=1e-12)
    assert ws.s_inv_exact == (4, 0)


def test_toward_deep_cone_sum_closed_form():
    # toward edges far above the root: one straight-down walk plus k turn
    # levels, each contributing (d-2)*(d-1)^((k-1)/2)
    d, k = 3, 2
    ball = build_ball(d, 2 * k + 1)
    v = int(ball.level_start[k + 1])
    ws = cone_weight_sums(ball, 2 * (v - 1) + 1, k)
    expected = half_power(d, k) + k * (d - 2) * half_power(d, k - 1)
    assert ws.source_interior
    assert ws.s_inv == pytest.approx(expected, rel=1e-12)
    assert ws.s_inv == pytest.approx(2 + 2 * math.sqrt(2), rel=1e-12)
    assert ws.s_inv < bnorm_bound(d, k)


def test_forward_sum_is_reversal_of_inverse_sum():
    ball = build_ball(3, 6)
    for e in range(0, ball.n_edges, 7):
        a = cone_weight_sums(ball, e, 2)
        b = cone_weight_sums(ball, reverse_edge(e), 2)
        assert a.s_fwd_exact == b.s_inv_exact
        assert a.target_interior == b.source_interior


def test_exhaustive_per_edge_maxima_match_class_report():
    # k=1, d=3: enumerate every edge of an R=4 ball and verify both the
    # strict bound and agreement with the class-based certificate
    ball = build_ball(3, 4)
    rep = certify_claims(ball, 1)
    bound = bnorm_bound(3, 1)
    best_inv = 0.0
    best_fwd = 0.0
    n_interior = 0
    for e in range(ball.n_edges):
        ws = cone_weight_sums(ball, e, 1)
        if ws.source_interior:
            n_interior += 1
            best_inv = max(best_inv, ws.s_inv)
            assert ws.s_inv < bound
        if ws.target_interior:
            best_fwd = max(best_fwd, ws.s_fwd)
            assert ws.s_fwd < bound
    assert best_inv == pytest.approx(rep.max_s_inv, rel=1e-13)
    assert best_fwd == pytest.approx(rep.max_s_fwd, rel=1e-13)
    assert n_interior == rep.interior_edge_count


def test_certificates_strict_for_small_cases():
    for d in (3, 4, 5):
        for k in (1, 2, 3):
            ball = build_ball(d, max(k + 2, 2 * k))
            rep = certify_claims(ball, k)
            assert rep.strict
            assert rep.max_s_inv < rep.bound
            assert rep.max_s_fwd < rep.bound
            assert rep.max_s_inv == rep.max_s_fwd  # reversal symmetry of the ball


def test_certificate_requires_room():
    with pytest.raises(ValueError):
        certify_claims(build_ball(3, 3), 2)


def test_certificate_json_fields():
    rep = certify_claims(build_ball(3, 5), 2)
    doc = rep.to_json_dict()
    assert set(doc) == {"d", "radius", "k", "max_s_inv", "max_s_fwd", "bound",
                        "interior_edge_count", "breakdown", "strict"}


# ---------------------------------------------------------------------------
# dense-matrix cross-validation on small balls
# ---------------------------------------------------------------------------


def _dense_matrix(op) -> np.ndarray:
    mat = np.zeros((op.m, op.m))
    for e in range(op.m):
        for p in op.predecessors(e).tolist():
            mat[e, p] = 1.0
    return mat


def test_power_iteration_matches_dense_svd():
    for d, radius in ((3, 4), (4, 3)):
        op = _op(d, radius)
        dense = _dense_matrix(op)
        for k in (1, 2, 3):
            sigma = float(np.linalg.norm(np.linalg.matrix_power(dense, k), ord=2))
            rep = operator_norm_pow(op.ball, k, tol=1e-12)
            assert rep.estimate == pytest.approx(sigma, rel=1e-8)


def test_cone_sums_match_dense_matrix_power():
    d, radius, k = 3, 5, 2
    op = _op(d, radius)
    ball = op.ball
    dense = _dense_matrix(op)
    bk = np.linalg.matrix_power(dense, k)
    q = d - 1
    heights = np.array([ball.edge_height(e) for e in range(op.m)], dtype=float)
    for e in range(0, op.m, 5):
        ws = cone_weight_sums(ball, e, k)
        # column e of bk counts walks e -> target; weight by height change
        targets = np.flatnonzero(bk[:, e])
        s_inv = float(np.sum(bk[targets, e] * np.sqrt(q) ** (heights[e] - heights[targets])))
        assert ws.s_inv == pytest.approx(s_inv, rel=1e-12, abs=1e-12)
        sources = np.flatnonzero(bk[e, :])
        s_fwd = float(np.sum(bk[e, sources] * np.sqrt(q) ** (heights[e] - heights[sources])))
        assert ws.s_fwd == pytest.approx(s_fwd, rel=1e-12, abs=1e-12)


def test_walk_counts_match_dense_matrix_power():
    op = _op(3, 4)
    dense = _dense_matrix(op)
    for k in (1, 2, 3):
        bk = np.linalg.matrix_power(dense, k)
        assert np.max(bk) <= 1.0  # walks in a tree are unique
        for e in range(0, op.m, 7):
            assert walk_count(op.ball, e, k) == int(bk[:, e].sum())
