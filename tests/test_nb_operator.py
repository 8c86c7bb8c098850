"""Operator assembly, class operator, walk counts, norm estimates, certificates."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from nbtree import rng
from nbtree._exact import root_value
from nbtree.bounds import bnorm_bound, half_power
from nbtree.nb_operator import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    NormReport,
    _b_classes,
    _class_dot,
    certify_claims,
    cone_weight_sums,
    operator_norm_pow,
    walk_count,
    walk_counts,
)
from nbtree.tree_core import build_ball, cone, successor_lists, successors
from test_tree_core import edge_height, predecessors, reverse_edge


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_star_ball_predecessor_counts():
    # d=3, R=1: 4 vertices, 6 directed edges.  Toward-root edges end at
    # leaves' only neighbor, so they have no predecessors; each edge out of
    # the root is fed by the two toward edges from the other leaves.
    ball = build_ball(3, 1)
    assert ball.n_edges == 6
    for e in range(6):
        preds = predecessors(ball, e)
        if e % 2 == 0:  # away from the root
            assert len(preds) == 2
            assert all(p % 2 == 1 for p in preds)
        else:
            assert len(preds) == 0


def test_depth1_to_depth2_edge_has_two_predecessors():
    ball = build_ball(3, 2)
    w = int(ball.vertices_at_depth(1)[0])
    c = int(ball.children(w)[0])
    e = 2 * (c - 1)  # away edge w -> c
    assert ball.edge_tail(e) == w
    assert len(predecessors(ball, e)) == 2


def test_total_predecessors_equal_total_successors():
    for d, radius in ((3, 3), (4, 2)):
        ball = build_ball(d, radius)
        edges = range(ball.n_edges)
        n_pred = sum(len(predecessors(ball, e)) for e in edges)
        n_succ = sum(len(successors(ball, e)) for e in edges)
        assert n_pred == n_succ


def test_operator_rows_match_successor_definition():
    # e -> e' exactly when head(e) = tail(e') and e' != reverse(e), checked
    # over every ordered edge pair; both lists come in ascending id order
    for d, radius in ((3, 3), (4, 2), (5, 2)):
        ball = build_ball(d, radius)
        m = ball.n_edges
        heads = [ball.edge_head(e) for e in range(m)]
        tails = [ball.edge_tail(e) for e in range(m)]
        succ = [[f for f in range(m) if heads[e] == tails[f] and f != reverse_edge(e)]
                for e in range(m)]
        for e in range(m):
            pred = [f for f in range(m) if e in succ[f]]
            assert successors(ball, e).tolist() == succ[e]
            assert predecessors(ball, e).tolist() == pred


# ---------------------------------------------------------------------------
# full-edge-vector reference
# ---------------------------------------------------------------------------


def _padded(ball, relation, counts):
    """(m, d-1) ids of each edge's `relation` list, ascending, padded with m.

    `relation` takes every edge id at once and concatenates the lists;
    counts[e] is the length of e's list.
    """
    m = ball.n_edges
    ids = relation(ball, np.arange(m))
    starts = np.cumsum(counts) - counts
    idx = np.full((m, ball.d - 1), m, dtype=np.int64)
    idx[np.repeat(np.arange(m), counts), np.arange(ids.size) - np.repeat(starts, counts)] = ids
    assert np.all((np.diff(idx, axis=1) > 0) | (idx[:, 1:] == m))
    return idx


@functools.lru_cache(maxsize=None)
def _reference_operator(d, radius):
    """The ball with B (predecessor lists) and B^T (successor lists)."""
    ball = build_ball(d, radius)
    edges = np.arange(ball.n_edges)
    return (ball, _padded(ball, predecessors, successor_lists(ball, edges ^ 1)[1]),
            _padded(ball, successors, successor_lists(ball, edges)[1]))


def _sum_lists(idx, f):
    """Each edge's sum of f over its row of idx, adding one term at a time
    from 0.0; the pad id m reads 0.0, and s + 0.0 == s for every s this
    can reach (never -0.0)."""
    f = np.append(f, 0.0)
    out = np.zeros(idx.shape[0])
    for j in range(idx.shape[1]):
        out = out + f[idx[:, j]]
    return out


def _fsum_norm_pow(d, radius, k, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Power iteration on full edge vectors, B and B^T summed in ascending
    id order and both reductions by math.fsum: the reference loop whose
    every NormReport field operator_norm_pow must reproduce."""
    ball, b, bt = _reference_operator(d, radius)
    m = ball.n_edges
    v = np.full(m, 1.0 / math.sqrt(m))
    rho, rho_prev, residual, converged = 0.0, None, math.inf, False
    for iterations in range(1, max_iter + 1):
        w = v
        for _ in range(k):
            w = _sum_lists(b, w)
        for _ in range(k):
            w = _sum_lists(bt, w)
        rho = math.fsum(v * w)
        norm_w = math.sqrt(math.fsum(w * w))
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
    return NormReport(d, radius, k, math.sqrt(max(rho, 0.0)), bnorm_bound(d, k),
                      iterations, residual, converged)


#: (d, largest radius) of the class-iteration grid
NORM_GRID = ((3, 9), (4, 6), (5, 5), (6, 4))


def test_norm_estimate_matches_the_full_vector_fsum_iteration():
    # the class-value iteration is the full-vector one bit for bit:
    # converged, at a tighter tolerance, and stopped before convergence
    cases = 0
    for d, max_radius in NORM_GRID:
        for radius in range(1, max_radius + 1):
            ball = build_ball(d, radius)
            for k in range(1, 8):
                for tol, max_iter in ((DEFAULT_TOL, DEFAULT_MAX_ITER),
                                      (1e-12, DEFAULT_MAX_ITER), (1e-16, 3)):
                    got = operator_norm_pow(ball, k, tol, max_iter)
                    want = _fsum_norm_pow(d, radius, k, tol, max_iter)
                    assert got == want, (d, radius, k, tol, max_iter)
                    assert repr(got) == repr(want)  # also tells -0.0 from 0.0
                    cases += 1
    assert cases == 24 * 7 * 3


# ---------------------------------------------------------------------------
# B on class values
# ---------------------------------------------------------------------------


def _classes(ball, seed, binades=0):
    """Signed class values in (-0.5, 0.5), scaled by powers of two spread
    over `binades` binades; index 0 is unused."""
    n = 2 * (ball.radius + 1)
    u = rng.to_unit(rng.words(seed, np.arange(2 * n)))
    vals = ((u[:n] - 0.5) * np.exp2(np.floor(u[n:] * binades) - binades // 2)).tolist()
    return vals[:ball.radius + 1], vals[ball.radius + 1:]


def _expand(ball, away, toward):
    """The full edge vector of class values: edge e holds its class's."""
    out = np.empty(ball.n_edges)
    h = ball.depth[np.arange(ball.n_edges) // 2 + 1]
    even = np.arange(ball.n_edges) % 2 == 0
    out[even] = np.asarray(away)[h[even]]
    out[~even] = np.asarray(toward)[h[~even]]
    return out


def _counts(ball):
    return [0] + np.diff(ball.level_start[1:]).tolist()


def test_class_dot_is_fsum_over_every_edge():
    for d, max_radius in NORM_GRID:
        for radius in range(1, max_radius + 1):
            ball = build_ball(d, radius)
            for seed in range(4):
                xa, xt = _classes(ball, 10 * seed, binades=80)
                ya, yt = _classes(ball, 10 * seed + 1, binades=80)
                got = _class_dot(_counts(ball), xa, xt, ya, yt)
                want = math.fsum(_expand(ball, xa, xt) * _expand(ball, ya, yt))
                assert repr(got) == repr(want), (d, radius, seed)


def test_apply_zero_and_linearity():
    ball = build_ball(3, 3)
    zero = [0.0] * 4
    assert _b_classes(3, zero, zero) == (zero, zero)
    fa, ft = _classes(ball, 3)
    ga, gt = _classes(ball, 4)
    lhs = _b_classes(3, [2.0 * f - 3.0 * g for f, g in zip(fa, ga)],
                     [2.0 * f - 3.0 * g for f, g in zip(ft, gt)])
    bf, bg = _b_classes(3, fa, ft), _b_classes(3, ga, gt)
    for side in (0, 1):
        rhs = [2.0 * f - 3.0 * g for f, g in zip(bf[side], bg[side])]
        assert np.allclose(lhs[side], rhs, rtol=1e-13, atol=1e-13)


def test_apply_all_ones_counts_predecessors():
    for d, radius in ((3, 3), (4, 3), (5, 2)):
        ball = build_ball(d, radius)
        ones = [1.0] * (radius + 1)
        out = _expand(ball, *_b_classes(d, ones, ones))
        for e in range(ball.n_edges):
            assert out[e] == len(predecessors(ball, e))
        interior = [e for e in range(ball.n_edges) if len(predecessors(ball, e)) == d - 1]
        assert interior and all(out[e] == d - 1 for e in interior)


def test_transpose_all_ones_counts_successors():
    d = 4
    ball = build_ball(d, 3)
    ones = [1.0] * 4
    toward, away = _b_classes(d, ones, ones)  # B^T: B on the swapped classes
    out = _expand(ball, away, toward)
    for e in range(ball.n_edges):
        expected = d - 1 if ball.depth[ball.edge_head(e)] < ball.radius else 0
        assert out[e] == expected == len(successors(ball, e))


def test_adjoint_identity_on_random_vectors():
    ball = build_ball(3, 4)
    counts = _counts(ball)
    for trial in range(100):
        fa, ft = _classes(ball, 100 + trial)
        ga, gt = _classes(ball, 300 + trial)
        bfa, bft = _b_classes(3, fa, ft)
        btgt, btga = _b_classes(3, gt, ga)
        lhs = _class_dot(counts, bfa, bft, ga, gt)
        rhs = _class_dot(counts, fa, ft, btga, btgt)
        scale = math.sqrt(_class_dot(counts, bfa, bft, bfa, bft)
                          * _class_dot(counts, ga, gt, ga, gt))
        assert abs(lhs - rhs) <= 1e-12 * scale


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


def test_walk_counts_are_the_cone_sizes_of_every_edge():
    # one pass advances every cone; repeated and unordered edges keep their place
    ball = build_ball(3, 5)
    edges = np.concatenate([np.arange(ball.n_edges)[::-1], [0, 0, 7]])
    for k in range(6):
        want = [cone(ball, int(e), k).size for e in edges]
        assert walk_counts(ball, edges, k).tolist() == want
        assert [walk_count(ball, int(e), k) for e in edges] == want
    assert walk_counts(ball, [], 3).tolist() == []


@pytest.mark.parametrize("k", [0, 2])
def test_walk_counts_check_every_edge_at_every_k(k):
    ball = build_ball(3, 2)
    for bad in ([0, ball.n_edges], [-1], [2 ** 70]):
        with pytest.raises(ValueError, match=rf"edge id {bad[-1]} outside \[0, {ball.n_edges}\)"):
            walk_counts(ball, bad, k)


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
    ball, b, _ = _reference_operator(3, 7)
    for k in (1, 3):
        rep = operator_norm_pow(ball, k, tol=1e-10)
        for trial in range(20):
            f = rng.to_unit(rng.words(7000 + trial, np.arange(ball.n_edges))) - 0.5
            w = f
            for _ in range(k):
                w = _sum_lists(b, w)
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


# ---------------------------------------------------------------------------
# cone-sum certificates
# ---------------------------------------------------------------------------


def _class_of(ball, e) -> tuple[str, int]:
    return ("toward" if e % 2 else "away"), edge_height(ball, e)


def _cone_oracle(ball, k, backward=False):
    """Per-edge exact cone sums and interior flags, walking the real cones.

    Follows every edge's k-step cone along `tree_core.successor_lists`
    (as `tree_core.cone` does, reversed for the backward cone), and sums
    (d-1)^(j/2) over its edges, j the height difference, as (a, b) with
    the sum a + b*sqrt(d-1): a over even j, b over odd j.
    """
    q = ball.d - 1
    flip = int(backward)
    owner = np.arange(ball.n_edges)
    frontier = owner ^ flip
    for _ in range(k):
        frontier, counts = successor_lists(ball, frontier)
        owner = np.repeat(owner, counts)
    frontier = frontier ^ flip
    height = ball.depth[np.arange(ball.n_edges) // 2 + 1]
    sums = [[Fraction(0), Fraction(0)] for _ in range(ball.n_edges)]
    keys, counts = np.unique(np.stack([owner, height[owner] - height[frontier]]), axis=1,
                             return_counts=True)
    for e, j, n in zip(*keys.tolist(), counts.tolist()):
        sums[e][j % 2] += n * Fraction(q) ** (j // 2)  # j // 2 == (j - 1) // 2 for odd j
    walks = np.bincount(owner, minlength=ball.n_edges)
    return [tuple(x) for x in sums], (walks == q ** k).tolist()


@pytest.mark.parametrize("d,radius", [(3, 6), (4, 5), (5, 4), (6, 3)])
def test_class_table_matches_per_edge_cone_oracle(d, radius):
    # at d=5, sqrt(4) = 2: the a + b*sqrt(q) split must follow the parity
    # of the height difference, which the value alone does not fix
    ball = build_ball(d, radius)
    for k in range(1, radius + 2):
        table = cone_weight_sums(d, radius, k)
        assert list(table) == [(o, h) for o in ("away", "toward") for h in range(1, radius + 1)]
        s_inv, source_interior = _cone_oracle(ball, k)
        s_fwd, target_interior = _cone_oracle(ball, k, backward=True)
        for e in range(ball.n_edges):
            ws = table[_class_of(ball, e)]
            assert ws.s_inv_exact == s_inv[e] and ws.s_fwd_exact == s_fwd[e], (k, e)
            assert ws.source_interior == source_interior[e], (k, e)
            assert ws.target_interior == target_interior[e], (k, e)
            assert ws.s_inv == root_value(*s_inv[e], d - 1)
            assert ws.s_fwd == root_value(*s_fwd[e], d - 1)


def test_away_cone_sum_closed_form():
    # away edges spread only upward: the weighted sum telescopes to
    # (d-1)^(k/2); at d=3, k=4 that is exactly 4
    ws = cone_weight_sums(3, 7, 4)["away", 1]
    assert ws.source_interior
    assert ws.s_inv == pytest.approx(4.0, rel=1e-12)
    assert ws.s_inv_exact == (4, 0)


def test_toward_deep_cone_sum_closed_form():
    # toward edges far above the root: one straight-down walk plus k turn
    # levels, each contributing (d-2)*(d-1)^((k-1)/2)
    d, k = 3, 2
    ws = cone_weight_sums(d, 2 * k + 1, k)["toward", k + 1]
    expected = half_power(d, k) + k * (d - 2) * half_power(d, k - 1)
    assert ws.source_interior
    assert ws.s_inv == pytest.approx(expected, rel=1e-12)
    assert ws.s_inv == pytest.approx(2 + 2 * math.sqrt(2), rel=1e-12)
    assert ws.s_inv < bnorm_bound(d, k)


def test_forward_sum_is_reversal_of_inverse_sum():
    # reversing every edge swaps the away and toward classes of one height
    # and turns predecessor cones into successor cones
    for k in (1, 2, 3):
        table = cone_weight_sums(3, 6, k)
        for h in range(1, 7):
            for a, b in ((table["away", h], table["toward", h]),
                         (table["toward", h], table["away", h])):
                assert a.s_fwd_exact == b.s_inv_exact
                assert a.target_interior == b.source_interior


def test_exhaustive_per_edge_maxima_match_class_report():
    # k=1, d=3: take every edge's own cones on an R=4 ball and verify both
    # the strict bound and agreement with the class-based certificate
    ball = build_ball(3, 4)
    rep = certify_claims(3, 4, 1)
    bound = bnorm_bound(3, 1)
    s_inv, source_interior = _cone_oracle(ball, 1)
    s_fwd, target_interior = _cone_oracle(ball, 1, backward=True)
    best_inv = max(root_value(*s_inv[e], 2) for e in range(ball.n_edges) if source_interior[e])
    best_fwd = max(root_value(*s_fwd[e], 2) for e in range(ball.n_edges) if target_interior[e])
    assert best_inv < bound and best_fwd < bound
    assert best_inv == rep.max_s_inv
    assert best_fwd == rep.max_s_fwd
    assert sum(source_interior) == rep.interior_edge_count


def test_certificates_strict_for_small_cases():
    for d in (3, 4, 5):
        for k in (1, 2, 3):
            rep = certify_claims(d, max(k + 2, 2 * k), k)
            assert rep.strict
            assert rep.max_s_inv < rep.bound
            assert rep.max_s_fwd < rep.bound
            assert rep.max_s_inv == rep.max_s_fwd  # reversal symmetry of the ball


def test_certificates_build_no_ball(no_ball):
    rep = certify_claims(5, 10, 5)
    assert rep.strict and rep.interior_edge_count > 0
    assert len(cone_weight_sums(5, 10, 5)) == 20


def test_certificate_requires_room():
    with pytest.raises(ValueError):
        certify_claims(3, 3, 2)


def test_certificate_json_fields():
    rep = certify_claims(3, 5, 2)
    doc = rep.to_json_dict()
    assert set(doc) == {"d", "radius", "k", "max_s_inv", "max_s_fwd", "bound",
                        "interior_edge_count", "breakdown", "strict"}


# ---------------------------------------------------------------------------
# dense-matrix cross-validation on small balls
# ---------------------------------------------------------------------------


def _dense_matrix(ball) -> np.ndarray:
    mat = np.zeros((ball.n_edges, ball.n_edges))
    for e in range(ball.n_edges):
        mat[e, predecessors(ball, e)] = 1.0
    return mat


def test_power_iteration_matches_dense_svd():
    for d, radius in ((3, 4), (4, 3)):
        ball = build_ball(d, radius)
        dense = _dense_matrix(ball)
        for k in (1, 2, 3):
            sigma = float(np.linalg.norm(np.linalg.matrix_power(dense, k), ord=2))
            rep = operator_norm_pow(ball, k, tol=1e-12)
            assert rep.estimate == pytest.approx(sigma, rel=1e-8)


def test_cone_sums_match_dense_matrix_power():
    d, radius, k = 3, 5, 2
    ball = build_ball(d, radius)
    dense = _dense_matrix(ball)
    bk = np.linalg.matrix_power(dense, k)
    q = d - 1
    heights = np.array([edge_height(ball, e) for e in range(ball.n_edges)], dtype=float)
    table = cone_weight_sums(d, radius, k)
    for e in range(0, ball.n_edges, 5):
        ws = table[_class_of(ball, e)]
        # column e of bk counts walks e -> target; weight by height change
        targets = np.flatnonzero(bk[:, e])
        s_inv = float(np.sum(bk[targets, e] * np.sqrt(q) ** (heights[e] - heights[targets])))
        assert ws.s_inv == pytest.approx(s_inv, rel=1e-12, abs=1e-12)
        sources = np.flatnonzero(bk[e, :])
        s_fwd = float(np.sum(bk[e, sources] * np.sqrt(q) ** (heights[e] - heights[sources])))
        assert ws.s_fwd == pytest.approx(s_fwd, rel=1e-12, abs=1e-12)


def test_walk_counts_match_dense_matrix_power():
    ball = build_ball(3, 4)
    dense = _dense_matrix(ball)
    for k in (1, 2, 3):
        bk = np.linalg.matrix_power(dense, k)
        assert np.max(bk) <= 1.0  # walks in a tree are unique
        for e in range(0, ball.n_edges, 7):
            assert walk_count(ball, e, k) == int(bk[:, e].sum())
