"""Rules over labeled balls: evaluation, locality, the covariance oracle,
and orbit averaging.

A rule is evaluated the way the exact route evaluates it: through its
`rule_site`, on one labeling passed as a one-row label matrix, read from a
plain label array with labels[v] the label of vertex v.
"""

import math
import re
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nbtree import rng
from nbtree.acceptance import edge_pair
from nbtree.correlation import exact_corr_discrete, rule_site
from nbtree.errors import CapExceededError, InteriorityError
from nbtree.factor_engine import (
    BlockRule,
    LinearRule,
    domain_values,
    edge_first_child_rule,
    edge_sum_rule,
    edge_table_rule,
    edge_tail_rule,
    geometric_profile,
    linear_rule_covariance_exact,
    majority_rule,
    orbit_size,
    parity_rule,
    subtree_levels,
    subtree_pair_classes,
    sum_rule,
    symmetrize_rule,
    threshold_rule,
    vertex_ball_levels,
    vertex_pair_classes,
    xor_pair_rule,
)
from nbtree.tree_core import build_ball, distances_from, vertices_at_distance
from test_rng import to_rademacher
from test_tree_core import vertex_distance


def table_block_rule(radius, alphabet, seed):
    """An order-sensitive block rule: the hashed table of `edge_table_rule`
    read on a vertex view."""
    return BlockRule(radius, edge_table_rule(radius, alphabet, seed).func, name=f"table:r{radius}",
                     domain=f"alphabet:{alphabet}")


def view_classes(levels_a, levels_b):
    """Reference pair-class table of two views: their support grouped by
    (level in view A, level in view B), "not in the view" being level
    len(levels), in sorted key order."""
    support = np.unique(np.concatenate(levels_a + levels_b))

    def level_of(levels):
        level = np.full(len(support), len(levels))
        for i, lv in enumerate(levels):
            level[np.searchsorted(support, lv)] = i
        return level

    keys, sizes = np.unique(np.stack([level_of(levels_a), level_of(levels_b)], axis=1),
                            axis=0, return_counts=True)
    return [tuple(key) for key in keys.tolist()], sizes.tolist()


def pair_views(shape, d, r, k, facing=False):
    """Two radius-r vertex views k apart, or two depth-r subtree views behind
    edges at edge distance k (same direction unless `facing`), on a ball
    just large enough to hold them."""
    if shape == "vertex":
        ball = build_ball(d, (k + 1) // 2 + r)
        u, v = vertices_at_distance(ball, k)
        return vertex_ball_levels(ball, u, r), vertex_ball_levels(ball, v, r)
    ball = build_ball(d, (k + 2) // 2 + r + 1)
    e1, e2_same, e2_facing = edge_pair(ball, k)
    e2 = e2_facing if facing else e2_same
    return subtree_levels(ball, e1, r), subtree_levels(ball, e2, r)


def _labels(ball, seed, domain="uniform"):
    """One i.i.d. label per vertex of the ball, drawn from the `seed` stream."""
    w = rng.words(seed, np.arange(ball.n))
    if domain == "uniform":
        return rng.to_unit(w)
    if domain == "rademacher":
        return to_rademacher(w)
    return rng.to_alphabet(w, 2).astype(np.float64)


def _value(ball, rule, at, labels):
    """The rule's value at vertex or edge `at`, as the exact route computes it."""
    site = rule_site(ball, rule, at)
    return site.func(labels[site.local_ids][None])[0]


def _with_label(labels, v, value):
    labels = labels.copy()
    labels[v] = value
    return labels


# ---------------------------------------------------------------------------
# domains and views
# ---------------------------------------------------------------------------


def test_parse_domain():
    assert domain_values("rademacher").tolist() == [-1.0, 1.0]
    assert domain_values("alphabet:3").tolist() == [0.0, 1.0, 2.0]
    with pytest.raises(ValueError, match="alphabet domain needs alphabet_size >= 2"):
        domain_values("alphabet:1")
    for bad in ("weird", "uniform", "centered_uniform"):
        with pytest.raises(ValueError, match=f"unknown label domain '{bad}'"):
            domain_values(bad)


def test_vertex_view_shape():
    ball = build_ball(3, 4)
    levels = vertex_ball_levels(ball, 1, 2)
    assert [len(lv) for lv in levels] == [1, 3, 6]
    assert levels[0][0] == 1
    # neighbors in id order: parent (root) first
    assert levels[1][0] == 0


def test_vertex_view_interiority():
    ball = build_ball(3, 3)
    v = int(ball.vertices_at_depth(3)[0])
    with pytest.raises(InteriorityError):
        vertex_ball_levels(ball, v, 1)


def test_subtree_view_shapes_and_interiority():
    ball = build_ball(3, 4)
    # toward edge: the subtree behind it is the child's own branch
    v = int(ball.vertices_at_depth(1)[0])
    levels = subtree_levels(ball, 2 * (v - 1) + 1, 2)
    assert [len(lv) for lv in levels] == [1, 2, 4]
    assert levels[0][0] == v
    # away edge behind the root reaches the other branches
    levels = subtree_levels(ball, 2 * (v - 1), 1)
    assert levels[0][0] == 0
    assert v not in levels[1].tolist()
    deep = int(ball.vertices_at_depth(3)[0])
    with pytest.raises(InteriorityError):
        subtree_levels(ball, 2 * (deep - 1) + 1, 2)


def test_negative_view_depth_is_rejected():
    ball = build_ball(3, 2)
    with pytest.raises(ValueError, match="view depth must be >= 0, got -1"):
        subtree_levels(ball, 0, -1)
    with pytest.raises(ValueError, match="view depth must be >= 0, got -1"):
        vertex_ball_levels(ball, 0, -1)
    # a rule of negative radius is refused before it can ask for such a view
    with pytest.raises(ValueError, match="rule radius must be >= 0, got -1"):
        exact_corr_discrete(ball, sum_rule(-1), "alphabet:2", [0], [1])


# ---------------------------------------------------------------------------
# block rules
# ---------------------------------------------------------------------------


def test_pointwise_rule_is_identity():
    ball = build_ball(3, 3)
    labels = _labels(ball, 5)
    rule = sum_rule(0)
    for v in (0, 1, 7):
        assert _value(ball, rule, v, labels) == labels[v]


def test_radius1_sum_rule_matches_neighbors():
    ball = build_ball(3, 3)
    labels = _labels(ball, 6)
    rule = sum_rule(1)
    v = 1
    expected = labels[v] + sum(labels[u] for u in ball.neighbors(v))
    assert _value(ball, rule, v, labels) == pytest.approx(expected, rel=1e-15)


def test_block_rule_locality():
    ball = build_ball(3, 4)
    labels = _labels(ball, 9)
    rule = sum_rule(1)
    v = 1
    base = _value(ball, rule, v, labels)
    far = [u for u in range(ball.n) if vertex_distance(ball, u, v) == 2]
    for trial in range(100):
        u = far[trial % len(far)]
        modified = _with_label(labels, u, float(trial) + 2.0)
        assert _value(ball, rule, v, modified) == base


# ---------------------------------------------------------------------------
# linear rules
# ---------------------------------------------------------------------------


def test_linear_rule_delta_profile():
    ball = build_ball(3, 3)
    labels = _labels(ball, 3, "rademacher")
    assert _value(ball, LinearRule(0, (1.0,)), 2, labels) == labels[2]


def test_linear_rule_zero_profile():
    ball = build_ball(3, 3)
    labels = _labels(ball, 4, "rademacher")
    rule = LinearRule(1, (0.0, 0.0))
    assert _value(ball, rule, 1, labels) == 0.0


def test_profile_length_checked():
    with pytest.raises(ValueError):
        LinearRule(2, (1.0, 0.5))


def test_negative_rule_radius_rejected():
    # LinearRule(-1, ()) has one coefficient per distance 0..-1
    for make in (lambda: LinearRule(-1, ()), lambda: geometric_profile(3, -1),
                 lambda: table_block_rule(-2, 2, 0)):
        with pytest.raises(ValueError, match="rule radius must be >= 0"):
            make()


@pytest.mark.parametrize("rate,radius", [(math.nan, 1), (math.inf, 1), (-math.inf, 2),
                                         (1e200, 2), (1e200, 3)])
def test_non_finite_profile_rejected(rate, radius):
    with pytest.raises(ValueError):
        geometric_profile(3, radius, rate)


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_non_finite_threshold_rejected(theta):
    with pytest.raises(ValueError, match="threshold must be finite"):
        threshold_rule(1, theta)


# ---------------------------------------------------------------------------
# covariance oracle
# ---------------------------------------------------------------------------


def test_oracle_identity_at_zero_distance():
    res = linear_rule_covariance_exact(3, (1.0, 0.25), 0)
    assert res.corr == pytest.approx(1.0, rel=1e-14)
    assert res.cov == pytest.approx(res.var, rel=1e-14)


def test_oracle_distance_one_hand_count():
    # only the two sites themselves lie within distance 1 of both, so
    # cov = 2*lambda exactly; variance is 1 + 3*lambda^2
    lam = 0.37
    res = linear_rule_covariance_exact(3, (1.0, lam), 1)
    assert res.cov == pytest.approx(2 * lam, rel=1e-14)
    assert res.var == pytest.approx(1 + 3 * lam * lam, rel=1e-14)
    assert res.corr == pytest.approx(2 * lam / (1 + 3 * lam * lam), rel=1e-13)


def test_oracle_matches_ball_brute_force():
    # independent route: direct double loop over an R=3 ball
    d, lam, k, r = 3, 0.61, 2, 1
    ball = build_ball(d, 3)
    u, v = vertices_at_distance(ball, k)
    profile = (1.0, lam)
    cov = 0.0
    for w in range(ball.n):
        i, j = vertex_distance(ball, w, u), vertex_distance(ball, w, v)
        if i <= r and j <= r:
            cov += profile[i] * profile[j]
    res = linear_rule_covariance_exact(d, profile, k)
    assert res.cov == pytest.approx(cov, rel=1e-13)


def test_oracle_disjoint_supports():
    res = linear_rule_covariance_exact(3, (1.0, 0.5), 3)  # k > 2r
    assert res.cov == 0.0
    assert res.corr == 0.0


@pytest.mark.parametrize("d, r, k", [(3, 0, 1), (3, 2, 5), (4, 3, 7), (5, 1, 40),
                                     (3, 16, 33), (4, 4, 10 ** 6)])
def test_oracle_is_exactly_zero_beyond_twice_the_radius(no_ball, d, r, k):
    res = linear_rule_covariance_exact(d, geometric_profile(d, r).profile, k)
    assert (res.cov, res.corr) == (0.0, 0.0) and res.var > 0


def _bfs_covariance(d, profile, k):
    """Reference (cov, var): BFS distances from both sites on a ball just
    large enough to hold both views, and math.fsum of the products of
    profile values over every vertex within distance r of both; the
    variance weighs each sphere's squared coefficient by its size."""
    profile = np.asarray(profile, dtype=np.float64)
    r = profile.size - 1
    ball = build_ball(d, r + (k + 1) // 2)
    u, v = vertices_at_distance(ball, k)
    du, dv = distances_from(ball, u), distances_from(ball, v)
    mask = (du <= r) & (dv <= r)
    cov = math.fsum((profile[du[mask]] * profile[dv[mask]]).tolist())
    sphere = [1] + [d * (d - 1) ** (i - 1) for i in range(1, r + 1)]
    return cov, math.fsum(n * a ** 2 for n, a in zip(sphere, profile.tolist()))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("r", range(6))
def test_oracle_equals_the_bfs_oracle(d, r):
    # random signs and magnitudes, and alternating scales 2^0 and 2^40, so
    # that a sum that is not correctly rounded shows in the last bits
    for k in range(2 * r + 2):
        for s in range(3):
            seed = 1000 * d + 100 * r + 10 * k + s
            profile = rng.to_unit(rng.words(seed, np.arange(r + 1))) - 0.5
            if s == 2:
                profile *= 2.0 ** (40 * (np.arange(r + 1) % 2))
            res = linear_rule_covariance_exact(d, profile, k)
            assert (res.cov, res.var) == _bfs_covariance(d, profile, k), (k, s)


def test_oracle_needs_no_ball_beyond_the_ball_cap(no_ball):
    # the two views span a radius-23 ball at d=3, above DIRECTED_EDGE_CAP
    from nbtree.bounds import vertex_corr_bound

    res = linear_rule_covariance_exact(3, geometric_profile(3, 16).profile, 13)
    # sphere i >= 1 holds 3 * 2^(i-1) vertices of weight 2^(-i/2): 1.5 each
    assert res.var == pytest.approx(1.0 + 16 * 1.5, rel=1e-14)
    assert 0.0 < res.corr <= vertex_corr_bound(3, 13)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_vertex_pair_classes_group_the_two_views(d):
    for r in range(5):
        for k in range(2 * r + 3):
            assert vertex_pair_classes(d, k, r) == view_classes(*pair_views("vertex", d, r, k)), \
                (r, k)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_subtree_pair_classes_group_the_two_views(d):
    for depth in range(4):
        for k in range(6):
            assert subtree_pair_classes(d, k, depth) == view_classes(
                *pair_views("edge", d, depth, k)), (depth, k)


@pytest.mark.parametrize("make, message", [
    (lambda: vertex_pair_classes(2, 1, 1), "degree must be an integer >= 3, got 2"),
    (lambda: vertex_pair_classes(3, -1, 1), "k must be >= 0"),
    (lambda: vertex_pair_classes(3, 1, -1), "view depth must be >= 0, got -1"),
    (lambda: subtree_pair_classes(3.5, 1, 1), "degree must be an integer >= 3, got 3.5"),
    (lambda: subtree_pair_classes(3, -1, 1), "k must be >= 0"),
    (lambda: subtree_pair_classes(3, 1, -2), "view depth must be >= 0, got -2"),
])
def test_pair_classes_refuse_what_names_no_views(make, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        make()


def test_variance_formula_uses_sphere_sizes():
    res = linear_rule_covariance_exact(4, (1.0, 0.5, 0.25), 1)
    expected_var = 1.0 + 4 * 0.25 + 12 * 0.0625
    assert res.var == pytest.approx(expected_var, rel=1e-14)


def test_critical_profile_respects_vertex_bound_up_to_radius():
    from nbtree.bounds import vertex_corr_bound

    for d in (3, 4):
        rule = geometric_profile(d, 8)
        for k in range(1, 9):
            res = linear_rule_covariance_exact(d, rule.profile, k)
            assert abs(res.corr) <= vertex_corr_bound(d, k)


# ---------------------------------------------------------------------------
# orbit averaging
# ---------------------------------------------------------------------------


def test_orbit_sizes():
    assert orbit_size(0, 3, 3) == 1
    assert orbit_size(1, 3, 3) == 6
    assert orbit_size(2, 3, 3) == 6 * 2 ** 3
    assert orbit_size(2, 4, 4) == 24 * 6 ** 4


def test_symmetric_rule_is_fixed_point():
    ball = build_ball(3, 3)
    labels = _labels(ball, 11, "alphabet:2")
    rule = sum_rule(1)
    sym = symmetrize_rule(rule, 3)
    for v in (0, 1, 3):
        assert _value(ball, sym, v, labels) == _value(ball, rule, v, labels)


def test_constant_rule_unchanged():
    from nbtree.factor_engine import BlockRule

    const = BlockRule(1, lambda x: np.full(len(x), 7.5), symmetric=False, name="const")
    sym = symmetrize_rule(const, 3)
    ball = build_ball(3, 3)
    assert _value(ball, sym, 1, _labels(ball, 2)) == 7.5


def test_xor_pair_average_is_mean_over_neighbors():
    # averaging over all 3! neighbor orderings turns root XOR first-neighbor
    # into the mean of root XOR each neighbor
    ball = build_ball(3, 3)
    rule = xor_pair_rule()
    sym = symmetrize_rule(rule, 3)
    for seed in range(20):
        labels = _labels(ball, seed, "alphabet:2")
        v = 1
        root = int(labels[v])
        nbrs = [int(labels[u]) for u in ball.neighbors(v)]
        expected = sum(root ^ b for b in nbrs) / 3.0
        assert _value(ball, sym, v, labels) == pytest.approx(expected, rel=1e-14)


def test_orbit_average_by_direct_enumeration_depth2():
    # reference average computed with an independent permutation loop
    ball = build_ball(3, 4)
    rule = table_block_rule(2, 2, seed=5)
    sym = symmetrize_rule(rule, 3)
    labels = _labels(ball, 13, "alphabet:2")
    v = 1
    levels = tuple(labels[ids] for ids in vertex_ball_levels(ball, v, 2))
    l0, l1, l2 = levels
    total = 0.0
    count = 0
    for sigma in permutations(range(3)):
        blocks = [l2[2 * i:2 * i + 2] for i in range(3)]
        for s0 in permutations(range(2)):
            for s1 in permutations(range(2)):
                for s2 in permutations(range(2)):
                    subs = (s0, s1, s2)
                    new_l1 = l1[list(sigma)]
                    new_l2 = np.concatenate(
                        [blocks[sigma[i]][list(subs[i])] for i in range(3)])
                    total += rule.func(np.concatenate((l0, new_l1, new_l2))[None])[0]
                    count += 1
    assert count == orbit_size(2, 3, 3)
    assert _value(ball, sym, v, labels) == pytest.approx(total / count, rel=1e-12)


def test_symmetrize_caps():
    from nbtree.factor_engine import BlockRule

    deep = BlockRule(3, lambda x: np.zeros(len(x)), name="deep")
    with pytest.raises(CapExceededError):
        symmetrize_rule(deep, 3)
    wide = BlockRule(2, lambda x: np.zeros(len(x)), name="wide")
    with pytest.raises(CapExceededError):
        symmetrize_rule(wide, 9)


# ---------------------------------------------------------------------------
# edge rules
# ---------------------------------------------------------------------------


def test_edge_tail_rule_reads_tail_label():
    ball = build_ball(3, 3)
    labels = _labels(ball, 21)
    e = 3  # toward edge of vertex 2
    assert _value(ball, edge_tail_rule(), e, labels) == labels[ball.edge_tail(e)]


def test_symmetric_edge_rule_invariant_under_child_order():
    ball = build_ball(3, 4)
    labels = _labels(ball, 22)
    rule = edge_sum_rule(1)
    e = 2 * (1 - 1) + 1  # toward edge of vertex 1
    levels = tuple(labels[ids] for ids in subtree_levels(ball, e, 1))
    base = rule.func(np.concatenate(levels)[None])[0]
    for trial in range(20):
        perm = rng.randint(50 + trial, np.arange(2), 2)
        order = [0, 1] if perm[0] <= perm[1] else [1, 0]
        permuted = (levels[0], levels[1][order])
        assert rule.func(np.concatenate(permuted)[None])[0] == base


def test_edge_rule_locality():
    ball = build_ball(3, 4)
    labels = _labels(ball, 24)
    rule = edge_sum_rule(1)
    e = 2 * (1 - 1) + 1  # subtree behind vertex 1
    inside = set(np.concatenate(subtree_levels(ball, e, 1)).tolist())
    base = _value(ball, rule, e, labels)
    for u in range(ball.n):
        if u in inside:
            continue
        assert _value(ball, rule, e, _with_label(labels, u, 99.0)) == base


# ---------------------------------------------------------------------------
# batched rules against the per-configuration reference
# ---------------------------------------------------------------------------


def _flat_sum(lv):
    return np.concatenate(lv).sum()


def _reference_table(alphabet, seed):
    def f(lv):
        idx = 0
        for x in np.concatenate(lv).astype(np.int64).tolist():
            idx = idx * alphabet + x
        return float(rng.to_unit(rng.words(seed, np.array([idx])))[0])
    return f


def _reference_orbit(lv, d):
    """Every recursive child permutation of a depth <= 2 view, by direct loops."""
    if len(lv) == 1:
        return [lv]
    b0 = len(lv[1])
    if len(lv) == 2:
        return [(lv[0], lv[1][list(sigma)]) for sigma in permutations(range(b0))]
    blocks = [lv[2][i * (d - 1):(i + 1) * (d - 1)] for i in range(b0)]
    return [(lv[0], lv[1][list(sigma)],
             np.concatenate([blocks[sigma[i]][list(subs[i])] for i in range(b0)]))
            for sigma in permutations(range(b0))
            for subs in product(permutations(range(d - 1)), repeat=b0)]


def _rule_and_reference(family, depth, alphabet, seed):
    """A built-in rule and the per-configuration func it replaces: one
    labeling, as a tuple of per-level label arrays, to a float."""
    if family == "linear":
        # alternate scales, so that a sum of three terms rounds more than once
        # unless it is correctly rounded
        scales = 2.0 ** (40 * (np.arange(depth + 1) % 2))
        profile = tuple((rng.to_unit(rng.words(seed, np.arange(depth + 1))) - 0.5) * scales)
        return LinearRule(depth, profile), lambda lv: math.fsum(
            a * float(x.sum()) for a, x in zip(profile, lv))
    return {
        "sum": (sum_rule(depth), lambda lv: float(_flat_sum(lv))),
        "parity": (parity_rule(depth), lambda lv: float(int(_flat_sum(lv)) % 2)),
        "threshold": (threshold_rule(depth, 1.5), lambda lv: float(_flat_sum(lv) >= 1.5)),
        "majority": (majority_rule(depth), lambda lv: float(np.sign(_flat_sum(lv)))),
        "xor-pair": (xor_pair_rule(), lambda lv: float(int(lv[0][0]) ^ int(lv[1][0]))),
        "table": (table_block_rule(depth, alphabet, seed), _reference_table(alphabet, seed)),
        "edge-tail": (edge_tail_rule(), lambda lv: float(lv[0][0])),
        "edge-sum": (edge_sum_rule(depth), lambda lv: float(_flat_sum(lv))),
        "edge-first-child": (edge_first_child_rule(), lambda lv: float(lv[1][0])),
        "edge-table": (edge_table_rule(depth, alphabet, seed), _reference_table(alphabet, seed)),
    }[family]


_ORDER_SENSITIVE = ("xor-pair", "table", "edge-first-child", "edge-table")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["sum", "parity", "threshold", "majority", "linear", "edge-tail",
                        "edge-sum"] + [f"{s}{f}" for f in _ORDER_SENSITIVE for s in ("", "sym:")]),
       st.sampled_from(["alphabet:2", "alphabet:3", "rademacher"]),
       st.sampled_from([3, 4]), st.integers(0, 2), st.integers(0, 2 ** 20))
def test_batched_rules_match_the_per_configuration_reference(family, domain, d, depth, seed):
    values = domain_values(domain)
    alphabet = None if domain == "rademacher" else len(values)
    sym = family.startswith("sym:")
    family = family.removeprefix("sym:")
    # table rules read labels in 0..A-1 only; a depth-2 orbit at d=4 has 31,104 elements
    assume(alphabet is not None or "table" not in family)
    assume(not (sym and d == 4 and depth == 2 and "table" in family))
    rule, reference = _rule_and_reference(family, depth, alphabet, seed)
    if sym:
        inner = reference
        rule = symmetrize_rule(rule, d)

        def reference(lv):
            orbit = _reference_orbit(lv, d)
            return math.fsum(inner(p) for p in orbit) / len(orbit)
    ball = build_ball(d, 3)
    site = rule_site(ball, rule, 0)
    levels = (subtree_levels(ball, 0, rule.depth) if family.startswith("edge")
              else vertex_ball_levels(ball, 0, rule.radius))
    assert site.local_ids.tolist() == np.concatenate(levels).tolist()
    n_local = len(site.local_ids)
    x = values[rng.to_alphabet(rng.words2(seed, np.arange(64), np.arange(n_local)), len(values))]
    got = site.func(x)
    splits = np.cumsum([len(lv) for lv in levels])[:-1]
    want = np.array([reference(tuple(np.split(row, splits))) for row in x])
    assert got.dtype == np.float64 and got.shape == (64,)
    assert got.tobytes() == want.tobytes()
