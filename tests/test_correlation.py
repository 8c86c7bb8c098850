"""Monte Carlo estimation, the exact enumeration engine, and identity checks."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtree import rng
from nbtree.bounds import vertex_corr_bound
from nbtree.correlation import (
    compensated_sum,
    edge_homogeneity_check,
    exact_corr_discrete,
    exact_edge_corr,
    h_parity,
    h_sum,
    lemma_consequence_check,
    linear_pair_sampler,
    monte_carlo_corr,
    polarization_check,
    random_exchangeable_joint,
    symmetrization_moment_check,
    verify_bound,
    vertex_linear_sampler,
)
from nbtree.errors import CapExceededError, NonExchangeableError
from nbtree.factor_engine import (
    LinearRule,
    edge_first_child_rule,
    edge_sum_rule,
    geometric_profile,
    linear_rule_covariance_exact,
    parity_rule,
    sum_rule,
)
from nbtree.nb_operator import build_operator, walk_count
from nbtree.tree_core import build_ball, edge_between, path_vertices, vertices_at_distance


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _identical_sampler(seed, idx):
    z = rng.to_centered_uniform(rng.words(seed, idx))
    return z, z


def _independent_sampler(seed, idx):
    a = rng.to_rademacher(rng.words(seed + 1, idx))
    b = rng.to_rademacher(rng.words(seed + 2, idx * 2 + 1))
    return a, b


def test_mc_perfect_correlation():
    est = monte_carlo_corr(_identical_sampler, 10_000, 3)
    assert est.estimate >= 0.999
    assert est.ci_low <= est.estimate <= est.ci_high


def test_mc_independent_pairs_within_noise():
    fails = 0
    for s in range(20):
        est = monte_carlo_corr(_independent_sampler, 10_000, 900 + s)
        if abs(est.estimate) > 3 * est.stderr:
            fails += 1
    assert fails <= 1


def test_mc_matches_exact_oracle():
    # near-critical linear rule, d=3, r=6, k=3
    d, k = 3, 3
    rule = geometric_profile(d, 6)
    oracle = linear_rule_covariance_exact(d, rule.profile, k)
    ball = build_ball(d, 6 + (k + 1) // 2)
    u, v = vertices_at_distance(ball, k)
    sampler = vertex_linear_sampler(ball, rule, u, v)
    est = monte_carlo_corr(sampler, 10_000, 42)
    assert abs(est.estimate - oracle.corr) <= 3 * est.stderr


def test_mc_deterministic_across_thread_counts():
    r1 = monte_carlo_corr(_identical_sampler, 50_000, 11, threads=1)
    r4 = monte_carlo_corr(_identical_sampler, 50_000, 11, threads=4)
    assert r1 == r4


def test_mc_degenerate_variance_flag():
    def constant(seed, idx):
        return np.ones(len(idx)), rng.to_rademacher(rng.words(seed, idx))

    est = monte_carlo_corr(constant, 1000, 5)
    assert est.degenerate and est.estimate == 0.0


@pytest.mark.parametrize("n_samples", [20_000, 20_001])
@pytest.mark.parametrize("threads", [1, 2])
def test_linear_sampler_estimate_matches_words2_reference(n_samples, threads):
    # the label kernel must reproduce to_rademacher(words2(...)) @ vec exactly,
    # including a last chunk whose row count is not a multiple of 4
    ball = build_ball(3, 5)
    ids_a, ids_b = np.arange(0, 40), np.arange(20, 90)
    ca = 0.5 + rng.to_unit(rng.words(1, ids_a))
    cb = rng.to_unit(rng.words(2, ids_b)) - 0.25
    support = np.arange(0, 90)
    vec_a, vec_b = np.zeros(90), np.zeros(90)
    vec_a[ids_a], vec_b[ids_b] = ca, cb

    def reference(seed, idx):
        labels = rng.to_rademacher(rng.words2(seed, idx, support))
        return labels @ vec_a, labels @ vec_b

    sampler = linear_pair_sampler(ball, ids_a, ca, ids_b, cb)
    for idx in (np.arange(4096), np.arange(16_384, n_samples)):
        for x, ref in zip(sampler(77, idx), reference(77, idx)):
            assert x.tobytes() == ref.tobytes()
    got = monte_carlo_corr(sampler, n_samples, 77, threads=threads)
    assert got == monte_carlo_corr(reference, n_samples, 77, threads=threads)
    assert not got.degenerate and got.estimate > 0.1


def test_degenerate_estimate_fails_its_verdict():
    assert verify_bound(0.0, 0.5, 0.0).passed
    verdict = verify_bound(0.0, 0.5, 0.0, degenerate=True)
    assert not verdict.passed and verdict.label == "FAIL"


def test_mc_minimum_samples():
    with pytest.raises(ValueError):
        monte_carlo_corr(_identical_sampler, 99, 0)


def test_compensated_sum_matches_fsum():
    x = rng.to_centered_uniform(rng.words(8, np.arange(300_000)))
    assert compensated_sum(x) == pytest.approx(math.fsum(x.tolist()), abs=1e-9)


# ---------------------------------------------------------------------------
# exact enumeration engine
# ---------------------------------------------------------------------------


def test_exact_same_region_correlation_one():
    ball = build_ball(3, 2)
    res = exact_corr_discrete(ball, sum_rule(1), "alphabet:2", [0], [0])
    assert res.corr == pytest.approx(1.0, abs=1e-14)


def test_exact_disjoint_supports_correlation_zero():
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 4)  # > 2r for r=1
    res = exact_corr_discrete(ball, sum_rule(1), "alphabet:2", [u], [v])
    assert res.cov == pytest.approx(0.0, abs=1e-15)
    assert res.corr == 0.0
    assert res.n_configs == 2 ** 8  # two disjoint 4-vertex supports


def test_exact_sum_rule_matches_flat_linear_profile():
    # sum over the 1-ball is the linear rule with coefficients (1, 1);
    # at distance 3 the supports are disjoint and both routes give 0,
    # below the vertex bound 2/(2*sqrt(2))
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 3)
    res = exact_corr_discrete(ball, sum_rule(1), "rademacher", [u], [v])
    oracle = linear_rule_covariance_exact(3, (1.0, 1.0), 3)
    assert abs(res.corr - oracle.corr) <= 1e-12
    assert abs(res.corr) <= vertex_corr_bound(3, 3)
    assert vertex_corr_bound(3, 3) == pytest.approx(2 / (2 * math.sqrt(2)), rel=1e-12)


def test_exact_overlapping_supports_match_oracle():
    for k in (1, 2):
        ball = build_ball(3, 1 + (k + 1) // 2)
        u, v = vertices_at_distance(ball, k)
        res = exact_corr_discrete(ball, LinearRule(1, (1.0, 0.5)), "rademacher",
                                  [u], [v])
        oracle = linear_rule_covariance_exact(3, (1.0, 0.5), k)
        assert res.corr == pytest.approx(oracle.corr, rel=1e-12)
        assert res.cov == pytest.approx(oracle.cov, rel=1e-12)
        assert res.var1 == pytest.approx(oracle.var, rel=1e-12)


def test_exact_region_aggregators():
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 2)
    reg1 = [u] + [int(c) for c in ball.children(u)]
    res = exact_corr_discrete(ball, parity_rule(1), "alphabet:2",
                              reg1, [v], h1=h_sum, h2=h_parity)
    assert res.corr ** 2 <= 1 + 1e-12


def test_exact_enumeration_cap():
    # two radius-2 supports at distance 4 hold 19 vertices; 4^19 blows the cap
    ball = build_ball(3, 4)
    u, v = vertices_at_distance(ball, 4)
    with pytest.raises(CapExceededError):
        exact_corr_discrete(ball, sum_rule(2), "alphabet:4", [u], [v], h_sum, h_sum)


def test_exact_rejects_continuous_domain():
    ball = build_ball(3, 2)
    with pytest.raises(ValueError):
        exact_corr_discrete(ball, sum_rule(1), "uniform", [0], [0])


def test_exact_edge_corr_bounds():
    ball = build_ball(3, 4)
    a, b = vertices_at_distance(ball, 3)
    p = path_vertices(ball, a, b)
    e1 = edge_between(ball, p[0], p[1])
    e2 = edge_between(ball, p[2], p[3])
    res = exact_edge_corr(ball, edge_sum_rule(1), "alphabet:2", e1, e2)
    assert res.corr ** 2 <= 1 + 1e-12


# ---------------------------------------------------------------------------
# polarization identity
# ---------------------------------------------------------------------------


def test_polarization_equal_functions_zero_residual():
    joint = random_exchangeable_joint(4, 1)
    f = np.array([0.3, -1.0, 2.0, 0.7])
    res = polarization_check(joint, f, f)
    assert res.residual == 0.0
    assert res.swap_residual == 0.0


def test_polarization_independent_pair():
    marg = np.array([0.25, 0.75])
    joint = np.outer(marg, marg)
    res = polarization_check(joint, np.array([1.0, -1.0]), np.array([0.5, 2.0]))
    assert res.residual == 0.0
    assert res.cross_covariance == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5))
def test_polarization_random_tables(seed, n):
    joint = random_exchangeable_joint(n, seed)
    f1 = rng.to_unit(rng.words(seed + 1, np.arange(n))) * 2 - 1
    f2 = rng.to_unit(rng.words(seed + 2, np.arange(n))) * 2 - 1
    res = polarization_check(joint, f1, f2)
    assert res.residual <= 1e-12
    assert res.swap_residual <= 1e-12


def test_polarization_rejects_asymmetric_joint():
    joint = np.array([[0.5, 0.3], [0.1, 0.1]])
    with pytest.raises(NonExchangeableError):
        polarization_check(joint, np.array([1.0, 0.0]), np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# exchangeable-pair bound transfer
# ---------------------------------------------------------------------------


def test_transfer_alpha_one_always_true():
    joint = random_exchangeable_joint(3, 9)
    for s in range(10):
        f1 = rng.to_unit(rng.words(s, np.arange(3))) * 2 - 1
        f2 = rng.to_unit(rng.words(s + 50, np.arange(3))) * 2 - 1
        assert lemma_consequence_check(joint, f1, f2, 1.0)


def test_transfer_identical_functions_reduce_to_hypothesis():
    joint = random_exchangeable_joint(3, 12)
    f = np.array([1.0, -0.5, 0.25])
    res = polarization_check(joint, f, f)
    p = np.asarray(joint)
    marg = p.sum(axis=1)
    var = float(marg @ (f * f) - (marg @ f) ** 2)
    alpha = abs(res.cross_covariance) / var
    assert lemma_consequence_check(joint, f, f, alpha * (1 + 1e-12))


def test_transfer_degenerate_variance_true():
    joint = random_exchangeable_joint(3, 13)
    assert lemma_consequence_check(joint, np.zeros(3), np.array([1.0, 2.0, 3.0]), 0.0)


def test_transfer_joint_summing_to_one_only_within_rounding():
    # the float entries of this joint do not sum to exactly 1, so the exact
    # variance of a constant table is zero only after renormalisation
    joint = random_exchangeable_joint(3, 6009)
    assert sum(Fraction(float(x)) for x in joint.ravel()) != 1
    assert isinstance(lemma_consequence_check(joint, [1, 1, 1], [1, 0, -1], 0.5), bool)


def _float_transfer_decision(joint, f1, f2, alpha):
    """Reference implementation of the transfer check in plain floats.

    Normalizes to unit variances explicitly and applies the definitionally
    stated hypothesis/conclusion; returns None when any comparison sits
    too close to a tie for float arithmetic to decide.
    """
    p = np.asarray(joint, dtype=np.float64)
    m1 = p.sum(axis=1)
    m2 = p.sum(axis=0)
    f1 = np.asarray(f1, dtype=np.float64)
    f2 = np.asarray(f2, dtype=np.float64)

    def var(marg, f):
        return float(marg @ (f * f) - (marg @ f) ** 2)

    v1, v2 = var(m1, f1), var(m2, f2)
    if v1 <= 0 or v2 <= 0:
        return True
    n1 = f1 / math.sqrt(v1)
    n2 = f2 / math.sqrt(v2)

    def corr_pair(g):
        e_gg = float(g @ p @ g)
        e1 = float(m1 @ g)
        e2 = float(m2 @ g)
        c = e_gg - e1 * e2
        vg1, vg2 = var(m1, g), var(m2, g)
        if vg1 <= 1e-15 or vg2 <= 1e-15:
            return 0.0
        return c / math.sqrt(vg1 * vg2)

    margins = []
    hyp = True
    for g in (n1 + n2, n1 - n2):
        c = corr_pair(g)
        margins.append(abs(abs(c) - alpha))
        hyp &= abs(c) <= alpha
    c12 = float(f1 @ p @ f2) - float(m1 @ f1) * float(m2 @ f2)
    concl = abs(c12 / math.sqrt(v1 * v2)) <= alpha
    margins.append(abs(abs(c12 / math.sqrt(v1 * v2)) - alpha))
    if min(margins) < 1e-9:
        return None
    return (not hyp) or concl


def test_transfer_matches_float_reference():
    checked = 0
    for i in range(300):
        n = 2 + i % 4
        joint = random_exchangeable_joint(n, 40_000 + i)
        f1 = rng.to_unit(rng.words(41_000 + i, np.arange(n))) * 2 - 1
        f2 = rng.to_unit(rng.words(42_000 + i, np.arange(n))) * 2 - 1
        alpha = 0.05 + 0.9 * float(rng.to_unit(rng.words(43_000 + i, np.arange(1)))[0])
        expected = _float_transfer_decision(joint, f1, f2, alpha)
        if expected is None:
            continue
        checked += 1
        assert lemma_consequence_check(joint, f1, f2, alpha) == expected
    assert checked >= 250  # ties should be rare


def test_transfer_small_exhaustive_scan():
    joint = random_exchangeable_joint(3, 77)
    tables = [np.array([a, b, c]) for a in (-1.0, 0.0, 1.0)
              for b in (-1.0, 0.0, 1.0) for c in (-1.0, 0.0, 1.0)]
    alpha = 0.0
    p = np.asarray(joint)
    marg = p.sum(axis=1)
    for f in tables:
        var = float(marg @ (f * f) - (marg @ f) ** 2)
        if var > 0:
            alpha = max(alpha, abs(polarization_check(joint, f, f).cross_covariance) / var)
    alpha *= 1 + 1e-12
    for f1 in tables[::3]:
        for f2 in tables[::3]:
            assert lemma_consequence_check(joint, f1, f2, alpha)


# ---------------------------------------------------------------------------
# edge homogeneity
# ---------------------------------------------------------------------------


def test_homogeneity_at_zero_steps():
    ball = build_ball(3, 3)
    res = edge_homogeneity_check(ball, edge_sum_rule(1), 0, "alphabet:2")
    assert res.max_deviation == 0.0
    assert res.pairs_per_source == 1


def test_homogeneity_d3_depth1_k2():
    ball = build_ball(3, 5)
    res = edge_homogeneity_check(ball, edge_sum_rule(1), 2, "alphabet:2")
    assert res.max_deviation <= 1e-12
    assert res.pairs_per_source == 4
    assert res.source_counts_ok
    # cross-module: the per-source pair count is the walk count
    op = build_operator(ball)
    interior_source = next(
        e for e in range(ball.n_edges)
        if ball.edge_height(e) <= 2 and not ball.is_away(e)
    )
    assert walk_count(op, interior_source, 2) == res.pairs_per_source


def test_homogeneity_requires_symmetric_rule():
    ball = build_ball(3, 4)
    with pytest.raises(ValueError):
        edge_homogeneity_check(ball, edge_first_child_rule(), 1, "alphabet:2")


# ---------------------------------------------------------------------------
# symmetrization moment checks
# ---------------------------------------------------------------------------


def test_symmetrization_preserves_mean_and_cross_moment():
    ball = build_ball(3, 4)
    chk = symmetrization_moment_check(ball, 1, 3, edge_first_child_rule(),
                                      "alphabet:2", parity_rule(1))
    assert chk.mean_residual_1 <= 1e-12
    assert chk.mean_residual_2 <= 1e-12
    assert chk.cross_moment_residual <= 1e-12
    assert chk.second_moment_gap_1 >= -1e-12
    assert chk.variance_gap_1 >= -1e-12


def test_symmetrization_strictly_contracts_asymmetric_rule():
    ball = build_ball(3, 4)
    chk = symmetrization_moment_check(ball, 1, 3, edge_first_child_rule(),
                                      "alphabet:2", None)
    assert chk.second_moment_gap_1 > 1e-6  # strictly smaller second moment


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------


def test_verify_bound_pass_with_margin():
    v = verify_bound(0.5, 2.0)
    assert v.passed and v.margin == pytest.approx(1.5)


def test_verify_bound_strict_failure_without_slack():
    v = verify_bound(0.7072, 0.7071, stderr=0.0)
    assert not v.passed


def test_verify_bound_sigma_slack():
    v = verify_bound(0.30, 0.2963, stderr=0.01)
    assert v.passed


def test_verify_bound_rejects_negative_bound():
    with pytest.raises(ValueError):
        verify_bound(0.1, -1.0)
