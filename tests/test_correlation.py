"""Monte Carlo estimation, the exact enumeration engine, and identity checks."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nbtree import rng
from nbtree._exact import root_abs_leq, root_sign
from nbtree.bounds import vertex_corr_bound
from nbtree.correlation import (
    ENUMERATION_CAP,
    TABLE_CAP,
    PolarizationResult,
    Site,
    SymmetrizationCheck,
    _site_values,
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
    rule_site,
    symmetrization_moment_check,
    verify_bound,
)
from nbtree.acceptance import SYMMETRIZATION_PAIRS, edge_pair
from nbtree.errors import CapExceededError, NonExchangeableError
from nbtree.factor_engine import (
    LinearRule,
    domain_values,
    edge_first_child_rule,
    edge_sum_rule,
    edge_table_rule,
    geometric_profile,
    linear_rule_covariance_exact,
    parity_rule,
    subtree_levels,
    sum_rule,
    symmetrize_rule,
    table_block_rule,
    vertex_ball_levels,
)
from nbtree.nb_operator import walk_count
from nbtree.tree_core import build_ball, cone, edge_between, path_vertices, vertices_at_distance


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _identical_sampler(seed, idx):
    z = rng.to_unit(rng.words(seed, idx)) - 0.5
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
    sampler = linear_pair_sampler(vertex_ball_levels(ball, u, 6), vertex_ball_levels(ball, v, 6),
                                  rule.profile)
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
    # including a last chunk whose row count is not a multiple of 4; two
    # overlapping radius-3 views at d=4 span 89 support columns
    ball = build_ball(4, 4)
    u, v = vertices_at_distance(ball, 2)
    levels_a, levels_b = vertex_ball_levels(ball, u, 3), vertex_ball_levels(ball, v, 3)
    weights = rng.to_unit(rng.words(1, np.arange(4))) - 0.25
    support = np.unique(np.concatenate(levels_a + levels_b))
    vec_a, vec_b = np.zeros(len(support)), np.zeros(len(support))
    for vec, levels in ((vec_a, levels_a), (vec_b, levels_b)):
        for lv, w in zip(levels, weights):
            vec[np.searchsorted(support, lv)] = w

    def reference(seed, idx):
        labels = rng.to_rademacher(rng.words2(seed, idx, support))
        return labels @ vec_a, labels @ vec_b

    sampler = linear_pair_sampler(levels_a, levels_b, weights)
    for idx in (np.arange(4096), np.arange(16_384, n_samples)):
        for x, ref in zip(sampler(77, idx), reference(77, idx)):
            assert x.tobytes() == ref.tobytes()
    got = monte_carlo_corr(sampler, n_samples, 77, threads=threads)
    assert got == monte_carlo_corr(reference, n_samples, 77, threads=threads)
    assert not got.degenerate and got.estimate > 0.1


def _coefficient_sampler(levels_a, levels_b, weights):
    """The former sampler chain: per-vertex (id, coefficient) lists for each
    view, scattered into the union support one coefficient at a time."""
    def site_coefficients(levels):
        ids = np.concatenate(levels)
        coeff = np.concatenate([np.full(len(lv), float(w)) for lv, w in zip(levels, weights)])
        return ids, coeff

    ids_a, coeff_a = site_coefficients(levels_a)
    ids_b, coeff_b = site_coefficients(levels_b)
    support = np.unique(np.concatenate([ids_a, ids_b]))
    vec_a = np.zeros(len(support))
    vec_b = np.zeros(len(support))
    pos = {int(v): i for i, v in enumerate(support)}
    for v, c in zip(ids_a.tolist(), coeff_a.tolist()):
        vec_a[pos[v]] += c
    for v, c in zip(ids_b.tolist(), coeff_b.tolist()):
        vec_b[pos[v]] += c

    def sampler(seed, idx):
        labels = rng.rademacher2(seed, idx, support)
        return labels @ vec_a, labels @ vec_b

    return sampler


def _pair_views(shape, d, r, k, facing):
    """Two radius-r vertex views k apart, or two depth-r subtree views behind
    edges at edge distance k, on the balls the Monte Carlo rows use."""
    if shape == "vertex":
        ball = build_ball(d, (k + 1) // 2 + r)
        u, v = vertices_at_distance(ball, k)
        return vertex_ball_levels(ball, u, r), vertex_ball_levels(ball, v, r)
    ball = build_ball(d, (k + 2) // 2 + r + 1)
    e1, e2_same, e2_facing = edge_pair(ball, k)
    e2 = e2_facing if facing else e2_same
    return subtree_levels(ball, e1, r), subtree_levels(ball, e2, r)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["vertex", "edge"]), st.sampled_from([3, 4]), st.integers(0, 3),
       st.integers(0, 5), st.booleans(),
       st.one_of(st.none(), st.floats(-2.0, 2.0, allow_nan=False)),
       st.sampled_from([0, 1, 2 ** 63, -977]), st.integers(0, 10 ** 6), st.integers(1, 600))
@example("vertex", 3, 2, 0, False, None, 0, 0, 4096)  # k = 0: one support for both
@example("edge", 4, 3, 0, True, None, 7, 0, 300)      # the two sides of one edge
@example("vertex", 4, 3, 2, False, -0.0, 2 ** 63, 16_384, 600)
def test_level_sampler_is_the_coefficient_sampler(shape, d, r, k, facing, rate, seed, lo, n):
    levels_a, levels_b = _pair_views(shape, d, r, k, facing)
    weights = geometric_profile(d, r, rate).profile
    idx = np.arange(lo, lo + n, dtype=np.int64)
    got = linear_pair_sampler(levels_a, levels_b, weights)(seed, idx)
    want = _coefficient_sampler(levels_a, levels_b, weights)(seed, idx)
    for x, y in zip(got, want):
        assert np.array_equal(x, y) and x.tobytes() == y.tobytes()


def test_degenerate_estimate_fails_its_verdict():
    assert verify_bound(0.0, 0.5, 0.0).passed
    verdict = verify_bound(0.0, 0.5, 0.0, degenerate=True)
    assert not verdict.passed and verdict.label == "FAIL"


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("scale", [math.nan, math.inf, 1e200, 1e152, 1e100])
def test_mc_non_finite_moments_raise(scale, threads):
    # nan and inf samples, squares that overflow in a chunk (1e200), chunk
    # moments whose total overflows (1e152), and variances whose product
    # overflows (1e100) must not turn into an estimate
    def sampler(seed, idx):
        z = rng.to_rademacher(rng.words(seed, idx))
        return z * scale, z * scale

    with pytest.raises(ValueError, match="not finite"):
        monte_carlo_corr(sampler, 100_000, 3, threads=threads)


def test_mc_minimum_samples():
    with pytest.raises(ValueError):
        monte_carlo_corr(_identical_sampler, 99, 0)


def test_compensated_sum_matches_fsum():
    x = rng.to_unit(rng.words(8, np.arange(300_000))) - 0.5
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
    # the exact route enumerates labels, so it knows no continuous domain
    ball = build_ball(3, 2)
    for domain in ("uniform", "centered_uniform"):
        with pytest.raises(ValueError, match=f"unknown label domain '{domain}'"):
            exact_corr_discrete(ball, sum_rule(1), domain, [0], [0])
    with pytest.raises(ValueError, match="alphabet domain needs alphabet_size >= 2"):
        exact_corr_discrete(ball, sum_rule(1), "alphabet:1", [0], [0])


def test_exact_edge_corr_bounds():
    ball = build_ball(3, 4)
    a, b = vertices_at_distance(ball, 3)
    p = path_vertices(ball, a, b)
    e1 = edge_between(ball, p[0], p[1])
    e2 = edge_between(ball, p[2], p[3])
    res = exact_edge_corr(ball, edge_sum_rule(1), "alphabet:2", e1, e2)
    assert res.corr ** 2 <= 1 + 1e-12


def test_table_rules_reject_labels_outside_their_alphabet():
    # read as base-A digits, -1 would wrap the table index, and the keys
    # (-1, 1) and (0, -1) would collide
    with pytest.raises(ValueError, match=r"table rule reads labels in 0\.\.1 only"):
        exact_edge_corr(build_ball(3, 4), edge_table_rule(1, 2, 0), "rademacher", 1, 3)
    with pytest.raises(ValueError, match=r"table rule reads labels in 0\.\.1 only"):
        exact_corr_discrete(build_ball(3, 2), table_block_rule(1, 3, 2, 0), "alphabet:3",
                            [0], [1])


# ---------------------------------------------------------------------------
# site tables against the odometer reference
# ---------------------------------------------------------------------------


def _odometer_site_values(domain, sites):
    """Reference: each configuration's index into every site table by digit arithmetic."""
    values = domain_values(domain)
    a_size = len(values)
    support = np.unique(np.concatenate([s.local_ids for s in sites]))
    n_cfg = a_size ** len(support)
    pos_of = {int(v): p for p, v in enumerate(support)}
    cfg = np.arange(n_cfg, dtype=np.int64)
    out = np.empty((len(sites), n_cfg), dtype=np.float64)
    for row, site in enumerate(sites):
        loc = len(site.local_ids)
        n_local = a_size ** loc
        local_cfg = np.arange(n_local, dtype=np.int64)
        digits = (local_cfg[:, None] // a_size ** np.arange(loc, dtype=np.int64)[None, :]) % a_size
        labels = values[digits]
        table = np.concatenate([site.func(labels[i:i + 1]) for i in range(n_local)])
        local_idx = np.zeros(n_cfg, dtype=np.int64)
        for j, v in enumerate(site.local_ids.tolist()):
            local_idx += ((cfg // a_size ** pos_of[int(v)]) % a_size) * a_size ** j
        out[row] = table[local_idx]
    return out, n_cfg


def _order_sensitive_site(ids, salt):
    # a distinct weight per local position, so permuting the ids changes the table
    w = 1.0 + rng.to_unit(rng.words(salt, np.arange(len(ids))))
    return Site(np.asarray(ids, dtype=np.int64),
                lambda x: sum(x[:, j] * w[j] for j in range(len(w))) + x[:, 0] * x[:, -1])


def _assert_matches_odometer(domain, sites):
    calls = []
    counted = [Site(s.local_ids, lambda x, i=i, f=s.func: calls.append(i) or f(x))
               for i, s in enumerate(sites)]
    got, n_cfg = _site_values(None, domain, counted)
    assert calls == list(range(len(sites)))  # each table is one call of its site's func
    ref, ref_n = _odometer_site_values(domain, sites)
    assert n_cfg == ref_n
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("domain", ["alphabet:2", "alphabet:3", "rademacher"])
def test_site_values_match_odometer_on_interleaved_unsorted_sites(domain):
    sites = [_order_sensitive_site([5, 1, 7], 1), _order_sensitive_site([6, 2, 5, 0], 2),
             _order_sensitive_site([3], 3), _order_sensitive_site([7, 0, 6], 4)]
    _assert_matches_odometer(domain, sites)


@pytest.mark.parametrize("domain", ["alphabet:2", "alphabet:3"])
def test_site_values_match_odometer_on_a_single_vertex_support(domain):
    _assert_matches_odometer(domain, [_order_sensitive_site([4], 5),
                                      _order_sensitive_site([4], 6)])


def test_site_values_match_odometer_on_rule_sites():
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 2)
    sites = [rule_site(ball, LinearRule(1, (1.0, 0.5)), u), rule_site(ball, parity_rule(1), v)]
    _assert_matches_odometer("alphabet:3", sites)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_site_values_match_odometer_on_random_sites(data):
    domain = data.draw(st.sampled_from(["alphabet:2", "alphabet:3"]))
    pool = 12 if domain == "alphabet:2" else 8
    n_sites = data.draw(st.integers(1, 4))
    sites = [_order_sensitive_site(
        data.draw(st.lists(st.integers(0, pool - 1), min_size=1, max_size=5, unique=True)), salt)
        for salt in range(n_sites)]
    _assert_matches_odometer(domain, sites)


def test_site_values_caps_raise_before_any_table_is_built():
    calls = []

    def counted(x):
        calls.append(1)
        return np.zeros(len(x))

    # 2^23 configurations over 23 vertices, with no site table over the cap
    wide = [Site(np.arange(0, 12), counted), Site(np.arange(11, 23), counted)]
    assert 2 ** 23 > ENUMERATION_CAP and 2 ** 12 <= TABLE_CAP
    with pytest.raises(CapExceededError, match="enumeration cap"):
        _site_values(None, "alphabet:2", wide)
    # one table of 2^19 entries, within the enumeration cap
    deep = [Site(np.arange(0, 3), counted), Site(np.arange(0, 19), counted)]
    assert 2 ** 19 > TABLE_CAP and 2 ** 19 <= ENUMERATION_CAP
    with pytest.raises(CapExceededError, match="site table"):
        _site_values(None, "alphabet:2", deep)
    assert not calls


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
# integer identity checks against the Fraction reference
# ---------------------------------------------------------------------------


def _fraction_matrix(joint):
    arr = np.asarray(joint, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("joint must be a square matrix")
    if np.any(arr < 0):
        raise ValueError("joint probabilities must be non-negative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("joint probabilities must sum to 1")
    if not np.array_equal(arr, arr.T):
        raise NonExchangeableError("joint distribution is not swap-symmetric")
    return [[Fraction(float(x)) for x in row] for row in arr]


def _fraction_cov(p, f, g):
    n = len(p)
    e_fg = sum(p[i][j] * f[i] * g[j] for i in range(n) for j in range(n))
    e_f = sum(f[i] * sum(p[i]) for i in range(n))
    e_g = sum(g[j] * sum(p[i][j] for i in range(n)) for j in range(n))
    return e_fg - e_f * e_g


def _fraction_var(p, f, first):
    n = len(p)
    marg = [sum(p[i]) for i in range(n)] if first else \
           [sum(p[i][j] for i in range(n)) for j in range(n)]
    e_f = sum(m * x for m, x in zip(marg, f))
    e_ff = sum(m * x * x for m, x in zip(marg, f))
    return e_ff - e_f * e_f


def _fraction_cov_same(p, f, g):
    marg = [sum(row) for row in p]
    e_fg = sum(m * a * b for m, a, b in zip(marg, f, g))
    return e_fg - sum(m * a for m, a in zip(marg, f)) * sum(m * b for m, b in zip(marg, g))


def _fraction_polarization(joint, f1, f2):
    """Reference: the polarization check in Fraction arithmetic."""
    p = _fraction_matrix(joint)
    f1 = [Fraction(float(x)) for x in np.asarray(f1, dtype=np.float64)]
    f2 = [Fraction(float(x)) for x in np.asarray(f2, dtype=np.float64)]
    s = [a + b for a, b in zip(f1, f2)]
    diff = [a - b for a, b in zip(f1, f2)]
    lhs = _fraction_cov(p, f1, f2)
    rhs = (_fraction_cov(p, s, s) - _fraction_cov(p, diff, diff)) / 4
    swapped = _fraction_cov(p, f2, f1)
    return PolarizationResult(residual=abs(float(lhs - rhs)),
                              swap_residual=abs(float(lhs - swapped)),
                              cross_covariance=float(lhs))


def _fraction_transfer(joint, f1, f2, alpha, hits):
    """Reference: the bound transfer in Fraction arithmetic; adds the branches taken to hits."""
    p = _fraction_matrix(joint)
    total = sum(sum(row) for row in p)
    p = [[x / total for x in row] for row in p]
    f1 = [Fraction(float(x)) for x in np.asarray(f1, dtype=np.float64)]
    f2 = [Fraction(float(x)) for x in np.asarray(f2, dtype=np.float64)]
    alpha_f = Fraction(float(alpha))
    var1 = _fraction_var(p, f1, True)
    var2 = _fraction_var(p, f2, False)
    if var1 == 0 or var2 == 0:
        hits.add("zero variance")
        return True
    c11, c22 = _fraction_cov(p, f1, f1), _fraction_cov(p, f2, f2)
    c12, c21 = _fraction_cov(p, f1, f2), _fraction_cov(p, f2, f1)
    w12 = _fraction_cov_same(p, f1, f2)
    m = var1 * var2

    def piece_ok(sign):
        cov_a, cov_b = var2 * c11 + var1 * c22, sign * (c12 + c21)
        var_a, var_b = 2 * m, sign * 2 * w12
        if root_sign(var_a, var_b, m) == 0:
            hits.add("degenerate")
            return True
        return root_abs_leq(cov_a, cov_b, alpha_f * var_a, alpha_f * var_b, m)

    hypothesis = piece_ok(+1) and piece_ok(-1)
    conclusion = c12 * c12 <= alpha_f * alpha_f * m
    hits.add("conclusion true" if conclusion else "conclusion false")
    if not hypothesis:
        hits.add("hypothesis fails")
        return True
    return conclusion


_ENTRY = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0 ** 10]),
    st.integers(-2, 2).map(float),
    st.tuples(st.booleans(), st.floats(min_value=5e-324, max_value=2.0 ** 10))
    .map(lambda t: -t[1] if t[0] else t[1]))


def _dyadic_weights(draw, n, zero):
    """Integer weights with the zero indices' rows empty, summing to a power of two."""
    live = [i for i in range(n) if i not in zero]
    w = [[0] * n for _ in range(n)]
    for i in live:
        for j in live:
            if j >= i:
                w[i][j] = w[j][i] = draw(st.integers(0, 1 << 20))
    total = sum(map(sum, w))
    scale = 1 << total.bit_length()
    w[live[0]][live[0]] += scale - total
    return w, scale


@st.composite
def _exchangeable_cases(draw):
    """(joint, f1, f2): dyadic, independent and non-dyadic-total joints,
    zero rows, subnormal entries, constant and proportional tables."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["dyadic", "independent", "random"]))
    zero = set(draw(st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True)))
    if kind == "random":
        joint = random_exchangeable_joint(n, draw(st.integers(0, 2 ** 32)))
    elif kind == "independent":
        marg_w, scale = _dyadic_weights(draw, n, zero)
        marg = np.array([sum(row) for row in marg_w], dtype=np.float64) / scale
        joint = np.outer(marg, marg)
    else:
        w, scale = _dyadic_weights(draw, n, zero)
        joint = np.array(w, dtype=np.float64) / scale
        empty = [(i, j) for i in range(n) for j in range(i, n)
                 if w[i][j] == 0 and i not in zero and j not in zero]
        if empty and draw(st.booleans()):
            i, j = draw(st.sampled_from(empty))
            joint[i, j] = joint[j, i] = 5e-324
    table = st.one_of(st.lists(_ENTRY, min_size=n, max_size=n), _ENTRY.map(lambda c: [c] * n))
    f1 = draw(table)
    f2 = draw(st.one_of(table, st.sampled_from([1.0, -1.0, 2.0]).map(
        lambda c: [c * x for x in f1])))
    return joint, f1, f2


def _near_tie_alpha(joint, f1, f2, target, ulps):
    """A float |correlation| moved by a few ulps: of the conclusion's pair or of
    the sum or difference piece of the hypothesis; 0.5 where floats fail."""
    p = np.asarray(joint)
    f1, f2 = np.asarray(f1), np.asarray(f2)
    marg = p.sum(axis=1)

    def cov(f, g):
        return f @ p @ g - (marg @ f) * (marg @ g)

    def var(f):
        return marg @ (f * f) - (marg @ f) ** 2

    with np.errstate(all="ignore"):
        v1, v2 = var(f1), var(f2)
        g = f1 / np.sqrt(v1) + (1 if target == "sum" else -1) * f2 / np.sqrt(v2)
        rho = abs(cov(f1, f2)) / np.sqrt(v1 * v2) if target == "conclusion" else abs(cov(g, g)) / var(g)
    if not math.isfinite(rho):
        return 0.5
    for _ in range(abs(ulps)):
        rho = math.nextafter(rho, math.copysign(math.inf, ulps))
    return float(rho)


_SCAN_JOINT = random_exchangeable_joint(3, 12)


@settings(max_examples=300, deadline=None)
@given(_exchangeable_cases())
@example((np.array([[1.0]]), [0.0], [-0.0]))
@example((np.array([[0.25, 0.25], [0.25, 0.25]]), [5e-324, 2.0 ** 10], [-5e-324, 1.0]))
def test_polarization_matches_fraction_reference(case):
    got = polarization_check(*case)
    want = _fraction_polarization(*case)
    for field in ("residual", "swap_residual", "cross_covariance"):
        assert repr(getattr(got, field)) == repr(getattr(want, field))


def test_transfer_matches_fraction_reference():
    hits = set()

    @settings(max_examples=400, deadline=None)
    @given(_exchangeable_cases(), st.one_of(
        st.sampled_from([0.0, 1.0, -0.5]), st.floats(0.0, 1.5),
        st.tuples(st.sampled_from(["conclusion", "sum", "difference"]), st.integers(-2, 2))))
    @example((_SCAN_JOINT, [1.0, -0.5, 0.25], [1.0, -0.5, 0.25]), 1.0)   # degenerate piece
    @example((_SCAN_JOINT, [1.0, -0.5, 0.25], [1.0, -0.5, 0.25]), 0.0)   # hypothesis fails
    @example((_SCAN_JOINT, [1.0, 1.0, 1.0], [1.0, 0.0, -1.0]), 0.5)      # constant table
    # the hypothesis fails here, but would hold with the difference piece's radical sign flipped
    @example((np.array([[0.578125, 0.0, 0.03125], [0.0, 0.0625, 0.125],
                        [0.03125, 0.125, 0.046875]]), [1.0, 1.0, -1.0], [-1.0, 2.0, -2.0]), 0.375)
    def check(case, alpha):
        if isinstance(alpha, tuple):
            alpha = _near_tie_alpha(*case, *alpha)
        assert lemma_consequence_check(*case, alpha) == _fraction_transfer(*case, alpha, hits)

    check()
    # the lemma makes a False return unreachable: a false conclusion is met
    # only where the hypothesis fails, which must then return True
    assert {"zero variance", "degenerate", "hypothesis fails", "conclusion false"} <= hits


@pytest.mark.parametrize("check", [
    polarization_check, lambda j, f1, f2: lemma_consequence_check(j, f1, f2, 0.5)],
    ids=["polarization", "transfer"])
@pytest.mark.parametrize("joint,f1,f2,name", [
    ([[0.5, math.nan], [math.nan, 0.5]], [1.0, 0.0], [0.0, 1.0], "joint"),
    ([[0.5, 0.0], [0.0, 0.5]], [math.inf, 0.0], [0.0, 1.0], "f1"),
    ([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0], [0.0, -math.inf], "f2"),
    ([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0], [math.nan, 1.0], "f2"),
], ids=["nan-joint", "inf-f1", "inf-f2", "nan-f2"])
def test_non_finite_inputs_are_value_errors(check, joint, f1, f2, name):
    # a NaN joint used to pass as "not swap-symmetric", an infinity as OverflowError
    with pytest.raises(ValueError, match=f"{name} has a non-finite entry") as info:
        check(np.array(joint), f1, f2)
    assert info.type is ValueError


@pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
def test_non_finite_alpha_is_a_value_error(alpha):
    joint = random_exchangeable_joint(3, 9)
    with pytest.raises(ValueError, match="alpha must be finite") as info:
        lemma_consequence_check(joint, [1.0, 0.0, -1.0], [0.5, 1.0, 0.0], alpha)
    assert info.type is ValueError


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
    interior_source = next(
        e for e in range(ball.n_edges)
        if ball.edge_height(e) <= 2 and not ball.is_away(e)
    )
    assert walk_count(ball, interior_source, 2) == res.pairs_per_source


@pytest.mark.parametrize("d,radius,k,depth", [
    (3, 5, 2, 1),  # the report's edge-homogeneity criterion
    (3, 4, 0, 1), (3, 4, 1, 1), (3, 6, 3, 1), (4, 4, 1, 1)])
def test_homogeneity_sources_are_the_full_cones(d, radius, k, depth):
    ball = build_ball(d, radius)
    res = edge_homogeneity_check(ball, edge_sum_rule(depth), k, "alphabet:2")

    def subtree_ok(e):
        return int(ball.depth[ball.edge_tail(e)]) + depth <= ball.radius

    full = (d - 1) ** k
    sources = [e for e in range(ball.n_edges)
               if subtree_ok(e) and cone(ball, e, k).size == full
               and all(subtree_ok(int(x)) for x in cone(ball, e, k))]
    assert res.n_sources == len(sources) > 0
    assert res.n_pairs == full * len(sources)
    assert res.source_counts_ok and res.max_deviation <= 1e-12


def test_homogeneity_fails_when_a_source_cone_loses_an_edge(monkeypatch):
    import nbtree.correlation as correlation

    ball = build_ball(3, 5)
    honest = correlation.cone
    victim = 2 * (int(ball.level_start[2]) - 1) + 1  # toward edge at height 2

    def lossy(ball_, e, k, backward=False):
        out = honest(ball_, e, k, backward)
        return out[:-1] if int(e) == victim else out

    assert edge_homogeneity_check(ball, edge_sum_rule(1), 2, "rademacher").source_counts_ok
    monkeypatch.setattr(correlation, "cone", lossy)
    res = edge_homogeneity_check(ball, edge_sum_rule(1), 2, "rademacher")
    # centred labels make every moment 0, so only the target count can fail
    assert res.common_value == 0.0 and res.max_deviation == 0.0
    assert not res.source_counts_ok
    assert not edge_homogeneity_check(ball, edge_sum_rule(1), 2, "alphabet:2").source_counts_ok


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


def _composite_edge_site(ball, e, view_rule, process_rule):
    """Reference: one nested site for view_rule on the process values of the
    subtree view behind e, re-running every process rule per local labeling;
    with no process rule, the view rule's own site on the raw labels."""
    if process_rule is None:
        return rule_site(ball, view_rule, e)
    view_ids = np.concatenate(subtree_levels(ball, e, view_rule.depth))
    g_sites = [rule_site(ball, process_rule, w) for w in view_ids.tolist()]
    local_ids = np.unique(np.concatenate([s.local_ids for s in g_sites]))
    g_cols = [(s.func, np.searchsorted(local_ids, s.local_ids)) for s in g_sites]

    def func(x):
        return view_rule.func(np.column_stack([g(x[:, cols]) for g, cols in g_cols]))

    return Site(local_ids, func)


def _composite_symmetrization_check(ball, e1, e2, view_rule, domain, process_rule):
    """Reference: the moment check on four composite sites (f and its orbit
    average at e1 and e2), each enumerated as its own site table."""
    f_bar = symmetrize_rule(view_rule, ball.d)
    sites = [_composite_edge_site(ball, e, rule, process_rule)
             for rule in (view_rule, f_bar) for e in (e1, e2)]
    (f1, f2, b1, b2), n_cfg = _site_values(ball, domain, sites)

    def mean(x):
        return compensated_sum(x) / float(n_cfg)

    e_f1, e_f2, e_b1, e_b2 = mean(f1), mean(f2), mean(b1), mean(b2)
    e_f1sq, e_b1sq = mean(f1 * f1), mean(b1 * b1)
    return SymmetrizationCheck(
        mean_residual_1=abs(e_b1 - e_f1),
        mean_residual_2=abs(e_b2 - e_f2),
        second_moment_gap_1=e_f1sq - e_b1sq,
        second_moment_gap_2=mean(f2 * f2) - mean(b2 * b2),
        cross_moment_residual=abs(mean(b1 * b2) - mean(f1 * f2)),
        variance_gap_1=(e_f1sq - e_f1 ** 2) - (e_b1sq - e_b1 ** 2),
    )


#: (d, process, domain, A): block factors of binary labels, read through
#: composite sites, and the raw labels, which the reference reads directly.
#: A table view rule reads process values in 0..A-1 only, so it is drawn
#: only where A is set: parity values and raw alphabet labels
_ORACLE_CASES = [(3, "parity:r1", "alphabet:2", 2), (3, "sum:r1", "alphabet:2", None)] + [
    (d, "raw", domain, None if domain == "rademacher" else int(domain.split(":")[1]))
    for d in (3, 4) for domain in ("alphabet:2", "alphabet:3", "rademacher")]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(_ORACLE_CASES), st.sampled_from(sorted(SYMMETRIZATION_PAIRS)),
       st.one_of(st.none(), st.integers(0, 2 ** 20)))
@example((3, "parity:r1", "alphabet:2", 2), 1, None)
@example((3, "parity:r1", "alphabet:2", 2), 2, None)
@example((3, "raw", "rademacher", None), 2, None)
@example((4, "raw", "alphabet:3", 3), 1, 12345)
def test_symmetrization_check_matches_the_composite_site_reference(case, k, table_seed):
    d, process, domain, alphabet = case
    view = (edge_first_child_rule() if table_seed is None or alphabet is None
            else edge_table_rule(1, alphabet, table_seed))
    rule, reference_rule = {"parity:r1": (parity_rule(1),) * 2, "sum:r1": (sum_rule(1),) * 2,
                            "raw": (sum_rule(0), None)}[process]
    ball = build_ball(d, 4)
    e1, e2 = SYMMETRIZATION_PAIRS[k]
    got = symmetrization_moment_check(ball, e1, e2, view, domain, rule)
    want = _composite_symmetrization_check(ball, e1, e2, view, domain, reference_rule)
    assert repr(got) == repr(want)


@pytest.mark.parametrize("k", sorted(SYMMETRIZATION_PAIRS))
def test_view_rule_runs_once_per_distinct_tuple_of_process_values(k):
    calls = []
    view = edge_first_child_rule()
    counted = replace(view, func=lambda x: calls.append(len(x)) or view.func(x))
    e1, e2 = SYMMETRIZATION_PAIRS[k]
    symmetrization_moment_check(build_ball(3, 4), e1, e2, counted, "alphabet:2", parity_rule(1))
    # rows passed: 2 views x 2^3 parity tuples x (f, and f-bar over its 2-element orbit)
    assert 0 < sum(calls) <= 48


def test_symmetrization_strictly_contracts_asymmetric_rule():
    ball = build_ball(3, 4)
    chk = symmetrization_moment_check(ball, 1, 3, edge_first_child_rule(),
                                      "alphabet:2", sum_rule(0))
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
