"""Monte Carlo estimation, the exact enumeration engine, and identity checks."""

import math
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nbtree import correlation, rng
from nbtree._exact import root_abs_leq, root_sign
from nbtree.bounds import vertex_corr_bound
from nbtree.correlation import (
    ENUMERATION_CAP,
    LABEL_CAP,
    TABLE_CAP,
    ExactCorrResult,
    PolarizationResult,
    Site,
    SymmetrizationCheck,
    _site_values,
    _word_pieces,
    edge_homogeneity_check,
    exact_corr_discrete,
    exact_edge_corr,
    h_identity,
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
    EdgeRule,
    LinearRule,
    domain_values,
    edge_first_child_rule,
    edge_sum_rule,
    edge_table_rule,
    edge_tail_rule,
    geometric_profile,
    linear_rule_covariance_exact,
    parity_rule,
    subtree_levels,
    subtree_pair_classes,
    sum_rule,
    symmetrize_rule,
    vertex_pair_classes,
    xor_pair_rule,
)
from nbtree.nb_operator import walk_count
from nbtree.tree_core import build_ball, cone, edge_between, path_vertices, vertices_at_distance
from test_factor_engine import pair_views, table_block_rule, view_classes
from test_rng import to_rademacher
from test_tree_core import edge_height


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _identical_sampler(seed, idx):
    z = rng.to_unit(rng.words(seed, idx)) - 0.5
    return z, z


def _independent_sampler(seed, idx):
    a = to_rademacher(rng.words(seed + 1, idx))
    b = to_rademacher(rng.words(seed + 2, idx * 2 + 1))
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
    sampler = linear_pair_sampler(vertex_pair_classes(d, k, 6), rule.profile)
    est = monte_carlo_corr(sampler, 10_000, 42)
    assert abs(est.estimate - oracle.corr) <= 3 * est.stderr


def test_mc_deterministic_across_thread_counts():
    r1 = monte_carlo_corr(_identical_sampler, 50_000, 11, threads=1)
    r4 = monte_carlo_corr(_identical_sampler, 50_000, 11, threads=4)
    assert r1 == r4


def _geometric_vertex_pair_sampler(d, k, r):
    """The sampler of a criterion-6 "linear-geom" row: radius-r geometric
    sums at two vertices k apart."""
    return linear_pair_sampler(vertex_pair_classes(d, k, r), geometric_profile(d, r).profile)


@pytest.mark.parametrize("shift", [1e8, -1e8])
def test_mc_estimate_is_not_biased_by_a_common_offset(shift):
    # raw one-pass moments cancel catastrophically under an offset: shifted
    # by 1e8, this pair once read 0.3333 against 0.3996 unshifted (about 18
    # standard errors) and still passed its bound
    sampler = _geometric_vertex_pair_sampler(3, 3, 4)

    def shifted(seed, idx):
        a, b = sampler(seed, idx)
        return a + shift, b + shift

    plain = monte_carlo_corr(sampler, 50_000, 3)
    exact = linear_rule_covariance_exact(3, geometric_profile(3, 4).profile, 3).corr
    assert abs(plain.estimate - exact) <= 3 * plain.stderr
    assert abs(monte_carlo_corr(shifted, 50_000, 3).estimate - plain.estimate) <= 1e-6


@pytest.mark.parametrize("n_samples", [100, 4096, 4097, 50_000])
def test_mc_merged_moments_match_one_centred_pass(n_samples):
    # the chunk merge must agree with the correlation of all samples at once
    sampler = _geometric_vertex_pair_sampler(4, 2, 3)
    a, b = sampler(9, np.arange(n_samples, dtype=np.int64))
    da, db = a - a.mean(), b - b.mean()
    want = math.fsum(da * db) / math.sqrt(math.fsum(da * da) * math.fsum(db * db))
    assert monte_carlo_corr(sampler, n_samples, 9).estimate == pytest.approx(want, rel=1e-12)


def test_mc_degenerate_variance_flag():
    def constant(seed, idx):
        return np.ones(len(idx)), to_rademacher(rng.words(seed, idx))

    est = monte_carlo_corr(constant, 1000, 5)
    assert est.degenerate and est.estimate == 0.0


def _unpacked_sampler(levels_a, levels_b, weights):
    """The packed sampler's sums from one +-1 label per support vertex.

    Vertices are put in the class layout one by one: sorted by (level in
    view A, level in view B), "not in the view" being level len(levels),
    and vertex p reads bit p of the sample's `words2` words (bit 1 is +1).
    Returns the class sizes and a sampler of (class sums, a, b), the sums
    as `labels @ vec`.
    """
    support = np.unique(np.concatenate(levels_a + levels_b))

    def level(levels, v):
        return next((i for i, lv in enumerate(levels) if v in lv.tolist()), len(levels))

    keys = sorted((level(levels_a, v), level(levels_b, v), v) for v in support.tolist())
    classes = sorted({key[:2] for key in keys})
    sizes = np.array([sum(key[:2] == c for key in keys) for c in classes])
    owner = np.array([classes.index(key[:2]) for key in keys])
    level_weight = list(weights) + [0.0]
    vec_a = np.array([level_weight[key[0]] for key in keys])
    vec_b = np.array([level_weight[key[1]] for key in keys])
    bit = np.arange(len(keys))

    def sampler(seed, idx):
        w = rng.words2(seed, idx, np.arange(-(-len(keys) // 64)))
        bits = (w[:, bit // 64] >> (bit % 64).astype(np.uint64)) & np.uint64(1)
        labels = 2 * bits.astype(np.int64) - 1
        class_sums = np.stack([labels[:, owner == c].sum(axis=1)
                               for c in range(len(classes))], axis=1)
        return class_sums, labels @ vec_a, labels @ vec_b

    return sizes, sampler, np.abs(vec_a).sum() + np.abs(vec_b).sum()


def _assert_packed_is_unpacked(levels_a, levels_b, classes, weights, seed, idx):
    """The sampler of the class table of two views against one label per
    vertex: integer class sums equal exactly; the two sums agree to 1e-12 of
    the largest value they can take."""
    sizes, reference, scale = _unpacked_sampler(levels_a, levels_b, weights)
    assert sizes.tolist() == classes[1]
    class_sums, ref_a, ref_b = reference(seed, idx)
    word, mask, owner = _word_pieces(sizes)
    w = rng.words2(seed, idx, np.arange(-(-int(sizes.sum()) // 64)))
    counts = np.bitwise_count(w[:, word] & mask).astype(np.int64)
    packed = np.stack([counts[:, owner == c].sum(axis=1) for c in range(len(sizes))], axis=1)
    assert np.array_equal(2 * packed - sizes, class_sums)
    got_a, got_b = linear_pair_sampler(classes, weights)(seed, idx)
    np.testing.assert_allclose(got_a, ref_a, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(got_b, ref_b, rtol=1e-12, atol=1e-12 * scale)


@pytest.mark.parametrize("n_samples", [20_000, 20_001])
@pytest.mark.parametrize("threads", [1, 2])
def test_linear_sampler_estimate_matches_words2_reference(n_samples, threads):
    # packed class sums against one label per vertex drawn from the same
    # words, including a last chunk whose row count is not a multiple of 4;
    # two overlapping radius-3 views at d=4 span 89 support vertices
    levels_a, levels_b = pair_views("vertex", 4, 3, 2)
    classes = vertex_pair_classes(4, 2, 3)
    weights = rng.to_unit(rng.words(1, np.arange(4))) - 0.25
    for idx in (np.arange(4096), np.arange(16_384, n_samples)):
        _assert_packed_is_unpacked(levels_a, levels_b, classes, weights, 77, idx)
    _, reference, _ = _unpacked_sampler(levels_a, levels_b, weights)
    sampler = linear_pair_sampler(classes, weights)
    got = monte_carlo_corr(sampler, n_samples, 77, threads=threads)
    assert got == monte_carlo_corr(sampler, n_samples, 77)
    want = monte_carlo_corr(lambda seed, idx: reference(seed, idx)[1:], n_samples, 77)
    assert got.estimate == pytest.approx(want.estimate, rel=1e-12)
    assert not got.degenerate and got.estimate > 0.1


def _pair_classes(shape, d, r, k, facing):
    """The closed-form class table of `pair_views`; facing edges have none,
    so theirs is grouped from the views."""
    if facing:
        return view_classes(*pair_views(shape, d, r, k, facing))
    if shape == "vertex":
        return vertex_pair_classes(d, k, r)
    return subtree_pair_classes(d, k, r)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(["vertex", "edge"]), st.sampled_from([3, 4]), st.integers(0, 3),
       st.integers(0, 5), st.booleans(),
       st.one_of(st.none(), st.floats(-2.0, 2.0, allow_nan=False)),
       st.sampled_from([0, 1, 2 ** 63, -977]), st.integers(0, 10 ** 6), st.integers(1, 600))
@example("vertex", 3, 2, 0, False, None, 0, 0, 4096)  # k = 0: one support for both
@example("edge", 4, 3, 0, True, None, 7, 0, 300)      # the two sides of one edge
@example("vertex", 4, 3, 2, False, -0.0, 2 ** 63, 16_384, 600)
def test_level_sampler_is_the_coefficient_sampler(shape, d, r, k, facing, rate, seed, lo, n):
    facing = facing and shape == "edge"
    levels_a, levels_b = pair_views(shape, d, r, k, facing)
    weights = geometric_profile(d, r, rate).profile
    idx = np.arange(lo, lo + n, dtype=np.int64)
    _assert_packed_is_unpacked(levels_a, levels_b, _pair_classes(shape, d, r, k, facing),
                               weights, seed, idx)


@pytest.mark.parametrize("shape, d, r, k, facing", [
    ("vertex", 4, 3, 2, False), ("vertex", 4, 4, 7, False), ("edge", 3, 3, 3, False),
    ("edge", 3, 3, 3, True), ("vertex", 3, 0, 0, False)],
    ids=["vertex-4-3-2", "vertex-4-4-7", "edge-3-3-3", "edge-3-3-3-facing", "vertex-3-0-0"])
def test_linear_sampler_draws_one_word_per_64_support_vertices(monkeypatch, shape, d, r, k,
                                                               facing):
    levels_a, levels_b = pair_views(shape, d, r, k, facing)
    n_support = len(np.unique(np.concatenate(levels_a + levels_b)))
    sampler = linear_pair_sampler(_pair_classes(shape, d, r, k, facing),
                                  geometric_profile(d, r).profile)
    drawn = []
    words2 = rng.words2

    def counting(seed, rows, cols, out=None):
        out = words2(seed, rows, cols, out=out)
        drawn.append(out.shape)
        return out

    monkeypatch.setattr(rng, "words2", counting)
    sampler(5, np.arange(1000, 1300))
    assert drawn == [(300, -(-n_support // 64))]


def _reference_linear_pair_sampler(classes, weights):
    """The linear sampler's former chunk, whose sums are the bits it keeps:
    a `W[:, word] & mask` gather of row-major words, then one `@`."""
    keys, sizes = classes
    sizes = np.array(sizes, dtype=np.int64)
    class_weights = np.append(np.asarray(weights, dtype=np.float64), 0.0)[np.array(keys)]
    word, mask, owner = _word_pieces(sizes)
    coef = 2.0 * class_weights[owner]
    const = np.array([math.fsum(class_weights[:, side] * sizes) for side in (0, 1)])
    cols = np.arange(-(-int(sizes.sum()) // 64))

    def sampler(seed, idx):
        counts = np.bitwise_count(rng.words2(seed, idx, cols)[:, word] & mask)
        sums = counts.astype(np.float64) @ coef - const
        return sums[:, 0], sums[:, 1]

    return sampler


def _same_bits(got, want) -> bool:
    """Both sums of `got` are those of `want` bit for bit (stricter than
    equal reprs, and without formatting thousands of floats)."""
    return all(np.array_equal(g.view(np.uint64), w.view(np.uint64)) for g, w in zip(got, want))


#: chunk row counts, in the order one sampler draws them: a full chunk, the
#: last chunks of 100,000 and 50,000 samples, and tiny ones; the kept buffers
#: grow, then serve smaller chunks, then a larger one again
_CHUNK_ROWS = (3, 4096, 1, 848, 1696)


@pytest.mark.parametrize("shape", ["vertex", "edge"])
@pytest.mark.parametrize("d", [3, 4])
def test_linear_sampler_sums_are_the_reference_bits(shape, d):
    # a BLAS sum depends on the layout of the count matrix, so the sums are
    # compared bit for bit, not within a tolerance
    pair_classes = vertex_pair_classes if shape == "vertex" else subtree_pair_classes
    for k in range(9):
        for r in range(5):
            classes, weights = pair_classes(d, k, r), geometric_profile(d, r).profile
            sampler = linear_pair_sampler(classes, weights)
            reference = _reference_linear_pair_sampler(classes, weights)
            lo = 0
            for seed in (0, 7, 2 ** 63):
                for m in _CHUNK_ROWS:
                    idx = np.arange(lo, lo + m, dtype=np.int64)
                    lo += m
                    assert _same_bits(sampler(seed, idx), reference(seed, idx)), (k, r, seed, m)


@pytest.mark.parametrize("threads", [2, 4])
def test_threads_share_a_linear_sampler_without_sharing_its_buffers(threads):
    # 13 chunks, the last of 848 rows, drawn by concurrent threads from one
    # sampler, switching often; a buffer two threads shared would mix chunks
    classes, weights = vertex_pair_classes(4, 7, 4), geometric_profile(4, 4).profile
    sampler = linear_pair_sampler(classes, weights)
    want = monte_carlo_corr(_reference_linear_pair_sampler(classes, weights), 50_000, 5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert monte_carlo_corr(sampler, 50_000, 5, threads=threads) == want
    finally:
        sys.setswitchinterval(interval)
    assert monte_carlo_corr(sampler, 50_000, 5, threads=1) == want


def test_linear_sampler_needs_one_weight_per_level():
    for k in (0, 2, 9):
        classes = vertex_pair_classes(3, k, 2)
        for weights in ((1.0, 0.5), (1.0, 0.5, 0.25, 0.125)):
            with pytest.raises(ValueError, match="weights"):
                linear_pair_sampler(classes, weights)
        linear_pair_sampler(classes, (1.0, 0.5, 0.25))


def test_linear_sampler_refuses_a_support_above_the_label_cap():
    # the cap bounds each chunk's words, 4096 samples x 4096 words
    assert sum(vertex_pair_classes(3, 1, 16)[1]) <= LABEL_CAP
    linear_pair_sampler(vertex_pair_classes(3, 1, 16), geometric_profile(3, 16).profile)
    with pytest.raises(CapExceededError, match=r"pair support has \d+ labels \(cap 262144\)"):
        linear_pair_sampler(vertex_pair_classes(3, 1, 17), geometric_profile(3, 17).profile)
    with pytest.raises(CapExceededError, match="pair support"):
        linear_pair_sampler(subtree_pair_classes(3, 0, 1000), (1.0,) * 1001)


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
        z = to_rademacher(rng.words(seed, idx))
        return z * scale, z * scale

    with pytest.raises(ValueError, match="not finite"):
        monte_carlo_corr(sampler, 100_000, 3, threads=threads)


def test_mc_minimum_samples():
    with pytest.raises(ValueError):
        monte_carlo_corr(_identical_sampler, 99, 0)


# ---------------------------------------------------------------------------
# full-enumeration reference of the exact route
# ---------------------------------------------------------------------------

_SUM_CHUNK = 65536


def compensated_sum(values: np.ndarray) -> float:
    """Fixed-chunk pairwise partial sums combined exactly with math.fsum.

    Up to _SUM_CHUNK values, or for integer values whose partial sums stay
    below 2^53, this is the correctly rounded exact sum.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size <= _SUM_CHUNK:
        return math.fsum(values.tolist())
    partials = [float(np.sum(values[i:i + _SUM_CHUNK]))
                for i in range(0, values.size, _SUM_CHUNK)]
    return math.fsum(partials)


def _corr_from_values(h1v: np.ndarray, h2v: np.ndarray, n_cfg: int,
                      total=compensated_sum) -> ExactCorrResult:
    """Moments of two observables given on every labeling of the union
    support, each sum taken by `total`."""
    n = float(n_cfg)
    e1 = total(h1v) / n
    e2 = total(h2v) / n
    e11 = total(h1v * h1v) / n
    e22 = total(h2v * h2v) / n
    e12 = total(h1v * h2v) / n
    cov = e12 - e1 * e2
    var1 = e11 - e1 * e1
    var2 = e22 - e2 * e2
    corr = cov / math.sqrt(var1 * var2) if var1 > 0 and var2 > 0 else 0.0
    return ExactCorrResult(cov, var1, var2, corr, n_cfg)


def _enumerated_values(ball, rule, domain, region1, region2, h1=None, h2=None):
    """h1 and h2 on every labeling of the union support, from one
    `_site_values` table, and the number of labelings."""
    h1 = h1 or (h_identity if len(region1) == 1 else h_sum)
    h2 = h2 or (h_identity if len(region2) == 1 else h_sum)
    sites = [rule_site(ball, rule, v) for v in list(region1) + list(region2)]
    vals, n_cfg = _site_values(ball, domain, sites)
    return (np.asarray(h1(vals[:len(region1)]), dtype=np.float64),
            np.asarray(h2(vals[len(region1):]), dtype=np.float64), n_cfg)


def _enumerated_product_means(domain, site1, sites2):
    """Reference for one source's E[Y_e1 Y_e2] of edge_homogeneity_check:
    each pair enumerated over the union of its two supports."""
    means = []
    for site2 in sites2:
        sv, n_cfg = _site_values(None, domain, [site1, site2])
        means.append(compensated_sum(sv[0] * sv[1]) / float(n_cfg))
    return means


def test_compensated_sum_is_the_exact_sum_where_the_reference_is_used():
    x = rng.to_unit(rng.words(8, np.arange(_SUM_CHUNK))) - 0.5
    assert compensated_sum(x) == math.fsum(x.tolist())
    ints = np.floor(rng.to_unit(rng.words(9, np.arange(300_000))) * 1000.0) - 500.0
    assert compensated_sum(ints) == math.fsum(ints.tolist())


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


def test_exact_route_tabulates_each_side_on_its_own_support():
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 4)
    before = correlation.configs_tabulated
    res = exact_corr_discrete(ball, sum_rule(1), "alphabet:2", [u], [v])
    assert res.n_configs == 2 ** 8  # the union support of 8 vertices
    assert correlation.configs_tabulated - before == 2 ** 4 + 2 ** 4


def _exact_case(family, d, r, alphabet, seed, coeffs):
    return {"sum": lambda: sum_rule(r), "parity": lambda: parity_rule(r),
            "sym-xor-pair": lambda: symmetrize_rule(xor_pair_rule(), d),
            "table": lambda: table_block_rule(r, alphabet, seed),
            "linear": lambda: LinearRule(r, tuple(coeffs[:r + 1]))}[family]()


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["sum", "parity", "sym-xor-pair", "table", "linear"]),
       alphabet=st.sampled_from([2, 3]), r=st.integers(0, 2), k=st.integers(0, 5),
       regions=st.booleans(), parity_h2=st.booleans(), seed=st.integers(0, 2 ** 20),
       # no coefficient so small that the reference's variance product underflows
       coeffs=st.lists(st.just(0.0) | st.floats(1e-30, 2.0) | st.floats(-2.0, -1e-30),
                       min_size=3, max_size=3))
# one support on both sides, so the tallies are sparse; then 2^19 labelings of float
# values; then disjoint regions of integer values past 2^16 labelings
@example(family="linear", alphabet=2, r=2, k=0, regions=False, parity_h2=False, seed=0,
         coeffs=[0.7, -0.3, 0.11])
@example(family="linear", alphabet=2, r=2, k=4, regions=False, parity_h2=False, seed=0,
         coeffs=[0.7, -0.3, 0.11])
@example(family="sum", alphabet=3, r=1, k=5, regions=True, parity_h2=True, seed=0,
         coeffs=[1.0] * 3)
def test_exact_corr_matches_full_enumeration_bit_for_bit(family, alphabet, r, k, regions,
                                                         parity_h2, seed, coeffs):
    d = 3
    r = min(r, 2 if family == "linear" else 1)
    rule = _exact_case(family, d, r, alphabet, seed, coeffs)
    ball = build_ball(d, (k + 1) // 2 + rule.radius + 1)
    u, v = vertices_at_distance(ball, k)
    region1, region2 = [u], [v]
    h1 = h2 = None
    if regions and rule.radius <= 1:
        path = set(path_vertices(ball, u, v))
        region1 += [int(c) for c in ball.children(u) if int(c) not in path][:1]
        region2 += [int(c) for c in ball.neighbors(v) if int(c) not in path][:1]
        h1, h2 = h_sum, (h_parity if parity_h2 else h_sum)
    domain = f"alphabet:{alphabet}"
    union = set().union(*(rule_site(ball, rule, x).local_ids.tolist()
                          for x in region1 + region2))
    assume(alphabet ** len(union) <= 2 ** 19)

    got = exact_corr_discrete(ball, rule, domain, region1, region2, h1, h2)
    h1v, h2v, n_cfg = _enumerated_values(ball, rule, domain, region1, region2, h1, h2)
    integral = all(np.array_equal(x, np.round(x)) for x in (h1v, h2v))
    # compensated_sum is the exact sum up to 2^16 values or on integers; past
    # that, float values are summed exactly by math.fsum on the whole list
    exact_sum = compensated_sum if n_cfg <= _SUM_CHUNK or integral else \
        (lambda x: math.fsum(x.tolist()))
    assert repr(got) == repr(_corr_from_values(h1v, h2v, n_cfg, exact_sum))


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("rule", [edge_sum_rule(1), edge_tail_rule()], ids=lambda r: r.name)
@pytest.mark.parametrize("domain", ["alphabet:2", "alphabet:3"])
def test_exact_edge_corr_matches_full_enumeration_bit_for_bit(d, rule, domain):
    ball = build_ball(d, 6)
    for k in range(5):
        e1, *targets = edge_pair(ball, k)  # same direction, then facing
        for e2 in targets:
            got = exact_edge_corr(ball, rule, domain, e1, e2)
            sv, n_cfg = _site_values(ball, domain, [rule_site(ball, rule, e1),
                                                    rule_site(ball, rule, e2)])
            assert repr(got) == repr(_corr_from_values(sv[0], sv[1], n_cfg))


@settings(max_examples=25, deadline=None)
@given(case=st.sampled_from([(3, 5, 2, 1), (3, 4, 0, 1), (3, 4, 1, 1), (4, 4, 1, 1),
                             (3, 4, 2, 0)]),
       domain=st.sampled_from(["alphabet:2", "alphabet:3", "rademacher"]),
       table_seed=st.one_of(st.none(), st.integers(0, 2 ** 20)))
def test_homogeneity_matches_full_enumeration_bit_for_bit(case, domain, table_seed):
    d, radius, k, depth = case
    ball = build_ball(d, radius)
    if table_seed is None or domain == "rademacher":
        rule = edge_sum_rule(depth)
    else:  # float values: the orbit average of a hashed table
        rule = symmetrize_rule(edge_table_rule(depth, int(domain.split(":")[1]), table_seed), d)
    got = edge_homogeneity_check(ball, rule, k, domain)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(correlation, "_product_means", _enumerated_product_means)
        want = edge_homogeneity_check(ball, rule, k, domain)
    assert repr(got) == repr(want)


def _scaled(bad: float):
    """Values 1 where the labels sum to 0, else `bad`, with no float warning."""
    return lambda values: np.where(values.sum(axis=0) > 0, bad, 1.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 1e300])
@pytest.mark.parametrize("side", ["h1", "h2"])
def test_exact_corr_rejects_non_finite_moments(bad, side):
    # an inf or nan value, or a value whose square overflows (1e300^2), is
    # refused by name, with no float warning on the way
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 2)
    hs = {"h1": h_sum, "h2": h_sum} | {side: _scaled(bad)}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"exact moments of {side} are not finite"):
            exact_corr_discrete(ball, sum_rule(1), "alphabet:2", [u], [v], **hs)


def test_exact_corr_survives_a_variance_product_that_underflows():
    # variances of about 1e-212 are positive, their product rounds to 0
    res = exact_corr_discrete(build_ball(3, 1), LinearRule(0, (1e-106,)), "alphabet:2",
                              [0], [0])
    assert res.var1 > 0 and res.var1 * res.var2 == 0.0
    assert res.corr == pytest.approx(1.0, rel=1e-12)


def test_exact_corr_rejects_a_variance_product_that_overflows():
    # each variance is finite (about 1e200), their product is not
    ball = build_ball(3, 3)
    u, v = vertices_at_distance(ball, 2)
    big = _scaled(1e100)
    with pytest.raises(ValueError, match="exact moments of h1 and h2 are not finite"):
        exact_corr_discrete(ball, sum_rule(1), "alphabet:2", [u], [v], big, big)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 1e300])
def test_symmetrization_check_rejects_non_finite_moments(bad):
    view = EdgeRule(1, lambda x: np.where(x[:, 1] > 0, bad, 0.5), name="bad")
    e1, e2 = SYMMETRIZATION_PAIRS[2]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="exact moments of f(-bar)? at e1 are not finite"):
            symmetrization_moment_check(build_ball(3, 4), e1, e2, view, "alphabet:2",
                                        sum_rule(0))


def test_table_rules_reject_labels_outside_their_alphabet():
    # read as base-A digits, -1 would wrap the table index, and the keys
    # (-1, 1) and (0, -1) would collide
    with pytest.raises(ValueError, match=r"table rule reads labels in 0\.\.1 only"):
        exact_edge_corr(build_ball(3, 4), edge_table_rule(1, 2, 0), "rademacher", 1, 3)
    with pytest.raises(ValueError, match=r"table rule reads labels in 0\.\.1 only"):
        exact_corr_discrete(build_ball(3, 2), table_block_rule(1, 2, 0), "alphabet:3",
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


_HALF = [[0.5, 0.0], [0.0, 0.5]]


@pytest.mark.parametrize("check", [
    polarization_check, lambda j, f1, f2: lemma_consequence_check(j, f1, f2, 0.5)],
    ids=["polarization", "transfer"])
@pytest.mark.parametrize("joint,f1,f2,error,message", [
    ([[0.5, 0.5]], [1.0], [0.0], ValueError, "joint must be a square matrix"),
    ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0], ValueError, "joint must be a square matrix"),
    ([[math.nan, 0.5]], [1.0], [0.0], ValueError, "joint must be a square matrix"),
    ([[0.6, -0.1], [-0.1, 0.6]], [1.0, 0.0], [0.0, 1.0], ValueError,
     "joint probabilities must be non-negative"),
    ([[0.6, -0.1], [0.2, 0.3]], [1.0, 0.0], [0.0, 1.0], ValueError,
     "joint probabilities must be non-negative"),
    ([[0.5 + 1e-9, 0.0], [0.0, 0.5 + 1e-9]], [1.0, 0.0], [0.0, 1.0], ValueError,
     "joint probabilities must sum to 1"),
    ([[0.5 + 1e-9, 0.0], [0.1, 0.5 + 1e-9]], [1.0, 0.0], [0.0, 1.0], ValueError,
     "joint probabilities must sum to 1"),
    ([[0.5 + 2.5e-10, 0.0], [0.0, 0.5 + 2.5e-10]], [1.0, 0.0], [0.0, 1.0], None, None),
    ([[0.4, 0.2], [0.1, 0.3]], [1.0, 0.0], [0.0, 1.0], NonExchangeableError,
     "joint distribution is not swap-symmetric"),
    (_HALF, [1.0, 0.0, 0.0], [0.0, 1.0], ValueError,
     "function tables must match the joint's size"),
    (_HALF, [1.0, 0.0], [0.0], ValueError, "function tables must match the joint's size"),
    (_HALF, [[1.0, 0.0]], [0.0, 1.0], ValueError, "function tables must match the joint's size"),
    (_HALF, [math.nan, 0.0, 0.0], [0.0, 1.0], ValueError, "f1 has a non-finite entry"),
    (_HALF, [1.0, 0.0], [[math.inf], [0.0], [1.0]], ValueError, "f2 has a non-finite entry"),
    (_HALF, [1.0, 0.0, 0.0], [math.nan, 1.0], ValueError,
     "function tables must match the joint's size"),
], ids=["row", "vector", "nan-row", "negative", "negative-asymmetric", "sum-off-2e-9",
        "sum-off-asymmetric", "sum-off-5e-10", "asymmetric", "f1-long", "f2-short",
        "f1-matrix", "nan-and-long-f1", "inf-and-shaped-f2", "f1-long-before-nan-f2"])
def test_identity_checks_validate_in_order(check, joint, f1, f2, error, message):
    # square, finite, non-negative, sum within 1e-9, swap-symmetric; then
    # f1 and f2, each finite before its length: the first failure raises
    if error is None:
        check(joint, f1, f2)
        return
    with pytest.raises(error) as info:
        check(joint, f1, f2)
    assert info.type is error and str(info.value) == message


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
        if edge_height(ball, e) <= 2 and e % 2 == 1
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
