"""Exact and Monte Carlo correlations of local rules, plus identity checks.

Two independent computation routes coexist deliberately:

* an exact route that enumerates every labeling of the (small) union of
  rule supports: every observable is built from the value tables of
  `rule_site` sites, one per rule placement, reduced over their rows (a
  view of process values runs its rule on its distinct value tuples only;
  `sum_rule(0)` makes the raw labels such a process), and
* a Monte Carlo route with counter-based sampling, fixed-size chunks and
  a fixed reduction order, so estimates are byte-stable under any thread
  count.

Exact identities (the polarization identity and its consequence for
exchangeable pairs) are evaluated exactly: float inputs are dyadic
rationals, which become integers over a common power-of-two denominator,
so an identity that holds algebraically yields residual exactly zero.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rng
from ._exact import root_abs_leq, root_sign
from .errors import CapExceededError, NonExchangeableError
from .factor_engine import (
    BlockRule,
    EdgeRule,
    LinearRule,
    Levels,
    domain_values,
    subtree_levels,
    symmetrize_rule,
    vertex_ball_levels,
)
from .tree_core import TreeBall, cone, forward_cone_interior

#: largest number of configurations the exact route will enumerate
ENUMERATION_CAP = 4_194_304

#: largest per-site value table the exact route will build
TABLE_CAP = 262_144

_Z95 = 1.959963984540054

_SUM_CHUNK = 65536

#: samples per Monte Carlo chunk; chunk moments are reduced in index order
MC_CHUNK = 4096

_NOT_FINITE = "Monte Carlo moments are not finite: a sample is, or a moment overflows"


def resolve_threads(threads: int | None = None) -> int:
    """Thread count: explicit argument, then NBTREE_THREADS, then cpu count."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("NBTREE_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def compensated_sum(values: np.ndarray) -> float:
    """Fixed-chunk pairwise partial sums combined exactly with math.fsum.

    Chunk boundaries do not depend on thread count or array provenance,
    so the result is reproducible for any evaluation order upstream.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size <= _SUM_CHUNK:
        return math.fsum(values.tolist())
    partials = [float(np.sum(values[i:i + _SUM_CHUNK]))
                for i in range(0, values.size, _SUM_CHUNK)]
    return math.fsum(partials)


# ---------------------------------------------------------------------------
# Monte Carlo route
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CorrEstimate:
    """Pearson correlation estimate with Fisher-transform error bars."""

    estimate: float
    n_samples: int
    stderr: float
    ci_low: float
    ci_high: float
    seed: int
    degenerate: bool = False


def monte_carlo_corr(pair_sampler: Callable[[int, np.ndarray], tuple],
                     n_samples: int, seed: int,
                     threads: int | None = None) -> CorrEstimate:
    """Pearson correlation of pairs drawn by a deterministic sampler.

    pair_sampler(seed, indices) must return two float arrays, one pair
    per index, as a pure function of (seed, index).  Sampling is chunked
    at the fixed size MC_CHUNK and chunk moments are reduced in index
    order, so the estimate depends only on (seed, n_samples).  Raises
    ValueError when a sample or a moment is not finite.
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    starts = list(range(0, n_samples, MC_CHUNK))

    def chunk_moments(lo: int) -> tuple[float, float, float, float, float]:
        idx = np.arange(lo, min(lo + MC_CHUNK, n_samples), dtype=np.int64)
        a, b = pair_sampler(seed, idx)
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != idx.shape or b.shape != idx.shape:
            raise ValueError("pair_sampler must return one (a, b) pair per index")
        with np.errstate(over="ignore", invalid="ignore"):
            moments = (float(a.sum()), float(b.sum()), float((a * a).sum()),
                       float((b * b).sum()), float((a * b).sum()))
        if not all(map(math.isfinite, moments)):
            raise ValueError(_NOT_FINITE)
        return moments

    n_workers = resolve_threads(threads)
    if n_workers > 1 and len(starts) > 1:
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            per_chunk = list(pool.map(chunk_moments, starts))
    else:
        per_chunk = [chunk_moments(lo) for lo in starts]

    try:
        sa, sb, saa, sbb, sab = (math.fsum(col) for col in zip(*per_chunk))
    except OverflowError:
        raise ValueError(_NOT_FINITE) from None
    n = float(n_samples)
    var_a = saa / n - (sa / n) ** 2
    var_b = sbb / n - (sb / n) ** 2
    cov = sab / n - (sa / n) * (sb / n)

    if var_a <= 0.0 or var_b <= 0.0:
        return CorrEstimate(0.0, n_samples, 0.0, 0.0, 0.0, seed, degenerate=True)

    var_ab = var_a * var_b
    if not math.isfinite(var_ab):
        raise ValueError(_NOT_FINITE)
    r = cov / math.sqrt(var_ab)
    r = max(-1.0, min(1.0, r))
    se_z = 1.0 / math.sqrt(n - 3.0)
    r_clip = max(-1.0 + 1e-15, min(1.0 - 1e-15, r))
    z = math.atanh(r_clip)
    # widen to the estimate itself so |r| = 1 stays inside its interval
    ci_low = min(math.tanh(z - _Z95 * se_z), r)
    ci_high = max(math.tanh(z + _Z95 * se_z), r)
    stderr = (1.0 - r * r) * se_z
    return CorrEstimate(r, n_samples, stderr, ci_low, ci_high, seed)


def linear_pair_sampler(levels_a: Levels, levels_b: Levels, weights):
    """Sampler of (sum_j weights[j] * level-j labels) over two views, i.i.d. Rademacher.

    levels_a and levels_b are views as `vertex_ball_levels` and
    `subtree_levels` return them.  One fresh labeling per sample index;
    label (index, vertex) is a pure function of (seed, index, vertex), so
    chunking cannot change labels.  The two sums are bit-stable only
    because each chunk is a single `@`.
    """
    support = np.unique(np.concatenate(levels_a + levels_b))

    def coefficients(levels: Levels) -> np.ndarray:
        vec = np.zeros(len(support))
        for lv, w in zip(levels, weights):
            np.add.at(vec, np.searchsorted(support, lv), float(w))
        return vec

    vec_a = coefficients(levels_a)
    vec_b = coefficients(levels_b)

    def sampler(seed: int, idx: np.ndarray):
        labels = rng.rademacher2(seed, idx, support)
        # dgemv sums depend on the row blocking: with OpenBLAS 0.3.31 (Haswell
        # kernels), 20 chunks of 4096 x 320 cut into 7-row blocks changed
        # 20,529 of 81,920 sums, so never split this product into row blocks
        return labels @ vec_a, labels @ vec_b

    return sampler


# ---------------------------------------------------------------------------
# exact enumeration route
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Site:
    """One scalar observable: a function of the labels at fixed vertices."""

    local_ids: np.ndarray  # distinct vertex ids the value depends on, in evaluation order
    func: Callable[[np.ndarray], np.ndarray]  # (n, len(local_ids)) labels -> (n,) values


def _distinct_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One representative row index per distinct row of x, and each row's code.

    Rows are numbered by their distinct tuples one column at a time, with
    codes renumbered after each column so they stay below the row count;
    x[first][codes] equals x row for row.
    """
    codes = np.zeros(len(x), dtype=np.int64)
    for col in x.T:
        vals, digit = np.unique(col, return_inverse=True)
        _, first, codes = np.unique(codes * len(vals) + digit,
                                    return_index=True, return_inverse=True)
    return first, codes


def rule_site(ball: TreeBall, rule, at) -> Site:
    """Site for a block/linear rule at a vertex, or an edge rule at an edge."""
    if isinstance(rule, (BlockRule, LinearRule)):
        levels = vertex_ball_levels(ball, at, rule.radius)
    elif isinstance(rule, EdgeRule):
        levels = subtree_levels(ball, at, rule.depth)
    else:
        raise TypeError(f"no site for rule type {type(rule).__name__}")
    if isinstance(rule, LinearRule):
        starts = np.cumsum([0] + [len(lv) for lv in levels[:-1]])
        profile = np.array(rule.profile)

        def func(x: np.ndarray) -> np.ndarray:
            # per-level label sums are exact; fsum once per distinct tuple of products
            products = np.add.reduceat(x, starts, axis=1) * profile
            first, codes = _distinct_rows(products)
            return np.array([math.fsum(row) for row in products[first].tolist()])[codes]
    else:
        func = rule.func
    return Site(np.concatenate(levels), func)


def _site_values(ball: TreeBall, domain, sites: Sequence[Site]
                 ) -> tuple[np.ndarray, int]:
    """Values of every site under every labeling of the union support.

    Configurations are indexed in odometer order over the sorted support;
    support position p holds digit (cfg // A^p) % A.  Each site's table over
    its A^|local support| local labelings is one call of its func, and
    each table reaches every configuration through one broadcast copy: seen
    as an (A,)*|support| array, a site's row varies only along the axes of
    the positions it reads.  The local ids of a site must be distinct.
    """
    values = domain_values(domain)
    a_size = len(values)

    support = np.unique(np.concatenate([s.local_ids for s in sites]))
    n = len(support)
    n_cfg = a_size ** n
    if n_cfg > ENUMERATION_CAP:
        raise CapExceededError(
            f"{a_size}^{n} = {n_cfg} configurations exceed the "
            f"enumeration cap {ENUMERATION_CAP}"
        )
    for site in sites:
        loc = len(site.local_ids)
        if a_size ** loc > TABLE_CAP:
            raise CapExceededError(
                f"site table {a_size}^{loc} = {a_size ** loc} exceeds cap {TABLE_CAP}"
            )
    pos_of = {int(v): p for p, v in enumerate(support)}

    out = np.empty((len(sites), n_cfg), dtype=np.float64)
    grid = out.reshape((len(sites),) + (a_size,) * n)
    for row, site in enumerate(sites):
        loc = len(site.local_ids)
        n_local = a_size ** loc
        # table over local configurations, local position j least significant
        local_cfg = np.arange(n_local, dtype=np.int64)
        digits = (local_cfg[:, None] // a_size ** np.arange(loc, dtype=np.int64)[None, :]) % a_size
        table = site.func(values[digits])
        # axis i of a C-order (A,)*m array holds digit m-1-i, so the table's
        # axes are the local ids reversed and support position p is axis n-1-p
        axes = [n - 1 - pos_of[v] for v in reversed(site.local_ids.tolist())]
        shape = [1] * n
        for ax in axes:
            shape[ax] = a_size
        grid[row] = table.reshape((a_size,) * loc).transpose(np.argsort(axes)).reshape(shape)
    return out, n_cfg


@dataclass(frozen=True)
class ExactCorrResult:
    """Exact covariance/correlation from full enumeration."""

    cov: float
    var1: float
    var2: float
    corr: float
    n_configs: int

    @property
    def degenerate(self) -> bool:
        """An observable is constant, so `corr` is 0 by convention, not by
        evidence; a verdict on it must fail."""
        return not (self.var1 > 0 and self.var2 > 0)


def _corr_from_values(h1v: np.ndarray, h2v: np.ndarray, n_cfg: int) -> ExactCorrResult:
    n = float(n_cfg)
    e1 = compensated_sum(h1v) / n
    e2 = compensated_sum(h2v) / n
    e11 = compensated_sum(h1v * h1v) / n
    e22 = compensated_sum(h2v * h2v) / n
    e12 = compensated_sum(h1v * h2v) / n
    cov = e12 - e1 * e2
    var1 = e11 - e1 * e1
    var2 = e22 - e2 * e2
    # zero variance means correlation 0 by convention
    corr = cov / math.sqrt(var1 * var2) if var1 > 0 and var2 > 0 else 0.0
    return ExactCorrResult(cov, var1, var2, corr, n_cfg)


def h_identity(values: np.ndarray) -> np.ndarray:
    if values.shape[0] != 1:
        raise ValueError("identity aggregator needs a single-site region")
    return values[0]


def h_sum(values: np.ndarray) -> np.ndarray:
    return values.sum(axis=0)


def h_parity(values: np.ndarray) -> np.ndarray:
    return values.sum(axis=0) % 2


def exact_corr_discrete(ball: TreeBall, rule, domain, region1, region2,
                        h1: Callable[[np.ndarray], np.ndarray] = None,
                        h2: Callable[[np.ndarray], np.ndarray] = None) -> ExactCorrResult:
    """Exact correlation of h1 and h2 of the rule values on two vertex regions.

    h1/h2 receive the per-site value matrix of their region, one row per
    region vertex, and must return one value per configuration; they
    default to the identity on singletons and to the sum otherwise.
    """
    region1 = [int(v) for v in region1]
    region2 = [int(v) for v in region2]
    if not region1 or not region2:
        raise ValueError("regions must be non-empty")
    h1 = h1 or (h_identity if len(region1) == 1 else h_sum)
    h2 = h2 or (h_identity if len(region2) == 1 else h_sum)
    sites = [rule_site(ball, rule, v) for v in region1 + region2]
    vals, n_cfg = _site_values(ball, domain, sites)
    h1v = np.asarray(h1(vals[:len(region1)]), dtype=np.float64)
    h2v = np.asarray(h2(vals[len(region1):]), dtype=np.float64)
    return _corr_from_values(h1v, h2v, n_cfg)


def exact_edge_corr(ball: TreeBall, rule: EdgeRule, domain, e1: int, e2: int
                    ) -> ExactCorrResult:
    """Exact correlation of the edge-process values at two directed edges."""
    sites = [rule_site(ball, rule, e1), rule_site(ball, rule, e2)]
    vals, n_cfg = _site_values(ball, domain, sites)
    return _corr_from_values(vals[0], vals[1], n_cfg)


# ---------------------------------------------------------------------------
# symmetrization checks (orbit averaging preserves mean and cross-moments)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetrizationCheck:
    """Exact moment comparisons between a view rule and its orbit average."""

    mean_residual_1: float
    mean_residual_2: float
    second_moment_gap_1: float   # E f^2 - E fbar^2, must be >= 0
    second_moment_gap_2: float
    cross_moment_residual: float
    variance_gap_1: float        # var f - var fbar, must be >= 0

    @property
    def passed(self) -> bool:
        """Means and cross-moment preserved, second moment and variance not increased."""
        return (self.mean_residual_1 <= 1e-12 and self.mean_residual_2 <= 1e-12
                and self.second_moment_gap_1 >= -1e-12
                and self.second_moment_gap_2 >= -1e-12
                and self.cross_moment_residual <= 1e-12
                and self.variance_gap_1 >= -1e-12)


def _view_values(g: np.ndarray, funcs) -> list[np.ndarray]:
    """Each view func on the process values of every configuration.

    Row i of g holds the process value at view vertex i for every
    configuration.  Each func runs once, on the distinct tuples of process
    values, and its results are gathered back.
    """
    first, codes = _distinct_rows(g.T)
    return [f(g.T[first])[codes] for f in funcs]


def symmetrization_moment_check(ball: TreeBall, e1: int, e2: int,
                                view_rule: EdgeRule, domain, process_rule: BlockRule
                                ) -> SymmetrizationCheck:
    """Compare a subtree-view rule f with its orbit average on an edge pair.

    The observable at e is f of the process values g(w), g = process_rule,
    at the vertices w of the subtree view behind e; pass sum_rule(0) for
    the raw i.i.d. labels.  The pair (view at e1, view at e2) must be
    exchangeable and invariant under independent view automorphisms,
    which holds whenever the two subtrees are disjoint and g is
    equivariant.
    """
    f_bar = symmetrize_rule(view_rule, ball.d)
    sites: list[Site] = []
    views = []
    for e in (e1, e2):
        flat = np.concatenate(subtree_levels(ball, e, view_rule.depth)).tolist()
        views.append(slice(len(sites), len(sites) + len(flat)))
        sites += [rule_site(ball, process_rule, w) for w in flat]
    g, n_cfg = _site_values(ball, domain, sites)
    (f1, b1), (f2, b2) = (_view_values(g[rows], (view_rule.func, f_bar.func)) for rows in views)
    n = float(n_cfg)

    def mean(x):
        return compensated_sum(x) / n

    e_f1, e_f2, e_b1, e_b2 = mean(f1), mean(f2), mean(b1), mean(b2)
    e_ff = mean(f1 * f2)
    e_bb = mean(b1 * b2)
    e_f1sq, e_b1sq = mean(f1 * f1), mean(b1 * b1)
    e_f2sq, e_b2sq = mean(f2 * f2), mean(b2 * b2)
    return SymmetrizationCheck(
        mean_residual_1=abs(e_b1 - e_f1),
        mean_residual_2=abs(e_b2 - e_f2),
        second_moment_gap_1=e_f1sq - e_b1sq,
        second_moment_gap_2=e_f2sq - e_b2sq,
        cross_moment_residual=abs(e_bb - e_ff),
        variance_gap_1=(e_f1sq - e_f1 ** 2) - (e_b1sq - e_b1 ** 2),
    )


# ---------------------------------------------------------------------------
# polarization identity and its consequence for exchangeable pairs
# ---------------------------------------------------------------------------


def _check_finite(name: str, arr: np.ndarray) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has a non-finite entry")


def _scaled_ints(*tables: np.ndarray) -> tuple[list[list[int]], int]:
    """Finite float tables as integer numerators over one denominator.

    Every finite float is m * 2^e, so the largest denominator among the
    entries is a power of two that every other one divides: the scaling
    is exact, and sums and differences of entries stay on that scale.
    """
    ratios = [[x.as_integer_ratio() for x in t.tolist()] for t in tables]
    den = max(d for r in ratios for _, d in r)
    return [[num * (den // d) for num, d in r] for r in ratios], den


def _joint_ints(joint) -> tuple[list[list[int]], int]:
    """Validated swap-symmetric joint: integer rows and their denominator."""
    arr = np.asarray(joint, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("joint must be a square matrix")
    _check_finite("joint", arr)
    if np.any(arr < 0):
        raise ValueError("joint probabilities must be non-negative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("joint probabilities must sum to 1")
    if not np.array_equal(arr, arr.T):
        raise NonExchangeableError("joint distribution is not swap-symmetric")
    return _scaled_ints(*arr)


def _table_ints(n: int, f1, f2) -> tuple[list[list[int]], int]:
    """f1 and f2 as integer numerators over one common denominator."""
    tables = []
    for name, f in (("f1", f1), ("f2", f2)):
        arr = np.asarray(f, dtype=np.float64)
        _check_finite(name, arr)
        if arr.shape != (n,):
            raise ValueError("function tables must match the joint's size")
        tables.append(arr)
    return _scaled_ints(*tables)


def _cov_ints(p: list[list[int]], den: int, f: list[int], g: list[int]) -> int:
    """den^2 * cov(f(X1), g(X2)) under the pair weights p / den."""
    e_fg = sum(a * sum(x * b for x, b in zip(row, g)) for a, row in zip(f, p))
    e_f = sum(a * sum(row) for a, row in zip(f, p))
    e_g = sum(b * sum(col) for b, col in zip(g, zip(*p)))
    return den * e_fg - e_f * e_g


def _cov_same_ints(marg: list[int], den: int, f: list[int], g: list[int]) -> int:
    """den^2 * cov(f(X), g(X)) under the weights marg / den."""
    e_fg = sum(m * a * b for m, a, b in zip(marg, f, g))
    return den * e_fg - sum(m * a for m, a in zip(marg, f)) * sum(m * b for m, b in zip(marg, g))


@dataclass(frozen=True)
class PolarizationResult:
    residual: float
    swap_residual: float
    cross_covariance: float


def polarization_check(joint, f1, f2) -> PolarizationResult:
    """Residual of the polarization identity on an exchangeable pair.

    cov(f1(X1), f2(X2)) must equal one quarter of the difference between
    the sum-function and difference-function covariances.  Float inputs
    are dyadic rationals, so with the joint over one power-of-two
    denominator D and both tables over another, E, every covariance is an
    integer over D^2 E^2 and the identity is evaluated exactly: a correct
    implementation returns residual 0.0 exactly.  Also reports the
    swap-symmetry residual cov(f1(X1), f2(X2)) - cov(f1(X2), f2(X1)).
    Each float returned is the correctly rounded value of the exact one.
    """
    p, p_den = _joint_ints(joint)
    (f1, f2), f_den = _table_ints(len(p), f1, f2)
    scale = (p_den * f_den) ** 2
    s = [a + b for a, b in zip(f1, f2)]
    diff = [a - b for a, b in zip(f1, f2)]
    lhs = _cov_ints(p, p_den, f1, f2)
    rhs4 = _cov_ints(p, p_den, s, s) - _cov_ints(p, p_den, diff, diff)
    swapped = _cov_ints(p, p_den, f2, f1)
    return PolarizationResult(
        residual=abs(4 * lhs - rhs4) / (4 * scale),
        swap_residual=abs(lhs - swapped) / scale,
        cross_covariance=lhs / scale,
    )


def lemma_consequence_check(joint, f1, f2, alpha: float) -> bool:
    """Exchangeable-pair bound transfer, decided exactly.

    Hypothesis: the correlation of g(X1) and g(X2) is within alpha for
    g = n1 + n2 and g = n1 - n2, where n1, n2 are f1, f2 scaled to unit
    variance.  Conclusion: |corr(f1(X1), f2(X2))| <= alpha.  Returns the
    conclusion's truth when the hypothesis holds on this instance and
    True (vacuously) otherwise; a False return indicates a defect.

    Scaling by 1/sqrt(var) is irrational, so both hypothesis sides are
    carried as a + b*sqrt(m) with m = var1*var2 and compared exactly.  The
    joint is renormalised by its exact total T: float entries summing to 1
    only within rounding would otherwise leave the variance of a constant
    table slightly negative.  With the joint's and the tables' integer
    numerators, every variance and covariance is an integer over one
    common positive scale, and with alpha = A/D each comparison is
    homogeneous, so it is decided on integers with those factors cleared.
    """
    p, _ = _joint_ints(joint)
    (f1, f2), _ = _table_ints(len(p), f1, f2)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    a_num, a_den = alpha.as_integer_ratio()
    total = sum(map(sum, p))
    rows = [sum(row) for row in p]
    cols = [sum(col) for col in zip(*p)]

    var1 = _cov_same_ints(rows, total, f1, f1)
    var2 = _cov_same_ints(cols, total, f2, f2)
    if var1 == 0 or var2 == 0:
        return True  # correlation 0 by convention

    c11 = _cov_ints(p, total, f1, f1)
    c22 = _cov_ints(p, total, f2, f2)
    c12 = _cov_ints(p, total, f1, f2)
    c21 = _cov_ints(p, total, f2, f1)
    w12 = _cov_same_ints(rows, total, f1, f2)
    m = var1 * var2

    # For s = f1/s1 + f2/s2 (unit-variance scalings), multiplying through by
    # m = var1*var2 gives  m*cov_s = var2*c11 + var1*c22 + (c12+c21)*sqrt(m)
    # and m*var_s = 2m + 2*w12*sqrt(m), both up to one positive factor; the
    # difference g flips the radical term.
    def piece_ok(sign: int) -> bool:
        cov_a = var2 * c11 + var1 * c22
        cov_b = sign * (c12 + c21)
        # m*var_g / 2 = m + sign*w12*sqrt(m)
        if root_sign(m, sign * w12, m) == 0:
            return True  # degenerate combination: correlation 0 by convention
        return root_abs_leq(a_den * cov_a, a_den * cov_b,
                            2 * a_num * m, 2 * a_num * sign * w12, m)

    hypothesis = piece_ok(+1) and piece_ok(-1)
    if not hypothesis:
        return True  # chain not applicable on this instance
    # conclusion: c12^2 <= alpha^2 * var1 * var2
    return (a_den * c12) ** 2 <= a_num * a_num * m


def random_exchangeable_joint(n_points: int, seed: int) -> np.ndarray:
    """Random swap-symmetric joint distribution.

    Entries are integer weights divided by their float total, so the
    matrix is exactly symmetric but sums to 1 only within rounding.
    """
    w = rng.words(seed, np.arange(n_points * n_points))
    raw = (w >> np.uint64(40)).astype(np.float64).reshape(n_points, n_points) + 1.0
    sym = (raw + raw.T)  # integer-valued, symmetric
    return sym / float(sym.sum())


# ---------------------------------------------------------------------------
# edge-process homogeneity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomogeneityResult:
    """Spread of E[Y_e1 * Y_e2] over congruent interior edge pairs."""

    max_deviation: float
    common_value: float
    n_sources: int
    n_pairs: int
    pairs_per_source: int
    source_counts_ok: bool


def edge_homogeneity_check(ball: TreeBall, rule: EdgeRule, k: int, domain
                           ) -> HomogeneityResult:
    """Exact E[Y_e1 Y_e2] over all interior pairs e1 ->_k e2.

    A source edge is tested when its k-step cone lies inside the ball
    (`forward_cone_interior`) and every subtree view involved is interior.
    Invariance of the underlying process makes the expectation identical
    across pairs; the maximum pairwise deviation is returned.  Also
    verifies that every source with an interior cone reaches exactly
    (d-1)^k targets, whose moments sum to (d-1)^k times the common value.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not rule.symmetric:
        raise ValueError("homogeneity is only meaningful for symmetric edge rules")
    q = ball.d - 1
    full = q ** k

    def subtree_ok(e: int) -> bool:
        return int(ball.depth[ball.edge_tail(e)]) + rule.depth <= ball.radius

    moments: list[float] = []
    n_sources = 0
    counts_ok = True
    per_source_sums: list[float] = []
    interior = forward_cone_interior(ball, np.arange(ball.n_edges), k)
    for e1 in np.flatnonzero(interior).tolist():
        if not subtree_ok(e1):
            continue
        frontier = cone(ball, e1, k)
        counts_ok &= frontier.size == full
        if not all(subtree_ok(int(e2)) for e2 in frontier):
            continue
        n_sources += 1
        vals = []
        for e2 in frontier.tolist():
            sites = [rule_site(ball, rule, e1), rule_site(ball, rule, int(e2))]
            sv, n_cfg = _site_values(ball, domain, sites)
            vals.append(compensated_sum(sv[0] * sv[1]) / float(n_cfg))
        moments.extend(vals)
        per_source_sums.append(math.fsum(vals))

    if not moments:
        raise ValueError("no interior pair at this k; enlarge the ball")
    common = moments[0]
    max_dev = max(moments) - min(moments)
    for total in per_source_sums:
        if abs(total - full * common) > 1e-9 * max(1.0, abs(common) * full):
            counts_ok = False
    return HomogeneityResult(
        max_deviation=max_dev,
        common_value=common,
        n_sources=n_sources,
        n_pairs=len(moments),
        pairs_per_source=full,
        source_counts_ok=counts_ok,
    )


# ---------------------------------------------------------------------------
# bound verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """PASS/FAIL of |value| <= bound + 3*stderr, with the margin left over."""

    passed: bool
    value: float
    bound: float
    stderr: float
    margin: float

    @property
    def label(self) -> str:
        return "PASS" if self.passed else "FAIL"


def verify_bound(value: float, bound: float, stderr: float = 0.0,
                 degenerate: bool = False) -> Verdict:
    """Check an exact value (stderr 0) or an estimate (3 sigma slack) against a bound.

    A degenerate value (an observable with no variance, exact or sampled)
    carries no evidence about the correlation, so it fails.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    slack = bound + 3.0 * stderr
    margin = slack - abs(value)
    return Verdict(margin >= 0.0 and not degenerate, float(value), float(bound),
                   float(stderr), margin)
