"""Exact and Monte Carlo correlations of local rules, plus identity checks.

Two independent computation routes coexist deliberately:

* an exact route over every labeling of the (small) union of rule
  supports, by elimination over the overlap O of the two sides' supports
  S1 and S2: the observables of each side depend only on the labels of
  its own support, so they are independent given the labels on O.  Each
  side is tabulated over its own A^|S| labelings from the value tables of
  `rule_site` sites, one per rule placement, reduced over their rows (a
  view of process values runs its rule on its distinct value tuples only;
  `sum_rule(0)` makes the raw labels such a process); its distinct value
  tuples are counted per labeling of O, and every moment is an exact sum
  of count x value terms rounded once.  The caps bound A^|S1 u S2|, the
  work is A^|S1| + A^|S2|.  And
* a Monte Carlo route with counter-based sampling and fixed-size
  chunks, whose moments are centred per chunk and merged in chunk index
  order, so estimates are byte-stable and a common offset of the samples
  does not bias them; a linear rule's Rademacher labels are drawn 64 to
  a word and summed by popcount per class of `factor_engine`'s closed-form
  pair-class tables.

Exact identities (the polarization identity and its consequence for
exchangeable pairs) are evaluated exactly: float inputs are dyadic
rationals, which become integers over a common power-of-two denominator,
so an identity that holds algebraically yields residual exactly zero.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import cache, reduce
from operator import itemgetter, mul
from typing import Callable, Sequence

import numpy as np

from . import rng
from ._exact import counted_fsum, root_abs_leq, root_sign
from .errors import CapExceededError, NonExchangeableError
from .factor_engine import (
    BlockRule,
    EdgeRule,
    LinearRule,
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

#: largest pair support the linear sampler draws labels for (128 MiB of words per chunk)
LABEL_CAP = 262_144

_Z95 = 1.959963984540054

#: samples per Monte Carlo chunk; chunk moments are reduced in index order
MC_CHUNK = 4096

_NOT_FINITE = "Monte Carlo moments are not finite: a sample is, or a moment overflows"


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


def _merge_moments(acc: tuple, chunk: tuple) -> tuple:
    """Centred moments of two disjoint sample sets combined, after Chan,
    Golub & LeVeque (1983): the means move by their weighted difference and
    the sums of squares gain the between-set term."""
    n1, ma1, mb1, maa1, mbb1, cab1 = acc
    n2, ma2, mb2, maa2, mbb2, cab2 = chunk
    n = n1 + n2
    da, db = ma2 - ma1, mb2 - mb1
    w = n1 * n2 / n
    return (n, ma1 + da * (n2 / n), mb1 + db * (n2 / n), maa1 + maa2 + da * da * w,
            mbb1 + mbb2 + db * db * w, cab1 + cab2 + da * db * w)


#: samples `monte_carlo_corr` has drawn in this process, over all calls
mc_samples = 0


def monte_carlo_corr(pair_sampler: Callable[[int, np.ndarray], tuple],
                     n_samples: int, seed: int, threads: int = 1) -> CorrEstimate:
    """Pearson correlation of pairs drawn by a deterministic sampler.

    pair_sampler(seed, indices) must return two float arrays, one pair
    per index, as a pure function of (seed, index).  Sampling is chunked
    at the fixed size MC_CHUNK; each chunk's moments are centred on its
    own means and merged in chunk index order, so the estimate depends
    only on (seed, n_samples) and a common offset of the samples does not
    bias it.  `threads` > 1 draws the chunks in a thread pool; the merge
    stays in index order in the calling thread.  Raises ValueError when a
    sample or a moment is not finite.
    """
    global mc_samples
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    starts = range(0, n_samples, MC_CHUNK)

    def chunk_moments(lo: int) -> tuple:
        """(count, mean_a, mean_b, M2_a, M2_b, C_ab) of one chunk, the sums
        of squares and products taken about the chunk's own means."""
        idx = np.arange(lo, min(lo + MC_CHUNK, n_samples), dtype=np.int64)
        a, b = pair_sampler(seed, idx)
        a = np.asarray(a, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        if a.shape != idx.shape or b.shape != idx.shape:
            raise ValueError("pair_sampler must return one (a, b) pair per index")
        with np.errstate(over="ignore", invalid="ignore"):
            mean_a, mean_b = float(a.sum()) / idx.size, float(b.sum()) / idx.size
            da, db = a - mean_a, b - mean_b
            moments = (idx.size, mean_a, mean_b, float((da * da).sum()),
                       float((db * db).sum()), float((da * db).sum()))
        if not all(map(math.isfinite, moments)):
            raise ValueError(_NOT_FINITE)
        return moments

    if threads > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_chunk = list(pool.map(chunk_moments, starts))
    else:
        per_chunk = map(chunk_moments, starts)

    moments = reduce(_merge_moments, per_chunk)
    mc_samples += n_samples
    if not all(map(math.isfinite, moments)):
        raise ValueError(_NOT_FINITE)
    _, _, _, m2_a, m2_b, c_ab = moments
    n = float(n_samples)
    var_a, var_b, cov = m2_a / n, m2_b / n, c_ab / n

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


def _word_pieces(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Consecutive bit ranges of the given sizes, cut at 64-bit word
    boundaries: (word, mask, range index) of every piece."""
    words, masks, owners = [], [], []
    lo = 0
    for owner, size in enumerate(sizes.tolist()):
        hi = lo + size
        while lo < hi:
            top = min(hi, (lo // 64 + 1) * 64)
            words.append(lo // 64)
            masks.append(((1 << (top - lo)) - 1) << (lo % 64))
            owners.append(owner)
            lo = top
    return np.array(words, dtype=np.intp), np.array(masks, dtype=np.uint64), np.array(owners)


def linear_pair_sampler(classes, weights):
    """Sampler of (sum_j weights[j] * level-j labels) over two views, i.i.d. Rademacher.

    classes is the pair-class table of the two views, as
    `vertex_pair_classes` and `subtree_pair_classes` return it, and there
    is one weight per view level.  The sums read the labels only through class
    sums.  Each class takes a contiguous range of bits, in sorted class-key
    order; a set bit is label +1, so a class of n labels sums to
    2 * popcount(its bits) - n.  One sample draws ceil(|support| / 64)
    words of `rng.words2`, each a pure function of (seed, index, word), so
    chunking cannot change a sample.

    A chunk of m samples allocates no large array, so it does not fault
    fresh pages in: each thread keeps its own buffers, grown to the largest
    chunk it has drawn, and a chunk uses C-order (rows, m) prefixes of them,
    so every chunk size gets arrays of its own shape.  The words are drawn
    transposed, one row per word (`rng.words2(..., out=)`), and each class
    piece gathers, masks and popcounts its word as one row.  The two sums
    are bit-stable only because each chunk is a single `@` on counts in one
    fixed layout (see the comment in the sampler).
    """
    keys, sizes = classes
    levels = np.array(keys, dtype=np.int64)
    # two distinct views each miss a vertex of the other, so their table
    # holds the "not in the view" level; one view's table is all diagonal
    n_levels = int(levels.max()) + int((levels[:, 0] == levels[:, 1]).all())
    if len(weights) != n_levels:
        raise ValueError(f"{len(weights)} weights for views of {n_levels} levels")
    n_support = sum(sizes)
    if n_support > LABEL_CAP:
        raise CapExceededError(f"pair support has {n_support} labels (cap {LABEL_CAP})")
    sizes = np.array(sizes, dtype=np.int64)
    level_weight = np.append(np.asarray(weights, dtype=np.float64), 0.0)
    class_weights = level_weight[levels]  # (classes, 2): the weight on side A and on side B
    word, mask, owner = _word_pieces(sizes)
    masks = mask[:, None]
    coef = 2.0 * class_weights[owner]
    const = np.array([math.fsum(class_weights[:, side] * sizes) for side in (0, 1)])
    n_words, n_pieces = -(-n_support // 64), word.size
    cols = np.arange(n_words)
    # monte_carlo_corr(threads=N) runs chunks of one sampler concurrently
    kept = threading.local()

    def chunk_arrays(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """This thread's (words, pieces, counts) arrays for a chunk of m samples."""
        if getattr(kept, "rows", -1) < m:
            kept.rows = m
            kept.flat = (np.empty(n_words * m, dtype=np.uint64),
                         np.empty(n_pieces * m, dtype=np.uint64),
                         np.empty(n_pieces * m, dtype=np.uint8))
        drawn, pieces, counts = kept.flat
        return (drawn[:n_words * m].reshape(n_words, m),
                pieces[:n_pieces * m].reshape(n_pieces, m),
                counts[:n_pieces * m].reshape(n_pieces, m))

    def sampler(seed: int, idx: np.ndarray):
        drawn, pieces, counts = chunk_arrays(len(idx))
        rng.words2(seed, idx, cols, out=drawn.T)
        np.take(drawn, word, axis=0, out=pieces)
        np.bitwise_and(pieces, masks, out=pieces)
        np.bitwise_count(pieces, out=counts)
        # float64 counts, because a uint8 operand takes NumPy's slower
        # non-BLAS loop; the masked words are spent, so their buffer holds
        # them.  BLAS sums depend on the operand's layout: f.T is
        # column-major with strides (8, 8m), the layout of a gather
        # W[:, word] from C-order (m, words) words, on which the report's
        # bytes are pinned, while a C-order copy of the same counts changed
        # the sums of 2,596 of the 4,096 samples of a d=3, k=4, r=4 chunk
        # (seed 0), by up to 7e-15.  They depend on the row blocking too:
        # with OpenBLAS 0.3.31 (Haswell kernels), 20 chunks of 4096 x 320
        # cut into 7-row blocks changed 20,529 of 81,920 dgemv sums, so
        # never split this product into row blocks
        f = pieces.view(np.float64)
        f[...] = counts
        sums = f.T @ coef - const
        return sums[:, 0], sums[:, 1]

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
    _, first, codes = np.unique(x[:, 0], return_index=True, return_inverse=True)
    for col in x.T[1:]:
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


#: labelings of a support, and site tables, `_site_values` has built in this process
configs_tabulated = 0
site_tables = 0


def _support(sites: Sequence[Site]) -> np.ndarray:
    """The sorted union of the sites' local ids."""
    return np.array(sorted(set().union(*(s.local_ids.tolist() for s in sites))), dtype=np.int64)


def _check_caps(a_size: int, n: int, sites: Sequence[Site]) -> int:
    """A^n, once it and every site table are found within the caps."""
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
    return n_cfg


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
    global configs_tabulated, site_tables
    values = domain_values(domain)
    a_size = len(values)
    support = _support(sites)
    n = len(support)
    n_cfg = _check_caps(a_size, n, sites)
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
    configs_tabulated += n_cfg
    site_tables += len(sites)
    return out, n_cfg


def _not_finite(name: str) -> ValueError:
    return ValueError(f"exact moments of {name} are not finite: "
                      "a value is, or a product or a sum overflows")


@dataclass(frozen=True)
class _Side:
    """One side's observables over the labelings of its own support S.

    `tuples` holds the distinct tuples of observable values, one row each,
    and `total` how many labelings of the union support give each.  The
    entries (`overlap`, `code`, `count`), sorted by `overlap`, say how many
    labelings of S that agree with overlap labeling `overlap` give tuple
    `code`; overlap labelings are numbered alike on both sides.
    """

    tuples: np.ndarray
    total: np.ndarray
    overlap: np.ndarray
    code: np.ndarray
    count: np.ndarray


def _tally(keys: np.ndarray, n_keys: int, weights: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in 0..n_keys-1, sorted, and the summed weight of
    each (one per occurrence by default), by a dense table when it is no
    longer than the keys.  Weights are positive integers whose sums stay
    below 2^53, so the float sums of `bincount` are exact."""
    if n_keys <= len(keys):
        table = np.bincount(keys, weights, minlength=n_keys)
        distinct = np.flatnonzero(table)
        return distinct, table[distinct].astype(np.int64)
    distinct, inverse = np.unique(keys, return_inverse=True)
    return distinct, np.bincount(inverse, weights).astype(np.int64)


def _side(domain, sites: Sequence[Site], observe, names) -> tuple:
    """(sites, observed) for `_eliminate`: observed() is `observe` of the
    site values over the labelings of the sites' own support, one row of
    values per name, refused by name when one is not finite.  observe maps
    the (sites, labelings) value matrix to one array of values per name."""

    def observed() -> np.ndarray:
        obs = np.asarray(observe(_site_values(None, domain, sites)[0]), dtype=np.float64)
        finite = np.isfinite(obs).all(axis=1)
        if not finite.all():
            raise _not_finite(names[int(np.argmin(finite))])
        return obs

    return sites, observed


def _tabulate_side(a_size: int, support: np.ndarray, obs: np.ndarray,
                   overlap: np.ndarray, n_union: int) -> _Side:
    """One side's observable rows over the labelings of its own support S,
    grouped by distinct value tuple and overlap labeling.

    The overlap labels are read off the axes of the (A,)*|S| table:
    support position p is axis |S|-1-p (see `_site_values`), and the
    overlap axes, moved to the front in overlap id order, number the
    overlap labelings alike on either side.
    """
    n, n_cfg = len(support), obs.shape[1]
    ids = support.tolist()
    front = [n - 1 - ids.index(v) for v in overlap.tolist()]
    axes = front + [ax for ax in range(n) if ax not in front]
    rows = obs.reshape((len(obs),) + (a_size,) * n).transpose(
        [0] + [1 + ax for ax in axes]).reshape(len(obs), n_cfg).T
    first, codes = _distinct_rows(rows)
    n_tuples, n_overlap = len(first), a_size ** len(overlap)
    # row r agrees with overlap labeling r // (labelings of S per overlap labeling)
    keys = np.arange(n_cfg) // (n_cfg // n_overlap) * n_tuples + codes
    keys, count = _tally(keys, n_overlap * n_tuples)
    return _Side(rows[first], np.bincount(codes) * (n_union // n_cfg),
                 keys // n_tuples, keys % n_tuples, count)


def _eliminate(domain, sides) -> tuple[list[_Side], int]:
    """Both sides tabulated over their own supports, and the number of
    labelings of the union support, which the caps bound.

    sides holds one `_side` per side; its values are observed once the
    caps pass.
    """
    a_size = len(domain_values(domain))
    supports = [_support(sites) for sites, _ in sides]
    overlap = np.intersect1d(*supports, assume_unique=True)
    n_union = _check_caps(a_size, sum(map(len, supports)) - len(overlap),
                          [site for sites, _ in sides for site in sites])
    return [_tabulate_side(a_size, support, observed(), overlap, n_union)
            for support, (_, observed) in zip(supports, sides)], n_union


def _pairs(side1: _Side, side2: _Side) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(tuple of side 1, tuple of side 2, labelings of the union) for every
    pair of tuples that occurs.

    Within an overlap labeling the sides are independent, so each side-1
    entry pairs with every side-2 entry of its overlap labeling, with the
    product of their counts; equal pairs are then merged.  There are at
    most as many pairs as labelings of the union.
    """
    start = np.searchsorted(side2.overlap, side1.overlap)
    width = np.searchsorted(side2.overlap, side1.overlap, side="right") - start
    i = np.repeat(np.arange(len(side1.code)), width)
    j = np.repeat(start + width - np.cumsum(width), width) + np.arange(len(i))
    n2 = len(side2.tuples)
    keys, count = _tally(side1.code[i] * n2 + side2.code[j], len(side1.tuples) * n2,
                         side1.count[i] * side2.count[j])
    return keys // n2, keys % n2, count


def _mean(name: str, count: np.ndarray, values: np.ndarray, n_cfg: int) -> float:
    """Sum of count x value over the terms, exact and rounded once, over
    n_cfg; ValueError, naming the observable, when it is not finite."""
    if not np.isfinite(values).all():
        raise _not_finite(name)
    try:
        return counted_fsum(zip(count.tolist(), values.tolist())) / float(n_cfg)
    except OverflowError:
        raise _not_finite(name) from None


@dataclass(frozen=True)
class ExactCorrResult:
    """Exact covariance/correlation over every labeling of the union support
    (`n_configs` of them)."""

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


def _corr_from_sides(domain, sites1, observe1, sites2, observe2,
                     names: tuple[str, str]) -> ExactCorrResult:
    """Exact correlation of one observable per side, by `_eliminate`."""
    (side1, side2), n_cfg = _eliminate(domain, (_side(domain, sites1, observe1, names[:1]),
                                                _side(domain, sites2, observe2, names[1:])))
    x, y = side1.tuples[:, 0], side2.tuples[:, 0]
    c1, c2, count = _pairs(side1, side2)
    with np.errstate(over="ignore"):  # an overflow is caught by _mean
        e1 = _mean(names[0], side1.total, x, n_cfg)
        e2 = _mean(names[1], side2.total, y, n_cfg)
        e11 = _mean(names[0], side1.total, x * x, n_cfg)
        e22 = _mean(names[1], side2.total, y * y, n_cfg)
        e12 = _mean(" * ".join(names), count, x[c1] * y[c2], n_cfg)
    cov = e12 - e1 * e2
    var1 = e11 - e1 * e1
    var2 = e22 - e2 * e2
    if not (math.isfinite(cov) and math.isfinite(var1 * var2)):
        raise _not_finite(" and ".join(names))
    corr = 0.0  # zero variance means correlation 0 by convention
    if var1 > 0 and var2 > 0:
        scale = var1 * var2
        # a product that underflows to 0 takes the square roots one at a time
        corr = cov / math.sqrt(scale) if scale > 0 else cov / math.sqrt(var1) / math.sqrt(var2)
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
    region vertex and one column per labeling of the region's own rule
    support, and must return one value per labeling; they default to the
    identity on singletons and to the sum otherwise.  The moments are
    taken over the A^|S1 u S2| labelings of the union support, which
    ENUMERATION_CAP bounds, by elimination over the overlap: the work is
    A^|S1| + A^|S2| labelings.  Raises ValueError when a value of h1 or h2,
    or a moment, is not finite.
    """
    region1 = [int(v) for v in region1]
    region2 = [int(v) for v in region2]
    if not region1 or not region2:
        raise ValueError("regions must be non-empty")
    h1 = h1 or (h_identity if len(region1) == 1 else h_sum)
    h2 = h2 or (h_identity if len(region2) == 1 else h_sum)
    sites = [rule_site(ball, rule, v) for v in region1 + region2]
    return _corr_from_sides(domain, sites[:len(region1)], lambda g: [h1(g)],
                            sites[len(region1):], lambda g: [h2(g)], ("h1", "h2"))


def exact_edge_corr(ball: TreeBall, rule: EdgeRule, domain, e1: int, e2: int
                    ) -> ExactCorrResult:
    """Exact correlation of the edge-process values at two directed edges,
    over the labelings of the union of their subtree views, by elimination
    over the overlap as in `exact_corr_discrete`."""
    return _corr_from_sides(domain, [rule_site(ball, rule, e1)], lambda g: g,
                            [rule_site(ball, rule, e2)], lambda g: g, ("Y(e1)", "Y(e2)"))


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
    equivariant.  The moments are taken over the labelings of the union of
    the two sides' supports, by elimination over their overlap as in
    `exact_corr_discrete`.  Raises ValueError when a value of f or of its
    orbit average, or a moment, is not finite.
    """
    f_bar = symmetrize_rule(view_rule, ball.d)

    def view_side(e: int, at: str):
        flat = np.concatenate(subtree_levels(ball, e, view_rule.depth)).tolist()
        return _side(domain, [rule_site(ball, process_rule, w) for w in flat],
                     lambda g: _view_values(g, (view_rule.func, f_bar.func)),
                     (f"f at {at}", f"f-bar at {at}"))

    (side1, side2), n_cfg = _eliminate(domain, (view_side(e1, "e1"), view_side(e2, "e2")))
    (f1, b1), (f2, b2) = side1.tuples.T, side2.tuples.T
    c1, c2, count = _pairs(side1, side2)

    def side_moments(side: _Side, at: str) -> tuple[float, float, float, float]:
        """E f, E fbar, E f^2, E fbar^2 at one edge."""
        (f, b), total = side.tuples.T, side.total
        return (_mean(f"f at {at}", total, f, n_cfg), _mean(f"f-bar at {at}", total, b, n_cfg),
                _mean(f"f at {at}", total, f * f, n_cfg),
                _mean(f"f-bar at {at}", total, b * b, n_cfg))

    with np.errstate(over="ignore"):  # an overflow is caught by _mean
        e_f1, e_b1, e_f1sq, e_b1sq = side_moments(side1, "e1")
        e_f2, e_b2, e_f2sq, e_b2sq = side_moments(side2, "e2")
        e_ff = _mean("f at e1 * f at e2", count, f1[c1] * f2[c2], n_cfg)
        e_bb = _mean("f-bar at e1 * f-bar at e2", count, b1[c1] * b2[c2], n_cfg)
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


def _scaled_ints(flat: list[float]) -> tuple[list[int], int]:
    """Finite Python floats as integer numerators over one denominator.

    Every finite float is m * 2^e, so the largest denominator among the
    entries is a power of two that every other one divides: the scaling
    is exact, and sums and differences of entries stay on that scale.
    Its callers validate each input from one `tolist()` and scale all
    entries that share a denominator in one call.
    """
    ratios = list(map(float.as_integer_ratio, flat))
    den = max(map(itemgetter(1), ratios))
    return [num * (den // d) for num, d in ratios], den


def _finite_list(name: str, arr: np.ndarray) -> list[float]:
    """arr's entries in C order, or ValueError if one is not finite."""
    flat = arr.ravel().tolist()
    if not all(map(math.isfinite, flat)):
        raise ValueError(f"{name} has a non-finite entry")
    return flat


def _joint_ints(joint) -> tuple[list[list[int]], int]:
    """Validated swap-symmetric joint: integer rows and their denominator."""
    arr = np.asarray(joint, dtype=np.float64)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("joint must be a square matrix")
    flat = _finite_list("joint", arr)
    if flat and min(flat) < 0:
        raise ValueError("joint probabilities must be non-negative")
    if abs(float(arr.sum()) - 1.0) > 1e-9:
        raise ValueError("joint probabilities must sum to 1")
    n = len(arr)
    if any(flat[i * n:(i + 1) * n] != flat[i::n] for i in range(n)):  # row i vs column i
        raise NonExchangeableError("joint distribution is not swap-symmetric")
    nums, den = _scaled_ints(flat)
    return [nums[i * n:(i + 1) * n] for i in range(n)], den


def _table_ints(n: int, f1, f2) -> tuple[tuple[list[int], list[int]], int]:
    """f1 and f2 as integer numerators over one common denominator."""
    flat = []
    for name, f in (("f1", f1), ("f2", f2)):
        arr = np.asarray(f, dtype=np.float64)
        flat += _finite_list(name, arr)
        if arr.shape != (n,):
            raise ValueError("function tables must match the joint's size")
    nums, den = _scaled_ints(flat)
    return (nums[:n], nums[n:]), den


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


def _joint_products(p: list[list[int]], f1: list[int], f2: list[int]
                    ) -> tuple[list[int], list[int], list[int]]:
    """P f1, P f2 and the marginal of a swap-symmetric integer joint P.

    P equals its transpose, so g . (P f) is sum P[i][j] f[j] g[i] whichever
    coordinate f reads, and the row marginal is also the column one: every
    covariance of f1, f2 and their sum and difference, at one point or
    across the pair, is a dot product against these three vectors.
    """
    return ([_dot(row, f1) for row in p], [_dot(row, f2) for row in p],
            [sum(row) for row in p])


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

    P f1 and P f2 are formed once (`_joint_products`); each covariance is
    then one dot product against them plus the marginal means, so a call
    costs O(n^2) integer products in all.  The swapped covariance is
    still computed, as f2 . (P f1), not assumed equal to the direct one.
    """
    p, p_den = _joint_ints(joint)
    (f1, f2), f_den = _table_ints(len(p), f1, f2)
    u, v, marg = _joint_products(p, f1, f2)
    scale = (p_den * f_den) ** 2
    m1, m2 = _dot(marg, f1), _dot(marg, f2)
    s = [a + b for a, b in zip(f1, f2)]
    diff = [a - b for a, b in zip(f1, f2)]
    lhs = p_den * _dot(f1, v) - m1 * m2
    cov_s = p_den * _dot(s, [a + b for a, b in zip(u, v)]) - (m1 + m2) ** 2
    cov_diff = p_den * _dot(diff, [a - b for a, b in zip(u, v)]) - (m1 - m2) ** 2
    swapped = p_den * _dot(f2, u) - m2 * m1
    return PolarizationResult(
        residual=abs(4 * lhs - (cov_s - cov_diff)) / (4 * scale),
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
    As in `polarization_check`, P f1 and P f2 are formed once and every
    variance and covariance is one dot product against them or the
    marginal; c21 is computed as f2 . (P f1), not taken to equal c12.
    """
    p, _ = _joint_ints(joint)
    (f1, f2), _ = _table_ints(len(p), f1, f2)
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    a_num, a_den = alpha.as_integer_ratio()
    u, v, marg = _joint_products(p, f1, f2)
    total = sum(marg)
    m1, m2 = _dot(marg, f1), _dot(marg, f2)

    var1 = total * _dot(marg, [a * a for a in f1]) - m1 * m1
    var2 = total * _dot(marg, [b * b for b in f2]) - m2 * m2
    if var1 == 0 or var2 == 0:
        return True  # correlation 0 by convention

    c11 = total * _dot(f1, u) - m1 * m1
    c22 = total * _dot(f2, v) - m2 * m2
    c12 = total * _dot(f1, v) - m1 * m2
    c21 = total * _dot(f2, u) - m2 * m1
    w12 = total * _dot(marg, [a * b for a, b in zip(f1, f2)]) - m1 * m2
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
    """Random swap-symmetric joint distribution from words 0..n²-1 of the
    `seed` stream; see `exchangeable_joints`."""
    return exchangeable_joints(rng.words(seed, np.arange(n_points * n_points)), n_points)


def exchangeable_joints(w: np.ndarray, n_points: int) -> np.ndarray:
    """Swap-symmetric n x n joints, one per n² uint64 words along w's last axis.

    Entries are integer weights divided by their float total, so each
    matrix is exactly symmetric but sums to 1 only within rounding.
    """
    raw = (w >> np.uint64(40)).astype(np.float64).reshape(w.shape[:-1] + (n_points,) * 2) + 1.0
    sym = raw + np.swapaxes(raw, -1, -2)  # integer-valued, symmetric
    return sym / sym.sum(axis=(-2, -1), keepdims=True)


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


def _product_means(domain, site1: Site, sites2: Sequence[Site]) -> list[float]:
    """Exact E[Y_e1 Y_e2] of one source site against each target site, by
    elimination over the overlap of their supports.  The source's values
    are tabulated once, when its first pair passes the caps; only the
    grouping by overlap labeling runs per pair."""
    sites1, observed1 = _side(domain, [site1], lambda g: g, ("Y(e1)",))
    source = (sites1, cache(observed1))
    means = []
    for site2 in sites2:
        (side1, side2), n_cfg = _eliminate(domain, (source, _side(domain, [site2], lambda g: g,
                                                                  ("Y(e2)",))))
        c1, c2, count = _pairs(side1, side2)
        with np.errstate(over="ignore"):  # an overflow is caught by _mean
            means.append(_mean("Y(e1) * Y(e2)", count,
                               side1.tuples[c1, 0] * side2.tuples[c2, 0], n_cfg))
    return means


def edge_homogeneity_check(ball: TreeBall, rule: EdgeRule, k: int, domain
                           ) -> HomogeneityResult:
    """Exact E[Y_e1 Y_e2] over all interior pairs e1 ->_k e2.

    A source edge is tested when its k-step cone lies inside the ball
    (`forward_cone_interior`) and every subtree view involved is interior.
    Invariance of the underlying process makes the expectation identical
    across pairs; the maximum pairwise deviation is returned.  Also
    verifies that every source with an interior cone reaches exactly
    (d-1)^k targets, whose moments sum to (d-1)^k times the common value.
    Each moment is over the labelings of the union of the two subtree
    views, by elimination over their overlap as in `exact_corr_discrete`.
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
        vals = _product_means(domain, rule_site(ball, rule, e1),
                              [rule_site(ball, rule, e2) for e2 in frontier.tolist()])
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
