"""The non-backtracking operator on the directed edges of a tree ball.

The operator maps a function f on directed edges to
(Bf)(e) = sum of f over the predecessors e' -> e, and its adjoint to
(B^T f)(e) = sum of f over the successors e -> e'; the relation itself
is computed in one place, ``tree_core.successor_lists``, which
`walk_counts` follows one step at a time.  Two independent
certificates are computed for the k-th power of B:

* a power-iteration estimate of ||B^k|| on the finite ball, which the
  infinite-tree bound (k+1)*(d-1)^((k+1)/2) must dominate, and
* exact height-weighted walk sums over k-step cones, whose maxima over
  interior edges must stay strictly below the same bound.

Neither builds a matrix or an edge vector.  The root-fixing automorphisms
of the ball act transitively on each (orientation, height) class of
directed edges and commute with B and B^T, so both run on class-constant
vectors held as 2R class values, away[h] and toward[h] for h = 1..R.
Summing each edge's predecessors in ascending id order gives

    (Bf)(away at h)   = 0 + away[h-1] + toward[h] + ... + toward[h]
    (Bf)(toward at h) = 0 + toward[h+1] + ... + toward[h+1]

with d-2 sibling terms toward[h] (d-1, and no away[h-1], at h = 1), d-1
child terms toward[h+1] (none at h = R), and B^T the same sums with away
and toward exchanged.  `_b_classes` adds the terms one at a time in that
order, never as a count times a value (t+t+t and 3*t can round
differently), from the integer 0, so it runs on floats and integers alike.

The power iteration runs it on floats from the all-ones vector.  The two
reductions of each iteration, v @ w and ||w||, weight each class by its
n_h edges of either orientation and are summed exactly (`_class_dot`):
the result is the correctly rounded sum of the rounded elementwise
products, which is math.fsum over the full edge vectors, and does not
depend on the vector length or on any library.  The cone sums run it on
integer class vectors (`cone_weight_sums`): walks in a tree are unique,
so B^k of all-ones counts each cone's edges, and B^k of the height
weights gives each sum exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from ._exact import counted_fsum, root_lt, root_value
from .tree_core import TreeBall, check_ball, successor_lists

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

#: relative guard band for strict-inequality certificate checks
CERT_GUARD = 1e-9


@dataclass(frozen=True)
class NormReport:
    """Result of estimating ||B^k|| on one ball."""

    d: int
    radius: int
    k: int
    estimate: float
    bound: float
    iterations: int
    residual: float
    converged: bool

    @property
    def passed(self) -> bool:
        """Converged, and the estimate does not exceed the closed-form bound."""
        return self.converged and self.estimate <= self.bound

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "radius": self.radius,
            "k": self.k,
            "estimate": self.estimate,
            "bound": self.bound,
            "residual": self.residual,
            "iterations": self.iterations,
            "converged": self.converged,
        }


@dataclass(frozen=True)
class WeightSums:
    """Exact height-weighted sums over the k-step cones of one edge class.

    s_inv sums (d-1)^((h(e)-h(target))/2) over the successor cone of e;
    s_fwd sums (d-1)^((h(e)-h(source))/2) over the predecessor cone.
    Each value is represented exactly as rational + rational*sqrt(d-1).
    """

    s_inv: float
    s_fwd: float
    s_inv_exact: tuple[Fraction, Fraction]
    s_fwd_exact: tuple[Fraction, Fraction]
    source_interior: bool
    target_interior: bool


@dataclass(frozen=True)
class CertificateReport:
    """Exact cone-sum maxima over interior edges versus the norm bound."""

    d: int
    radius: int
    k: int
    max_s_inv: float
    max_s_fwd: float
    bound: float
    interior_edge_count: int
    breakdown: dict
    strict: bool

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "radius": self.radius,
            "k": self.k,
            "max_s_inv": self.max_s_inv,
            "max_s_fwd": self.max_s_fwd,
            "bound": self.bound,
            "interior_edge_count": self.interior_edge_count,
            "breakdown": self.breakdown,
            "strict": self.strict,
        }


def walk_counts(ball: TreeBall, edges, k: int) -> np.ndarray:
    """Number of edges reachable from each of `edges` by a k-step non-backtracking walk.

    Walks on the real cones: they check the successor rule the class
    recursion assumes.  All cones advance together, one `successor_lists`
    pass per step, each frontier edge carrying the position of its origin."""
    if k < 0:
        raise ValueError("k must be >= 0")
    edges = np.atleast_1d(np.asarray(edges))  # an int beyond int64 is checked before the cast
    outside = (edges < 0) | (edges >= ball.n_edges)
    if outside.any():
        ball._check_edge(int(edges[outside][0]))  # raises, naming the first such edge
    frontier = edges.astype(np.int64)
    n_edges = frontier.size
    origin = np.arange(n_edges)
    for _ in range(k):
        frontier, n_next = successor_lists(ball, frontier)
        origin = np.repeat(origin, n_next)
    return np.bincount(origin, minlength=n_edges)


def walk_count(ball: TreeBall, e0: int, k: int) -> int:
    """Number of edges reachable from e0 by a k-step non-backtracking walk."""
    return int(walk_counts(ball, e0, k)[0])


def _b_classes(d: int, away: list, toward: list) -> tuple[list, list]:
    """B on a class-constant vector held as its class values.

    away[h] and toward[h] are the values at height h = 1..R (index 0 is
    unused).  Each sum adds its terms one at a time, in ascending
    predecessor order; see the module docstring.  Reversing every edge
    maps the away class at h to the toward class at h and turns B into B^T
    with the same order of terms, so B^T is this function on the swapped
    classes.
    """
    radius = len(away) - 1
    new_away = [0] * (radius + 1)
    new_toward = [0] * (radius + 1)
    for h in range(1, radius + 1):
        s = 0
        if h > 1:
            s += away[h - 1]
        x = toward[h]
        for _ in range(d - 1 if h == 1 else d - 2):
            s += x
        new_away[h] = s
        s = 0
        if h < radius:
            x = toward[h + 1]
            for _ in range(d - 1):
                s += x
        new_toward[h] = s
    return new_away, new_toward


def _class_dot(counts: list, x_away: list, x_toward: list,
               y_away: list, y_toward: list) -> float:
    """x @ y of two class-constant edge vectors, with counts[h] edges of each
    orientation at height h: math.fsum of the elementwise products over
    every edge, each class product rounded as on one edge."""
    products = [x * y for x, y in zip(x_away[1:] + x_toward[1:], y_away[1:] + y_toward[1:])]
    return counted_fsum(zip(counts[1:] * 2, products))


#: power iterations `operator_norm_pow` has run in this process, over all calls
power_iterations = 0


def operator_norm_pow(ball: TreeBall, k: int, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> NormReport:
    """Estimate ||B^k|| by power iteration on v -> (B^T)^k B^k v.

    Starts from the deterministic all-ones vector (B^k preserves
    non-negativity, so the leading direction has non-negative overlap).
    The Rayleigh quotient increases toward ||B^k||^2 on the ball, which
    the infinite-tree bound dominates; an estimate above the bound is a
    defect, reported through the returned estimate and bound.

    The iterates are class-constant, so B and B^T run on the 2R class
    values (`_b_classes`), and v @ w and ||w|| are exact class-weighted
    sums (`_class_dot`): every iteration's digits are those of the same
    iteration on full edge vectors with math.fsum reductions.
    """
    global power_iterations
    if k < 1:
        raise ValueError("power k must be >= 1")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    d, m = ball.d, ball.n_edges
    bound = bounds.bnorm_bound(d, k)
    if m == 0:
        return NormReport(d, ball.radius, k, 0.0, bound, 0, 0.0, True)

    counts = [0] + np.diff(ball.level_start[1:]).tolist()
    v_away = v_toward = [1.0 / math.sqrt(m)] * (ball.radius + 1)
    rho_prev = None
    residual = math.inf
    converged = False
    iterations = 0
    rho = 0.0
    for iterations in range(1, max_iter + 1):
        w_away, w_toward = v_away, v_toward
        for _ in range(k):
            w_away, w_toward = _b_classes(d, w_away, w_toward)
        for _ in range(k):
            w_toward, w_away = _b_classes(d, w_toward, w_away)
        rho = _class_dot(counts, v_away, v_toward, w_away, w_toward)
        norm_w = math.sqrt(_class_dot(counts, w_away, w_toward, w_away, w_toward))
        if norm_w == 0.0 or rho <= 0.0:
            rho = max(rho, 0.0)
            residual = 0.0
            converged = True
            break
        if rho_prev is not None:
            residual = abs(rho - rho_prev) / rho
            if residual <= tol:
                converged = True
                break
        rho_prev = rho
        v_away = [x / norm_w for x in w_away]
        v_toward = [x / norm_w for x in w_toward]

    power_iterations += iterations
    estimate = math.sqrt(max(rho, 0.0))
    return NormReport(d, ball.radius, k, estimate, bound, iterations, residual, converged)


# ---------------------------------------------------------------------------
# exact cone-sum certificates
# ---------------------------------------------------------------------------


def _unweight(even: int, odd: int, m: int, q: int) -> tuple[Fraction, Fraction]:
    """(a, b) with a + b*sqrt(q) = (even + odd*sqrt(q)) / q^(m/2), where a
    sums the cone edges an even number of levels from the cone's own edge."""
    s = q ** (m // 2)
    if m % 2 == 0:
        return Fraction(even, s), Fraction(odd, s)
    return Fraction(odd, s), Fraction(even, s * q)


def cone_weight_sums(d: int, radius: int, k: int) -> dict[tuple[str, int], WeightSums]:
    """Exact height-weighted k-step cone sums of every (orientation, height) class.

    Keys are ("away", h) and ("toward", h), h = 1..R.  With q = d-1 and
    w(e) = q^((R-h(e))/2), the predecessor-cone sum at e is (B^k w)(e) / w(e),
    and the successor-cone sum ((B^T)^k w)(e) / w(e).  w is held as the
    integer class vectors `even` and `odd` (w = even + sqrt(q)*odd), so
    `_b_classes` runs exactly; on all-ones it counts the walks, and a cone
    is interior exactly when it has all q^k of them.
    """
    d, radius = check_ball(d, radius)
    if k < 1:
        raise ValueError("k must be >= 1")
    q = d - 1
    starts = ([1] * (radius + 1),
              [q ** (m // 2) if m % 2 == 0 else 0 for m in range(radius, -1, -1)],  # even
              [q ** (m // 2) if m % 2 == 1 else 0 for m in range(radius, -1, -1)])  # odd
    powers = []  # B^k of each start, as (away, toward) class values
    for away in starts:
        toward = away
        for _ in range(k):
            away, toward = _b_classes(d, away, toward)
        powers.append((away, toward))

    def pred_cone(o: int, h: int) -> tuple[tuple[Fraction, Fraction], bool]:
        walks, even, odd = (p[o][h] for p in powers)
        return _unweight(even, odd, radius - h, q), walks == q ** k

    # B^T is B on the swapped classes, and every start is the same on both,
    # so (B^T)^k reads B^k's values of the other orientation
    table = {}
    for o, orient in enumerate(("away", "toward")):
        for h in range(1, radius + 1):
            (s_fwd, target_in), (s_inv, source_in) = pred_cone(o, h), pred_cone(1 - o, h)
            table[orient, h] = WeightSums(root_value(*s_inv, q), root_value(*s_fwd, q),
                                          s_inv, s_fwd, source_in, target_in)
    return table


def _bound_exact(d: int, k: int) -> tuple[Fraction, Fraction]:
    """(k+1)*(d-1)^((k+1)/2) as rational + rational*sqrt(d-1)."""
    q = d - 1
    if (k + 1) % 2 == 0:
        return Fraction((k + 1) * q ** ((k + 1) // 2)), Fraction(0)
    return Fraction(0), Fraction((k + 1) * q ** (k // 2))


def certify_claims(d: int, radius: int, k: int) -> CertificateReport:
    """Certify that both cone-sum maxima stay strictly below the norm bound.

    The maxima are taken over the (orientation, height) classes of
    `cone_weight_sums` with an interior cone; R >= k+2 gives each of the
    four maxima at least its height-1 class.  Ties keep the lowest
    height.  Comparisons against the bound are exact in rational
    arithmetic over sqrt(d-1); the float values additionally respect a
    relative guard band of CERT_GUARD.  The report is strict only when
    both hold; a non-strict report indicates a defect.  (d, radius) is
    refused exactly where `build_ball` would refuse it.
    """
    d, radius = check_ball(d, radius)
    if k < 1:
        raise ValueError("k must be >= 1")
    if radius < k + 2:
        raise ValueError(
            f"radius {radius} too small: need R >= k+2 = {k + 2} so that "
            f"some cones are interior"
        )
    q = d - 1
    bound_a, bound_b = _bound_exact(d, k)
    bound = root_value(bound_a, bound_b, q)

    best = {}
    interior_edges = 0
    for (orient, h), sums in cone_weight_sums(d, radius, k).items():
        for key, exact, interior in (((orient, "s_inv"), sums.s_inv_exact, sums.source_interior),
                                     ((orient, "s_fwd"), sums.s_fwd_exact, sums.target_interior)):
            if interior and (key not in best or root_lt(*best[key], *exact, q)):
                best[key] = exact
        if sums.source_interior:
            interior_edges += d * q ** (h - 1)  # edges of one orientation at height h

    def val(key) -> float:
        return root_value(*best[key], q)

    max_s_inv = max(val(("away", "s_inv")), val(("toward", "s_inv")))
    max_s_fwd = max(val(("away", "s_fwd")), val(("toward", "s_fwd")))
    strict = (all(root_lt(a, b, bound_a, bound_b, q) for a, b in best.values())
              and max_s_inv <= bound * (1.0 - CERT_GUARD)
              and max_s_fwd <= bound * (1.0 - CERT_GUARD))

    breakdown = {
        orient: {
            "max_s_inv": val((orient, "s_inv")),
            "max_s_fwd": val((orient, "s_fwd")),
        }
        for orient in ("away", "toward")
    }
    return CertificateReport(
        d=d, radius=radius, k=k,
        max_s_inv=max_s_inv, max_s_fwd=max_s_fwd, bound=bound,
        interior_edge_count=interior_edges, breakdown=breakdown, strict=strict,
    )
