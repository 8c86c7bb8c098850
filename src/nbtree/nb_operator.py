"""The non-backtracking operator on the directed edges of a tree ball.

The operator maps a function f on directed edges to
(Bf)(e) = sum of f over the predecessors e' -> e, and its adjoint to
(B^T f)(e) = sum of f over the successors e -> e'; the relation itself
is computed in one place, ``tree_core.successor_lists``.  The k-step
cones behind the certificates follow the same rule through
``tree_core.cone``.  Two independent certificates are computed for the
k-th power of B:

* a power-iteration estimate of ||B^k|| on the finite ball, which the
  infinite-tree bound (k+1)*(d-1)^((k+1)/2) must dominate, and
* exact height-weighted walk sums over k-step cones, whose maxima over
  interior edges must stay strictly below the same bound.

The power iteration never builds a matrix or an edge vector.  The
root-fixing automorphisms of the ball act transitively on each
(orientation, height) class of directed edges, and the iteration starts
from the all-ones vector, which is constant on every class; B and B^T
commute with those automorphisms, so every iterate is class-constant too.
It is held as 2R class values, away[h] and toward[h] for h = 1..R.
Summing each edge's predecessors in ascending id order gives

    (Bf)(away at h)   = 0.0 + away[h-1] + toward[h] + ... + toward[h]
    (Bf)(toward at h) = 0.0 + toward[h+1] + ... + toward[h+1]

with d-2 sibling terms toward[h] (d-1, and no away[h-1], at h = 1), d-1
child terms toward[h+1] (none at h = R), and B^T the same sums with away
and toward exchanged.  `_b_classes` adds the terms one at a time in that
order, never as a count times a value (t+t+t and 3*t can round
differently).  The two reductions of each iteration, v @ w and ||w||,
weight each class by its n_h edges of either orientation and are summed
exactly (`_class_dot`): the result is the correctly rounded sum of the
rounded elementwise products, which is math.fsum over the full edge
vectors, and does not depend on the vector length or on any library.

Inside a tree a non-backtracking walk can never revisit an undirected
edge, so the k-step cone of any edge is duplicate-free and cone sums are
plain sums over frontier sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bounds
from ._exact import root_lt, root_value
from .errors import NbtreeError
from .tree_core import TreeBall, cone

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
    """Exact height-weighted sums over the k-step cones at one edge.

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


def walk_count(ball: TreeBall, e0: int, k: int) -> int:
    """Number of edges reachable from e0 by a k-step non-backtracking walk."""
    if k < 0:
        raise ValueError("k must be >= 0")
    ball._check_edge(e0)
    return int(cone(ball, e0, k).size)


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
    new_away = [0.0] * (radius + 1)
    new_toward = [0.0] * (radius + 1)
    for h in range(1, radius + 1):
        s = 0.0
        if h > 1:
            s += away[h - 1]
        x = toward[h]
        for _ in range(d - 1 if h == 1 else d - 2):
            s += x
        new_away[h] = s
        s = 0.0
        if h < radius:
            x = toward[h + 1]
            for _ in range(d - 1):
                s += x
        new_toward[h] = s
    return new_away, new_toward


def _class_dot(counts: list, x_away: list, x_toward: list,
               y_away: list, y_toward: list) -> float:
    """x @ y of two class-constant edge vectors, summed exactly, rounded once.

    counts[h] is the number of edges of each orientation at height h.
    Each class product is rounded as on one edge, then the counts-weighted
    sum is accumulated as an integer over one power-of-two denominator, so
    the result is math.fsum of the elementwise products over every edge.
    """
    num = 0
    shift = 0  # the sum so far is num / 2**shift
    for h in range(1, len(counts)):
        for p in (x_away[h] * y_away[h], x_toward[h] * y_toward[h]):
            a, b = p.as_integer_ratio()
            s = b.bit_length() - 1
            if s > shift:
                num <<= s - shift
                shift = s
            num += counts[h] * a << (shift - s)
    return num / (1 << shift)


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

    estimate = math.sqrt(max(rho, 0.0))
    return NormReport(d, ball.radius, k, estimate, bound, iterations, residual, converged)


# ---------------------------------------------------------------------------
# exact cone-sum certificates
# ---------------------------------------------------------------------------


def _weight_sum_exact(heights_from: int, heights: np.ndarray, q: int
                      ) -> tuple[Fraction, Fraction]:
    """Sum of q^(j/2) over j = heights_from - heights, split by parity of j.

    Returns (a, b) with the sum equal to a + b*sqrt(q), both exact.
    """
    a = Fraction(0)
    b = Fraction(0)
    diffs, counts = np.unique(heights_from - heights, return_counts=True)
    for j, cnt in zip(diffs.tolist(), counts.tolist()):
        if j % 2 == 0:
            a += cnt * Fraction(q) ** (j // 2)
        else:
            b += cnt * Fraction(q) ** ((j - 1) // 2)
    return a, b


def cone_weight_sums(ball: TreeBall, e: int, k: int) -> WeightSums:
    """Exact forward/backward height-weighted cone sums at edge e.

    A cone is interior exactly when it has the full (d-1)^k walks; cones
    clipped by the ball boundary are flagged so callers can exclude them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    q = ball.d - 1
    full = q ** k
    h0 = ball.edge_height(e)

    fwd = cone(ball, e, k)
    a_inv, b_inv = _weight_sum_exact(h0, ball.depth[fwd // 2 + 1], q)
    bwd = cone(ball, e, k, backward=True)
    a_fwd, b_fwd = _weight_sum_exact(h0, ball.depth[bwd // 2 + 1], q)

    return WeightSums(
        s_inv=root_value(a_inv, b_inv, q),
        s_fwd=root_value(a_fwd, b_fwd, q),
        s_inv_exact=(a_inv, b_inv),
        s_fwd_exact=(a_fwd, b_fwd),
        source_interior=(fwd.size == full),
        target_interior=(bwd.size == full),
    )


def _bound_exact(d: int, k: int) -> tuple[Fraction, Fraction]:
    """(k+1)*(d-1)^((k+1)/2) as rational + rational*sqrt(d-1)."""
    q = d - 1
    if (k + 1) % 2 == 0:
        return Fraction((k + 1) * q ** ((k + 1) // 2)), Fraction(0)
    return Fraction(0), Fraction((k + 1) * q ** (k // 2))


def certify_claims(ball: TreeBall, k: int) -> CertificateReport:
    """Certify that both cone-sum maxima stay strictly below the norm bound.

    The sums depend only on an edge's orientation and height (any two
    same-height, same-orientation edges are related by a root-fixing
    automorphism), so one cone per (orientation, height) class is
    enumerated and the maxima are taken over classes containing at least
    one interior edge.  Comparisons against the bound are exact in
    rational arithmetic over sqrt(d-1); the float values additionally
    respect a relative guard band of CERT_GUARD.  The report is strict only
    when both hold; a non-strict report indicates a defect.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if ball.radius < k + 2:
        raise ValueError(
            f"radius {ball.radius} too small: need R >= k+2 = {k + 2} so that "
            f"some cones are interior"
        )
    d, q = ball.d, ball.d - 1
    bound_a, bound_b = _bound_exact(d, k)
    bound = root_value(bound_a, bound_b, q)

    best = {
        ("away", "s_inv"): None, ("away", "s_fwd"): None,
        ("toward", "s_inv"): None, ("toward", "s_fwd"): None,
    }

    def consider(key, exact):
        cur = best[key]
        if cur is None or root_lt(cur[0], cur[1], exact[0], exact[1], q):
            best[key] = exact

    interior_edges = 0
    for h in range(1, ball.radius + 1):
        v = int(ball.level_start[h])  # class representative at depth h
        n_class = len(ball.vertices_at_depth(h))
        for orient, e in (("away", 2 * (v - 1)), ("toward", 2 * (v - 1) + 1)):
            sums = cone_weight_sums(ball, e, k)
            if sums.source_interior:
                consider((orient, "s_inv"), sums.s_inv_exact)
                interior_edges += n_class
            if sums.target_interior:
                consider((orient, "s_fwd"), sums.s_fwd_exact)

    for key, exact in best.items():
        if exact is None:
            raise NbtreeError(f"no interior cone found for class {key}")

    def val(key) -> float:
        return root_value(best[key][0], best[key][1], q)

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
        d=d, radius=ball.radius, k=k,
        max_s_inv=max_s_inv, max_s_fwd=max_s_fwd, bound=bound,
        interior_edge_count=interior_edges, breakdown=breakdown, strict=strict,
    )
