"""The non-backtracking operator on the directed edges of a tree ball.

The operator maps a function f on directed edges to
(Bf)(e) = sum of f over the predecessors e' -> e.  It is stored as one
sparse 0/1 CSR matrix, B^T, whose rows are the successor lists of
``tree_core`` (the one place the relation e -> e' is computed).  B is
applied as that matrix's transpose view, which SciPy runs as a CSC
product summing each (Bf)(e) in ascending predecessor order.  The k-step
cones behind the certificates follow the same rule through
``tree_core.cone``.  Two independent certificates are computed for its
k-th power:

* a power-iteration estimate of ||B^k|| on the finite ball, which the
  infinite-tree bound (k+1)*(d-1)^((k+1)/2) must dominate, and
* exact height-weighted walk sums over k-step cones, whose maxima over
  interior edges must stay strictly below the same bound.

Inside a tree a non-backtracking walk can never revisit an undirected
edge, so the k-step cone of any edge is duplicate-free and cone sums are
plain sums over frontier sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from . import bounds
from ._exact import root_lt, root_value
from .errors import NbtreeError
from .tree_core import TreeBall, cone, predecessors, successor_lists

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000

#: relative guard band for strict-inequality certificate checks
CERT_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class NbOperator:
    """Sparse realization of the non-backtracking operator on a ball.

    `succ` is B^T: row e lists the successors of e.  B itself is applied
    as the transpose view ``succ.T``.
    """

    ball: TreeBall
    m: int
    succ: sp.csr_matrix

    def predecessors(self, e: int) -> np.ndarray:
        return predecessors(self.ball, e)

    def successors(self, e: int) -> np.ndarray:
        return self.succ.indices[int(self.succ.indptr[e]):int(self.succ.indptr[e + 1])]


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


def build_operator(ball: TreeBall) -> NbOperator:
    """Assemble the successor lists of every directed edge into CSR form."""
    m = ball.n_edges
    succ, counts = successor_lists(ball, np.arange(m))
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    succ_mat = sp.csr_matrix((np.ones(succ.size), succ, indptr), shape=(m, m))
    return NbOperator(ball, m, succ_mat)


def apply(op: NbOperator, f: np.ndarray) -> np.ndarray:
    """(Bf)(e) = sum of f over predecessors of e."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.m,):
        raise ValueError(f"vector length {f.shape} != edge count {op.m}")
    return op.succ.T @ f


def apply_transpose(op: NbOperator, f: np.ndarray) -> np.ndarray:
    """(B^T f)(e) = sum of f over successors of e; the adjoint of apply."""
    f = np.asarray(f, dtype=np.float64)
    if f.shape != (op.m,):
        raise ValueError(f"vector length {f.shape} != edge count {op.m}")
    return op.succ @ f


def walk_count(op: NbOperator, e0: int, k: int) -> int:
    """Number of edges reachable from e0 by a k-step non-backtracking walk."""
    if k < 0:
        raise ValueError("k must be >= 0")
    op.ball._check_edge(e0)
    return int(cone(op.ball, e0, k).size)


def operator_norm_pow(op: NbOperator, k: int, tol: float = DEFAULT_TOL,
                      max_iter: int = DEFAULT_MAX_ITER) -> NormReport:
    """Estimate ||B^k|| by power iteration on v -> (B^T)^k B^k v.

    Starts from the deterministic all-ones vector (B^k preserves
    non-negativity, so the leading direction has non-negative overlap).
    The Rayleigh quotient increases toward ||B^k||^2 on the ball, which
    the infinite-tree bound dominates; an estimate above the bound is a
    defect, reported through the returned estimate and bound.
    """
    if k < 1:
        raise ValueError("power k must be >= 1")
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(tol):
        raise ValueError("tolerance must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    bound = bounds.bnorm_bound(op.ball.d, k)
    if op.m == 0:
        return NormReport(op.ball.d, op.ball.radius, k, 0.0, bound, 0, 0.0, True)

    v = np.full(op.m, 1.0 / math.sqrt(op.m))
    rho_prev = None
    residual = math.inf
    converged = False
    iterations = 0
    rho = 0.0
    b = op.succ.T
    for iterations in range(1, max_iter + 1):
        w = v
        for _ in range(k):
            w = b @ w
        for _ in range(k):
            w = op.succ @ w
        rho = float(v @ w)
        norm_w = float(np.linalg.norm(w))
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
        v = w / norm_w

    estimate = math.sqrt(max(rho, 0.0))
    return NormReport(op.ball.d, op.ball.radius, k, estimate, bound,
                      iterations, residual, converged)


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
