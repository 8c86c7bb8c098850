"""Local rules over tree balls: label domains, local views, symmetrization.

A rule reads a *rooted local view*, its vertices level by level in
canonical (breadth-first id) order.  Its func is batched: it maps an
(n, n_local) label matrix, one labeling per row and the view's vertices
as columns in level order, to n values.  Two view shapes occur:

* vertex view: level 1 has d entries (all neighbors), deeper levels
  branch by d-1;
* subtree view behind a directed edge: level 1 already branches by d-1.

The views hold vertex ids; the exact route (`correlation.rule_site`)
enumerates the labels of a finite label domain on them, and the Monte
Carlo route (`correlation.linear_pair_sampler`) weights them by level.

Symmetrization averages a rule over all recursive child permutations of
its view, which preserves means and cross-moments while contracting
variance.  The averaging is exact, so it is capped at depth 2 and d <= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import permutations, product
from typing import Callable

import numpy as np

from . import rng
from .errors import CapExceededError, InteriorityError
from .tree_core import TreeBall, build_ball, distances_from, vertices_at_distance

#: cap on the number of terms in an exact orbit average
ORBIT_CAP = 1_000_000

Levels = tuple[np.ndarray, ...]


# ---------------------------------------------------------------------------
# label domains
# ---------------------------------------------------------------------------


def domain_values(tag: str) -> np.ndarray:
    """The equally likely values of one i.i.d. vertex label, which the exact
    route enumerates: "rademacher" (+-1) or "alphabet:A" ({0..A-1}).
    """
    if tag == "rademacher":
        return np.array([-1.0, 1.0])
    if isinstance(tag, str) and tag.startswith("alphabet:"):
        size = int(tag.split(":", 1)[1])
        if size < 2:
            raise ValueError("alphabet domain needs alphabet_size >= 2")
        return np.arange(size, dtype=np.float64)
    raise ValueError(f"unknown label domain {tag!r}")


# ---------------------------------------------------------------------------
# local views
# ---------------------------------------------------------------------------


def _grow_levels(ball: TreeBall, start: int, avoid: int, depth: int) -> list[np.ndarray]:
    """Level-grouped BFS vertex ids from `start`, never stepping onto `avoid`.

    Children of each level vertex are grouped consecutively in the next
    level, parents in level order, siblings in ascending id order.  Raises
    InteriorityError if the walk would need neighbors the ball cut off.
    """
    if depth < 0:
        raise ValueError(f"view depth must be >= 0, got {depth}")
    levels = [np.array([start], dtype=np.int64)]
    came_from = [avoid]
    for _ in range(depth):
        nxt: list[int] = []
        nxt_from: list[int] = []
        for w, frm in zip(levels[-1].tolist(), came_from):
            if ball.depth[w] == ball.radius:
                raise InteriorityError(
                    f"view around vertex {start} reaches the ball boundary"
                )
            for u in ball.neighbors(w).tolist():
                if u != frm:
                    nxt.append(u)
                    nxt_from.append(w)
        levels.append(np.array(nxt, dtype=np.int64))
        came_from = nxt_from
    return levels


def vertex_ball_levels(ball: TreeBall, v: int, r: int) -> Levels:
    """Vertex ids of the radius-r view around v, one array per distance level."""
    ball._check_vertex(v)
    if int(ball.depth[v]) + r > ball.radius:
        raise InteriorityError(
            f"radius-{r} view around vertex {v} (depth {int(ball.depth[v])}) "
            f"exits the radius-{ball.radius} ball"
        )
    return tuple(_grow_levels(ball, v, -1, r))


def subtree_levels(ball: TreeBall, e: int, depth: int) -> Levels:
    """Vertex ids of the depth-D view of the subtree behind directed edge e.

    The subtree behind e = (u, w) consists of the vertices closer to u
    than to w; its root u has d-1 outward neighbors.
    """
    ball._check_edge(e)
    u = ball.edge_tail(e)
    w = ball.edge_head(e)
    return tuple(_grow_levels(ball, u, w, depth))


# ---------------------------------------------------------------------------
# rule descriptors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockRule:
    """Local rule of a vertex process on its radius-r vertex view."""

    radius: int
    func: Callable[[np.ndarray], np.ndarray]  # (n, n_local) labels, columns in level order -> (n,)
    symmetric: bool = False
    name: str = ""
    domain: str | None = None


@dataclass(frozen=True)
class LinearRule:
    """X_v = sum over the radius-r view of profile[dist] * label."""

    radius: int
    profile: tuple[float, ...]

    def __post_init__(self):
        if len(self.profile) != self.radius + 1:
            raise ValueError("profile needs one coefficient per distance 0..r")
        if not all(map(math.isfinite, self.profile)):
            raise ValueError("profile coefficients must be finite")


@dataclass(frozen=True)
class EdgeRule:
    """Rule on the depth-D subtree view behind a directed edge."""

    depth: int
    func: Callable[[np.ndarray], np.ndarray]  # (n, n_local) labels, columns in level order -> (n,)
    symmetric: bool = False
    name: str = ""


# ---------------------------------------------------------------------------
# linear-rule covariance oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearCovariance:
    cov: float
    var: float
    corr: float


def sphere_size(d: int, i: int) -> int:
    """Number of vertices at distance i from a vertex of the infinite tree."""
    return 1 if i == 0 else d * (d - 1) ** (i - 1)


def linear_rule_covariance_exact(d: int, profile, k: int) -> LinearCovariance:
    """Exact covariance/correlation of a linear rule at two distance-k sites.

    Places the two sites in a ball just large enough that every vertex of
    the infinite tree within distance r of either site is present, then
    sums profile[dist(w,u)] * profile[dist(w,v)] over the shared view.
    Assumes centered, unit-variance labels.
    """
    profile = np.asarray(profile, dtype=np.float64)
    if profile.ndim != 1 or profile.size == 0:
        raise ValueError("profile must be a non-empty 1-d coefficient array")
    if k < 0:
        raise ValueError("distance k must be >= 0")
    r = profile.size - 1
    ball = build_ball(d, r + (k + 1) // 2)
    u, v = vertices_at_distance(ball, k)
    du = distances_from(ball, u)
    dv = distances_from(ball, v)
    mask = (du <= r) & (dv <= r)
    cov = math.fsum((profile[du[mask]] * profile[dv[mask]]).tolist())
    var = math.fsum(sphere_size(d, i) * float(a) ** 2 for i, a in enumerate(profile))
    corr = cov / var if var > 0 else 0.0
    return LinearCovariance(cov, var, corr)


# ---------------------------------------------------------------------------
# orbit averaging (symmetrization)
# ---------------------------------------------------------------------------


def _view_branching(rule, d: int) -> tuple[int, int]:
    """(depth, first-level branching) of a rule's view."""
    if isinstance(rule, BlockRule):
        return rule.radius, d
    if isinstance(rule, EdgeRule):
        return rule.depth, d - 1
    raise TypeError(f"cannot symmetrize {type(rule).__name__}")


def orbit_size(depth: int, b0: int, d: int) -> int:
    """Number of recursive child permutations of a depth-D view."""
    if depth == 0:
        return 1
    size = math.factorial(b0)
    if depth >= 2:
        size *= math.factorial(d - 1) ** b0
    return size


def _level_orbit(levels: Levels, b0: int, d: int):
    """Yield every recursive child permutation of a depth <= 2 view."""
    depth = len(levels) - 1
    if depth == 0:
        yield levels
        return
    l0, l1 = levels[0], levels[1]
    if depth == 1:
        for sigma in permutations(range(b0)):
            yield (l0, l1[list(sigma)])
        return
    l2 = levels[2]
    blocks = [l2[i * (d - 1):(i + 1) * (d - 1)] for i in range(b0)]
    child_perms = list(permutations(range(d - 1)))
    for sigma in permutations(range(b0)):
        for subs in product(child_perms, repeat=b0):
            new_l1 = l1[list(sigma)]
            new_l2 = np.concatenate(
                [blocks[sigma[i]][list(subs[i])] for i in range(b0)]
            )
            yield (l0, new_l1, new_l2)


def symmetrize_rule(rule, d: int):
    """Average a rule over all automorphisms of its rooted view.

    Works on BlockRule (vertex view) and EdgeRule (subtree view).  The
    average is exact, hence restricted to depth <= 2 and d <= 4; beyond
    that the orbit blows past ORBIT_CAP.
    """
    depth, b0 = _view_branching(rule, d)
    if depth > 2:
        raise CapExceededError(f"exact orbit average supports depth <= 2, got {depth}")
    size = orbit_size(depth, b0, d)
    if size > ORBIT_CAP:
        raise CapExceededError(f"orbit has {size} elements (cap {ORBIT_CAP})")
    inner = rule.func
    columns = (np.arange(1), np.arange(1, 1 + b0), np.arange(1 + b0, 1 + b0 * d))[:depth + 1]
    orbit = [np.concatenate(p) for p in _level_orbit(columns, b0, d)]

    def averaged(x: np.ndarray) -> np.ndarray:
        values = np.column_stack([inner(x[:, p]) for p in orbit])
        return np.array([math.fsum(row) for row in values.tolist()]) / size

    return replace(rule, func=averaged, symmetric=True,
                   name=f"sym({rule.name})" if rule.name else "sym")


# ---------------------------------------------------------------------------
# built-in rule families
# ---------------------------------------------------------------------------


def sum_rule(radius: int) -> BlockRule:
    return BlockRule(radius, lambda x: x.sum(axis=1), symmetric=True, name=f"sum:r{radius}")


def parity_rule(radius: int) -> BlockRule:
    return BlockRule(radius, lambda x: x.sum(axis=1) % 2,
                     symmetric=True, name=f"parity:r{radius}", domain="alphabet:2")


def threshold_rule(radius: int, theta: float) -> BlockRule:
    if not math.isfinite(theta):
        raise ValueError(f"threshold must be finite, got {theta}")
    return BlockRule(radius, lambda x: (x.sum(axis=1) >= theta).astype(np.float64),
                     symmetric=True, name=f"threshold:r{radius}:t{theta}")


def majority_rule(radius: int) -> BlockRule:
    return BlockRule(radius, lambda x: np.sign(x.sum(axis=1)), symmetric=True,
                     name=f"majority:r{radius}", domain="rademacher")


def xor_pair_rule() -> BlockRule:
    """Parity of the center label and its first neighbor; order-sensitive."""
    def f(x: np.ndarray) -> np.ndarray:
        return (x[:, 0].astype(np.int64) ^ x[:, 1].astype(np.int64)).astype(np.float64)
    return BlockRule(1, f, symmetric=False, name="xor-pair", domain="alphabet:2")


def geometric_profile(d: int, radius: int, rate: float | None = None) -> LinearRule:
    """Coefficients rate^i; rate defaults to 1/sqrt(d-1), the critical decay."""
    if rate is None:
        rate = 1.0 / math.sqrt(d - 1.0)
    try:
        profile = tuple(rate ** i for i in range(radius + 1))
    except OverflowError:
        raise ValueError(f"geometric profile rate {rate} overflows at radius {radius}") from None
    return LinearRule(radius, profile)


def flat_profile(radius: int) -> LinearRule:
    return LinearRule(radius, (1.0,) * (radius + 1))


def delta_profile() -> LinearRule:
    return LinearRule(0, (1.0,))


def _table_rule_func(alphabet: int, seed: int) -> Callable[[np.ndarray], np.ndarray]:
    """Uniform value hashed from each row of labels, read as base-`alphabet`
    digits, first column most significant; labels must lie in {0..alphabet-1}."""
    def f(x: np.ndarray) -> np.ndarray:
        if not np.isin(x, np.arange(alphabet)).all():
            raise ValueError(f"table rule reads labels in 0..{alphabet - 1} only")
        idx = x.astype(np.int64) @ alphabet ** np.arange(x.shape[1] - 1, -1, -1, dtype=np.int64)
        return rng.to_unit(rng.words(seed, idx))
    return f


def table_block_rule(radius: int, d: int, alphabet: int, seed: int) -> BlockRule:
    """Deterministic random-valued rule on an alphabet view, driven by a table."""
    return BlockRule(radius, _table_rule_func(alphabet, seed), symmetric=False,
                     name=f"table:r{radius}:s{seed}", domain=f"alphabet:{alphabet}")


def edge_tail_rule() -> EdgeRule:
    return EdgeRule(0, lambda x: x[:, 0], symmetric=True, name="edge-tail")


def edge_sum_rule(depth: int) -> EdgeRule:
    return EdgeRule(depth, lambda x: x.sum(axis=1), symmetric=True, name=f"edge-sum:D{depth}")


def edge_first_child_rule() -> EdgeRule:
    """Label of the first outward neighbor; depends on the canonical order."""
    return EdgeRule(1, lambda x: x[:, 1], symmetric=False, name="edge-first-child")


def edge_table_rule(depth: int, alphabet: int, seed: int) -> EdgeRule:
    return EdgeRule(depth, _table_rule_func(alphabet, seed), symmetric=False,
                    name=f"edge-table:D{depth}:s{seed}")


BLOCK_RULE_FAMILIES = {
    "sum": lambda radius=1, **kw: sum_rule(int(radius)),
    "parity": lambda radius=1, **kw: parity_rule(int(radius)),
    "threshold": lambda radius=1, theta=2.0, **kw: threshold_rule(int(radius), float(theta)),
    "majority": lambda radius=1, **kw: majority_rule(int(radius)),
    "xor-pair": lambda **kw: xor_pair_rule(),
}
