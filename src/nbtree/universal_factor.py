"""Per-vertex encoding of a labeled ball, and path reconstruction from codes.

A labeling is a plain array, labels[v] the label of vertex v of the ball.
A vertex code stores, level by level, the sorted label blocks of the
rooted view around the vertex: own label, the sorted labels of all d
neighbors, then per neighbor (taken in sorted order) the sorted labels of
its d-1 outward neighbors, and so on to depth D.  Sorting erases the
internal child order, so the code depends only on the isomorphism type
of the labeled rooted ball.

When all labels are distinct, the codes of two vertices at distance
n <= D+1 determine the labels along the connecting path: the radius-j
sphere of one code and the radius-(n-j) sphere of the other intersect in
exactly one label, the j-th path vertex's.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import LabelCollisionError, ReconstructionError
from .factor_engine import vertex_ball_levels
from .tree_core import TreeBall, distances_from, path_vertices


@dataclass(frozen=True)
class VertexCode:
    """Sorted-block encoding of the depth-D labeled view around one vertex.

    blocks[j] is a tuple of sorted label blocks at level j (one block per
    level-(j-1) parent, parents in code order); spheres[j] is the sorted
    multiset of all level-j labels.  The center id is carried for test
    convenience only and is not part of the comparable payload.
    """

    center: int
    depth: int
    blocks: tuple[tuple[tuple[float, ...], ...], ...]
    spheres: tuple[tuple[float, ...], ...]


def encode_vertex(ball: TreeBall, labels: np.ndarray, v: int, depth: int) -> VertexCode:
    """Encode the depth-D view around v; labels[w] is vertex w's label, and
    the labels in the view must be distinct."""
    view = [labels[ids].tolist() for ids in vertex_ball_levels(ball, v, depth)]
    blocks: list[tuple[tuple[float, ...], ...]] = [((view[0][0],),)]
    order = [0]  # positions in the current level, in code order
    for j in range(1, depth + 1):
        # each level lists every parent's children together, parents in
        # level order; visit the parents in code order instead
        level = view[j]
        fan = len(level) // len(view[j - 1])
        level_blocks = []
        nxt: list[int] = []
        for p in order:
            kids = sorted(range(p * fan, (p + 1) * fan), key=level.__getitem__)
            level_blocks.append(tuple(level[c] for c in kids))
            nxt.extend(kids)
        blocks.append(tuple(level_blocks))
        order = nxt
    in_code_order = [[x for block in lv for x in block] for lv in blocks]
    seen: set[float] = set()
    for x in (x for level in in_code_order for x in level):
        if x in seen:
            raise LabelCollisionError(
                f"duplicate label {x!r} in the depth-{depth} view around {v}"
            )
        seen.add(x)
    spheres = tuple(tuple(sorted(level)) for level in in_code_order)
    return VertexCode(v, depth, tuple(blocks), spheres)


def _sorted_intersection(a: tuple[float, ...], b: tuple[float, ...]) -> list[float]:
    out: list[float] = []
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] < b[j]:
            i += 1
        elif a[i] > b[j]:
            j += 1
        else:
            out.append(a[i])
            i += 1
            j += 1
    return out


def reconstruct_path(code_u: VertexCode, code_v: VertexCode, n: int) -> list[float]:
    """Labels of the n-1 interior vertices of the u-v path, in order from u.

    Requires dist(u, v) = n with 1 <= n <= D+1 for both codes.  Position j
    is the unique label shared by the radius-j sphere of code_u and the
    radius-(n-j) sphere of code_v.
    """
    if n < 1:
        raise ValueError("path length must be >= 1")
    if n - 1 > code_u.depth or n - 1 > code_v.depth:
        raise ValueError(
            f"path length {n} needs code depth >= {n - 1} on both sides"
        )
    labels: list[float] = []
    for j in range(1, n):
        common = _sorted_intersection(code_u.spheres[j], code_v.spheres[n - j])
        if len(common) != 1:
            raise ReconstructionError(
                f"expected exactly one shared label at position {j}, found "
                f"{len(common)}; the codes do not belong to vertices at distance {n}"
            )
        labels.append(common[0])
    return labels


def sphere_overlap_count(ball: TreeBall, u: int, v: int) -> np.ndarray:
    """|sphere_j(u) ∩ sphere_{n-j}(v)| as vertex sets for j = 0..n, n = dist(u, v).

    Label-free structural counterpart of the unique-common-label step;
    every entry is 1.  One BFS from each end serves every j.
    """
    du = distances_from(ball, u)
    dv = distances_from(ball, v)
    n = int(du[v])
    return np.bincount(du[du + dv == n], minlength=n + 1)


@dataclass(frozen=True)
class RoundtripResult:
    trials: int
    successes: int
    collisions: int

    @property
    def passed(self) -> bool:
        """Every trial reconstructed its path exactly, with no label collision."""
        return self.successes == self.trials and self.collisions == 0

    def to_json_dict(self) -> dict:
        return {"trials": self.trials, "successes": self.successes,
                "collisions": self.collisions}


def roundtrip_min_radius(depth: int) -> int:
    """Smallest ball radius with interior pairs at every distance 1..D+1."""
    return depth + (depth + 2) // 2 + 1


def roundtrip_check(ball: TreeBall, depth: int, trials: int, seed: int
                    ) -> RoundtripResult:
    """Encode random interior vertex pairs, reconstruct, compare to ground truth.

    Pairs are drawn at distances 1..D+1 with both views interior.  Every
    trial either succeeds exactly, fails (counted, not raised), or hits a
    label collision (counted separately).  Vertex v's label is the uniform
    [0, 1) double of word v of the `seed` stream, so labels repeat with
    negligible probability and the contract is successes == trials with
    zero collisions.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    min_radius = roundtrip_min_radius(depth)
    if ball.radius < min_radius:
        raise ValueError(
            f"radius {ball.radius} too small for depth {depth}: need >= {min_radius} "
            f"so random interior pairs exist at every distance up to {depth + 1}"
        )
    labels = rng.to_unit(rng.words(seed, np.arange(ball.n)))
    eligible = np.flatnonzero(ball.depth <= ball.radius - depth)
    bases = rng.words(seed ^ 0x5EED, np.arange(trials)).tolist()
    successes = 0
    collisions = 0
    for base in bases:
        u, v, n = _draw_pair(ball, eligible, depth, base)
        try:
            code_u = encode_vertex(ball, labels, u, depth)
            code_v = encode_vertex(ball, labels, v, depth)
            got = reconstruct_path(code_u, code_v, n)
        except LabelCollisionError:
            collisions += 1
            continue
        except ReconstructionError:
            continue
        truth = [float(labels[w]) for w in path_vertices(ball, u, v)[1:-1]]
        if got == truth:
            successes += 1
    return RoundtripResult(trials, successes, collisions)


def _draw_pair(ball: TreeBall, eligible: np.ndarray, depth: int,
               base: int) -> tuple[int, int, int]:
    """Deterministic interior pair at distance 1..D+1 for one trial.

    `base` is the trial's word of the stream keyed by seed ^ 0x5EED.  Each
    attempt reads one block of its own stream: position 0 picks u, 1 the
    distance n, and 2 + step the neighbour taken at that step, each mapped
    to its own alphabet size.
    """
    for attempt in range(256):
        w = rng.words(base + attempt * 1_000_003, np.arange(depth + 3))
        u = int(eligible[int(rng.to_alphabet(w[0], len(eligible)))])
        n = 1 + int(rng.to_alphabet(w[1], depth + 1))
        v = u
        prev = -1
        ok = True
        for step in range(n):
            nbrs = [int(x) for x in ball.neighbors(v) if int(x) != prev]
            if not nbrs:
                ok = False
                break
            prev, v = v, nbrs[int(rng.to_alphabet(w[2 + step], len(nbrs)))]
        if ok and int(ball.depth[v]) + depth <= ball.radius:
            return u, v, n
    raise RuntimeError("could not draw an interior pair; ball too small")
