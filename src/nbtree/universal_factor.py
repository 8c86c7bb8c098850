"""Per-vertex encoding of a labeled ball, and path reconstruction from codes.

A labeling is a plain array, labels[v] the label of vertex v of the ball.
A vertex code stores, level by level, the sorted label blocks of the
rooted view around the vertex: own label, the sorted labels of all d
neighbors, then per neighbor (taken in sorted order) the sorted labels of
its d-1 outward neighbors, and so on to depth D.  Sorting erases the
internal child order, so the code depends only on the isomorphism type
of the labeled rooted ball.  One encoder builds the views of many
centres at once, level by level; `encode_vertex` runs it on one centre
and `roundtrip_check` on both ends of every trial.

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
from .factor_engine import check_vertex_view
from .tree_core import TreeBall, distances_from


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


def _neighbors(ball: TreeBall, ids: np.ndarray) -> np.ndarray:
    """Neighbour ids of an array of vertices, one row of d per vertex: the
    row of v is `ball.neighbors(v)` (parent first, then children in
    ascending order) padded with -1."""
    col = np.arange(ball.d) - (ids > 0)[..., None]
    kids = np.where(col < ball.child_count[ids][..., None], ball.child_start[ids][..., None] + col, -1)
    return np.where(col < 0, ball.parent[ids][..., None], kids)


def _code_levels(ball: TreeBall, labels: np.ndarray, centres: np.ndarray, depth: int
                 ) -> tuple[list[np.ndarray], np.ndarray]:
    """The depth-D views around many centres at once, labels in code order.

    Level j is one (centres, |sphere j|) array: each level-(j-1) vertex's
    outward neighbours sorted stably by label (ties keep ascending ids),
    parents in code order.  Also flags each centre whose view repeats a
    label.  Every view must lie inside the ball (`check_vertex_view`).
    """
    ids = centres[:, None]
    came = np.full_like(ids, -1)  # interior rows hold no padding to drop
    levels = [labels[ids]]
    for j in range(depth):
        fan = ball.d - (j > 0)
        nbrs = _neighbors(ball, ids)
        kids = nbrs[nbrs != came[:, :, None]].reshape(ids.shape + (fan,))
        came = np.repeat(ids, fan, axis=1)
        order = np.argsort(labels[kids], axis=2, kind="stable")
        ids = np.take_along_axis(kids, order, axis=2).reshape(len(centres), came.shape[1])
        levels.append(labels[ids])
    flat = np.sort(np.concatenate(levels, axis=1), axis=1)
    return levels, (flat[:, 1:] == flat[:, :-1]).any(axis=1)


def encode_vertex(ball: TreeBall, labels: np.ndarray, v: int, depth: int) -> VertexCode:
    """Encode the depth-D view around v; labels[w] is vertex w's label, and
    the labels in the view must be distinct.  This is the batch encoder of
    `roundtrip_check` run on one centre."""
    check_vertex_view(ball, v, depth)
    levels, collides = _code_levels(ball, labels, np.array([v]), depth)
    view = [lv[0].tolist() for lv in levels]
    if collides[0]:
        flat = [x for level in view for x in level]
        x = next(x for i, x in enumerate(flat) if x in flat[:i])
        raise LabelCollisionError(f"duplicate label {x!r} in the depth-{depth} view around {v}")
    blocks = [((view[0][0],),)]
    for parents, level in zip(view, view[1:]):
        fan = len(level) // len(parents)
        blocks.append(tuple(tuple(level[i:i + fan]) for i in range(0, len(level), fan)))
    spheres = tuple(tuple(sorted(level)) for level in view)
    return VertexCode(v, depth, tuple(blocks), spheres)


def _shared_labels(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of two sphere arrays, each row free of repeats: how many
    labels the rows share, and the first shared label (as a holds it)."""
    both = np.sort(np.concatenate([a, b], axis=1), axis=1, kind="stable")
    same = both[:, 1:] == both[:, :-1]
    return same.sum(axis=1), both[np.arange(len(both)), np.argmax(same, axis=1)]


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
        count, label = _shared_labels(np.array([code_u.spheres[j]]),
                                      np.array([code_v.spheres[n - j]]))
        if count[0] != 1:
            raise ReconstructionError(
                f"expected exactly one shared label at position {j}, found "
                f"{count[0]}; the codes do not belong to vertices at distance {n}"
            )
        labels.append(float(label[0]))
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
    zero collisions.  The trials run together, as arrays: `_draw_paths`
    draws the pairs, `_code_levels` encodes all 2·trials ends, and path
    position j is the label shared by two spheres, as in `reconstruct_path`.
    """
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    if depth < 0:
        raise ValueError(f"view depth must be >= 0, got {depth}")
    min_radius = roundtrip_min_radius(depth)
    if ball.radius < min_radius:
        raise ValueError(
            f"radius {ball.radius} too small for depth {depth}: need >= {min_radius} "
            f"so random interior pairs exist at every distance up to {depth + 1}"
        )
    labels = rng.to_unit(rng.words(seed, np.arange(ball.n)))
    path, n = _draw_paths(ball, depth, rng.words(seed ^ 0x5EED, np.arange(trials)))
    ends = np.concatenate([path[:, 0], path[np.arange(trials), n]])
    levels, collides = _code_levels(ball, labels, ends, depth)
    ok = np.ones(trials, dtype=bool)
    for j in range(1, depth + 1):
        for m in range(1, depth + 2 - j):  # the trials with n = j + m
            rows = np.flatnonzero(n == j + m)
            count, label = _shared_labels(levels[j][rows], levels[m][trials + rows])
            ok[rows] &= (count == 1) & (label == labels[path[rows, j]])
    collided = collides[:trials] | collides[trials:]
    return RoundtripResult(trials, int((ok & ~collided).sum()), int(collided.sum()))


def _draw_paths(ball: TreeBall, depth: int, bases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per trial, the vertices u = p_0, ..., p_n = v of a deterministic
    interior path, n in 1..D+1; (trials, D+2) ids and n per trial.

    bases[t] is trial t's word of the stream keyed by seed ^ 0x5EED.  Its
    attempt a reads the stream keyed by (bases[t] + a·1_000_003) mod 2^64:
    position 0 picks u, 1 picks n, and 2 + step the step's neighbour among
    those other than the previous vertex.  Failed trials draw again.
    """
    eligible = np.flatnonzero(ball.depth <= ball.radius - depth)
    table = _neighbors(ball, np.arange(ball.n))  # every retry round walks it
    path = np.zeros((len(bases), depth + 2), dtype=np.int64)
    n = np.zeros(len(bases), dtype=np.int64)
    todo = np.arange(len(bases))
    for attempt in range(256):
        if not len(todo):
            return path, n
        w = rng.words(bases[todo] + np.uint64(attempt * 1_000_003), np.arange(depth + 3))
        walk = np.empty((len(todo), depth + 2), dtype=np.int64)
        walk[:, 0] = eligible[rng.to_alphabet(w[:, 0], len(eligible))]
        steps = 1 + rng.to_alphabet(w[:, 1], depth + 1)
        ok = np.ones(len(todo), dtype=bool)
        prev = np.full(len(todo), -1)
        for step in range(depth + 1):
            nbrs = table[walk[:, step]]
            valid = (nbrs >= 0) & (nbrs != prev[:, None])
            ok &= (step >= steps) | valid.any(axis=1)
            pick = rng.to_alphabet(w[:, 2 + step], valid.sum(axis=1))
            col = np.argmax(valid & (np.cumsum(valid, axis=1) == pick[:, None] + 1), axis=1)
            walk[:, step + 1] = nbrs[np.arange(len(todo)), col]
            prev = walk[:, step]
        ok &= ball.depth[walk[np.arange(len(todo)), steps]] + depth <= ball.radius
        path[todo[ok]], n[todo[ok]] = walk[ok], steps[ok]
        todo = todo[~ok]
    if len(todo):
        raise RuntimeError("could not draw an interior pair; ball too small")
    return path, n
