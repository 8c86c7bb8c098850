"""Finite truncations of the d-regular tree, stored as flat numpy arrays.

A ball of radius R around a root vertex holds every vertex of the infinite
d-regular tree within distance R.  Vertex ids are breadth-first from the
root, so the children of any vertex occupy a contiguous id range and each
directed edge is addressed by the child vertex it touches:

    away edge   2*(v-1)      parent(v) -> v
    toward edge 2*(v-1) + 1  v -> parent(v)

reverse(e) is therefore e XOR 1, and the height of either orientation is
the depth of the child vertex.  Boundary vertices (depth R) keep degree 1;
operations that need full neighborhoods check interiority explicitly.

The non-backtracking successor rule e -> e' (head(e) = tail(e') and
e' != reverse(e)) is computed in one place, `successor_lists`, vectorised
over edge arrays.  The k-step cones are derived from it.

Vertex geometry likewise has one BFS and one path walk.  `distances_from`
is a BFS from one vertex or a connected vertex set, and `hull_distance`
reads it on the second hull.  `path_vertices` walks up to the lowest
common ancestor; `convex_hull` is read off it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check_degree
from .errors import CapExceededError

#: refuse to build balls with more directed edges than this
DIRECTED_EDGE_CAP = 50_000_000


@dataclass(frozen=True, eq=False)
class TreeBall:
    """Radius-R truncation of the d-regular tree.

    Attributes
    ----------
    d           : degree of every interior vertex (>= 3)
    radius      : truncation radius R (>= 0)
    n           : number of vertices
    parent      : int64[n], parent id; -1 for the root
    depth       : int64[n], distance to the root
    child_start : int64[n], first child id (meaningless when child_count is 0)
    child_count : int64[n], d for the root, d-1 for interior vertices, 0 at depth R
    level_start : int64[R+2], level_start[j] is the first id at depth j;
                  level_start[R+1] == n
    """

    d: int
    radius: int
    n: int
    parent: np.ndarray
    depth: np.ndarray
    child_start: np.ndarray
    child_count: np.ndarray
    level_start: np.ndarray

    root = 0

    @property
    def n_edges(self) -> int:
        """Number of directed edges, 2*(n-1)."""
        return 2 * (self.n - 1)

    # ---- edge addressing -------------------------------------------------

    def edge_child(self, e: int) -> int:
        """The deeper endpoint of edge e (the child vertex it touches)."""
        self._check_edge(e)
        return e // 2 + 1

    def edge_tail(self, e: int) -> int:
        v = self.edge_child(e)
        return int(self.parent[v]) if e % 2 == 0 else v

    def edge_head(self, e: int) -> int:
        v = self.edge_child(e)
        return v if e % 2 == 0 else int(self.parent[v])

    # ---- vertex structure --------------------------------------------------

    def children(self, v: int) -> np.ndarray:
        self._check_vertex(v)
        s = int(self.child_start[v])
        return np.arange(s, s + int(self.child_count[v]), dtype=np.int64)

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbors of v in ascending id order (parent first, then children)."""
        self._check_vertex(v)
        kids = self.children(v)
        if v == 0:
            return kids
        return np.concatenate(([int(self.parent[v])], kids))

    def vertices_at_depth(self, j: int) -> np.ndarray:
        if not 0 <= j <= self.radius:
            raise ValueError(f"depth {j} outside [0, {self.radius}]")
        return np.arange(int(self.level_start[j]), int(self.level_start[j + 1]), dtype=np.int64)

    # ---- validation ----------------------------------------------------------

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex id {v} outside [0, {self.n})")

    def _check_edge(self, e: int) -> None:
        if not 0 <= e < self.n_edges:
            raise ValueError(f"edge id {e} outside [0, {self.n_edges})")


def ball_size(d: int, radius: int) -> int:
    """Vertex count of the radius-R ball: 1 + d*((d-1)^R - 1)/(d-2)."""
    if radius == 0:
        return 1
    return 1 + d * ((d - 1) ** radius - 1) // (d - 2)


def check_ball(d: int, radius: int) -> tuple[int, int]:
    """(d, radius) as ints, once they name a ball `build_ball` may build:
    d >= 3, radius >= 0 and at most DIRECTED_EDGE_CAP directed edges."""
    d = check_degree(d)
    if int(radius) != radius or radius < 0:
        raise ValueError(f"radius must be an integer >= 0, got {radius}")
    radius = int(radius)
    m = 2 * (ball_size(d, radius) - 1)
    if m > DIRECTED_EDGE_CAP:
        raise CapExceededError(
            f"ball d={d}, R={radius} has {m} directed edges (cap {DIRECTED_EDGE_CAP})"
        )
    return d, radius


def build_ball(d: int, radius: int) -> TreeBall:
    """Construct the radius-R truncation of the d-regular tree.

    Vertex ids are assigned breadth-first from the root.  Raises
    CapExceededError when the ball would hold more than
    DIRECTED_EDGE_CAP directed edges.
    """
    d, radius = check_ball(d, radius)
    n = ball_size(d, radius)

    sizes = [1] + [d * (d - 1) ** (j - 1) for j in range(1, radius + 1)]
    level_start = np.zeros(radius + 2, dtype=np.int64)
    np.cumsum(sizes, out=level_start[1:])

    parent = np.full(n, -1, dtype=np.int64)
    depth = np.zeros(n, dtype=np.int64)
    child_start = np.zeros(n, dtype=np.int64)
    child_count = np.zeros(n, dtype=np.int64)

    for j in range(radius + 1):
        lo, hi = int(level_start[j]), int(level_start[j + 1])
        depth[lo:hi] = j
        if j < radius:
            branching = d if j == 0 else d - 1
            ids = np.arange(lo, hi, dtype=np.int64)
            child_start[lo:hi] = level_start[j + 1] + (ids - lo) * branching
            child_count[lo:hi] = branching
            parent[int(level_start[j + 1]):int(level_start[j + 2])] = np.repeat(ids, branching)

    for arr in (parent, depth, child_start, child_count, level_start):
        arr.setflags(write=False)

    return TreeBall(d, radius, n, parent, depth, child_start, child_count, level_start)


# ---------------------------------------------------------------------------
# distances and hulls
# ---------------------------------------------------------------------------


def path_vertices(ball: TreeBall, u: int, v: int) -> list[int]:
    """Vertices of the unique u-v path, in order from u to v (inclusive)."""
    ball._check_vertex(u)
    ball._check_vertex(v)
    up, down = [], []
    du, dv = int(ball.depth[u]), int(ball.depth[v])
    while du > dv:
        up.append(u)
        u = int(ball.parent[u])
        du -= 1
    while dv > du:
        down.append(v)
        v = int(ball.parent[v])
        dv -= 1
    while u != v:
        up.append(u)
        down.append(v)
        u = int(ball.parent[u])
        v = int(ball.parent[v])
    return up + [u] + down[::-1]


def _children_of_many(ball: TreeBall, vs: np.ndarray) -> np.ndarray:
    counts = ball.child_count[vs]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.repeat(ball.child_start[vs], counts)
    ends = np.cumsum(counts)
    offsets = np.arange(total, dtype=np.int64) - np.repeat(ends - counts, counts)
    return starts + offsets


def distances_from(ball: TreeBall, source) -> np.ndarray:
    """BFS distances from `source` to every vertex, as an int64 array.

    `source` is one vertex or a connected vertex set; for a set, each
    distance is to the nearest member.
    """
    frontier = np.atleast_1d(np.asarray(source, dtype=np.int64))
    if frontier.size == 0:
        raise ValueError("distances_from an empty set")
    ball._check_vertex(int(frontier.min()))
    ball._check_vertex(int(frontier.max()))
    dist = np.full(ball.n, -1, dtype=np.int64)
    dist[frontier] = 0
    step = 0
    while frontier.size:
        step += 1
        kids = _children_of_many(ball, frontier)
        pars = ball.parent[frontier]
        pars = pars[pars >= 0]
        nxt = np.concatenate((pars, kids))
        nxt = nxt[dist[nxt] < 0]
        # a vertex with two neighbors on one BFS level would close a cycle
        # through the connected source set, so no unvisited vertex repeats
        dist[nxt] = step
        frontier = nxt
    return dist


def convex_hull(ball: TreeBall, vertices) -> np.ndarray:
    """Smallest connected vertex set containing `vertices`.

    Equals the union of all pairwise paths; computed as the union of paths
    from one anchor to every other member.  Returns a sorted id array.
    """
    vs = sorted({int(v) for v in vertices})
    if not vs:
        raise ValueError("convex_hull of an empty set")
    for v in vs:
        ball._check_vertex(v)
    anchor = vs[0]
    hull: set[int] = {anchor}
    for v in vs[1:]:
        hull.update(path_vertices(ball, anchor, v))
    return np.array(sorted(hull), dtype=np.int64)


def hull_distance(ball: TreeBall, set1, set2) -> tuple[int, int, int]:
    """Distance between the convex hulls of two vertex sets.

    Returns (k, v1, v2): the minimum distance k between the hulls and a
    closest pair with v1 in hull(set1), v2 in hull(set2).  When the hulls
    intersect, k is 0 and both witnesses are one shared vertex.
    """
    h1 = convex_hull(ball, set1)
    h2 = convex_hull(ball, set2)
    dist = distances_from(ball, h1)[h2]
    k = int(dist.min())
    v2 = int(h2[np.argmin(dist)])  # the first minimum: h2 is sorted
    # every path from v2 into the subtree hull(set1) enters it after k
    # steps, at the one member closest to v2
    v1 = path_vertices(ball, v2, int(h1[0]))[k]
    return k, v1, v2


# ---------------------------------------------------------------------------
# directed-edge relations
# ---------------------------------------------------------------------------


def successor_lists(ball: TreeBall, edges) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated successor lists of `edges` and the length of each list.

    The edges leaving head(e) are toward(head) (absent at the root) and then
    the away edges to head's children, in ascending id order; e's
    successors are those minus reverse(e), which always leaves head(e):
    reverse(e) is toward(head) for an away e and away(tail) for a toward e.
    """
    edges = _edge_array(ball, np.atleast_1d(edges))
    v = edges // 2 + 1
    away = edges % 2 == 0
    head = np.where(away, v, ball.parent[v])
    has_up = (head != 0).astype(np.int64)
    first_child = ball.child_start[head]
    n_out = ball.child_count[head] + has_up
    starts = np.cumsum(n_out) - n_out
    # slot j holds away(first_child + j - has_up), except that slot 0 of a
    # non-root head holds toward(head)
    out = np.repeat(2 * (first_child - has_up - 1 - starts), n_out)
    out += 2 * np.arange(out.size)
    up = has_up == 1
    out[starts[up]] = 2 * head[up] - 1
    reverse_slot = starts + np.where(away, 0, has_up + v - first_child)
    return np.delete(out, reverse_slot), n_out - 1


def successors(ball: TreeBall, edges) -> np.ndarray:
    """Edges e' with e -> e': head(e) = tail(e') and e' != reverse(e).

    Accepts one edge id or an array of them; returns each input edge's
    successors in ascending id order, concatenated in input order.
    """
    return successor_lists(ball, edges)[0]


def cone(ball: TreeBall, e, k: int, backward: bool = False) -> np.ndarray:
    """Edges at the end of the k-step non-backtracking walks from e (or into e).

    Inside a tree such walks never revisit an edge, so the result is
    duplicate-free.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    flip = int(backward)  # the backward cone is the reversed forward cone of reverse(e)
    frontier = np.atleast_1d(np.asarray(e, dtype=np.int64)) ^ flip
    for _ in range(k):
        frontier = successors(ball, frontier)
    return frontier ^ flip


def forward_cone_interior(ball: TreeBall, e, k: int):
    """True when every k-step walk from e stays inside the ball.

    The deepest such walk descends at once: an away edge at height h
    reaches depth h + k, a toward edge h + k - 1.  For one edge id the
    answer is a Python bool; for an array of ids, a bool array.
    """
    edges = _edge_array(ball, e)
    inside = ball.depth[edges // 2 + 1] + k - edges % 2 <= ball.radius
    return bool(inside) if inside.ndim == 0 else inside


def _edge_array(ball: TreeBall, edges) -> np.ndarray:
    """`edges` as an int64 array, after checking every id is in range."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size and not 0 <= edges.min() <= edges.max() < ball.n_edges:
        raise ValueError(f"edge ids outside [0, {ball.n_edges})")
    return edges


def edge_between(ball: TreeBall, a: int, b: int) -> int:
    """Id of the directed edge a -> b; a and b must be adjacent."""
    ball._check_vertex(a)
    ball._check_vertex(b)
    if int(ball.parent[b]) == a:
        return 2 * (b - 1)
    if int(ball.parent[a]) == b:
        return 2 * (a - 1) + 1
    raise ValueError(f"vertices {a} and {b} are not adjacent")


def vertices_at_distance(ball: TreeBall, k: int) -> tuple[int, int]:
    """A deterministic pair of vertices at distance k, both as shallow as possible.

    The pair descends into two distinct root subtrees (depths ceil(k/2)
    and floor(k/2)), so each endpoint has the largest possible interior
    margin for local rules.  k = 0 returns (root, root).
    """
    if k < 0:
        raise ValueError("distance must be >= 0")
    if k == 0:
        return 0, 0
    need = (k + 1) // 2
    if need > ball.radius:
        raise ValueError(f"ball radius {ball.radius} too small for distance {k}")

    def descend(start: int, steps: int) -> int:
        v = start
        for _ in range(steps):
            v = int(ball.child_start[v])
        return v

    u = descend(1, (k + 1) // 2 - 1)
    v = descend(2, k // 2 - 1) if k >= 2 else 0
    return u, v
