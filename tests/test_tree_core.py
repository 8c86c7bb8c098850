"""Ball construction, distances, hulls, and the directed-edge relation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtree.errors import CapExceededError
from nbtree.tree_core import (
    _children_of_many,
    build_ball,
    ball_size,
    cone,
    convex_hull,
    distances_from,
    edge_between,
    forward_cone_interior,
    hull_distance,
    path_vertices,
    successors,
    vertices_at_distance,
)


# ---------------------------------------------------------------------------
# oracles: edge and vertex relations that only the tests use
# ---------------------------------------------------------------------------


def reverse_edge(e: int) -> int:
    """Id of the reversed edge; an involution by construction."""
    return e ^ 1


def edge_height(ball, e: int) -> int:
    """Height max(depth(tail), depth(head)) = depth of the child vertex."""
    return int(ball.depth[ball.edge_child(e)])


def vertex_distance(ball, u: int, v: int) -> int:
    """Length of the unique u-v path."""
    return len(path_vertices(ball, u, v)) - 1


def predecessors(ball, edges) -> np.ndarray:
    """Edges e' with e' -> e; e' -> e exactly when reverse(e) -> reverse(e')."""
    return successors(ball, np.asarray(edges, dtype=np.int64) ^ 1) ^ 1


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_single_root_ball():
    ball = build_ball(3, 0)
    assert ball.n == 1
    assert ball.n_edges == 0


def test_hand_counted_d3_r2():
    # 1 + 3 + 6 vertices, 9 undirected edges
    ball = build_ball(3, 2)
    assert ball.n == 10
    assert ball.n_edges == 18


def test_counting_formula_d4_r3():
    # 1 + 4*(3^3 - 1)/2 = 53, and breadth-first construction agrees
    ball = build_ball(4, 3)
    assert ball.n == 53
    assert ball.n == 1 + 4 * (3 ** 3 - 1) // 2
    assert len(ball.vertices_at_depth(3)) == 4 * 3 ** 2


@pytest.mark.parametrize("d,radius", [(3, 4), (4, 3), (5, 2), (6, 2)])
def test_sphere_sizes(d, radius):
    ball = build_ball(d, radius)
    assert len(ball.vertices_at_depth(0)) == 1
    for j in range(1, radius + 1):
        assert len(ball.vertices_at_depth(j)) == d * (d - 1) ** (j - 1)
    assert ball.n == ball_size(d, radius)


def test_parent_child_depth_consistency():
    ball = build_ball(3, 4)
    for v in range(1, ball.n):
        p = int(ball.parent[v])
        assert ball.depth[v] == ball.depth[p] + 1
        assert v in ball.children(p).tolist()


def test_degrees():
    d, radius = 4, 3
    ball = build_ball(d, radius)
    for v in range(ball.n):
        expected = 1 if ball.depth[v] == radius else d
        if v == 0 and radius == 0:
            expected = 0
        assert len(ball.neighbors(v)) == expected


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_ball(2, 3)
    with pytest.raises(ValueError):
        build_ball(3, -1)
    with pytest.raises(CapExceededError):
        build_ball(3, 40)


def test_arrays_are_frozen():
    ball = build_ball(3, 2)
    with pytest.raises(ValueError):
        ball.parent[0] = 5


# ---------------------------------------------------------------------------
# edge addressing
# ---------------------------------------------------------------------------


def test_reverse_is_involution_and_swaps_endpoints():
    ball = build_ball(3, 3)
    for e in range(ball.n_edges):
        r = reverse_edge(e)
        assert reverse_edge(r) == e
        assert ball.edge_head(r) == ball.edge_tail(e)
        assert ball.edge_tail(r) == ball.edge_head(e)
        assert edge_height(ball, r) == edge_height(ball, e)


def test_edge_height_is_max_endpoint_depth():
    ball = build_ball(4, 3)
    for e in range(ball.n_edges):
        t, h = ball.edge_tail(e), ball.edge_head(e)
        assert edge_height(ball, e) == max(ball.depth[t], ball.depth[h])


def test_edge_between():
    ball = build_ball(3, 2)
    c = int(ball.children(0)[0])
    assert ball.edge_tail(edge_between(ball, 0, c)) == 0
    assert ball.edge_head(edge_between(ball, c, 0)) == 0
    with pytest.raises(ValueError):
        edge_between(ball, 0, int(ball.vertices_at_depth(2)[0]))


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_vertex_distance_basics():
    ball = build_ball(3, 4)
    assert vertex_distance(ball, 5, 5) == 0
    for v in ball.vertices_at_depth(4)[:5]:
        assert vertex_distance(ball, 0, int(v)) == 4
    c1, c2 = ball.children(0)[:2]
    assert vertex_distance(ball, int(c1), int(c2)) == 2


def test_vertex_distance_symmetry_and_triangle_through_ancestor():
    ball = build_ball(3, 4)
    rs = np.random.RandomState(4)
    for _ in range(50):
        u, v = rs.randint(0, ball.n, size=2)
        assert vertex_distance(ball, int(u), int(v)) == vertex_distance(ball, int(v), int(u))
        path = path_vertices(ball, int(u), int(v))
        assert len(path) == vertex_distance(ball, int(u), int(v)) + 1
        assert path[0] == u and path[-1] == v
        for a, b in zip(path, path[1:]):
            assert vertex_distance(ball, a, b) == 1


def test_vertices_at_distance_helper():
    ball = build_ball(3, 5)
    for k in range(0, 9):
        u, v = vertices_at_distance(ball, k)
        assert vertex_distance(ball, u, v) == k


# ---------------------------------------------------------------------------
# hulls
# ---------------------------------------------------------------------------


def _hull_brute_force(ball, vertices):
    """Fixed point of deleting degree-1 vertices outside `vertices`."""
    keep = set(range(ball.n))
    vset = set(vertices)
    changed = True
    while changed:
        changed = False
        for v in sorted(keep):
            if v in vset:
                continue
            deg = sum(1 for u in ball.neighbors(v).tolist() if u in keep)
            if deg <= 1:
                keep.discard(v)
                changed = True
    return keep


def test_hull_singleton_and_path():
    ball = build_ball(3, 4)
    assert convex_hull(ball, [7]).tolist() == [7]
    u, v = vertices_at_distance(ball, 3)
    hull = convex_hull(ball, [u, v])
    assert sorted(hull.tolist()) == sorted(path_vertices(ball, u, v))
    assert len(hull) == 4


def test_hull_of_path_endpoints_contains_midpoint():
    ball = build_ball(3, 4)
    for k in (1, 2):
        u, v = vertices_at_distance(ball, 2 * k)
        mid = path_vertices(ball, u, v)[k]
        hull = convex_hull(ball, [u, v])
        assert mid in hull.tolist()
        kk, _, _ = hull_distance(ball, [u, v], [mid])
        assert kk == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 49), st.sets(st.integers(0, 48), min_size=1, max_size=6))
def test_hull_matches_leaf_pruning(unused, vertices):
    ball = build_ball(3, 3)  # n = 22 <= 50
    vs = [v % ball.n for v in vertices]
    hull = set(convex_hull(ball, vs).tolist())
    assert hull == _hull_brute_force(ball, vs)


def test_hull_distance_trivial_cases():
    ball = build_ball(3, 4)
    k, w1, w2 = hull_distance(ball, [5], [5])
    assert k == 0 and w1 == w2 == 5
    u, v = vertices_at_distance(ball, 5)
    k, w1, w2 = hull_distance(ball, [u], [v])
    assert (k, w1, w2) == (5, u, v)


def test_hull_distance_siblings_case():
    # V1 = the two children of w; hull(V1) contains w, so the hull distance
    # to a vertex 4 away from w is 4 even though V1 itself is 5 away.
    ball = build_ball(3, 5)
    w = 1
    siblings = [int(c) for c in ball.children(w)]
    x = 2
    for _ in range(2):
        x = int(ball.child_start[x])
    assert vertex_distance(ball, w, x) == 4
    assert min(vertex_distance(ball, s, x) for s in siblings) == 5
    k, w1, w2 = hull_distance(ball, siblings, [x])
    assert (k, w1, w2) == (4, w, x)
    # brute force over all hull-vertex pairs
    h1 = convex_hull(ball, siblings).tolist()
    h2 = convex_hull(ball, [x]).tolist()
    assert k == min(vertex_distance(ball, a, b) for a in h1 for b in h2)


def test_hull_distance_monotone_in_region_growth():
    ball = build_ball(3, 5)
    u, v = vertices_at_distance(ball, 6)
    base, _, _ = hull_distance(ball, [u], [v])
    grown, _, _ = hull_distance(ball, [u, int(ball.children(u)[0])], [v])
    assert grown <= base


@settings(max_examples=60, deadline=None)
@given(st.sets(st.integers(0, 93), min_size=1, max_size=4),
       st.sets(st.integers(0, 93), min_size=1, max_size=4),
       st.sets(st.integers(0, 93), min_size=0, max_size=3))
def test_hull_distance_monotone_property(set1, set2, extra):
    ball = build_ball(3, 5)  # n = 94
    k_base, _, _ = hull_distance(ball, set1, set2)
    k_grown, _, _ = hull_distance(ball, set1 | extra, set2)
    assert k_grown <= k_base or not extra


def _lca_distance(ball, u, v):
    """The former vertex_distance: climb both ends to the common ancestor."""
    du, dv = int(ball.depth[u]), int(ball.depth[v])
    dist = 0
    while du > dv:
        u, du, dist = int(ball.parent[u]), du - 1, dist + 1
    while dv > du:
        v, dv, dist = int(ball.parent[v]), dv - 1, dist + 1
    while u != v:
        u, v, dist = int(ball.parent[u]), int(ball.parent[v]), dist + 2
    return dist


def _origin_bfs_hull_distance(ball, set1, set2):
    """The former hull_distance: a BFS from hull 1 that carries each vertex's
    nearest source, ties broken to the smallest source id."""
    h1 = convex_hull(ball, set1)
    h2 = convex_hull(ball, set2)
    mask2 = np.zeros(ball.n, dtype=bool)
    mask2[h2] = True
    common = h1[mask2[h1]]
    if common.size:
        return 0, int(common[0]), int(common[0])
    origin = np.full(ball.n, -1, dtype=np.int64)
    origin[h1] = h1
    frontier = h1
    k = 0
    while frontier.size:
        k += 1
        kids = _children_of_many(ball, frontier)
        kid_origin = np.repeat(origin[frontier], ball.child_count[frontier])
        pars = ball.parent[frontier]
        has_par = pars >= 0
        cand = np.concatenate((pars[has_par], kids))
        cand_origin = np.concatenate((origin[frontier][has_par], kid_origin))
        new = origin[cand] < 0
        cand, cand_origin = cand[new], cand_origin[new]
        if cand.size:
            order = np.lexsort((cand_origin, cand))
            cand, cand_origin = cand[order], cand_origin[order]
            keep = np.ones(len(cand), dtype=bool)
            keep[1:] = cand[1:] != cand[:-1]
            cand, cand_origin = cand[keep], cand_origin[keep]
        origin[cand] = cand_origin
        hits = cand[mask2[cand]]
        if hits.size:
            v2 = int(hits.min())
            return k, int(origin[v2]), v2
        frontier = cand
    raise AssertionError("hulls not connected within the ball")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([(3, 5), (4, 3), (5, 3)]),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=4),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=4))
def test_hull_distance_matches_brute_force(shape, raw1, raw2):
    ball = build_ball(*shape)
    set1 = {x % ball.n for x in raw1}
    set2 = {x % ball.n for x in raw2}
    h1 = sorted(_hull_brute_force(ball, set1))
    h2 = sorted(_hull_brute_force(ball, set2))
    k = min(_lca_distance(ball, a, b) for a in h1 for b in h2)
    v2 = min(b for b in h2 if any(_lca_distance(ball, a, b) == k for a in h1))
    at_k = [a for a in h1 if _lca_distance(ball, a, v2) == k]
    assert len(at_k) == 1  # the hulls are subtrees
    got = hull_distance(ball, set1, set2)
    assert got == (k, at_k[0], v2)
    assert got == _origin_bfs_hull_distance(ball, set1, set2)


def test_hull_distance_of_intersecting_hulls():
    ball = build_ball(3, 5)
    u, v = vertices_at_distance(ball, 6)
    path = path_vertices(ball, u, v)
    for i, w in enumerate(path):
        # hull([u, v]) is the path; any set whose hull meets it is at distance 0
        for set2 in ([w], [w, int(ball.child_start[w]) if ball.child_count[w] else w]):
            got = hull_distance(ball, [u, v], set2)
            assert got == _origin_bfs_hull_distance(ball, [u, v], set2)
            assert got[0] == 0 and got[1] == got[2] == min(set(path) & set(
                convex_hull(ball, set2).tolist()))
    # two hulls crossing at one vertex: the witness is that vertex
    a, b = int(ball.children(1)[0]), int(ball.children(2)[0])
    c, e = int(ball.children(1)[1]), 3
    assert hull_distance(ball, [a, b], [c, e]) == (0, 0, 0)


def test_vertex_distance_matches_ancestor_climb():
    for d, radius in ((3, 4), (4, 3), (5, 2)):
        ball = build_ball(d, radius)
        for u in range(ball.n):
            for v in range(0, ball.n, 5):
                assert vertex_distance(ball, u, v) == _lca_distance(ball, u, v)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 5), (4, 4), (5, 3)]),
       st.lists(st.integers(0, 10**6), min_size=1, max_size=5))
def test_multi_source_distances_are_the_nearest_single_source(shape, raw):
    ball = build_ball(*shape)
    hull = convex_hull(ball, {x % ball.n for x in raw})
    single = np.min([distances_from(ball, int(v)) for v in hull], axis=0)
    assert np.array_equal(distances_from(ball, hull), single)
    assert np.array_equal(distances_from(ball, hull[::-1].tolist()), single)


def test_distances_from_rejects_bad_sources():
    ball = build_ball(3, 2)
    for bad in (-1, ball.n, [0, ball.n], []):
        with pytest.raises(ValueError):
            distances_from(ball, bad)


def test_hull_empty_input_rejected():
    ball = build_ball(3, 2)
    with pytest.raises(ValueError):
        convex_hull(ball, [])
    with pytest.raises(ValueError):
        hull_distance(ball, [], [0])


# ---------------------------------------------------------------------------
# successor relation
# ---------------------------------------------------------------------------


def test_successor_counts_and_boundary():
    d, radius = 3, 3
    ball = build_ball(d, radius)
    for e in range(ball.n_edges):
        succ = successors(ball, e)
        head = ball.edge_head(e)
        if ball.depth[head] == radius:
            assert len(succ) == 0
        else:
            assert len(succ) == d - 1
        assert reverse_edge(e) not in succ.tolist()
        for s in succ.tolist():
            assert ball.edge_tail(s) == head


def test_away_successors_increase_height():
    ball = build_ball(4, 4)
    for e in range(0, ball.n_edges, 2):  # away edges
        h = edge_height(ball, e)
        for s in successors(ball, e).tolist():
            assert s % 2 == 0  # away from the root
            assert edge_height(ball, s) == h + 1


def test_predecessors_are_transpose_of_successors():
    ball = build_ball(3, 3)
    succ_pairs = {(e, int(s)) for e in range(ball.n_edges)
                  for s in successors(ball, e)}
    pred_pairs = {(int(p), e) for e in range(ball.n_edges)
                  for p in predecessors(ball, e)}
    assert succ_pairs == pred_pairs


def test_successors_of_an_edge_array_concatenate_in_input_order():
    ball = build_ball(4, 3)
    edges = [7, 0, 7, 31, ball.n_edges - 1]
    expected = [s for e in edges for s in successors(ball, e).tolist()]
    assert successors(ball, np.array(edges)).tolist() == expected
    assert successors(ball, np.array([], dtype=np.int64)).size == 0
    with pytest.raises(ValueError):
        successors(ball, np.array([0, ball.n_edges]))


def test_cone_is_iterated_successors_and_backward_is_reversal():
    ball = build_ball(3, 5)
    for e in range(0, ball.n_edges, 3):
        frontier = [e]
        back = [e]
        for k in range(4):
            assert cone(ball, e, k).tolist() == frontier
            assert cone(ball, e, k, backward=True).tolist() == back
            frontier = [s for x in frontier for s in successors(ball, x).tolist()]
            back = [p for x in back for p in predecessors(ball, x).tolist()]
    with pytest.raises(ValueError):
        cone(ball, 0, -1)


def test_forward_cone_interior_matches_full_cone_size():
    for d, radius in ((3, 5), (4, 3)):
        ball = build_ball(d, radius)
        for k in range(0, 4):
            for e in range(ball.n_edges):
                full = cone(ball, e, k).size == (d - 1) ** k
                assert forward_cone_interior(ball, e, k) == full


def test_bfs_distances_match_parent_walk():
    # two independent routes: vectorized level BFS vs the ancestor walk
    for d, radius in ((3, 4), (4, 3)):
        ball = build_ball(d, radius)
        for u in (0, 1, int(ball.vertices_at_depth(radius)[0])):
            dist = distances_from(ball, u)
            for v in range(0, ball.n, 3):
                assert int(dist[v]) == vertex_distance(ball, u, v)


def test_forward_cone_interior_on_edge_arrays():
    for d, radius in ((3, 5), (4, 3)):
        ball = build_ball(d, radius)
        every = np.arange(ball.n_edges)
        for k in range(0, 5):
            scalar = [forward_cone_interior(ball, e, k) for e in every.tolist()]
            assert all(type(x) is bool for x in scalar)
            got = forward_cone_interior(ball, every, k)
            assert got.dtype == bool and got.tolist() == scalar
            picks = every[::-7][:5]
            assert forward_cone_interior(ball, picks, k).tolist() == [
                scalar[e] for e in picks.tolist()]
        assert forward_cone_interior(ball, np.empty(0, dtype=np.int64), 1).shape == (0,)
        for bad in (-1, ball.n_edges, [0, ball.n_edges]):
            with pytest.raises(ValueError):
                forward_cone_interior(ball, bad, 1)
