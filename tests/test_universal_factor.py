"""Vertex codes: construction, invariance, and exact path reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbtree import rng
from nbtree.errors import InteriorityError, LabelCollisionError, ReconstructionError
from nbtree.tree_core import build_ball, distances_from, path_vertices
from nbtree.universal_factor import (
    VertexCode,
    _code_levels,
    _draw_paths,
    _neighbors,
    encode_vertex,
    reconstruct_path,
    roundtrip_check,
    roundtrip_min_radius,
    sphere_overlap_count,
)
from test_tree_core import vertex_distance


def _uniform_labels(ball, seed):
    """One uniform [0, 1) label per vertex, drawn from the `seed` stream."""
    return rng.to_unit(rng.words(seed, np.arange(ball.n)))


def _swap_subtrees(ball, labels, a, b):
    """Exchange the labels of the subtrees rooted at siblings a and b."""
    labels = labels.copy()

    def collect(root):
        out = [root]
        frontier = [root]
        while frontier:
            nxt = []
            for w in frontier:
                nxt.extend(int(c) for c in ball.children(w))
            out.extend(nxt)
            frontier = nxt
        return out

    ta, tb = collect(a), collect(b)
    assert len(ta) == len(tb)
    for x, y in zip(ta, tb):
        labels[x], labels[y] = labels[y], labels[x]
    return labels


def test_depth_zero_code_is_own_label():
    ball = build_ball(3, 2)
    labels = _uniform_labels(ball, 1)
    code = encode_vertex(ball, labels, 0, 0)
    assert code.blocks == (((float(labels[0]),),),)
    assert code.spheres == ((float(labels[0]),),)


def test_block_sizes_follow_level_pattern():
    d = 3
    ball = build_ball(d, 4)
    code = encode_vertex(ball, _uniform_labels(ball, 2), 0, 3)
    level_sizes = [sum(len(b) for b in level) for level in code.blocks]
    assert level_sizes == [1, d, d * (d - 1), d * (d - 1) ** 2]
    assert len(code.blocks[1]) == 1 and len(code.blocks[1][0]) == d
    assert all(len(b) == d - 1 for b in code.blocks[2])


def test_spheres_match_ground_truth_multisets():
    ball = build_ball(3, 4)
    labels = _uniform_labels(ball, 3)
    v = 1
    code = encode_vertex(ball, labels, v, 3)
    for j in range(4):
        truth = sorted(float(labels[u]) for u in range(ball.n)
                       if vertex_distance(ball, u, v) == j)
        assert list(code.spheres[j]) == truth


def test_code_invariant_under_sibling_swap():
    ball = build_ball(3, 4)
    labels = _uniform_labels(ball, 4)
    c1, c2 = (int(c) for c in ball.children(1))
    swapped = _swap_subtrees(ball, labels, c1, c2)
    assert encode_vertex(ball, labels, 1, 3) == encode_vertex(ball, swapped, 1, 3)


def test_collision_raises():
    ball = build_ball(3, 2)
    labels = _uniform_labels(ball, 5)
    labels[2] = labels[1]
    with pytest.raises(LabelCollisionError):
        encode_vertex(ball, labels, 0, 1)


def test_discrete_labels_collide():
    # four labels from {0, 1} in a radius-1 view must repeat one
    ball = build_ball(3, 2)
    labels = rng.to_alphabet(rng.words(6, np.arange(ball.n)), 2).astype(np.float64)
    with pytest.raises(LabelCollisionError):
        encode_vertex(ball, labels, 0, 1)


def _walk_encode_vertex(ball, labels, v, depth):
    """The former encode_vertex: its own neighbour walk, collisions checked
    level by level."""
    blocks = [((float(labels[v]),),)]
    spheres = [(float(labels[v]),)]
    seen = {float(labels[v])}
    order = [(v, -1)]
    for _ in range(depth):
        level_blocks, nxt, sphere_labels = [], [], []
        for w, frm in order:
            outward = [int(u) for u in ball.neighbors(w) if int(u) != frm]
            outward.sort(key=lambda u: float(labels[u]))
            block = tuple(float(labels[u]) for u in outward)
            level_blocks.append(block)
            sphere_labels.extend(block)
            nxt.extend((u, w) for u in outward)
        for x in sphere_labels:
            if x in seen:
                raise LabelCollisionError(
                    f"duplicate label {x!r} in the depth-{depth} view around {v}"
                )
            seen.add(x)
        blocks.append(tuple(level_blocks))
        spheres.append(tuple(sorted(sphere_labels)))
        order = nxt
    return VertexCode(v, depth, tuple(blocks), tuple(spheres))


def _code_or_error(encode, ball, labels, v, depth):
    try:
        return encode(ball, labels, v, depth)
    except LabelCollisionError as exc:
        return ("collision", str(exc))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(0, 3), st.integers(0, 10**6),
       st.integers(0, 2**32), st.sampled_from(["uniform", "centered_uniform", "few"]),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=2))
def test_encode_vertex_matches_the_neighbour_walk(d, depth, pick, seed, labels, copies):
    ball = build_ball(d, depth + 1)
    eligible = np.flatnonzero(ball.depth <= 1)
    v = int(eligible[pick % len(eligible)])
    words = rng.words(seed, np.arange(ball.n))
    values = (rng.to_unit(words) - 0.5 if labels == "centered_uniform"
              else rng.to_unit(words))
    if labels == "few":  # ties inside one block, signed zeros
        values = np.array([-0.0, 0.0, 0.25, 0.5])[rng.randint(seed, np.arange(ball.n), 4)]
    view = np.flatnonzero(distances_from(ball, v) <= depth)
    for a, b in copies:  # collisions anywhere in the view
        values[view[b % len(view)]] = values[view[a % len(view)]]
    got = _code_or_error(encode_vertex, ball, values, v, depth)
    want = _code_or_error(_walk_encode_vertex, ball, values, v, depth)
    assert got == want
    if isinstance(want, VertexCode):
        for field in ("center", "depth", "blocks", "spheres"):
            assert repr(getattr(got, field)) == repr(getattr(want, field))


def test_collision_inside_the_view_names_the_first_duplicate():
    ball = build_ball(3, 3)
    labels = _uniform_labels(ball, 5)
    v = 1
    grandchildren = [int(u) for u in range(ball.n) if vertex_distance(ball, v, u) == 2]
    labels[grandchildren[-1]] = labels[grandchildren[0]]
    labels[0] = labels[int(ball.children(v)[0])]
    with pytest.raises(LabelCollisionError) as got:
        encode_vertex(ball, labels, v, 2)
    with pytest.raises(LabelCollisionError) as want:
        _walk_encode_vertex(ball, labels, v, 2)
    assert str(got.value) == str(want.value)
    assert repr(float(labels[0])) in str(got.value)


def test_neighbor_rows_are_the_padded_neighbours():
    for d, radius in ((3, 0), (3, 3), (5, 2)):
        ball = build_ball(d, radius)
        table = _neighbors(ball, np.arange(ball.n))
        assert table.shape == (ball.n, d)
        for v in range(ball.n):
            nbrs = ball.neighbors(v).tolist()
            assert table[v].tolist() == nbrs + [-1] * (d - len(nbrs))
        ids = np.arange(ball.n)[::-1].reshape(1, -1)  # any array shape
        assert np.array_equal(_neighbors(ball, ids)[0], table[::-1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(0, 3), st.integers(0, 2**32),
       st.sampled_from(["uniform", "few"]),
       st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=3))
def test_batch_encoder_matches_the_neighbour_walk_on_every_centre(d, depth, seed, labels,
                                                                  copies):
    # all interior centres of one ball at once, with ties, signed zeros and
    # copied labels; a centre is flagged exactly when the walk refuses it
    ball = build_ball(d, depth + 1)
    centres = np.flatnonzero(ball.depth <= 1)
    values = rng.to_unit(rng.words(seed, np.arange(ball.n)))
    if labels == "few":
        values = np.array([-0.0, 0.0, 0.25, 0.5])[rng.randint(seed, np.arange(ball.n), 4)]
    for a, b in copies:
        values[b % ball.n] = values[a % ball.n]
    levels, collides = _code_levels(ball, values, centres, depth)
    for i, v in enumerate(centres.tolist()):
        want = _code_or_error(_walk_encode_vertex, ball, values, v, depth)
        assert bool(collides[i]) == (not isinstance(want, VertexCode))
        if isinstance(want, VertexCode):
            in_code_order = [tuple(x for block in level for x in block) for level in want.blocks]
            assert repr([tuple(level[i].tolist()) for level in levels]) == repr(in_code_order)


def test_encoder_refuses_views_that_leave_the_ball():
    ball = build_ball(3, 3)
    leaf = int(ball.level_start[3])
    with pytest.raises(InteriorityError, match=f"around vertex {leaf} "):
        encode_vertex(ball, _uniform_labels(ball, 1), leaf, 1)
    with pytest.raises(ValueError, match="view depth must be >= 0"):
        encode_vertex(ball, _uniform_labels(ball, 1), 0, -1)


# ---------------------------------------------------------------------------
# reconstruction
# ---------------------------------------------------------------------------


def test_adjacent_vertices_reconstruct_empty_path():
    ball = build_ball(3, 3)
    labels = _uniform_labels(ball, 7)
    code_u = encode_vertex(ball, labels, 0, 1)
    code_v = encode_vertex(ball, labels, 1, 1)
    assert reconstruct_path(code_u, code_v, 1) == []


def test_distance_two_reconstructs_midpoint():
    ball = build_ball(3, 3)
    labels = _uniform_labels(ball, 8)
    c1, c2 = (int(c) for c in ball.children(0)[:2])
    code_u = encode_vertex(ball, labels, c1, 1)
    code_v = encode_vertex(ball, labels, c2, 1)
    assert reconstruct_path(code_u, code_v, 2) == [float(labels[0])]


def test_wrong_distance_detected():
    ball = build_ball(3, 4)
    labels = _uniform_labels(ball, 9)
    c1, c2 = (int(c) for c in ball.children(0)[:2])
    code_u = encode_vertex(ball, labels, c1, 2)
    code_v = encode_vertex(ball, labels, c2, 2)
    with pytest.raises(ReconstructionError):
        reconstruct_path(code_u, code_v, 3)  # true distance is 2


def test_depth_preconditions():
    ball = build_ball(3, 3)
    code = encode_vertex(ball, _uniform_labels(ball, 10), 0, 1)
    with pytest.raises(ValueError):
        reconstruct_path(code, code, 3)


def test_random_distance4_pairs_reconstruct_exactly():
    # 1000 random pairs at distance exactly 4 with depth-4 codes
    ball = build_ball(3, 7)
    labels = _uniform_labels(ball, 11)
    eligible = np.flatnonzero(ball.depth <= 3)
    successes = 0
    trials = 0
    t = 0
    while trials < 1000:
        t += 1
        u = int(eligible[int(rng.randint(1200, 2 * t, len(eligible))[0])])
        v = u
        prev = -1
        for step in range(4):
            nbrs = [int(x) for x in ball.neighbors(v) if int(x) != prev]
            prev, v = v, nbrs[int(rng.randint(1300, 4 * t + step, len(nbrs))[0])]
        if ball.depth[v] > 3:
            continue
        trials += 1
        code_u = encode_vertex(ball, labels, u, 4)
        code_v = encode_vertex(ball, labels, v, 4)
        got = reconstruct_path(code_u, code_v, 4)
        truth = [float(labels[w]) for w in path_vertices(ball, u, v)[1:-1]]
        if got == truth:
            successes += 1
    assert successes == 1000


def test_label_map_equivariance():
    # applying a strictly increasing map commutes with encoding and
    # reconstruction (labels are in [0, 1), so squaring is increasing)
    ball = build_ball(3, 5)
    labels = _uniform_labels(ball, 12)
    mapped = labels ** 2
    u, v = 1, 2
    n = vertex_distance(ball, u, v)
    code_u, code_m = encode_vertex(ball, labels, u, 3), encode_vertex(ball, mapped, u, 3)
    assert code_m.spheres == tuple(tuple(x * x for x in s) for s in code_u.spheres)
    got = reconstruct_path(encode_vertex(ball, labels, u, 3), encode_vertex(ball, labels, v, 3), n)
    got_m = reconstruct_path(encode_vertex(ball, mapped, u, 3),
                             encode_vertex(ball, mapped, v, 3), n)
    assert got_m == [x * x for x in got]


# ---------------------------------------------------------------------------
# structural sphere uniqueness and the roundtrip harness
# ---------------------------------------------------------------------------


def test_sphere_overlap_is_one_along_paths():
    ball = build_ball(3, 5)
    for seed in range(30):
        u = int(rng.randint(60, 2 * seed, ball.n)[0])
        v = int(rng.randint(60, 2 * seed + 1, ball.n)[0])
        n = vertex_distance(ball, u, v)
        du, dv = distances_from(ball, u), distances_from(ball, v)
        per_j = [int(np.count_nonzero((du == j) & (dv == n - j))) for j in range(n + 1)]
        counts = sphere_overlap_count(ball, u, v)
        assert counts.tolist() == per_j == [1] * (n + 1)


def test_roundtrip_zero_trials():
    ball = build_ball(3, 6)
    res = roundtrip_check(ball, 3, 0, 0)
    assert res.trials == res.successes == res.collisions == 0


def test_roundtrip_full_success():
    res3 = roundtrip_check(build_ball(3, 6), 3, 120, 5)
    assert (res3.successes, res3.collisions) == (120, 0)
    res4 = roundtrip_check(build_ball(4, 5), 2, 80, 6)
    assert (res4.successes, res4.collisions) == (80, 0)


def _per_position_draw_pair(ball, eligible, depth, seed, trial):
    """Reference draw: one single-position randint per stream position."""
    base = np.uint64(rng.words(seed ^ 0x5EED, np.array([trial]))[0])
    for attempt in range(256):
        sub = int(base) + attempt * 1_000_003
        u = int(eligible[int(rng.randint(sub, 0, len(eligible))[0])])
        n = 1 + int(rng.randint(sub, 1, depth + 1)[0])
        v = u
        prev = -1
        ok = True
        for step in range(n):
            nbrs = [int(x) for x in ball.neighbors(v) if int(x) != prev]
            if not nbrs:
                ok = False
                break
            prev, v = v, nbrs[int(rng.randint(sub, 2 + step, len(nbrs))[0])]
        if ok and int(ball.depth[v]) + depth <= ball.radius:
            return u, v, n
    raise RuntimeError("could not draw an interior pair; ball too small")


def _draw_pair(ball, eligible, depth, base):
    """The former per-trial draw: one `rng.words` block per attempt and a
    walk over `ball.neighbors`."""
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


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([3, 4, 5]), st.integers(1, 3), st.integers(0, 3),
       st.one_of(st.sampled_from([0, 2**64 - 1]), st.integers(0, 2**64 - 1)),
       st.integers(1, 12))
def test_block_draws_are_the_per_position_draws(d, depth, slack, seed, trials):
    # radius depth + 1 leaves only the root and its neighbours eligible, so
    # most attempts end outside the interior and retry
    radius = min(depth + 1 + slack, roundtrip_min_radius(depth))
    ball = build_ball(d, radius)
    eligible = np.flatnonzero(ball.depth <= ball.radius - depth)
    bases = rng.words(seed ^ 0x5EED, np.arange(trials))
    path, n = _draw_paths(ball, depth, bases)
    for t in range(trials):
        u, v = int(path[t, 0]), int(path[t, n[t]])
        assert (u, v, int(n[t])) == _per_position_draw_pair(ball, eligible, depth, seed, t)
        assert path[t, :n[t] + 1].tolist() == path_vertices(ball, u, v)


def _reference_roundtrip(ball, depth, trials, seed):
    """The former roundtrip_check: one trial at a time, each pair drawn by
    `_draw_pair`, encoded by `_walk_encode_vertex` and reconstructed by
    `reconstruct_path`."""
    labels = rng.to_unit(rng.words(seed, np.arange(ball.n)))
    eligible = np.flatnonzero(ball.depth <= ball.radius - depth)
    successes = collisions = 0
    for base in rng.words(seed ^ 0x5EED, np.arange(trials)).tolist():
        u, v, n = _draw_pair(ball, eligible, depth, base)
        try:
            got = reconstruct_path(_walk_encode_vertex(ball, labels, u, depth),
                                   _walk_encode_vertex(ball, labels, v, depth), n)
        except LabelCollisionError:
            collisions += 1
            continue
        except ReconstructionError:
            continue
        successes += got == [float(labels[w]) for w in path_vertices(ball, u, v)[1:-1]]
    return successes, collisions


@pytest.mark.parametrize("d, depth, trials, seed, grid", [
    (3, 3, 60, 71, None), (4, 2, 60, 2**64 - 1, None), (3, 0, 40, 8, None),
    (3, 3, 80, 5, 1024), (3, 2, 80, 5, 128), (4, 1, 80, 6, 64), (5, 1, 60, 7, 64)])
def test_roundtrip_counts_equal_the_trial_by_trial_reference(monkeypatch, d, depth, trials,
                                                             seed, grid):
    # labels rounded to `grid` values make collisions and, at grids 128 and
    # 64, spheres that share several labels: all three outcomes occur
    if grid is not None:
        unit = rng.to_unit
        monkeypatch.setattr(rng, "to_unit", lambda w: np.floor(unit(w) * grid) / grid)
    ball = build_ball(d, roundtrip_min_radius(depth))
    res = roundtrip_check(ball, depth, trials, seed)
    assert (res.successes, res.collisions) == _reference_roundtrip(ball, depth, trials, seed)


def test_roundtrip_radius_precondition():
    with pytest.raises(ValueError):
        roundtrip_check(build_ball(3, 4), 3, 10, 0)
