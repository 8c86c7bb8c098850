"""Counter-based generator: determinism, label maps, and marginal frequencies."""

import hashlib

import numpy as np
import pytest

from nbtree import rng
from nbtree.tree_core import build_ball


def to_rademacher(w: np.ndarray) -> np.ndarray:
    """Map uint64 words to +-1 with equal probability: the top bit, 1 -> -1."""
    return 1.0 - 2.0 * (w >> np.uint64(63)).astype(np.float64)


def test_words_pure_function_of_seed_and_index():
    a = rng.words(12, np.arange(100))
    b = rng.words(12, np.arange(100))
    assert np.array_equal(a, b)
    c = rng.words(13, np.arange(100))
    assert not np.array_equal(a, c)


def test_words_slicing_invariance():
    idx = np.arange(1000)
    whole = rng.words(5, idx)
    parts = np.concatenate([rng.words(5, idx[i:i + 64]) for i in range(0, 1000, 64)])
    assert np.array_equal(whole, parts)


def test_words2_rows_are_independent_substreams():
    grid = rng.words2(9, np.arange(10), np.arange(7))
    for i in range(10):
        row = rng.words2(9, np.array([i]), np.arange(7))
        assert np.array_equal(grid[i], row[0])


def test_scalar_index_accepted():
    assert rng.words(3, 5).shape == (1,)
    assert 0 <= int(rng.randint(3, 5, 10)[0]) < 10


def test_unit_mapping_range():
    u = rng.to_unit(rng.words(1, np.arange(10000)))
    assert np.all((u >= 0.0) & (u < 1.0))
    assert abs(float(u.mean()) - 0.5) < 0.02


def test_rademacher_mapping():
    w = rng.words(2, np.arange(20000))
    r = to_rademacher(w)
    assert set(np.unique(r).tolist()) == {-1.0, 1.0}


def _vertex_words(ball, seed):
    return rng.words(seed, np.arange(ball.n))


def test_config_determinism_and_domains():
    ball = build_ball(3, 5)
    c1 = rng.to_alphabet(_vertex_words(ball, 7), 2)
    c2 = rng.to_alphabet(_vertex_words(ball, 7), 2)
    assert np.array_equal(c1, c2)
    assert set(np.unique(c1).tolist()) == {0, 1}
    rad = to_rademacher(_vertex_words(ball, 7))
    assert set(np.unique(rad).tolist()) == {-1.0, 1.0}


def test_alphabet_frequency_concentration():
    # window [0.497, 0.503] is ~1.9 binomial sigma at n ~ 1e5; frozen seeds
    # verified once against the exact binomial CI, deterministic thereafter
    ball = build_ball(3, 15)
    assert ball.n == 98302
    for seed in range(5):
        labels = rng.to_alphabet(_vertex_words(ball, seed), 2)
        freq = float(np.mean(labels == 0))
        assert 0.497 <= freq <= 0.503


def test_words2_stream_is_pinned():
    # sha256 of every bit of words2 on this grid (the packed Monte Carlo
    # sampler reads all 64), and of the sign bits that the former label
    # kernel pinned on it; integer-only, so independent of the platform
    rows, cols = np.arange(0, 3000, 3), np.arange(257) * 5 + 1
    w = rng.words2(20161, rows, cols)
    assert hashlib.sha256(w.astype("<u8").tobytes()).hexdigest() == (
        "ad91d1b98a1af376f416078aa1be7eca49ffd62fba4358d0d37cee832f920f84")
    bits = np.packbits(to_rademacher(w) < 0)
    assert hashlib.sha256(bits.tobytes()).hexdigest() == (
        "9321b4d2f1da36191c8450be2bf34385520e8eff3a9edcae1e3ac56ae9afe6d2")


def test_words2_fills_out_in_place():
    # any layout takes the same words: a C-order array and the transposed
    # view of a (cols, rows) buffer, as the Monte Carlo sampler draws
    rows, cols = np.arange(40, 340, 3), np.arange(9)
    want = rng.words2(77, rows, cols)
    for out in (np.empty((100, 9), dtype=np.uint64), np.empty((9, 100), dtype=np.uint64).T):
        assert rng.words2(77, rows, cols, out=out) is out
        assert np.array_equal(out, want)


def test_words2_refuses_an_out_of_the_wrong_shape_or_dtype():
    rows, cols = np.arange(10), np.arange(3)
    for out in (np.empty((3, 10), dtype=np.uint64), np.empty((10, 4), dtype=np.uint64),
                np.empty((10, 3), dtype=np.int64), np.empty((10, 3), dtype=np.float64),
                np.empty(30, dtype=np.uint64)):
        with pytest.raises(ValueError, match="out must be a uint64 array of shape"):
            rng.words2(1, rows, cols, out=out)


def test_array_seed_rows_are_the_scalar_streams():
    # keys at both ends of uint64, and keys that wrapped past 2^64 when
    # formed as base + offset in uint64
    base = np.array([0, 2**63, 2**64 - 1, 2**64 - 3], dtype=np.uint64)
    keys = np.concatenate([base, base + np.uint64(5), base + np.uint64(2**63 + 1)])
    idx = np.arange(7)
    grid = rng.words(keys, idx)
    assert grid.shape == (len(keys), len(idx))
    for key, row in zip(keys.tolist(), grid):
        assert np.array_equal(row, rng.words(key, idx))
    assert np.array_equal(rng.words(keys, 3)[:, 0], [rng.words(k, 3)[0] for k in keys.tolist()])
