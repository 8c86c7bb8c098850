"""Counter-based randomness built on the splitmix64 finalizer.

Every draw is a pure function of (seed, counter), not of call order, so
labels and sample streams are reproducible under any chunking.  All
arithmetic is wrapping uint64; outputs are mapped to the target
distribution at the end.  The Monte Carlo sampler uses the words as raw
bits: each bit of a `words2` word is one fair coin, so one word carries 64
Rademacher labels.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix_inplace(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer applied to a uint64 array the caller owns."""
    t = np.empty_like(z)
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z


def words(seed, index) -> np.ndarray:
    """Word `index` of the uint64 stream keyed by `seed` (vectorized); for a
    1-D uint64 array of keys, row i is `words(int(seed[i]), index)`."""
    idx = (np.atleast_1d(np.asarray(index, dtype=np.uint64)) + np.uint64(1)) * _GOLDEN
    if isinstance(seed, np.ndarray):
        return _mix_inplace(seed.astype(np.uint64)[:, None] + idx)
    return _mix_inplace(np.uint64(seed & _U64_MASK) + idx)


def words2(seed: int, rows, cols, out: np.ndarray | None = None) -> np.ndarray:
    """Independent words indexed by (row, col); shape (len(rows), len(cols)).

    Row r is its own substream, so slicing by rows (e.g. Monte Carlo
    chunks) yields the same values regardless of chunk boundaries.  Each
    word is a pure function of (seed, row, col), so `out`, a uint64 array of
    that shape in any memory layout (a transposed view included), can be
    filled and mixed in place with the same words; it is then returned.
    """
    r = words(seed, rows)
    c = (np.asarray(cols, dtype=np.uint64) + np.uint64(1)) * _GOLDEN
    if out is None:
        out = np.empty((r.size, c.size), dtype=np.uint64)
    elif not isinstance(out, np.ndarray) or out.dtype != np.uint64 or out.shape != (r.size, c.size):
        raise ValueError(f"out must be a uint64 array of shape ({r.size}, {c.size})")
    np.add(r[:, None], c[None, :], out=out)
    return _mix_inplace(out)


def to_unit(w: np.ndarray) -> np.ndarray:
    """Map uint64 words to uniform [0, 1) doubles (53 significant bits)."""
    return (w >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def to_alphabet(w: np.ndarray, size: int) -> np.ndarray:
    """Map uint64 words to uniform integers in {0, ..., size-1}."""
    vals = (to_unit(w) * size).astype(np.int64)
    return np.minimum(vals, size - 1)


def randint(seed: int, index, n: int) -> np.ndarray:
    """Deterministic integer draw in {0, ..., n-1} at stream position `index`."""
    return to_alphabet(words(seed, index), n)
