"""Closed-form correlation and operator-norm bounds on the d-regular tree.

All four bounds decay like (d-1)^(-k/2) up to a polynomial prefactor.
Powers of sqrt(d-1) are computed as exp of half-integer multiples of
log(d-1), one rounding per call, so tables reproduce bit-for-bit on a
platform and to 1e-12 relative across platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def half_power(d: int, j: int) -> float:
    """(d-1)^(j/2) for integer j, via a single exp/log evaluation."""
    if j == 0:
        return 1.0
    return math.exp(0.5 * j * math.log(d - 1.0))


def check_degree(d: int) -> int:
    """d as an int, once it is the degree of a regular tree: d >= 3."""
    if int(d) != d or d < 3:
        raise ValueError(f"degree must be an integer >= 3, got {d}")
    return int(d)


def vertex_corr_bound(d: int, k: int) -> float:
    """Correlation bound for a vertex pair at distance k: (k+1-2k/d)*(d-1)^(-k/2)."""
    check_degree(d)
    if k < 0:
        raise ValueError(f"distance must be >= 0, got {k}")
    return (k + 1 - 2 * k / d) * half_power(d, -k)


def hull_corr_bound(d: int, k: int) -> float:
    """Correlation bound for two regions at hull distance k >= 1: k(d-1)^(1-k/2)."""
    check_degree(d)
    if k < 1:
        raise ValueError(f"hull distance must be >= 1, got {k}")
    return k * (d - 1) * half_power(d, -k)


def edge_corr_bound(d: int, k: int) -> float:
    """Correlation bound for a directed-edge pair at distance k: (k+1)*(d-1)^(-(k-1)/2)."""
    check_degree(d)
    if k < 0:
        raise ValueError(f"edge distance must be >= 0, got {k}")
    return (k + 1) * half_power(d, -(k - 1))


def bnorm_bound(d: int, k: int) -> float:
    """Norm bound for the k-th power of the non-backtracking operator: (k+1)*(d-1)^((k+1)/2)."""
    check_degree(d)
    if k < 1:
        raise ValueError(f"power must be >= 1, got {k}")
    return (k + 1) * half_power(d, k + 1)


@dataclass(frozen=True)
class BoundRow:
    """All four bounds evaluated at one (d, k) pair."""

    d: int
    k: int
    vertex_bound: float
    hull_bound: float
    edge_bound: float
    bnorm_bound: float


def bound_table(d: int, k_max: int) -> list[BoundRow]:
    """Rows for k = 1..k_max; each entry matches the scalar function bit-for-bit."""
    check_degree(d)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return [
        BoundRow(
            d=d,
            k=k,
            vertex_bound=vertex_corr_bound(d, k),
            hull_bound=hull_corr_bound(d, k),
            edge_bound=edge_corr_bound(d, k),
            bnorm_bound=bnorm_bound(d, k),
        )
        for k in range(1, k_max + 1)
    ]
