"""Exact float sums, and exact arithmetic on a + b*sqrt(r) with rational a, b, r.

Strict inequalities against such numbers cannot be decided reliably in
floating point, so comparisons here square out the radical and stay
exact: int and ``fractions.Fraction`` arguments are used as they are,
anything else (a float, say) is converted to a ``Fraction`` first.  r
must be non-negative.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _rational(x) -> int | Fraction:
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def counted_fsum(terms) -> float:
    """math.fsum of each float value repeated count times, for (int count,
    value) terms: summed exactly as an integer over one power-of-two
    denominator, rounded once."""
    terms = list(terms)
    if not all(math.isfinite(value) for _, value in terms):
        return math.fsum(value for _, value in terms)
    num = 0
    shift = 0  # the sum so far is num / 2**shift
    for count, value in terms:
        a, b = value.as_integer_ratio()
        s = b.bit_length() - 1
        if s > shift:
            num <<= s - shift
            shift = s
        num += count * a << (shift - s)
    return num / (1 << shift)


def root_value(a: int | Fraction, b: int | Fraction, r) -> float:
    """Float value of a + b*sqrt(r)."""
    return float(a) + float(b) * math.sqrt(float(r))


def root_sign(a: int | Fraction, b: int | Fraction, r) -> int:
    """Sign (-1, 0, +1) of a + b*sqrt(r), decided exactly."""
    a = _rational(a)
    b = _rational(b)
    r = _rational(r)
    if r < 0:
        raise ValueError("radicand must be non-negative")
    if b == 0:
        return (a > 0) - (a < 0)
    # compare b*sqrt(r) against -a
    lhs_sq = b * b * r
    rhs = -a
    if b > 0:
        # a + b*sqrt(r) > 0  <=>  b*sqrt(r) > -a
        if rhs < 0:
            return 1
        if lhs_sq > rhs * rhs:
            return 1
        if lhs_sq < rhs * rhs:
            return -1
        return 0
    # b < 0: a + b*sqrt(r) > 0  <=>  |b|*sqrt(r) < a
    if a <= 0:
        return -1 if (a < 0 or r > 0) else 0
    if lhs_sq < a * a:
        return 1
    if lhs_sq > a * a:
        return -1
    return 0


def root_lt(a1, b1, a2, b2, r) -> bool:
    """Exact test of a1 + b1*sqrt(r) < a2 + b2*sqrt(r)."""
    return root_sign(_rational(a1) - _rational(a2), _rational(b1) - _rational(b2), r) < 0


def root_leq(a1, b1, a2, b2, r) -> bool:
    """Exact test of a1 + b1*sqrt(r) <= a2 + b2*sqrt(r)."""
    return root_sign(_rational(a1) - _rational(a2), _rational(b1) - _rational(b2), r) <= 0


def root_abs_leq(a, b, bound_a, bound_b, r) -> bool:
    """Exact test of |a + b*sqrt(r)| <= bound_a + bound_b*sqrt(r)."""
    return root_leq(a, b, bound_a, bound_b, r) and root_leq(-_rational(a), -_rational(b), bound_a, bound_b, r)
