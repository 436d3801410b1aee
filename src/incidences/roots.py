"""Exact integer root helpers for the fractional-power quantities.

Expressions like n^(4/3) and sqrt(r) are irrational in general, so they are
never stored as values; comparisons against them are done through integer
cubes/squares, and reporting uses rational bounds in steps of 1/RATIONAL_SCALE.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

RATIONAL_SCALE = 10**6


def icbrt(n: int) -> int:
    """Floor of the cube root of a non-negative integer."""
    if n < 0:
        raise ValueError("icbrt of negative value")
    if n < 2:
        return n
    x = 1 << ((n.bit_length() + 2) // 3)
    while True:
        y = (2 * x + n // (x * x)) // 3
        if y >= x:
            break
        x = y
    while x * x * x > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def icbrt_ceil(n: int) -> int:
    """Smallest integer whose cube is >= n (n non-negative)."""
    r = icbrt(n)
    return r if r * r * r == n else r + 1


def ceil_scaled_pow23(n: int, beta: Fraction) -> int:
    """ceil(beta * n^(2/3)) computed exactly for n >= 0, beta > 0."""
    if n <= 0:
        return 0
    p, q = beta.numerator, beta.denominator
    target = p**3 * n**2
    # Minimal R with (R*q)^3 >= p^3 * n^2, i.e. R^3 >= ceil(target / q^3).
    return icbrt_ceil(-(-target // q**3))


def sqrt_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds for sqrt(n)."""
    if n < 0:
        raise ValueError("sqrt of negative value")
    s = isqrt(n * RATIONAL_SCALE**2)
    lower = Fraction(s, RATIONAL_SCALE)
    upper = lower if s * s == n * RATIONAL_SCALE**2 else Fraction(s + 1, RATIONAL_SCALE)
    return lower, upper


def pow43_bounds(n: int) -> tuple[Fraction, Fraction]:
    """Rational (lower, upper) bounds for n^(4/3) = cbrt(n^4)."""
    if n < 0:
        raise ValueError("negative base")
    target = n**4 * RATIONAL_SCALE**3
    t = icbrt(target)
    lower = Fraction(t, RATIONAL_SCALE)
    upper = lower if t**3 == target else Fraction(t + 1, RATIONAL_SCALE)
    return lower, upper
