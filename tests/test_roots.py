"""Exact integer roots against brute-force integer definitions."""

from fractions import Fraction

import pytest

from incidences.roots import ceil_scaled_pow23, icbrt, icbrt_ceil

SMALL = range(10**4 + 1)
LARGE = [m**3 + d for m in (10**6 + 3, 2**40 - 1, 3**50, 10**40 + 7) for d in (-1, 0, 1)]


def floor_cbrt(n: int) -> int:
    """The largest x with x^3 <= n, by bisection on the definition."""
    lo, hi = 0, 1
    while hi**3 <= n:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if mid**3 <= n else (lo, mid)
    return lo


@pytest.mark.parametrize("ns", [SMALL, LARGE], ids=["0-10000", "large-cubes"])
def test_icbrt_and_icbrt_ceil(ns):
    for n in ns:
        x = floor_cbrt(n)
        assert icbrt(n) == x, n
        assert icbrt_ceil(n) == (x if x**3 == n else x + 1), n


@pytest.mark.parametrize("beta", [Fraction(1), Fraction(1, 12), Fraction(7, 3),
                                  Fraction(1, 10**6)])
def test_ceil_scaled_pow23_is_the_least_r_with_r_cubed_above_beta_cubed_n_squared(beta):
    assert ceil_scaled_pow23(0, beta) == ceil_scaled_pow23(-5, beta) == 0
    for n in [*SMALL, *LARGE]:
        r = ceil_scaled_pow23(n, beta)
        # r = ceil(beta * n^(2/3)) is the least integer with r^3 >= beta^3 * n^2.
        assert Fraction(r)**3 >= beta**3 * n**2 > Fraction(r - 1)**3, (n, beta)


@pytest.mark.parametrize("root, message", [
    (icbrt, "icbrt of negative value"), (icbrt_ceil, "icbrt of negative value"),
])
def test_negative_arguments_raise(root, message):
    for n in (-1, -10**30):
        with pytest.raises(ValueError) as info:
            root(n)
        assert str(info.value) == message
