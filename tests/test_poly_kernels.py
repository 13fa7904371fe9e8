"""Property tests of the univariate-polynomial kernels in braidrep.fields.

Coefficient sequences are ascending; hypothesis draws them derandomized, so
every run checks the same examples.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from braidrep.fields import cyclotomic_field, horner, poly_divmod, poly_mul  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=60)

Z5 = cyclotomic_field(5)

fractions = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
z5_scalars = st.lists(fractions, min_size=4, max_size=4).map(Z5.element)


def sequences(elements, min_size=0):
    return st.lists(elements, min_size=min_size, max_size=7)


def divisors(elements, zero):
    """Sequences whose leading entry is nonzero, hence a unit in a field."""
    return sequences(elements, min_size=1).filter(lambda b: b[-1] != zero)


def padded_sum(x, y, zero):
    n = max(len(x), len(y))
    x = list(x) + [zero] * (n - len(x))
    y = list(y) + [zero] * (n - len(y))
    return [u + v for u, v in zip(x, y)]


def trimmed(x, zero):
    x = list(x)
    while x and x[-1] == zero:
        x.pop()
    return x


def check_division(a, b, zero):
    quo, rem = poly_divmod(a, b)
    assert len(trimmed(rem, zero)) < len(b)
    assert trimmed(padded_sum(poly_mul(quo, b, zero), rem, zero), zero) == trimmed(a, zero)


@SETTINGS
@given(sequences(fractions), divisors(fractions, 0))
def test_divmod_over_fractions(a, b):
    check_division(a, b, Fraction(0))


@SETTINGS
@given(sequences(z5_scalars), divisors(z5_scalars, Z5.zero))
def test_divmod_over_cyclotomic_scalars(a, b):
    check_division(a, b, Z5.zero)


@SETTINGS
@given(sequences(fractions, min_size=1), fractions)
def test_horner_is_the_power_sum(coeffs, x):
    assert horner(coeffs, x) == sum(c * x ** k for k, c in enumerate(coeffs))


@SETTINGS
@given(sequences(z5_scalars, min_size=1), z5_scalars)
def test_horner_is_the_power_sum_over_cyclotomic_scalars(coeffs, x):
    expected = sum((c * x ** k for k, c in enumerate(coeffs)), Z5.zero)
    assert horner(coeffs, x) == expected


@SETTINGS
@given(sequences(fractions, min_size=1), sequences(fractions, min_size=1))
def test_poly_mul_commutes(a, b):
    assert poly_mul(a, b, Fraction(0)) == poly_mul(b, a, Fraction(0))

