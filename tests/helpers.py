"""Shared random generators for the exact-arithmetic test suites."""

from fractions import Fraction

from braidrep.fields import (
    NumberField,
    RationalField,
    SymbolicField,
    VarContext,
    cyclotomic_field,
)
from braidrep.samplers import small_fraction


def random_fraction(rng, span=6):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_nonzero_fraction(rng, span=6):
    while True:
        f = random_fraction(rng, span)
        if f != 0:
            return f


def random_laurent(field, rng, max_terms=3, max_exp=2):
    """Random Laurent polynomial as a Scalar over a SymbolicField."""
    ctx = field.context
    total = field.zero
    for _ in range(rng.randint(1, max_terms)):
        coeff = random_fraction(rng, 4)
        if coeff == 0:
            coeff = Fraction(1)
        term = field.const(coeff)
        for name in ctx.names:
            e = rng.randint(-max_exp, max_exp)
            if e:
                term = term * field.var(name) ** e
        total = total + term
    return total


def random_rf(field, rng):
    """Random rational function with a guaranteed nonzero denominator."""
    num = random_laurent(field, rng)
    while True:
        den = random_laurent(field, rng, max_terms=2)
        if not den.is_zero():
            return num / den


def random_numberfield_elt(field, rng, span=5):
    coeffs = tuple(random_fraction(rng, span) for _ in range(field.degree))
    return field.element(coeffs)


def random_scalar(field, rng):
    if isinstance(field, RationalField):
        return field.const(random_fraction(rng))
    if isinstance(field, SymbolicField):
        return random_rf(field, rng)
    if isinstance(field, NumberField):
        return random_numberfield_elt(field, rng)
    raise TypeError(f"no generator for {field!r}")


def random_nonzero_scalar(field, rng):
    while True:
        s = random_scalar(field, rng)
        if not s.is_zero():
            return s


def backend_fixtures():
    """One representative field per backend kind."""
    return [
        RationalField(),
        SymbolicField(VarContext(("l1", "l2", "g"))),
        cyclotomic_field(6),
    ]


def random_binomial_params(size, rng, field=None, bound=10):
    """Parameter list lambda_0..lambda_{size-1} with constant opposite products."""
    if field is None:
        field = RationalField()
    n = size - 1
    if size % 2 == 1:
        mid = field.const(small_fraction(rng, bound))
        c = mid * mid
    else:
        c = field.const(small_fraction(rng, bound))
        mid = None
    params = [None] * size
    for i in range(size // 2):
        x = field.const(small_fraction(rng, bound))
        params[i] = x
        params[n - i] = c / x
    if mid is not None:
        params[size // 2] = mid
    return params, c
