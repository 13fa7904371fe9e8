"""Shared random generators and kernel comparisons for the exact-arithmetic test suites."""

from fractions import Fraction

from braidrep.fields import (
    NumberField,
    RationalField,
    SymbolicField,
    VarContext,
    cyclotomic_field,
)
from braidrep.classify import is_simple
from braidrep.matrices import RowSpace, nullspace_basis
from braidrep.samplers import random_classified_spec, small_fraction

from oracles import FractionRowSpace, fraction_nullspace_basis


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


def sample_simple_specs(d, rng, count, field=None, bound=10):
    out = []
    while len(out) < count:
        spec = random_classified_spec(d, rng, field=field, bound=bound)
        if is_simple(spec).simple:
            out.append(spec)
    return out


def assert_kernels_agree(field, ncols, rows, probes=()):
    """RowSpace and the Fraction kernel agree insert by insert, and on rows,
    pivots, rank, reduce and the nullspace basis."""
    space, ref = RowSpace(field, ncols), FractionRowSpace(field, ncols)
    for row in rows:
        assert space.insert(row) == ref.insert(row)
        assert space.rank == ref.rank
    assert space.pivots == ref.pivots
    assert space.rows == ref.rows
    for v in probes:
        assert space.reduce(v) == ref.reduce(v)
    assert nullspace_basis(field, rows, ncols) == fraction_nullspace_basis(field, rows, ncols)
