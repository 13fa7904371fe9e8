"""Tests for the binomial-factored backend that decides the dimension checks.

Each factored value is compared with the same expression over SymbolicField,
the expanded backend, through to_symbolic: a unit times a monomial times each
atom's polynomial, Phi_n(x) or the opaque polynomial, raised to its exponent.
"""

from fractions import Fraction

import pytest

from braidrep import dims
from braidrep.factored import FactoredField, cyclotomic_candidates
from braidrep.fields import LaurentPolynomial, SymbolicField, VarContext, cyclotomic, poly_mul

UW = VarContext(("u", "w"))


def to_symbolic(x, field):
    """The SymbolicField value of a factored element x."""
    unit, mono, atoms = x.value
    out = field.from_poly(LaurentPolynomial(field.context, {mono: unit}))
    for (n, key), e in atoms.items():
        if n == 0:
            terms = dict(key)
        else:
            terms = {tuple(j * a for a in key): c for j, c in enumerate(cyclotomic(n)) if c}
        out = out * field.from_poly(LaurentPolynomial(field.context, terms)) ** e
    return out


def atoms_of(x):
    return x.value[2]


# ---------------------------------------------------------------------------
# cyclotomic polynomials and the trial-division candidates


def test_cyclotomic_products_over_divisors_give_x_to_the_n_minus_one():
    for n in range(1, 41):
        product = [Fraction(1)]
        for d in range(1, n + 1):
            if n % d == 0:
                product = poly_mul(product, list(cyclotomic(d)), Fraction(0))
        assert product == [-1] + [0] * (n - 1) + [1], n


def test_cyclotomic_small_cases():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(6) == (1, -1, 1)
    assert cyclotomic(12) == (1, 0, -1, 0, 1)
    assert all(type(c) is int for c in cyclotomic(30))


def test_cyclotomic_candidates_are_every_k_of_small_totient():
    totient = {k: sum(1 for j in range(1, k + 1) if _gcd(j, k) == 1) for k in range(1, 200)}
    for degree in range(1, 13):
        want = sorted((k for k, t in totient.items() if t <= degree), key=lambda k: (totient[k], k))
        assert list(cyclotomic_candidates(degree)) == want


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


# ---------------------------------------------------------------------------
# factoring sums


@pytest.fixture
def uw():
    field = FactoredField(UW)
    return field, field.var("u"), field.var("w")


def test_binomials_factor_over_the_divisors(uw):
    field, u, w = uw
    x = (1, -2)  # u*w^-2, primitive and oriented
    minus = u ** 12 * w ** -24 - 1
    assert atoms_of(minus) == {(n, x): 1 for n in (1, 2, 3, 4, 6, 12)}
    plus = u ** 12 * w ** -24 + 1
    assert atoms_of(plus) == {(n, x): 1 for n in (8, 24)}
    # the orientation absorbs x -> 1/x into the unit and the monomial
    flipped = u ** -12 * w ** 24 - 1
    assert atoms_of(flipped) == atoms_of(minus)
    assert flipped == -(u ** -12 * w ** 24) * minus


def test_collinear_trinomial_refactors_over_cyclotomics(uw):
    # g^2 + g*l + l^2 = (g^3 - l^3) / (g - l): no opaque atom is left
    field, u, w = uw
    g, l = u ** 4, w ** 2
    value = g * g + g * l + l * l
    assert atoms_of(value) == {(3, (2, -1)): 1, (6, (2, -1)): 1}
    assert value == (g ** 3 - l ** 3) / (g - l)
    assert value.render() == "w^4*Phi_3(u^2*w^-1)*Phi_6(u^2*w^-1)"


def test_non_collinear_sum_is_one_canonical_opaque_atom(uw):
    field, u, w = uw
    a = u + w + 1
    (atom, e), = atoms_of(a).items()
    assert atom[0] == 0 and e == 1
    # the same polynomial up to a unit and a monomial is the same atom
    b = -3 * u ** -1 * w - 3 * u ** -2 * w ** 2 - 3 * u ** -2 * w
    assert atoms_of(b) == atoms_of(a)
    assert b == -3 * u ** -2 * w * a
    assert a.render() == "(u+w+1)"


def test_sums_that_cancel_are_zero(uw):
    field, u, w = uw
    a = (u - w) * (u + w)
    assert (a - (u * u - w * w)).is_zero()
    assert (u + w - u - w).is_zero()
    assert (a - a) == field.zero
    with pytest.raises(ZeroDivisionError):
        (u - u).inv()


def test_equality_cross_multiplies_past_an_opaque_atom(uw):
    # (u^2 - w^2 + u - w) is opaque but equals (u - w)(u + w + 1)
    field, u, w = uw
    opaque = u * u - w * w + u - w
    assert any(k[0] == 0 for k in atoms_of(opaque))
    assert opaque == (u - w) * (u + w + 1)
    assert opaque / (u - w) == u + w + 1
    assert opaque != (u - w) * (u + w + 2)


# ---------------------------------------------------------------------------
# random expressions against SymbolicField


def test_random_binomial_expressions_match_symbolic():
    # hypothesis draws derandomized, so every run checks the same samples
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    factored, symbolic = FactoredField(UW), SymbolicField(UW)

    monomials = st.tuples(
        st.sampled_from([1, -1, 2, Fraction(-1, 3)]), st.integers(-3, 3), st.integers(-3, 3),
    )
    binomials = st.tuples(monomials, monomials)
    # a leaf is a sum of two signed monomials, equal ones included, so a
    # leaf may cancel to zero
    expressions = st.recursive(
        binomials,
        lambda inner: st.tuples(st.sampled_from("+-*/"), inner, inner),
        max_leaves=6,
    )

    def evaluate(expr, field):
        if isinstance(expr[0], str):
            op, left, right = expr
            a, b = evaluate(left, field), evaluate(right, field)
            if a is None or b is None:
                return None
            if op == "/":
                return None if b.is_zero() else a / b
            return {"+": a + b, "-": a - b, "*": a * b}[op]
        u, w = field.var("u"), field.var("w")
        return sum((c * u ** i * w ** j for c, i, j in expr), field.zero)

    seen = {"zero": 0, "opaque": 0}

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(expressions, expressions)
    def check(left, right):
        a, b = evaluate(left, factored), evaluate(right, factored)
        sa, sb = evaluate(left, symbolic), evaluate(right, symbolic)
        if a is None or b is None:
            assert sa is None or sb is None
            return
        assert to_symbolic(a, symbolic) == sa
        assert to_symbolic(a + b, symbolic) == sa + sb
        assert (a == b) == (sa == sb)
        assert (a == -b) == (sa == -sb)
        seen["zero"] += a.is_zero()
        seen["opaque"] += any(k[0] == 0 for k in atoms_of(a))

    check()
    assert seen["zero"] > 0 and seen["opaque"] > 0


# ---------------------------------------------------------------------------
# the dimension series: every factored value against sympy


def series_values(backend):
    return [dims._exceptional_values(backend), *dims._bcd_values(backend)]


def series_scalars(values):
    p, q1 = values.table
    return [*p.values(), *q1.values(), values.dim_z, *values.routes, *values.catalog]


def test_series_values_expand_to_their_symbolic_values_in_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def poly(terms, shift):
        gens = sympy.symbols("u w")
        return sympy.Poly.from_dict(
            {tuple(e + s for e, s in zip(m, shift)): sympy.Rational(str(c))
             for m, c in terms.items()},
            *gens,
        )

    def product(factors):
        """(sympy Poly, shift) of a product of Laurent term dicts; the
        Laurent value is the Poly times u^-shift[0] w^-shift[1]."""
        out, total = poly({(0, 0): 1}, (0, 0)), (0, 0)
        for terms in factors:
            shift = tuple(-min(m[i] for m in terms) for i in range(2))
            out = out * poly(terms, shift)
            total = tuple(a + b for a, b in zip(total, shift))
        return out, total

    def same(left, right):
        (p, s), (q, r) = left, right
        top = tuple(map(max, s, r))
        return (p * poly({tuple(a - b for a, b in zip(top, s)): 1}, (0, 0))
                == q * poly({tuple(a - b for a, b in zip(top, r)): 1}, (0, 0)))

    checked = 0
    for exact, shown in zip(series_values(FactoredField), series_values(SymbolicField)):
        for x, y in zip(series_scalars(exact), series_scalars(shown)):
            unit, mono, atoms = x.value
            num, den = [{mono: unit}], []
            for (n, key), e in atoms.items():
                if n == 0:
                    terms = dict(key)
                else:
                    coeffs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
                    terms = {tuple(j * a for a in key): c for j, c in enumerate(coeffs) if c}
                (num if e > 0 else den).extend([terms] * abs(e))
            sym_num, sym_den = y.value
            assert same(product(num + [sym_den.terms]), product(den + [sym_num.terms]))
            checked += 1
    # exceptional: 5 + 4 table entries, dim Z, 4 routes, 4 catalog values;
    # bcd at each sign of alpha^2: 3 + 2, dim Z, 2 routes, 2 catalog values
    assert checked == 18 + 2 * 10


def test_series_values_match_their_symbolic_values():
    for exact, shown in zip(series_values(FactoredField), series_values(SymbolicField)):
        for x, y in zip(series_scalars(exact), series_scalars(shown)):
            assert to_symbolic(x, y.field) == y
