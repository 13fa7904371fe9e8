"""Field-axiom, serialization, and specialization checks for the scalar backends."""

from fractions import Fraction
from math import gcd, isqrt
import random
import time

import pytest

from braidrep import dims, laurent
from braidrep.factored import FactoredField
from braidrep.fields import (
    BackendMismatch,
    Field,
    LaurentPolynomial,
    NumberField,
    ParseError,
    RationalField,
    Scalar,
    SymbolicField,
    VarContext,
    ZeroDivisorError,
    cyclotomic_field,
    root_of_unity,
)
from braidrep.laurent import kronecker_mul, render_terms, sparse_mul

from helpers import (
    backend_fixtures,
    random_nonzero_fraction,
    random_nonzero_scalar,
    random_rf,
    random_scalar,
)
from oracles import SpecializationError, specialize

TRIPLES = 500


@pytest.mark.parametrize("field", backend_fixtures(), ids=lambda f: type(f).__name__)
def test_field_axioms_random_triples(field):
    rng = random.Random(20260401)
    zero, one = field.zero, field.one
    for _ in range(TRIPLES):
        a = random_scalar(field, rng)
        b = random_scalar(field, rng)
        c = random_scalar(field, rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + zero == a
        assert a * one == a
        assert (a - a).is_zero()
        assert a - b == a + (-b)
        if not b.is_zero():
            assert (a / b) * b == a
            assert b * b.inv() == one
        assert a ** 3 == a * a * a
        if not a.is_zero():
            assert a ** -2 * a ** 2 == one


@pytest.mark.parametrize("field", backend_fixtures(), ids=lambda f: type(f).__name__)
def test_powers_equal_repeated_products(field):
    x = random_nonzero_scalar(field, random.Random(41))
    inverse = x.inv()
    for k in range(-6, 20):
        expected = field.one
        for _ in range(abs(k)):
            expected = expected * (x if k > 0 else inverse)
        assert x ** k == expected, k


def test_powers_take_no_product_by_one(monkeypatch):
    products = []
    real = Scalar.__mul__

    def counted(a, b):
        products.append((a, b))
        return real(a, b)

    monkeypatch.setattr(Scalar, "__mul__", counted)
    x = RationalField().const(Fraction(3, 2))
    for k, count in ((0, 0), (1, 0), (2, 1), (4, 2), (5, 3), (8, 3)):
        products.clear()
        assert (x ** k).value == Fraction(3, 2) ** k
        assert len(products) == count, k


@pytest.mark.parametrize("field", backend_fixtures(), ids=lambda f: type(f).__name__)
def test_parse_render_round_trip(field):
    rng = random.Random(7771)
    for _ in range(200):
        a = random_scalar(field, rng)
        s = a.render()
        assert field.parse(s) == a
        # whitespace must not matter
        spaced = s.replace("+", " + ").replace("*", " * ")
        assert field.parse("  " + spaced + " ") == a


def test_zero_division_raises():
    for field in backend_fixtures():
        with pytest.raises(ZeroDivisionError):
            field.one / field.zero
        with pytest.raises(ZeroDivisionError):
            field.zero.inv()


def test_backend_mismatch_raises():
    q = RationalField()
    f = SymbolicField(VarContext(("l1", "l2")))
    g = SymbolicField(VarContext(("l1", "l3")))
    k = cyclotomic_field(6)
    with pytest.raises(BackendMismatch):
        q.one + f.one
    with pytest.raises(BackendMismatch):
        f.var("l1") * g.var("l1")
    with pytest.raises(BackendMismatch):
        k.gen + f.one
    with pytest.raises(BackendMismatch):
        q.one - k.gen


def test_every_backend_takes_zero_one_and_equality_from_field():
    for backend in (RationalField, SymbolicField, NumberField, FactoredField):
        assert issubclass(backend, Field)
        assert not {"zero", "one", "__eq__", "__hash__"} & set(vars(backend))


def test_fields_with_equal_keys_compare_and_hash_equal():
    uw = VarContext(("u", "w"))
    equal = [
        (RationalField(), RationalField()),
        (SymbolicField(uw), SymbolicField(VarContext(("u", "w")))),
        (FactoredField(uw), FactoredField(VarContext(("u", "w")))),
        (NumberField([1, 0, 1]), NumberField.from_modulus_string("z^2+1")),
        (cyclotomic_field(5), cyclotomic_field(5)),
    ]
    for a, b in equal:
        assert a is not b
        assert a == b and b == a and hash(a) == hash(b) and len({a, b}) == 1
        assert a.zero == b.zero and a.one == b.one and a.zero != a.one
    unequal = [
        (SymbolicField(uw), FactoredField(uw)),
        (SymbolicField(uw), SymbolicField(VarContext(("w", "u")))),
        (NumberField([1, 0, 1]), NumberField([1, 0, 1], gen_name="t")),
        (NumberField([1, 1, 1]), NumberField([1, 0, 1])),
        (RationalField(), SymbolicField(VarContext(()))),
        (RationalField(), None),
    ]
    for a, b in unequal:
        assert a != b and b != a


def test_int_and_fraction_promotion():
    f = SymbolicField(VarContext(("x",)))
    x = f.var("x")
    assert x * 2 == x + x
    assert 1 + x == x + f.one
    assert x / 2 == f.const(Fraction(1, 2)) * x
    assert (x + Fraction(1, 3)) * 3 == 3 * x + 1


def test_symbolic_normalization_monomial_denominator():
    f = SymbolicField(VarContext(("x", "y")))
    x, y = f.var("x"), f.var("y")
    r = (x + y) / x
    num, den = r.value
    assert den == LaurentPolynomial.const(f.context, 1)
    assert r == 1 + y / x
    # the denominator's sign is pulled out and its integer content stays
    r2 = (x - y) / (-2 * x + 2 * y)
    num2, den2 = r2.value
    assert den2.leading_coeff() > 0 and den2.content()[0] == 2
    assert num2 == -x.value[0] + y.value[0]
    assert r2 == f.const(Fraction(-1, 2))


def test_symbolic_equality_without_gcd():
    f = SymbolicField(VarContext(("x", "y")))
    x, y = f.var("x"), f.var("y")
    left = (x ** 2 - y ** 2) / (x - y)
    assert left == x + y
    assert left != x - y


def test_render_examples_frozen():
    f = SymbolicField(VarContext(("l1", "l2", "g")))
    l1, l2, g = f.var("l1"), f.var("l2"), f.var("g")
    assert ((l1 - l2) ** 2).render() == "l1^2-2*l1*l2+l2^2"
    assert ((l1 - l2) / (l1 + l2)).render() == "(l1-l2)/(l1+l2)"
    assert (l1 * g ** -2).render() == "l1*g^-2"
    assert f.zero.render() == "0"
    assert (-f.one).render() == "-1"
    # same total degree: the lexicographically larger exponent tuple leads
    assert (g ** 2 + l1 * l2).render() == "l1*l2+g^2"


def test_graded_lex_term_order():
    f = SymbolicField(VarContext(("a", "b")))
    a, b = f.var("a"), f.var("b")
    # total degree decides first, then the exponent tuple
    s = a ** 2 + a * b + b ** 2 + a + b + 1
    assert s.render() == "a^2+a*b+b^2+a+b+1"
    t = a ** 3 * b ** -1 + a
    assert t.render() == "a^3*b^-1+a"


def test_parse_errors():
    f = SymbolicField(VarContext(("x",)))
    with pytest.raises(ParseError):
        f.parse("x + q")
    with pytest.raises(ParseError):
        f.parse("")
    with pytest.raises(ParseError):
        f.parse("x ^")


def test_cyclotomic_fields():
    z6 = cyclotomic_field(6).gen
    assert z6 ** 6 == 1
    assert z6 ** 3 == -1
    assert z6 ** 2 == z6 - 1
    z3 = cyclotomic_field(3).gen
    assert z3 ** 3 == 1
    assert z3 ** 2 + z3 + 1 == 0
    z4 = cyclotomic_field(4).gen
    assert z4 ** 2 == -1
    z5 = cyclotomic_field(5).gen
    assert z5 ** 5 == 1
    assert z5 ** 4 + z5 ** 3 + z5 ** 2 + z5 + 1 == 0


def test_cyclotomic_field_of_every_order_has_a_primitive_root():
    for n in range(3, 31):
        field = cyclotomic_field(n)
        z = field.gen
        assert z ** n == 1
        primes = [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]
        assert all(z ** (n // p) != 1 for p in primes), n
        assert field.degree == sum(gcd(k, n) == 1 for k in range(1, n + 1))


def test_cyclotomic_field_moduli_of_the_small_orders():
    # Phi_3 to Phi_6 written out: scan --kind degenerate in dimension 2
    # works over Q(zeta_6), so its bytes rest on these moduli
    table = {3: (1, 1, 1), 4: (1, 0, 1), 5: (1, 1, 1, 1, 1), 6: (1, -1, 1)}
    for n, modulus in table.items():
        assert cyclotomic_field(n).modulus == modulus
    for n in (1, 2):
        with pytest.raises(ValueError, match="unsupported cyclotomic order"):
            cyclotomic_field(n)


def test_numberfield_inverse_round_trip():
    k = cyclotomic_field(5)
    rng = random.Random(99)
    for _ in range(100):
        a = random_nonzero_scalar(k, rng)
        assert a * a.inv() == k.one
        assert k.parse(a.render()) == a


@pytest.mark.parametrize("modulus", ["z^4+z^3+z^2+z+1", "z^6+z^5+z^4+z^3+z^2+z+1"])
def test_numberfield_inverse_through_integer_rows(modulus):
    # Q(zeta_5) and Q(zeta_7): _inv solves its system over Q in RowSpace,
    # which keeps integer rows; elements with zero, negative and large
    # coefficients
    k = NumberField.from_modulus_string(modulus)
    rng = random.Random(len(modulus))
    huge = Fraction(10**30, 7**20)
    for _ in range(60):
        coeffs = [rng.choice((0, 1, -1, huge, -huge)) * random_nonzero_fraction(rng)
                  for _ in range(k.degree)]
        a = k.element(coeffs)
        if a.is_zero():
            continue
        assert a * a.inv() == k.one


def test_numberfield_zero_divisor_raises():
    # z^5 + z^3 + 2z^2 + 2 = (z^2 + 1)(z^3 + 2) is reducible, and of a degree
    # whose modulus is trusted: z^2 + 1 has no inverse, z does
    k = NumberField.from_modulus_string("z^5+z^3+2*z^2+2")
    z = k.gen
    with pytest.raises(ZeroDivisorError, match=r"zero divisor: modulus z\^5\+z\^3"):
        (z ** 2 + 1).inv()
    # an input error for the CLI, and still a ZeroDivisionError for callers
    assert issubclass(ZeroDivisorError, ValueError)
    assert issubclass(ZeroDivisorError, ZeroDivisionError)
    assert z.inv() == k.parse("-1/2*z^4-1/2*z^2-z")
    assert z * z.inv() == k.one


@pytest.mark.parametrize("text", [
    "z^2-1", "z^2+2*z+1", "z^2", "z^2-9/4", "z^2+z-6",
    # degree 3: a rational root
    "z^3-1", "z^3", "z^3-8/27", "z^3+z^2+z+1",
    # degree 4: a rational root, or two quadratic factors
    "z^4-z", "z^4-16/81", "z^4+3*z^2+2", "z^4+4", "z^4+1/4", "z^4+2*z^3+3*z^2+2*z+1",
])
def test_reducible_quadratic_modulus_refused(text):
    with pytest.raises(ValueError, match="reducible"):
        NumberField.from_modulus_string(text)


def test_irreducible_quadratic_moduli_accepted():
    for n in (3, 4, 6):
        assert cyclotomic_field(n).degree == 2
    for text in ("z^2-2", "z^2-1/2", "z^2+z+1", "z^2+3/4"):
        assert NumberField.from_modulus_string(text).degree == 2
    assert cyclotomic_field(5).degree == 4
    for text in ("z^3-2", "z^3+z+1", "z^3-3/8*z+1/27"):
        assert NumberField.from_modulus_string(text).degree == 3
    for text in ("z^4+1", "z^4-10*z^2+1", "z^4-2", "z^4-z^2+1", "z^4+3/16"):
        assert NumberField.from_modulus_string(text).degree == 4


def test_quadratic_moduli_are_decided_by_the_discriminant():
    # z^2 + b*z + c splits over Q exactly when b^2 - 4c is a rational square;
    # the verdict takes no search over the divisors of the constant term
    big = 10 ** 40
    for text, reducible in (("z^2-%d" % big, True), ("z^2+%d" % (big + 1), False),
                            ("z^2+100000000000001", False)):
        start = time.perf_counter()
        if reducible:
            with pytest.raises(ValueError, match="reducible"):
                NumberField.from_modulus_string(text)
        else:
            assert NumberField.from_modulus_string(text).degree == 2
        assert time.perf_counter() - start < 0.5, text
    grid = sorted({Fraction(k, d) for k in range(-6, 7) for d in (1, 2, 3)})
    for r in grid[::3]:
        for s in grid[1::4]:
            # (z - r)(z - s) has two rational linear factors
            with pytest.raises(ValueError, match="reducible"):
                NumberField([r * s, -(r + s), 1])
    for b in grid:
        for c in grid:
            disc = b * b - 4 * c
            square = disc >= 0 and all(isqrt(n) ** 2 == n
                                       for n in (disc.numerator, disc.denominator))
            try:
                NumberField([c, b, 1])
            except ValueError:
                assert square, (b, c)
            else:
                assert not square, (b, c)


def test_numberfield_repr_shows_whole_modulus():
    assert repr(cyclotomic_field(4)) == "NumberField(z^2+1)"
    assert repr(cyclotomic_field(5)) == "NumberField(z^4+z^3+z^2+z+1)"


def test_backend_reprs():
    assert repr(RationalField()) == "RationalField()"
    assert repr(SymbolicField(VarContext(("x", "y")))) == "SymbolicField(x,y)"
    assert repr(NumberField.from_modulus_string("z^2+1")) == "NumberField(z^2+1)"
    assert repr(FactoredField(VarContext(("u", "w")))) == "FactoredField(u,w)"


def _is_primitive_root(x, order):
    one = x.field.one
    return x ** order == one and all(x ** k != one for k in range(1, order))


@pytest.mark.parametrize("modulus", ["z^2+3", "z^2+12", "z^2+3/4", "z^2+27"])
def test_root_of_unity_from_sqrt_minus_three(modulus):
    # the generator search finds nothing here; sqrt(-3) is a rational
    # multiple of 2z+b for the modulus z^2+bz+c
    k = NumberField.from_modulus_string(modulus)
    for order in (3, 6):
        assert _is_primitive_root(root_of_unity(k, order), order)


@pytest.mark.parametrize("modulus", ["z^2+1", "z^2+2"])
def test_root_of_unity_absent(modulus):
    k = NumberField.from_modulus_string(modulus)
    for order in (3, 6):
        with pytest.raises(ValueError, match="no primitive root of order %d" % order):
            root_of_unity(k, order)


def test_root_of_unity_search_says_it_is_incomplete_past_degree_two():
    # z = sqrt(2) + sqrt(-3): the field holds a primitive cube root that
    # no generator power +-z^k +- 1 is, and the modulus is not quadratic
    k = NumberField.from_modulus_string("z^4+2*z^2+25")
    assert _is_primitive_root(k.parse("(-z^3-7*z-10)/(20)"), 3)
    for order in (3, 6):
        with pytest.raises(ValueError, match="search is incomplete in fields of degree >= 3"):
            root_of_unity(k, order)


def test_root_of_unity_in_cyclotomic_fields_is_a_generator_power():
    z3, z6 = cyclotomic_field(3), cyclotomic_field(6)
    assert root_of_unity(z3, 3) == z3.gen and root_of_unity(z3, 6) == -z3.gen
    assert root_of_unity(z6, 3) == -z6.gen and root_of_unity(z6, 6) == z6.gen


RATIONAL_PARSES = {
    "3": Fraction(3),
    "-3/4": Fraction(-3, 4),
    " + 5 / 10 ": Fraction(1, 2),
    "--2": Fraction(2),
    "+-+7": Fraction(-7),
    "-0/7": Fraction(0),
    # the shared grammar also takes sums, products and (num)/(den)
    "1+1/2": Fraction(3, 2),
    "2*3": Fraction(6),
    "(3)/(4)": Fraction(3, 4),
    "(1+1)/(-3)": Fraction(-2, 3),
}


def test_rational_parse_values():
    q = RationalField()
    for text, value in RATIONAL_PARSES.items():
        assert q.parse(text) == value, text


def test_rational_parse_divides_exactly():
    # the reader returns integer constants, so their quotient must not be
    # an int / int float
    q = RationalField()
    half = q.parse("(3)/(2)").value
    assert half == Fraction(3, 2) and type(half) is Fraction
    assert type(q.parse("7").value) is Fraction


def test_laurent_coefficients_are_ints_when_integral():
    # the reader clears the rational coefficients into the denominator, and
    # the render divides them out again
    field = SymbolicField(VarContext(("x",)))
    value = field.parse("3/2*x^2+4/2*x-5")
    num, den = value.value
    assert num.terms == {(2,): 3, (1,): 4, (0,): -10} and den.terms == {(0,): 2}
    assert {type(c) for p in (num, den) for c in p.terms.values()} == {int}
    assert value.render() == "3/2*x^2+2*x-5"


@pytest.mark.parametrize("text", [
    "", "   ", "1.5", "x", "3 4", "3/-4", "3/4/5", "2^3", "3 /", "(3)", "1/2)",
])
def test_rational_parse_refusals(text):
    with pytest.raises(ParseError):
        RationalField().parse(text)


@pytest.mark.parametrize("field", backend_fixtures(), ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("text", ["1/0", "(1)/(0)", "(1)/(2-2)"])
def test_zero_denominator_is_a_parse_error(field, text):
    with pytest.raises(ParseError, match="zero"):
        field.parse(text)


def test_numberfield_zero_in_field_denominator_is_a_parse_error():
    k = cyclotomic_field(4)
    with pytest.raises(ParseError, match="zero"):
        k.parse("(z)/(z^2+1)")


READER_FIELDS = {
    "Q": RationalField(),
    "Q(x,y)": SymbolicField(VarContext(("x", "y"))),
    "Q(zeta3)": cyclotomic_field(3),
}
ALL_READER_FIELDS = tuple(READER_FIELDS)

# every ParseError text of the reader, each with an input that raises it over
# the fields listed; where a string breaks two rules, the one met first wins
READER_REFUSALS = [
    (ALL_READER_FIELDS, "1 +  $2", "bad character at '  $2'"),
    (ALL_READER_FIELDS, "   ", "empty polynomial"),
    (ALL_READER_FIELDS, "(1+2", "unbalanced parentheses"),
    (ALL_READER_FIELDS, "(1)/(2", "unbalanced parentheses in denominator"),
    (ALL_READER_FIELDS, "3/0", "zero denominator"),
    (ALL_READER_FIELDS, "(1)/(2-2)", "zero denominator"),
    (ALL_READER_FIELDS, "3 4", "expected '+' or '-' between terms"),
    (ALL_READER_FIELDS, "(1)/(2)+(3)", "unexpected '+' after the denominator"),
    (ALL_READER_FIELDS, "(1)/(2)*3", "unexpected '*' after the denominator"),
    (ALL_READER_FIELDS, "(1)/(2)3", "unexpected '3' after the denominator"),
    (ALL_READER_FIELDS, "(1)/(2))", "unexpected ')' after the denominator"),
    (ALL_READER_FIELDS, "1+", "expected a term"),
    (ALL_READER_FIELDS, "(2)", "unexpected token '('"),
    (ALL_READER_FIELDS, "2*)", "unexpected token ')'"),
    # names are looked up only after the whole term is read
    (ALL_READER_FIELDS, "x^-y", "expected an integer exponent"),
    (ALL_READER_FIELDS, "2*", "dangling '*'"),
    (ALL_READER_FIELDS, "2*q^2", "unknown variable 'q'"),
    (("Q(zeta3)",), "z^-1", "negative powers of the generator are not supported"),
    (("Q(zeta3)",), "(1)/(z^2+z+1)", "denominator is zero modulo z^2+z+1"),
]


@pytest.mark.parametrize("field, text, message", [
    (name, text, message) for names, text, message in READER_REFUSALS for name in names
])
def test_reader_refusal_texts(field, text, message):
    with pytest.raises(ParseError) as err:
        READER_FIELDS[field].parse(text)
    assert str(err.value) == message


def _typed(value):
    """A parsed value with the type of each coefficient beside it."""
    if isinstance(value, LaurentPolynomial):
        return {m: (type(c), c) for m, c in value.terms.items()}
    if isinstance(value, tuple):
        return tuple(map(_typed, value))
    return type(value), value


ONE_XY = {(0, 0): (int, 1)}

# strings the reader accepts that a stricter grammar might not, with the
# value each field reads and its coefficient types; a symbolic value keeps
# the integer content of its denominator
READER_QUIRKS = [
    # a run of signs before a term; the parity of its '-' signs decides
    ("Q", "--2", (Fraction, 2)),
    ("Q(x,y)", "--2", ({(0, 0): (int, 2)}, ONE_XY)),
    ("Q(zeta3)", "--2", ((Fraction, 2), (Fraction, 0))),
    ("Q", "+-+3", (Fraction, -3)),
    ("Q(x,y)", "+-+3", ({(0, 0): (int, -3)}, ONE_XY)),
    ("Q(zeta3)", "+-+3", ((Fraction, -3), (Fraction, 0))),
    ("Q(x,y)", "3/5*x^-2", ({(-2, 0): (int, 3)}, {(0, 0): (int, 5)})),
    # a digit is any Unicode decimal digit
    ("Q", "٣", (Fraction, 3)),
    ("Q(x,y)", "٣", ({(0, 0): (int, 3)}, ONE_XY)),
    ("Q(zeta3)", "٣", ((Fraction, 3), (Fraction, 0))),
    ("Q", "(2)/(4)", (Fraction, Fraction(1, 2))),
    ("Q(x,y)", "(2*x)/(4)", ({(1, 0): (int, 2)}, {(0, 0): (int, 4)})),
    ("Q(zeta3)", "(2*z)/(4)", ((Fraction, 0), (Fraction, Fraction(1, 2)))),
    # blanks before any token, and trailing ones
    ("Q", "2*3\t ", (Fraction, 6)),
    ("Q(x,y)", "\t-x + 1  \t", ({(1, 0): (int, -1), (0, 0): (int, 1)}, ONE_XY)),
]


@pytest.mark.parametrize("field, text, typed", READER_QUIRKS)
def test_reader_quirks_keep_their_values_and_types(field, text, typed):
    assert _typed(READER_FIELDS[field].parse(text).value) == typed


def test_var_context_is_an_immutable_validated_name_tuple():
    ctx = VarContext(("x", "y"))
    assert ctx == VarContext(["x", "y"]) and hash(ctx) == hash(VarContext(["x", "y"]))
    assert ctx != VarContext(("y", "x"))
    assert ctx.index("y") == 1 and len(ctx) == 2
    assert ctx.names == ("x", "y") and repr(ctx) == "VarContext(names=('x', 'y'))"
    with pytest.raises(ValueError) as err:
        VarContext(("x", "x"))
    assert str(err.value) == "variable names must be distinct"
    for bad in ("1x", "x-y", "", "é"):
        with pytest.raises(ValueError) as err:
            VarContext(("x", bad))
        assert str(err.value) == "bad variable name: %r" % bad
    with pytest.raises(AttributeError):
        ctx.names = ("z",)
    with pytest.raises(AttributeError):
        ctx.extra = 1


def test_specialize_is_ring_homomorphism():
    ctx = VarContext(("l1", "l2", "g"))
    f = SymbolicField(ctx)
    q = RationalField()
    k = cyclotomic_field(6)
    rng = random.Random(555)
    for target in (q, k):
        done = 0
        while done < 300:
            a = random_rf(f, rng)
            b = random_rf(f, rng)
            if target is q:
                assignment = {n: q.const(random_nonzero_fraction(rng)) for n in ctx.names}
            else:
                assignment = {
                    n: random_nonzero_scalar(k, rng) for n in ctx.names
                }
            try:
                sa = specialize(a, assignment, target)
                sb = specialize(b, assignment, target)
                sab = specialize(a * b, assignment, target)
                ssum = specialize(a + b, assignment, target)
            except SpecializationError:
                continue  # denominator vanished at this point; resample
            assert sab == sa * sb
            assert ssum == sa + sb
            done += 1


def test_specialize_denominator_vanishing_raises():
    ctx = VarContext(("x",))
    f = SymbolicField(ctx)
    q = RationalField()
    r = f.one / (f.var("x") - 1)
    with pytest.raises(SpecializationError):
        specialize(r, {"x": q.one}, q)


def test_specialize_requires_full_assignment():
    ctx = VarContext(("x", "y"))
    f = SymbolicField(ctx)
    q = RationalField()
    with pytest.raises(SpecializationError):
        specialize(f.var("x"), {"x": q.one}, q)


def test_specialize_rejects_wrong_target_scalars():
    ctx = VarContext(("x",))
    f = SymbolicField(ctx)
    q = RationalField()
    k = cyclotomic_field(6)
    with pytest.raises(BackendMismatch):
        specialize(f.var("x"), {"x": k.gen}, q)


def test_numberfield_parse_reduces_huge_powers():
    k = NumberField.from_modulus_string("z^2+1")
    start = time.perf_counter()
    assert k.parse("z^10000000") == k.one
    assert k.parse("(1)/(z^10000001)") == -k.gen
    assert time.perf_counter() - start < 1.0
    # reduction term by term keeps the value of a plain polynomial
    assert k.parse("3*z^3-1/2*z+7") == k.element([7, Fraction(-7, 2)])
    with pytest.raises(ParseError, match="negative powers"):
        k.parse("z^-1")


@pytest.mark.parametrize("build, text", [
    (lambda f, x, y: f.parse("(x)/(2*y)"), "1/2*x*y^-1"),
    (lambda f, x, y: (x / 2) * (2 * y), "x*y"),
    (lambda f, x, y: x / 2 + y / 4, "1/2*x+1/4*y"),
    (lambda f, x, y: f.parse("3/4*y") ** -1, "4/3*y^-1"),
    (lambda f, x, y: x / (2 * x + 4 * y), "(1/2*x)/(x+2*y)"),
    (lambda f, x, y: (x + Fraction(1, 3)) / (x / 2), "2+2/3*x^-1"),
    (lambda f, x, y: f.const(Fraction(-1, 2)), "-1/2"),
    (lambda f, x, y: x / 2 - x / 2, "0"),
])
def test_symbolic_render_divides_out_the_denominator_content(build, text):
    # a value keeps its denominator's integer content; the render divides
    # it out, so the numerator shows rational coefficients and a printed
    # denominator is a primitive integer polynomial
    f = SymbolicField(VarContext(("x", "y")))
    value = build(f, f.var("x"), f.var("y"))
    assert value.render() == text
    assert f.parse(text) == value and f.parse(text).render() == text


def test_leading_coeff_is_the_first_rendered_term():
    field = SymbolicField(VarContext(("x", "y")))
    rng = random.Random(404)
    for _ in range(100):
        num, _ = random_rf(field, rng).value
        mono, coeff = max(num.terms.items(), key=lambda mc: (sum(mc[0]), mc[0]))
        assert num.leading_coeff() == coeff
        head, text = LaurentPolynomial(field.context, {mono: coeff}).render(), num.render()
        assert text.startswith(head) and text[len(head):][:1] in ("", "+", "-")


# ---------------------------------------------------------------------------
# Laurent products: the dense route (Kronecker substitution) against the
# sparse term-pair loop

# any box fits: the routes are compared, not chosen
ANY_BOX = 10 ** 9


def slot_bytes(a, b):
    """Bytes per slot, sign bit included, that kronecker_mul's bound asks
    for: the largest magnitudes multiplied, times the shorter operand's
    length."""
    bound = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    return bound.bit_length() // 8 + 1


def assert_products_agree(ctx, a, b, max_cells=ANY_BOX):
    """The Laurent product equals sparse_mul, and kronecker_mul equals it
    too when a slot fits 8 bytes, and is None when it does not.  Returns
    whether the slots were too wide for the dense route."""
    expected = sparse_mul(a, b)
    assert (LaurentPolynomial(ctx, a) * LaurentPolynomial(ctx, b)).terms == expected
    wide = bool(a and b) and slot_bytes(a, b) > 8
    if wide:
        assert kronecker_mul(a, b, max_cells) is None
    else:
        assert kronecker_mul(a, b, max_cells) == expected
    return wide


def test_kronecker_mul_matches_sparse_mul():
    # hypothesis draws derandomized, so every run checks the same samples
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficients = st.integers(-(2 ** 130), 2 ** 130).filter(bool)

    def polynomials(nvars):
        ctx = VarContext(("x", "y", "z")[:nvars])
        monos = st.tuples(*[st.integers(-4, 4)] * nvars)
        return st.dictionaries(monos, coefficients, max_size=12).map(
            lambda terms: LaurentPolynomial(ctx, terms)
        )

    seen = set()

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @hypothesis.given(st.integers(1, 3).flatmap(lambda n: st.tuples(polynomials(n), polynomials(n))))
    def check(pair):
        a, b = pair
        seen.add(assert_products_agree(a.context, a.terms, b.terms))

    check()
    # wide and narrow pairs
    assert seen == {False, True}


def test_kronecker_mul_matches_sparse_mul_on_lattices():
    # each operand draws, per variable, a lowest exponent and a step of 1 to
    # 5, and its exponents are low + step * k; the box lies on the lattice of
    # both operands' steps, so it fits the cells their gcd allows
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coefficients = st.integers(-(2 ** 70), 2 ** 70).filter(bool)

    def operand(nvars):
        def terms(lows, steps):
            monos = st.tuples(*[st.integers(0, 6).map(lambda k, lo=lo, step=step: lo + step * k)
                                for lo, step in zip(lows, steps)])
            return st.tuples(st.just(steps), st.dictionaries(monos, coefficients, max_size=10))

        lattice = st.tuples(st.tuples(*[st.integers(-12, 6)] * nvars),
                            st.tuples(*[st.integers(1, 5)] * nvars))
        return lattice.flatmap(lambda ls: terms(*ls))

    seen = set()

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @hypothesis.given(st.integers(1, 3).flatmap(lambda n: st.tuples(operand(n), operand(n))))
    def check(pair):
        (steps_a, a), (steps_b, b) = pair
        ctx = VarContext(("x", "y", "z")[:len(steps_a)])
        wide = assert_products_agree(ctx, a, b)
        cells = 1
        for i, (sa, sb) in enumerate(zip(steps_a, steps_b)):
            spans = [max(m[i] for m in t) - min(m[i] for m in t) for t in (a, b) if t]
            cells *= sum(spans) // gcd(sa, sb) + 1
        assert assert_products_agree(ctx, a, b, cells) == wide
        seen.add("wide slots" if wide else "narrow slots")
        for t in (a, b):
            seen.add(min(len(t), 2))
            seen.update(type(c) for c in t.values())
            seen.update("negative" for m in t if min(m) < 0)
        seen.update(("steps differ",) if steps_a != steps_b else ())

    check()
    assert seen == {0, 1, 2, int, "negative", "steps differ", "wide slots", "narrow slots"}


def record_routes(monkeypatch):
    """A list that records, per Laurent product, "dense", "box" (the dense
    box was refused) and "sparse" (the term-pair loop)."""
    routes = []
    real_sparse, real_dense = laurent.sparse_mul, laurent.kronecker_mul

    def sparse(a, b):
        routes.append("sparse")
        return real_sparse(a, b)

    def dense(a, b, max_cells):
        out = real_dense(a, b, max_cells)
        routes.append("box" if out is None else "dense")
        return out

    monkeypatch.setattr(laurent, "sparse_mul", sparse)
    monkeypatch.setattr(laurent, "kronecker_mul", dense)
    return routes


def test_every_route_keeps_the_coefficient_invariant(monkeypatch):
    # every coefficient a nonzero int: each product, sum and negation must
    # hold the terms that the term-by-term formula gives, zeros dropped
    ctx = VarContext(("u", "w"))

    def lattice(coeff, nu, nw, low=(0, 0)):
        # nu * nw terms on the step-2 lattice from low
        return LaurentPolynomial(ctx, {(low[0] + 2 * i, low[1] + 2 * j): coeff(i, j)
                                       for i in range(nu) for j in range(nw)})

    ints = lattice(lambda i, j: (-1) ** i * (j + 2), 4, 4)
    odds = lattice(lambda i, j: (2 * i + 1) * (-1) ** j, 4, 4, (-3, 1))
    evens = lattice(lambda i, j: 2 * i - 2 * j + 8, 4, 4, (1, -5))
    # ints and thirds share every monomial, so their sum cancels some terms
    thirds = lattice(lambda i, j: -(-1) ** i * (j + 2) if i == j else 3 * (i - 2 * j) + 1, 4, 4)
    # x exponents of gcd 1 need a box past n1 * n2 cells
    ragged = LaurentPolynomial(ctx, {(i * i, 0): i + 1 for i in range(16)})
    operands = [
        ints, odds, evens, thirds, ragged,
        LaurentPolynomial(ctx, {(0, 0): 2, (1, -1): -3}),
        LaurentPolynomial(ctx, {(0, 0): -1, (-1, 1): 5}),
        LaurentPolynomial(ctx, {(-2, 3): 6}),
        LaurentPolynomial(ctx, {(1, 0): -4}),
        LaurentPolynomial(ctx, {(0, 0): 3}),
        LaurentPolynomial(ctx, {}),
    ]

    def assert_normalized(got, expected):
        assert got.terms == {m: c for m, c in expected.items() if c}
        assert all(type(c) is int and c != 0 for c in got.terms.values())

    routes = record_routes(monkeypatch)
    seen = set()
    for a in operands:
        assert_normalized(-a, {m: -c for m, c in a.terms.items()})
        for b in operands + [-a]:
            routes.clear()
            product = a * b
            seen.add((tuple(routes) or "single term") if a.terms and b.terms else "zero")
            assert_normalized(product, sparse_mul(a.terms, b.terms))
            total = dict(a.terms)
            for m, c in b.terms.items():
                total[m] = total.get(m, 0) + c
            assert_normalized(a + b, total)
    assert seen == {("dense",), ("box", "sparse"), ("sparse",), "single term", "zero"}


def grid(ctx, coeff, spans):
    """Every monomial with exponents in the given per-variable ranges, times coeff."""
    monos = [()]
    for lo, hi in spans:
        monos = [m + (e,) for m in monos for e in range(lo, hi + 1)]
    return LaurentPolynomial(ctx, {m: coeff(m) for m in monos})


def test_kronecker_mul_edge_operands():
    ctx = VarContext(("x", "y"))
    dense = grid(ctx, lambda m: (-1) ** (sum(m) % 2) * (3 ** 70 + sum(m)), [(-6, 5), (-3, 4)])
    big = grid(ctx, lambda m: (m[0] - 2 ** 90) * (2 ** 64 + 13 + m[1] % 2), [(-2, 9), (0, 3)])
    one_term = LaurentPolynomial(ctx, {(-7, 2): -5})
    zero = LaurentPolynomial(ctx, {})
    for a in (dense, big, one_term, zero):
        for b in (dense, big, one_term, zero):
            assert_products_agree(ctx, a.terms, b.terms)
    assert kronecker_mul(zero.terms, dense.terms, ANY_BOX) == {}


def test_laurent_mul_takes_the_dense_route_by_size(monkeypatch):
    ctx = VarContext(("x", "y"))
    # (sum of x^i y^j over 0 <= i, j < 16) * (1 - x)(1 - y) = (1 - x^16)(1 - y^16):
    # 256 * 4 term pairs in a 17 x 17 box, nearly all of it cancelling
    square = grid(ctx, lambda m: 1, [(0, 15), (0, 15)])
    factor = LaurentPolynomial(ctx, {(0, 0): 1, (1, 0): -1, (0, 1): -1, (1, 1): 1})
    expected = {(0, 0): 1, (16, 0): -1, (0, 16): -1, (16, 16): 1}
    # exponents 0, 100, ..., 1500 in x and in y lie on a step-100 lattice, so
    # their 256 pairs fill a 16 x 16 box; x exponents 0, 101, 200, 301, ...
    # have offsets of gcd 1 and need a 1502 x 16 box, so they stay sparse
    spread_x = LaurentPolynomial(ctx, {(100 * i, 0): i + 1 for i in range(16)})
    ragged_x = LaurentPolynomial(ctx, {(100 * i + i % 2, 0): i + 1 for i in range(16)})
    spread_y = LaurentPolynomial(ctx, {(0, 100 * j): j - 20 for j in range(16)})
    small = LaurentPolynomial(ctx, {(0, 0): 2, (1, -1): 3})
    one_term = LaurentPolynomial(ctx, {(-3, 5): -7})

    routes = record_routes(monkeypatch)
    assert (square * factor).terms == expected
    assert routes == ["dense"]
    routes.clear()
    product = spread_x * spread_y
    assert routes == ["dense"]
    assert product.terms == sparse_mul(spread_x.terms, spread_y.terms)
    routes.clear()
    product = ragged_x * spread_y
    assert routes == ["box", "sparse"]
    assert product.terms == sparse_mul(ragged_x.terms, spread_y.terms)
    routes.clear()
    small * small
    assert routes == ["sparse"]
    routes.clear()
    # a single-term operand shifts and scales the other: neither route runs
    for a, b in ((one_term, square), (square, one_term), (one_term, one_term)):
        assert (a * b).terms == LaurentPolynomial(ctx, sparse_mul(a.terms, b.terms)).terms
    assert routes == []


def test_exceptional_route_products_agree_on_both_routes(monkeypatch):
    operands = []
    real_dense = laurent.kronecker_mul

    def recording(a, b, max_cells):
        out = real_dense(a, b, max_cells)
        if out is not None:
            operands.append((a, b, out))
        return out

    monkeypatch.setattr(laurent, "kronecker_mul", recording)
    dims.verify_series("exceptional")
    # route forming (15) and the factored partition check (5)
    assert len(operands) == 20
    # the expanded checks, which test_dims keeps as the reference for the
    # factored ones, cross-multiply the largest operands: the series over
    # SymbolicField (15), its partition check (16) and catalog equalities (8)
    shown = dims._exceptional_values(SymbolicField)
    assert dims.partition_holds(shown.table, shown.dim_z)
    assert [a == b for a, b in zip(shown.routes, shown.catalog)] == [False, True, False, False]
    assert len(operands) == 20 + 15 + 16 + 8
    assert max(max(len(a), len(b)) for a, b, _ in operands) == 1773
    for a, b, out in operands:
        assert out == sparse_mul(a, b)


# one line of three terms: the product's middle cell sums three term products
LINE = ((-1, 1), (0, 0), (1, -1))


@pytest.mark.parametrize("bits", [7, 15, 31, 63, 200])
def test_kronecker_mul_slot_widths(bits):
    # A slot of k bits holds -2^(k-1) .. 2^(k-1) - 1: a largest slot sum just
    # below 2^bits fits the narrower slot, one just above needs the next
    # width (1, 2, 4 or 8 bytes); past 2^63 kronecker_mul refuses and the
    # Laurent product runs sparse_mul.  The same sums times 2^61 - 1 are
    # 61 bits wider, past 2^63 at every width.
    ctx = VarContext(("x", "y"))
    below = 2 ** bits // 3
    for c, side in ((below, -1), (below + 1, 1)):
        assert (3 * c > 2 ** bits) == (side > 0) and 3 * c != 2 ** bits
        for sign in (1, -1):
            for scale in (1, 2 ** 61 - 1):
                a = {m: sign * c * scale for m in LINE}
                b = {m: 1 for m in LINE}
                assert sparse_mul(a, b)[(0, 0)] == 3 * sign * c * scale
                wide = bits > 63 or (bits == 63 and side > 0) or scale > 1
                assert assert_products_agree(ctx, a, b) == wide
                assert assert_products_agree(ctx, b, a) == wide


def normalized(num, den):
    """The (num, den) that SymbolicField._pair gives: both divided by the
    sign of den's graded-lex leading coefficient and shifted by den's lowest
    exponents, term by term."""
    lead = max(den.terms.items(), key=lambda mc: (sum(mc[0]), mc[0]))[1]
    sign = -1 if lead < 0 else 1
    mono = tuple(min(m[i] for m in den.terms) for i in range(len(den.context)))
    if sign == 1 and not any(mono):
        return num, den

    def divided(p):
        return LaurentPolynomial(p.context, {
            tuple(a - b for a, b in zip(m, mono)): sign * c for m, c in p.terms.items()
        })

    return divided(num), divided(den)


def typed_terms(p):
    return {m: (type(c), c) for m, c in p.terms.items()}


@pytest.mark.parametrize("num, den", [
    ("x+3", "2*x+4"),                      # integer content 2 stays
    ("4*x^2-6*y", "2*x-8*y^3"),            # integer content 2 stays in both
    ("x*y+1/5", "2/3*x+4/9*y"),            # read as 5*x*y+1 and 6*x+4*y
    ("7*x-2", "-3*x^2+6*y"),               # negative leading coefficient
    ("x^3+2*y", "-6*x^2*y^-1"),            # monomial denominator, negative
    ("3/4*x-y^2", "5*x^-1*y^2"),           # monomial denominator, cleared num
    ("x-y", "x*y^2+x^2*y"),                # monomial content only
    ("1", "1/2"),                          # constant denominator, read as 1
    ("1", "-2"),                           # constant denominator, negative
])
def test_pair_normalization_matches_the_scale_shift_formula(num, den):
    # each string's integer numerator as the reader clears it
    field = SymbolicField(VarContext(("x", "y")))
    n, d = field.parse(num).value[0], field.parse(den).value[0]
    got_num, got_den = field._pair(n, d).value
    want_num, want_den = normalized(n, d)
    assert typed_terms(got_num) == typed_terms(want_num)
    assert typed_terms(got_den) == typed_terms(want_den)


def test_pair_normalization_matches_on_random_pairs():
    field = SymbolicField(VarContext(("x", "y")))
    ctx = field.context
    rng = random.Random(1414)
    for _ in range(300):
        n = random_rf(field, rng).value[0] * LaurentPolynomial.const(ctx, rng.choice([1, 6, -10]))
        d = random_rf(field, rng).value[0] * LaurentPolynomial.const(ctx, rng.choice([2, -3, 4]))
        if n.is_zero() or d.is_zero():
            continue
        got = field._pair(n, d).value
        want = normalized(n, d)
        assert [typed_terms(p) for p in got] == [typed_terms(p) for p in want]


def random_reduced_pair(field, rng):
    """A (num, den) value built through _pair from a numerator that is zero
    one time in eight, and a denominator that is a single term one time in
    four, each with nonzero int coefficients and a scale that may be
    negative."""
    ctx = field.context

    def drawn(terms):
        return LaurentPolynomial(ctx, {
            tuple(rng.randint(-3, 3) for _ in ctx.names): rng.choice([-6, -3, -2, -1, 1, 2, 4, 5])
            for _ in range(terms)
        })

    num = LaurentPolynomial(ctx, {}) if rng.randrange(8) == 0 else drawn(rng.randint(1, 4))
    den = drawn(1 if rng.randrange(4) == 0 else rng.randint(2, 4))
    scale = LaurentPolynomial.const(ctx, rng.choice([1, -1, 6, -4]))
    return field._pair(num * scale, den * scale).value


@pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
def test_symbolic_products_keep_the_normal_form(names):
    # _mul skips _pair: a product of reduced denominators is reduced, since
    # grlex leading terms multiply and the lowest exponents add
    field = SymbolicField(VarContext(names))
    rng = random.Random(1919 + len(names))
    for _ in range(300):
        a, b = random_reduced_pair(field, rng), random_reduced_pair(field, rng)
        got = field._mul(a, b)
        want = field._pair(a[0] * b[0], a[1] * b[1]).value
        assert [typed_terms(p) for p in got] == [typed_terms(p) for p in want]
        content, mono = got[1].content()
        assert content > 0 and mono == (0,) * len(names)


@pytest.mark.parametrize("terms, text", [
    # int coefficients are a polynomial's own; a Fraction one is what a
    # backend hands render_terms
    ({(1, 0): 1, (0, 1): -1}, "x-y"),
    ({(1, 0): -1, (0, 1): 1}, "-x+y"),
    ({(2, -1): Fraction(3, 4), (0, 0): Fraction(-5, 2)}, "3/4*x^2*y^-1-5/2"),
    ({(0, 2): Fraction(-1, 3), (1, 0): Fraction(7, 5)}, "-1/3*y^2+7/5*x"),
    ({(0, 0): 7}, "7"),
    ({(0, 0): -1}, "-1"),
    ({(0, 0): Fraction(-2, 9)}, "-2/9"),
    ({(3, 0): 10 ** 40 + 1, (0, 0): -(2 ** 100)},
     "10000000000000000000000000000000000000001*x^3-1267650600228229401496703205376"),
])
def test_render_coefficients(terms, text):
    ctx = VarContext(("x", "y"))
    field = SymbolicField(ctx)
    assert render_terms(ctx, terms) == text
    assert field.parse(text).render() == text
    if all(type(c) is int for c in terms.values()):
        p = LaurentPolynomial(ctx, terms)
        assert p.render() == text
        assert field.parse(text).value == (p, LaurentPolynomial.const(ctx, 1))
