"""Exact scalar arithmetic: rational-function pairs, rationals, and algebraic
number fields Q[x]/(m), on the Laurent polynomials of braidrep.laurent.

Every scalar belongs to exactly one field backend; mixing backends raises
BackendMismatch. Rational-function pairs are reduced only by extracting monomial
and rational content from the denominator (never a full multivariate gcd), by
exact int // when the content is an int dividing every coefficient, and
equality is decided by cross-multiplication. Serialization uses a fixed
graded-lexicographic term order over the context's declared variable order, so
rendering is deterministic and parse(render(x)) == x. All three backends parse
with one grammar, a polynomial or '(num)/(den)' over the backend's variables
(none for the rationals, the generator for a number field), and refuse a zero
denominator at parse time.

Every univariate-polynomial loop is one of three kernels on ascending
coefficient sequences: poly_mul (schoolbook product), poly_divmod (division
by a unit-led divisor) and horner (evaluation at a scalar, or at a matrix
when the coefficients are scalar matrices).  cyclotomic builds Phi_n with
poly_divmod; cyclotomic_field and braidrep.factored both read it.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm
import operator

from .laurent import (
    BackendMismatch,
    LaurentPolynomial,
    ParseError,
    VarContext,
    _NAME_RE,
    _parse_rf_string,
    parse_polynomial,
)


class ZeroDivisorError(ZeroDivisionError, ValueError):
    """Raised when a number-field element without an inverse is inverted: the
    modulus was reducible, so the input was not a field."""


_NO_VARS = VarContext(())


def poly_mul(a, b, zero):
    """Schoolbook product of two ascending coefficient sequences."""
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def poly_divmod(a, b):
    """(quotient, remainder) of ascending coefficient sequences a by b; b's
    leading entry must be 1 or a unit with an exact 1 / b[-1], as a nonzero
    Fraction or Scalar is.  A monic b divides nothing, so int sequences by a
    monic int b stay ints."""
    rem = list(a)
    n = len(b) - 1
    lead_inv = None if b[-1] == 1 else 1 / b[-1]
    quo = []
    for i in range(len(rem) - 1, n - 1, -1):
        factor = rem[i]
        if factor != 0:
            if lead_inv is not None:
                factor = factor * lead_inv
            # entry i itself cancels exactly and is not read again
            for j in range(n):
                rem[i - n + j] = rem[i - n + j] - factor * b[j]
        quo.append(factor)
    return quo[::-1], rem[:n]


def horner(coeffs, x):
    """Sum of c_k * x^k over ascending coeffs by Horner's rule; x may be a
    square matrix when every c_k is a scalar matrix c*I."""
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def cyclotomic(n):
    """Ascending integer coefficients of Phi_n: x^n - 1 divided by Phi_d
    for every proper divisor d of n."""
    out = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            out = poly_divmod(out, cyclotomic(d))[0]
    return tuple(out)


class Scalar:
    """A field element tagged with its backend. Supports +, -, *, /, ** and ==;
    ints and Fractions are promoted, anything cross-backend raises."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field is not self.field and other.field != self.field:
                raise BackendMismatch(
                    "cannot mix scalars from %r and %r" % (self.field, other.field)
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.const(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, other.value))

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.field, self.field._neg(self.value))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._add(self.value, self.field._neg(other.value)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Scalar(self.field, self.field._mul(self.value, other.value))

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero scalar")
        return Scalar(self.field, self.field._inv(self.value))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        return self.inv() * other

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("scalar powers must be integers")
        if k < 0:
            return self.inv() ** (-k)
        if k == 0:
            return self.field.one
        # binary powering from the lowest bit: (bit length - 1) squarings
        # and (popcount - 1) products, none by one
        base, result = self, None
        while True:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def is_zero(self):
        return self.field._is_zero(self.value)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._eq(self.value, other.value)

    def render(self):
        return self.field._render(self.value)

    def __repr__(self):
        return "Scalar(%s)" % self.render()


class Field:
    """What every scalar backend shares: zero and one built by its const,
    values compared with ==, equality and hash read from its type and its
    _key() (by default its variable context), and a repr naming that
    context."""

    _eq = staticmethod(operator.eq)

    @property
    def zero(self):
        return self.const(0)

    @property
    def one(self):
        return self.const(1)

    def __eq__(self, other):
        return type(other) is type(self) and other._key() == self._key()

    def __hash__(self):
        return hash((type(self).__name__, self._key()))

    def _key(self):
        return self.context

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ",".join(self.context))


class RationalField(Field):
    """Plain exact rationals: a value is a Fraction, and Fraction's own
    operators are the arithmetic."""

    _add = staticmethod(operator.add)
    _neg = staticmethod(operator.neg)
    _mul = staticmethod(operator.mul)
    _is_zero = staticmethod(operator.not_)
    _render = staticmethod(str)

    def const(self, value):
        return Scalar(self, Fraction(value))

    def _inv(self, a):
        return 1 / a

    def parse(self, text):
        # over no variables every polynomial is its constant term
        num, den = _parse_rf_string(_NO_VARS, text)
        return Scalar(self, Fraction(num.terms.get((), 0)) / den.terms[()])

    def _key(self):
        return ()

    def __repr__(self):
        return "RationalField()"


class SymbolicField(Field):
    """Fraction field of the Laurent polynomial ring over a variable context.

    Elements are (num, den) pairs. Reduction divides out the denominator's sign,
    rational content and monomial content only; a denominator that is a single
    Laurent term therefore always normalizes to 1. Equality cross-multiplies.
    """

    def __init__(self, context):
        self.context = context

    def _pair(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero():
            return Scalar(self, (num, LaurentPolynomial.const(self.context, 1)))
        content, mono = den.content()
        if content != 1 or any(mono):
            num, den = num.divide_by_term(content, mono), den.divide_by_term(content, mono)
        return Scalar(self, (num, den))

    def from_poly(self, p):
        return self._pair(p, LaurentPolynomial.const(self.context, 1))

    def const(self, value):
        return self.from_poly(LaurentPolynomial.const(self.context, value))

    def var(self, name):
        return self.from_poly(LaurentPolynomial.var(self.context, name))

    def _add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        if d1 == d2:
            return self._pair(n1 + n2, d1).value
        return self._pair(n1 * d2 + n2 * d1, d1 * d2).value

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        # a product of reduced denominators is reduced, so no second _pair:
        # content is multiplicative (Gauss), grlex leading terms multiply
        # and the lowest exponents add
        num = a[0] * b[0]
        if num.is_zero():
            return (num, LaurentPolynomial.const(self.context, 1))
        return (num, a[1] * b[1])

    def _inv(self, a):
        return self._pair(a[1], a[0]).value

    def _is_zero(self, a):
        return a[0].is_zero()

    def _eq(self, a, b):
        if a[1] == b[1]:
            return a[0] == b[0]
        return a[0] * b[1] == b[0] * a[1]

    def _render(self, a):
        num, den = a
        if den.is_one():
            return num.render()
        return "(%s)/(%s)" % (num.render(), den.render())

    def parse(self, text):
        num, den = _parse_rf_string(self.context, text)
        return self._pair(num, den)


class NumberField(Field):
    """Q[x]/(m(x)) for a monic modulus m, elements as coefficient tuples of
    length deg(m). A reducible modulus of degree 2 to 4 is refused; one of
    degree 5 or more is trusted to be irreducible, and a reducible one
    surfaces as a ZeroDivisorError on inversion of a zero divisor."""

    def __init__(self, modulus, gen_name="z"):
        modulus = tuple(Fraction(c) for c in modulus)
        if len(modulus) < 2 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.modulus = modulus
        self.degree = len(modulus) - 1
        self.gen_name = gen_name
        self.context = VarContext((gen_name,))
        if 2 <= self.degree <= 4 and _splits(modulus):
            raise ValueError("modulus %s is reducible over Q" % self.modulus_render())

    def element(self, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = self._reduce(coeffs)
        coeffs += [Fraction(0)] * (self.degree - len(coeffs))
        return Scalar(self, tuple(coeffs))

    def const(self, value):
        return self.element([Fraction(value)])

    @property
    def gen(self):
        return self.element([0, 1])

    def _reduce(self, coeffs):
        return poly_divmod(coeffs, self.modulus)[1]

    def _add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def _neg(self, a):
        return tuple(-x for x in a)

    def _mul(self, a, b):
        return tuple(self._reduce(poly_mul(a, b, Fraction(0))))

    def _inv(self, a):
        # solve a*b = 1 over Q: column k of the system holds a*z^k
        from .matrices import RowSpace  # local: matrices imports fields

        q = RationalField()
        n = self.degree
        columns = [list(a)]
        for _ in range(n - 1):
            columns.append(self._reduce([Fraction(0)] + columns[-1]))
        space = RowSpace(q, n + 1, (
            [Scalar(q, col[i]) for col in columns] + [q.one if i == 0 else q.zero]
            for i in range(n)
        ))
        if space.pivots != list(range(n)):
            raise ZeroDivisorError("zero divisor: modulus %s is reducible" % self.modulus_render())
        return tuple(row[n].value for row in space.rows)

    def _is_zero(self, a):
        return all(c == 0 for c in a)

    def _render(self, a):
        """Render an ascending coefficient sequence as a polynomial in the generator."""
        return LaurentPolynomial(self.context, {(i,): c for i, c in enumerate(a)}).render()

    def parse(self, text):
        num, den = _parse_rf_string(self.context, text)
        value = self._from_poly(num)
        if not den.is_one():
            den = self._from_poly(den)
            if den.is_zero():
                raise ParseError("denominator is zero modulo %s" % self.modulus_render())
            value = value / den
        return value

    def _from_poly(self, p):
        """The element of a polynomial in the generator, each term c*gen^e
        reduced by binary powering, so a huge e costs log(e) products."""
        _refuse_negative_powers(p)
        gen = self.gen
        return sum((self.const(c) * gen ** e for (e,), c in p.terms.items()), self.zero)

    def modulus_render(self):
        return self._render(self.modulus)

    @classmethod
    def from_modulus_string(cls, text):
        names = sorted(set(_NAME_RE.findall(text)))
        if len(names) != 1:
            raise ParseError("modulus must use exactly one variable")
        p = parse_polynomial(VarContext((names[0],)), text)
        return cls(_coefficients(p), gen_name=names[0])

    def _key(self):
        return (self.modulus, self.gen_name)

    def __repr__(self):
        return "NumberField(%s)" % self.modulus_render()


def _coefficients(p):
    """Ascending coefficient list of a univariate polynomial; negative powers
    are refused."""
    _refuse_negative_powers(p)
    coeffs = [Fraction(0)] * (max((e for (e,) in p.terms), default=0) + 1)
    for (e,), c in p.terms.items():
        coeffs[e] = c
    return coeffs


def _refuse_negative_powers(p):
    if any(e < 0 for (e,) in p.terms):
        raise ParseError("negative powers of the generator are not supported")


def _splits(modulus):
    """True when a monic modulus of degree 2 to 4 factors over Q.

    With z = y/L for L the common denominator, L^n m(y/L) is a monic integer
    polynomial, and by Gauss's lemma its rational factors can be taken monic
    with integer coefficients: a linear factor is an integer root dividing the
    constant term, and a quartic may also split as (y^2+ay+b)(y^2+cy+e) with
    b*e the constant term, a+c = p3, b+e+ac = p2 and ae+bc = p1.
    """
    n = len(modulus) - 1
    scale = lcm(*(c.denominator for c in modulus))
    p = [int(c * scale ** (n - k)) for k, c in enumerate(modulus)]
    if p[0] == 0:
        return True
    # each divisor pair (b, e) of the constant term, up to order
    pairs = []
    for b in range(1, isqrt(abs(p[0])) + 1):
        if p[0] % b == 0:
            pairs += [(b, p[0] // b), (-b, -(p[0] // b))]
    roots = {r for pair in pairs for r in pair}
    if any(horner(p, r) == 0 for r in roots):
        return True
    if n < 4:
        return False
    for b, e in pairs:
        # a and c are the roots of t^2 - p3*t + (p2-b-e); the discriminant has
        # the parity of p3^2, so an integer square root makes both integers
        disc = p[3] ** 2 - 4 * (p[2] - b - e)
        s = isqrt(max(disc, 0))
        if s * s == disc and any(
            a * e + b * (p[3] - a) == p[1] for a in ((p[3] + s) // 2, (p[3] - s) // 2)
        ):
            return True
    return False


def cyclotomic_field(n):
    """Q[z]/(Phi_n), whose generator z is a primitive n-th root of unity,
    for n >= 3."""
    if n < 3:
        raise ValueError("unsupported cyclotomic order %d" % n)
    return NumberField(cyclotomic(n))


def root_of_unity(field, order):
    """A primitive cube or sixth root of unity in an algebraic backend.

    Searches small integer combinations of generator powers (enough for every
    field this package constructs), then, for a quadratic modulus
    z^2+bz+c, reads sqrt(-3) off sqrt(D) = 2z+b, D = b^2-4c, when -3/D is a
    rational square; raises ValueError when neither finds a root, saying
    in degree >= 3 that the search is incomplete there.  order must be 3
    or 6.
    """
    if order not in (3, 6):
        raise ValueError("only cube and sixth roots are supported")
    if not isinstance(field, NumberField):
        raise ValueError("roots of unity beyond +-1 need an algebraic backend")
    trace = field.const(-1) if order == 3 else field.one
    one = field.one
    power = one
    for _ in range(12):
        power = power * field.gen
        for cand in (power, -power, power + one, power - one,
                     -power + one, -power - one):
            # primitive root of the order iff x^2 - trace*x + 1 = 0
            if cand * cand == trace * cand - one:
                return cand
    if field.degree == 2:
        c, b, _ = field.modulus
        ratio = -3 / (b * b - 4 * c)
        if ratio > 0:
            r = Fraction(isqrt(ratio.numerator), isqrt(ratio.denominator))
            if r * r == ratio:
                # sqrt(-3) = r*(2z+b), and (trace + sqrt(-3))/2 is a root
                # of x^2 - trace*x + 1
                return (trace + field.element([r * b, 2 * r])) / 2
    if field.degree >= 3:
        raise ValueError("found no primitive root of order %d; the search is "
                         "incomplete in fields of degree >= 3" % order)
    raise ValueError("field contains no primitive root of order %d" % order)
