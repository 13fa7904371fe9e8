"""Exact scalar arithmetic: multivariate Laurent polynomials, rational-function
pairs, rationals, and algebraic number fields Q[x]/(m).

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
when the coefficients are scalar matrices).

A Laurent product takes one of three routes, chosen by input size alone.  A
single-term operand shifts and scales the other.  With n1*n2 term pairs at
least DENSE_MIN_PAIRS and an exponent box of at most n1*n2 cells,
kronecker_mul packs each operand into one int and lets a single int product
form every coefficient (Kronecker substitution); the box lies on the exponent
lattice, a cell per (e - low) / step with the step the gcd of both operands'
offsets per variable, and memoryview.cast reads the product's slots so that
only nonzero cells become terms.  Every other product, and the tests'
reference for the dense one, is sparse_mul, the term-pair loop.  Products
and sums of int coefficients stay ints and a negation keeps each coefficient's
type, so these and exact divisions by a term go through one trusted
constructor that skips the normalizing pass.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, product, repeat
from math import gcd, isqrt, lcm, prod
from operator import add, floordiv, mod, mul, neg, sub
import re
import sys


class BackendMismatch(TypeError):
    """Raised when scalars from different field backends are combined."""


class ParseError(ValueError):
    pass


class ZeroDivisorError(ZeroDivisionError, ValueError):
    """Raised when a number-field element without an inverse is inverted: the
    modulus was reducible, so the input was not a field."""


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class VarContext:
    """Ordered, immutable set of distinct variable names."""

    names: tuple

    def __post_init__(self):
        if not isinstance(self.names, tuple):
            object.__setattr__(self, "names", tuple(self.names))
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be distinct")
        for n in self.names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError("bad variable name: %r" % (n,))

    def index(self, name):
        return self.names.index(name)

    def __len__(self):
        return len(self.names)


_NO_VARS = VarContext(())


class LaurentPolynomial:
    """Sparse Laurent polynomial: {exponent tuple: nonzero coefficient}, an
    integral coefficient stored as an int and any other as a Fraction."""

    __slots__ = ("context", "terms")

    def __init__(self, context, terms):
        self.context = context
        self.terms = {
            m: c.numerator if c.denominator == 1 else c for m, c in terms.items() if c != 0
        }

    @classmethod
    def _trusted(cls, context, terms):
        """A polynomial on terms that are already normalized: nonzero, and an
        int exactly when integral."""
        out = cls.__new__(cls)
        out.context, out.terms = context, terms
        return out

    def _formed(self, terms, a, b):
        """A polynomial on the nonzero terms of a sum or product of the terms
        a and b: trusted when every coefficient of a and b is an int, as the
        sums and products of ints are, else normalized."""
        if Fraction in map(type, a.values()) or Fraction in map(type, b.values()):
            return LaurentPolynomial(self.context, terms)
        return LaurentPolynomial._trusted(self.context, terms)

    @classmethod
    def const(cls, context, value):
        value = Fraction(value)
        if value == 0:
            return cls(context, {})
        return cls(context, {(0,) * len(context): value})

    @classmethod
    def var(cls, context, name):
        mono = [0] * len(context)
        mono[context.index(name)] = 1
        return cls(context, {tuple(mono): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * len(self.context): Fraction(1)}

    def _check(self, other):
        if self.context != other.context:
            raise BackendMismatch("polynomials from different variable contexts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return self._formed(out, self.terms, other.terms)

    def __neg__(self):
        # a negated coefficient stays nonzero, and integral exactly when it was
        terms = self.terms
        return LaurentPolynomial._trusted(self.context, dict(zip(terms, map(neg, terms.values()))))

    def __mul__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # one term shifts and scales the other operand: no pair loop
            [(mono, coeff)] = a.items()
            out = dict(zip(_shifted(b, mono), map(mul, b.values(), repeat(coeff))))
        else:
            pairs = len(a) * len(b)
            # the cheap length test first: small products never size a box
            out = kronecker_mul(a, b, pairs) if pairs >= DENSE_MIN_PAIRS else None
            if out is None:
                out = sparse_mul(a, b)
        return self._formed(out, a, b)

    def scale(self, value):
        value = Fraction(value)
        return LaurentPolynomial(self.context, {m: c * value for m, c in self.terms.items()})

    def divide_by_term(self, coeff, mono):
        """self / (coeff * x^mono) in one pass over the terms: exact int //
        when coeff is an int dividing every coefficient, else Fractions."""
        terms = self.terms
        keys = _shifted(terms, tuple(map(neg, mono)))
        if type(coeff) is int and not any(map(mod, terms.values(), repeat(coeff))):
            # nonzero ints need no normalizing
            return LaurentPolynomial._trusted(
                self.context, dict(zip(keys, map(floordiv, terms.values(), repeat(coeff)))))
        return LaurentPolynomial(
            self.context, dict(zip(keys, map(mul, terms.values(), repeat(Fraction(1, coeff))))))

    def sorted_terms(self):
        # graded-lex: total degree, then the exponent tuple; the keys are distinct
        terms = self.terms
        return [(m, c) for _, m, c in sorted(zip(map(sum, terms), terms, terms.values()),
                                             reverse=True)]

    def leading_coeff(self):
        if not self.terms:
            return Fraction(0)
        return self.terms[max(zip(map(sum, self.terms), self.terms))[1]]

    def content(self):
        """(signed content, monomial content): sign of the leading coefficient times
        gcd(numerators)/lcm(denominators), an int when every coefficient is an
        int, and the per-variable minimum exponents."""
        coeffs = self.terms.values()
        if not coeffs:
            return 1, (0,) * len(self.context)
        try:
            content = gcd(*coeffs)  # math.gcd refuses a Fraction
        except TypeError:
            content = Fraction(gcd(*(c.numerator for c in coeffs)),
                               lcm(*(c.denominator for c in coeffs)))
        if self.leading_coeff() < 0:
            content = -content
        return content, tuple(map(min, zip(*self.terms)))

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.context == other.context and self.terms == other.terms

    def render(self):
        if not self.terms:
            return "0"
        names = self.context.names
        out = []
        for mono, coeff in self.sorted_terms():
            factors = "*".join([name if e == 1 else f"{name}^{e}"
                                for name, e in zip(names, mono) if e])
            # an int or a Fraction formats as its plain decimal form
            sign, mag = "+" if coeff > 0 else "-", abs(coeff)
            if not factors:
                out.append(f"{sign}{mag}")
            elif mag == 1:
                out.append(sign + factors)
            else:
                out.append(f"{sign}{mag}*{factors}")
        text = "".join(out)
        return text[1:] if text[0] == "+" else text

    def __repr__(self):
        return "LaurentPolynomial(%s)" % self.render()


# fewest term pairs n1*n2 for which a Laurent product tries the dense route
DENSE_MIN_PAIRS = 256


def sparse_mul(a, b):
    """Product of two {exponent tuple: coefficient} dicts, term pair by term pair."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(map(add, m1, m2))
            s = out.get(m, 0) + c1 * c2
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _shifted(terms, mono):
    """The exponent tuples of terms, each plus mono."""
    return [tuple(map(add, m, mono)) for m in terms] if any(mono) else terms


def kronecker_mul(a, b, max_cells):
    """Product of two {exponent tuple: coefficient} dicts by Kronecker
    substitution, or None when the product's exponent box has more than
    max_cells cells.

    The box lies on the exponent lattice: per variable, the step is the gcd
    of both operands' exponent offsets from their lowest exponents, a cell
    index is (e - low) / step, and the box spans the sum of the operands'
    index ranges.  Each operand, scaled to integers by the lcm of its
    denominators, becomes one int with a slot per box cell, so one int
    product forms every coefficient at once.  A slot sums at most
    min(n1, n2) term products, and its width leaves a bit above the largest
    such sum: adding 2^(k-1) to every k-bit slot makes each one nonnegative,
    so no slot borrows from the next, and flipping that bit back leaves each
    coefficient in k-bit two's complement.  A slot of 1, 2, 4 or 8 bytes is
    read by memoryview.cast; a wider one by int.from_bytes.
    """
    if not a or not b:
        return {}
    cols_a, cols_b = list(zip(*a)), list(zip(*b))
    lows_a, lows_b = list(map(min, cols_a)), list(map(min, cols_b))
    steps = [gcd(*map(sub, ca, repeat(la)), *map(sub, cb, repeat(lb))) or 1
             for ca, la, cb, lb in zip(cols_a, lows_a, cols_b, lows_b)]
    sizes = [(max(ca) - la + max(cb) - lb) // step + 1
             for ca, la, cb, lb, step in zip(cols_a, lows_a, cols_b, lows_b, steps)]
    cells = prod(sizes)
    if cells > max_cells:
        return None
    ints_a, scale_a = _cell_integers(a, lows_a, steps, sizes)
    ints_b, scale_b = _cell_integers(b, lows_b, steps, sizes)
    bound = (max(map(abs, ints_a.values())) * max(map(abs, ints_b.values()))
             * min(len(a), len(b)))
    width = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
    if width <= 8:
        width = 1 << (width - 1).bit_length()
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * cells, "little")
    packed = (_pack(ints_a, width, cells) * _pack(ints_b, width, cells) + bias) ^ bias
    if width <= 8:
        # the cast reads native byte order; big-endian bytes reverse the cells
        slots = memoryview(packed.to_bytes(width * cells, sys.byteorder)).cast(
            _SLOT_FORMATS[width])[::1 if sys.byteorder == "little" else -1]
    else:
        data = packed.to_bytes(width * cells, "little")
        slots = [int.from_bytes(data[i:i + width], "little", signed=True)
                 for i in range(0, len(data), width)]
    # product() counts the last variable fastest, as the cells do
    monos = product(*(range(x + y, x + y + size * step, step)
                      for x, y, step, size in zip(lows_a, lows_b, steps, sizes)))
    out = dict(compress(zip(monos, slots), slots))
    den = scale_a * scale_b
    if den != 1:
        out = {m: Fraction(c, den) for m, c in out.items()}
    return out


_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _cell_integers(terms, lows, steps, sizes):
    """({box cell: integer coefficient}, scale) for terms times scale, the lcm
    of their denominators; a cell counts the last variable fastest."""
    scale = lcm(*(c.denominator for c in terms.values()))
    out = {}
    for mono, c in terms.items():
        cell = 0
        for e, lo, step, size in zip(mono, lows, steps, sizes):
            cell = cell * size + (e - lo) // step
        out[cell] = c.numerator * (scale // c.denominator)
    return out, scale


def _pack(ints, width, cells):
    """The int whose width-byte little-endian slot i holds ints.get(i, 0)."""
    pos = bytearray(width * cells)
    neg = bytearray(width * cells)
    for cell, c in ints.items():
        start = cell * width
        if c > 0:
            pos[start:start + width] = c.to_bytes(width, "little")
        else:
            neg[start:start + width] = (-c).to_bytes(width, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def square_and_multiply(base, k, one):
    """one * base**k for an integer k >= 0 by square-and-multiply."""
    result = one
    while k:
        if k & 1:
            result = result * base
        if k > 1:
            base = base * base
        k >>= 1
    return result


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
        return square_and_multiply(self, k, self.field.one)

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


class RationalField:
    """Plain exact rationals."""

    def const(self, value):
        return Scalar(self, Fraction(value))

    @property
    def zero(self):
        return self.const(0)

    @property
    def one(self):
        return self.const(1)

    def _add(self, a, b):
        return a + b

    def _neg(self, a):
        return -a

    def _mul(self, a, b):
        return a * b

    def _inv(self, a):
        return 1 / a

    def _is_zero(self, a):
        return a == 0

    def _eq(self, a, b):
        return a == b

    def _render(self, a):
        return str(a)

    def parse(self, text):
        # over no variables every polynomial is its constant term
        num, den = _parse_rf_string(_NO_VARS, text)
        return Scalar(self, Fraction(num.terms.get((), 0)) / den.terms[()])

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalField()"


class SymbolicField:
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

    @property
    def zero(self):
        return self.const(0)

    @property
    def one(self):
        return self.const(1)

    def _add(self, a, b):
        n1, d1 = a
        n2, d2 = b
        if d1 == d2:
            return self._pair(n1 + n2, d1).value
        return self._pair(n1 * d2 + n2 * d1, d1 * d2).value

    def _neg(self, a):
        return (-a[0], a[1])

    def _mul(self, a, b):
        return self._pair(a[0] * b[0], a[1] * b[1]).value

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

    def __eq__(self, other):
        return isinstance(other, SymbolicField) and self.context == other.context

    def __hash__(self):
        return hash(("symbolic", self.context))

    def __repr__(self):
        return "SymbolicField(%s)" % ",".join(self.context.names)


class NumberField:
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
    def zero(self):
        return self.const(0)

    @property
    def one(self):
        return self.const(1)

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

    def _eq(self, a, b):
        return a == b

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
        reduced by square-and-multiply, so a huge e costs log(e) products."""
        _refuse_negative_powers(p)
        gen = self.gen
        return sum(
            (square_and_multiply(gen, e, self.const(c)) for (e,), c in p.terms.items()),
            self.zero,
        )

    def modulus_render(self):
        return self._render(self.modulus)

    @classmethod
    def from_modulus_string(cls, text):
        names = sorted({m.group(0) for m in re.finditer(r"[A-Za-z_][A-Za-z_0-9]*", text)})
        if len(names) != 1:
            raise ParseError("modulus must use exactly one variable")
        p = parse_polynomial(VarContext((names[0],)), text)
        return cls(_coefficients(p), gen_name=names[0])

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.modulus == other.modulus
            and self.gen_name == other.gen_name
        )

    def __hash__(self):
        return hash(("algebraic", self.modulus, self.gen_name))

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
    """Number field containing a primitive n-th root of unity (the generator)."""
    moduli = {
        3: (1, 1, 1),
        4: (1, 0, 1),
        5: (1, 1, 1, 1, 1),
        6: (1, -1, 1),
    }
    if n not in moduli:
        raise ValueError("unsupported cyclotomic order %d" % n)
    return NumberField(moduli[n])


def root_of_unity(field, order):
    """A primitive cube or sixth root of unity in an algebraic backend.

    Searches small integer combinations of generator powers (enough for every
    field this package constructs); raises ValueError when the field has no
    such root.  order must be 3 or 6.
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
    raise ValueError("field contains no primitive root of order %d" % order)


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*(\(|\)|\+|-|\*|\^|/|\d+|[A-Za-z_][A-Za-z0-9_]*)")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError("bad character at %r" % text[pos:])
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def _parse_rf_string(context, text):
    """Parse '(num)/(den)' or a bare polynomial; returns (num, den) polynomials."""
    tokens = _tokenize(text)
    if tokens and tokens[0] == "(":
        depth = 0
        for i, tok in enumerate(tokens):
            if tok == "(":
                depth += 1
            elif tok == ")":
                depth -= 1
                if depth == 0:
                    close = i
                    break
        else:
            raise ParseError("unbalanced parentheses")
        rest = tokens[close + 1 :]
        if len(rest) >= 2 and rest[0] == "/" and rest[1] == "(":
            if rest[-1] != ")":
                raise ParseError("unbalanced parentheses in denominator")
            num = _parse_poly_tokens(context, tokens[1:close])
            den = _parse_poly_tokens(context, rest[2:-1])
            if den.is_zero():
                raise ParseError("zero denominator")
            return num, den
    num = _parse_poly_tokens(context, tokens)
    return num, LaurentPolynomial.const(context, 1)


def parse_polynomial(context, text):
    return _parse_poly_tokens(context, _tokenize(text))


def _parse_poly_tokens(context, tokens):
    if not tokens:
        raise ParseError("empty polynomial")
    total = LaurentPolynomial.const(context, 0)
    i = 0
    first = True
    while i < len(tokens):
        sign = 1
        saw_sign = False
        while i < len(tokens) and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            saw_sign = True
            i += 1
        if not first and not saw_sign:
            raise ParseError("expected '+' or '-' between terms")
        term, i = _parse_term(context, tokens, i)
        total = total + (term.scale(-1) if sign < 0 else term)
        first = False
    return total


def _parse_term(context, tokens, i):
    if i >= len(tokens):
        raise ParseError("expected a term")
    coeff = Fraction(1)
    factors = []
    expect_factor = True
    while i < len(tokens):
        tok = tokens[i]
        if expect_factor:
            if tok.isdigit():
                value = Fraction(int(tok))
                i += 1
                if i + 1 < len(tokens) and tokens[i] == "/" and tokens[i + 1].isdigit():
                    den = int(tokens[i + 1])
                    if den == 0:
                        raise ParseError("zero denominator")
                    value = Fraction(value.numerator, den)
                    i += 2
                coeff *= value
            elif _NAME_RE.fullmatch(tok):
                name = tok
                power = 1
                i += 1
                if i < len(tokens) and tokens[i] == "^":
                    i += 1
                    psign = 1
                    if i < len(tokens) and tokens[i] == "-":
                        psign = -1
                        i += 1
                    if i >= len(tokens) or not tokens[i].isdigit():
                        raise ParseError("expected an integer exponent")
                    power = psign * int(tokens[i])
                    i += 1
                factors.append((name, power))
            else:
                raise ParseError("unexpected token %r" % tok)
            expect_factor = False
        elif tok == "*":
            expect_factor = True
            i += 1
        else:
            break
    if expect_factor:
        raise ParseError("dangling '*'")
    mono = [0] * len(context)
    for name, power in factors:
        try:
            mono[context.index(name)] += power
        except ValueError:
            raise ParseError("unknown variable %r" % name) from None
    return LaurentPolynomial(context, {tuple(mono): coeff}), i
