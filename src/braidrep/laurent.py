"""Multivariate Laurent polynomials with rational coefficients over an ordered
set of variable names, and the parser of the polynomial grammar that every
scalar backend of braidrep.fields reads.

A Laurent product takes one of three routes, chosen by input size and by
one reading of its operands' coefficient types.  A single-term operand
shifts and scales the other.  With int coefficients only, n1*n2 term pairs
at least DENSE_MIN_PAIRS, an exponent box of at most n1*n2 cells and slots
of at most 8 bytes, kronecker_mul packs each operand into one int and lets
a single int product form every coefficient (Kronecker substitution); the
box lies on the exponent lattice, a cell per (e - low) / step with the step
the gcd of both operands' offsets per variable, and memoryview.cast reads
the product's slots so that only nonzero cells become terms.  Every other
product, a product with a Fraction coefficient among them, and the tests'
reference for the dense one, is sparse_mul, the term-pair loop.  Products
and sums of int coefficients stay ints and a negation keeps each
coefficient's type, so these and exact divisions by a term go through one
trusted constructor that skips the normalizing pass; the same reading of
the operands that gates the dense route picks the constructor.

The reader takes the longest run of tokens from a string's start in one
regex match, and only blanks may follow; a term's sign is the parity of the
'-' signs before it.  _NAME_RE is the one pattern of a name: the token
pattern is built from it, and VarContext (the validated tuple of a
context's names) and NumberField.from_modulus_string match with it.
"""

from fractions import Fraction
from itertools import compress, product, repeat
from math import gcd, lcm, prod
from operator import add, floordiv, getitem, mod, mul, neg, sub
import re
import sys


class BackendMismatch(TypeError):
    """Raised when scalars from different field backends are combined."""


class ParseError(ValueError):
    pass


_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class VarContext(tuple):
    """Ordered, immutable set of distinct variable names, kept as their tuple."""

    __slots__ = ()

    def __new__(cls, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for n in names:
            if not _NAME_RE.fullmatch(n):
                raise ValueError("bad variable name: %r" % (n,))
        return super().__new__(cls, names)

    @property
    def names(self):
        return tuple(self)

    def __repr__(self):
        return "VarContext(names=%r)" % (self.names,)


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

    def _formed(self, terms, integral):
        """A polynomial on the nonzero terms of a sum or product: trusted when
        integral, that is when every operand coefficient is an int, as the
        sums and products of ints are, else normalized."""
        if integral:
            return LaurentPolynomial._trusted(self.context, terms)
        return LaurentPolynomial(self.context, terms)

    @classmethod
    def const(cls, context, value):
        return cls(context, {(0,) * len(context): Fraction(value)})

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
        a, b = self.terms, other.terms
        out = dict(a)
        for m, c in b.items():
            s = out.get(m, 0) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return self._formed(
            out, Fraction not in map(type, a.values()) and Fraction not in map(type, b.values()))

    def __neg__(self):
        # a negated coefficient stays nonzero, and integral exactly when it was
        terms = self.terms
        return LaurentPolynomial._trusted(self.context, dict(zip(terms, map(neg, terms.values()))))

    def __mul__(self, other):
        self._check(other)
        a, b = self.terms, other.terms
        integral = Fraction not in map(type, a.values()) and Fraction not in map(type, b.values())
        if len(b) == 1:
            a, b = b, a
        if len(a) == 1:
            # one term shifts and scales the other operand: no pair loop
            [(mono, coeff)] = a.items()
            out = dict(zip(_shifted(b, mono), map(mul, b.values(), repeat(coeff))))
        else:
            pairs = len(a) * len(b)
            # the cheap tests first: small or rational products never size a box
            out = kronecker_mul(a, b, pairs) if integral and pairs >= DENSE_MIN_PAIRS else None
            if out is None:
                out = sparse_mul(a, b)
        return self._formed(out, integral)

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
        """The graded-lex leading coefficient of a nonzero polynomial."""
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
        # per variable, the factor "*name^e" of each exponent that occurs,
        # formatted once ("" for e = 0)
        powers = [{e: "" if e == 0 else f"*{name}" if e == 1 else f"*{name}^{e}"
                   for e in set(column)}
                  for name, column in zip(self.context, zip(*self.terms))]
        out = []
        for mono, coeff in self.sorted_terms():
            factors = "".join(map(getitem, powers, mono))
            if factors and abs(coeff) == 1:
                out.append(("+" if coeff > 0 else "-") + factors[1:])
            else:
                # an int or a Fraction formats as its plain decimal form
                out.append(f"+{coeff}{factors}" if coeff > 0 else f"{coeff}{factors}")
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
    """Product of two {exponent tuple: int coefficient} dicts by Kronecker
    substitution, or None when the product's exponent box has more than
    max_cells cells or a slot would need more than 8 bytes.  It takes int
    coefficients only: a product with a Fraction coefficient runs
    sparse_mul.

    The box lies on the exponent lattice: per variable, the step is the gcd
    of both operands' exponent offsets from their lowest exponents, a cell
    index is (e - low) / step, and the box spans the sum of the operands'
    index ranges.  Each operand becomes one int with a slot per box cell,
    so one int product forms every coefficient at once.  A slot sums at
    most min(n1, n2) term products, and its width leaves a bit above the
    largest such sum: adding 2^(k-1) to every k-bit slot makes each one
    nonnegative, so no slot borrows from the next, and flipping that bit
    back leaves each coefficient in k-bit two's complement.  A slot of 1,
    2, 4 or 8 bytes is read by memoryview.cast.
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
    ints_a = _cell_integers(a, cols_a, lows_a, steps, sizes)
    ints_b = _cell_integers(b, cols_b, lows_b, steps, sizes)
    bound = (max(map(abs, ints_a.values())) * max(map(abs, ints_b.values()))
             * min(len(a), len(b)))
    width = bound.bit_length() // 8 + 1  # bytes per slot, sign bit included
    if width > 8:
        return None
    width = 1 << (width - 1).bit_length()
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * cells, "little")
    packed = (_pack(ints_a, width, cells) * _pack(ints_b, width, cells) + bias) ^ bias
    # the cast reads native byte order; big-endian bytes reverse the cells
    slots = memoryview(packed.to_bytes(width * cells, sys.byteorder)).cast(
        _SLOT_FORMATS[width])[::1 if sys.byteorder == "little" else -1]
    # product() counts the last variable fastest, as the cells do
    monos = product(*(range(x + y, x + y + size * step, step)
                      for x, y, step, size in zip(lows_a, lows_b, steps, sizes)))
    return dict(compress(zip(monos, slots), slots))


_SLOT_FORMATS = {1: "b", 2: "h", 4: "i", 8: "q"}


def _cell_integers(terms, columns, lows, steps, sizes):
    """{box cell: int coefficient} of terms, whose coefficients are ints;
    columns holds the terms' exponents one variable at a time, and a cell
    counts the last variable fastest."""
    cells = [0] * len(terms)
    for column, lo, step, size in zip(columns, lows, steps, sizes):
        cells = [cell * size + (e - lo) // step for cell, e in zip(cells, column)]
    return dict(zip(cells, terms.values()))


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


# ---------------------------------------------------------------------------
# parsing

_TOKEN_RE = re.compile(r"\s*([()+\-*^/]|\d+|%s)" % _NAME_RE.pattern)
_TOKENS_RE = re.compile("(?:%s)*" % _TOKEN_RE.pattern)


def _tokenize(text):
    """The tokens of text; past the longest run of tokens only blanks may follow."""
    end = _TOKENS_RE.match(text).end()
    if text[end:].strip():
        raise ParseError("bad character at %r" % text[end:])
    return _TOKEN_RE.findall(text, 0, end)


def _parse_rf_string(context, text):
    """Parse '(num)/(den)' or a bare polynomial; returns (num, den) polynomials."""
    tokens = _tokenize(text)
    if tokens[:1] == ["("]:
        close = _closing(tokens, 0)
        if close is None:
            raise ParseError("unbalanced parentheses")
        if tokens[close + 1:close + 3] == ["/", "("]:
            end = _closing(tokens, close + 2)
            if end is None:
                raise ParseError("unbalanced parentheses in denominator")
            if end + 1 < len(tokens):
                raise ParseError("unexpected %r after the denominator" % tokens[end + 1])
            num = _parse_poly_tokens(context, tokens[1:close])
            den = _parse_poly_tokens(context, tokens[close + 3:end])
            if den.is_zero():
                raise ParseError("zero denominator")
            return num, den
    num = _parse_poly_tokens(context, tokens)
    return num, LaurentPolynomial.const(context, 1)


def _closing(tokens, start):
    """The index of the ')' matching the '(' at tokens[start], or None."""
    depth = 0
    for i in range(start, len(tokens)):
        depth += (tokens[i] == "(") - (tokens[i] == ")")
        if not depth:
            return i
    return None


def parse_polynomial(context, text):
    return _parse_poly_tokens(context, _tokenize(text))


def _parse_poly_tokens(context, tokens):
    """Sum of the terms, each signed by the parity of the '-' run before it."""
    if not tokens:
        raise ParseError("empty polynomial")
    total = LaurentPolynomial.const(context, 0)
    i = 0
    while i < len(tokens):
        start = i
        while i < len(tokens) and tokens[i] in "+-":
            i += 1
        if i == start > 0:
            raise ParseError("expected '+' or '-' between terms")
        term, end = _parse_term(context, tokens, i)
        total = total + (-term if tokens[start:i].count("-") % 2 else term)
        i = end
    return total


def _parse_term(context, tokens, i):
    """(the term at tokens[i:], the index after it): factors joined by '*'."""
    if i >= len(tokens):
        raise ParseError("expected a term")
    coeff = Fraction(1)
    factors = []
    while True:
        tok = tokens[i]
        i += 1
        if tok.isdigit():
            den = 1
            if i + 1 < len(tokens) and tokens[i] == "/" and tokens[i + 1].isdigit():
                den = int(tokens[i + 1])
                if den == 0:
                    raise ParseError("zero denominator")
                i += 2
            coeff *= Fraction(int(tok), den)
        elif _NAME_RE.fullmatch(tok):
            power = 1
            if tokens[i:i + 1] == ["^"]:
                # past the '^' and an optional '-'
                i += 1 + (tokens[i + 1:i + 2] == ["-"])
                if i >= len(tokens) or not tokens[i].isdigit():
                    raise ParseError("expected an integer exponent")
                power = int(tokens[i]) if tokens[i - 1] == "^" else -int(tokens[i])
                i += 1
            factors.append((tok, power))
        else:
            raise ParseError("unexpected token %r" % tok)
        if tokens[i:i + 1] != ["*"]:
            break
        i += 1
        if i == len(tokens):
            raise ParseError("dangling '*'")
    mono = [0] * len(context)
    for name, power in factors:
        if name not in context:
            raise ParseError("unknown variable %r" % name)
        mono[context.index(name)] += power
    return LaurentPolynomial(context, {tuple(mono): coeff}), i
