"""Binomial-factored rational functions: the exact check behind `braidrep dims`.

An element is c * m * prod(atom^e): a rational unit c, a Laurent monomial m
(an exponent tuple) and a map {atom: nonzero integer exponent}.  An atom is
either (n, x) for the cyclotomic polynomial Phi_n(x), with x = u^a*w^b*...
a primitive monomial (the gcd of its exponents is 1) oriented so that its
first nonzero exponent is positive, or (0, terms) for an opaque polynomial:
the sorted term tuple of a Laurent polynomial with integer content 1, a
positive grlex-leading coefficient and every variable's lowest exponent 0.

Phi_n(x) is irreducible in the Laurent ring, since a primitive x is one
coordinate of a unimodular change of variables, and distinct (n, x) are not
associates.  So when no opaque atom is involved, two elements are equal
exactly when their units, monomials and maps agree, and nothing is expanded.

Products, inverses and powers are map arithmetic.  A sum pulls out what its
two operands share (the lower exponent of every atom and variable), puts the
two units over one denominator, expands the two rests with the integer
LaurentPolynomial product, adds them and factors the result.  A sum whose
terms lie on a line m0 * x^j is m0 * h(x^g), g the gcd of the j; h is
divided by every Phi_k(y) of degree at most deg h, as often as it divides
(poly_divmod), and each Phi_k(x^g) is the product of Phi_kd(x) over the
d | g with gcd(k, g/d) = 1.  What is left of positive degree, and any sum
whose terms are not collinear, becomes one opaque atom.
Equality cancels the common atoms and compares the maps when no opaque atom
is left; otherwise it cross-multiplies what remains.

Values are factored as they are built, never afterwards: the dimension
routes are products and quotients of binomials in signed monomials, so the
only sums they factor are those binomials and short collinear sums.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .fields import Field, LaurentPolynomial, Scalar, cyclotomic, poly_divmod, render_terms


class FactoredField(Field):
    """Fraction field of the Laurent polynomial ring over a variable context,
    with elements kept as factored (unit, monomial, {atom: exponent})."""

    def __init__(self, context):
        self.context = context
        self._mono_one = (0,) * len(context)  # exponent tuple of the monomial 1
        self._polys = {}  # atom -> its LaurentPolynomial, expanded on first use

    def const(self, value):
        return Scalar(self, (_unit(Fraction(value)), self._mono_one, {}))

    def var(self, name):
        mono = [0] * len(self.context)
        mono[self.context.index(name)] = 1
        return Scalar(self, (1, tuple(mono), {}))

    def _mul(self, a, b):
        if not a[0] or not b[0]:
            return (0, self._mono_one, {})
        return (_unit(a[0] * b[0]), _mono_add(a[1], b[1]), _merge(a[2], b[2], 1))

    def _inv(self, a):
        unit = _unit(Fraction(1) / a[0])
        return (unit, tuple(-e for e in a[1]), {k: -e for k, e in a[2].items()})

    def _neg(self, a):
        return (-a[0], a[1], a[2])

    def _is_zero(self, a):
        return not a[0]

    def _add(self, a, b):
        if not a[0]:
            return b
        if not b[0]:
            return a
        mono = tuple(map(min, a[1], b[1]))
        common = {}
        for k in a[2].keys() | b[2].keys():
            e = min(a[2].get(k, 0), b[2].get(k, 0))
            if e:
                common[k] = e
        den = lcm(a[0].denominator, b[0].denominator)
        total = (self._product(int(a[0] * den), _mono_sub(a[1], mono), _merge(a[2], common, -1))
                 + self._product(int(b[0] * den), _mono_sub(b[1], mono), _merge(b[2], common, -1)))
        if total.is_zero():
            return (0, self._mono_one, {})
        unit, rest_mono, atoms = self._factor(total.terms)
        return (_unit(Fraction(unit, den)), _mono_add(mono, rest_mono), _merge(common, atoms, 1))

    def _eq(self, a, b):
        if not a[0] or not b[0]:
            return a[0] == b[0]
        ratio = _merge(a[2], b[2], -1)
        if not any(k[0] == 0 for k in ratio):
            return a[0] == b[0] and a[1] == b[1] and not ratio
        # an opaque atom may share factors with others: cross-multiply, with
        # both units over one denominator
        den = lcm(a[0].denominator, b[0].denominator)
        return (self._product(int(a[0] * den), a[1], {k: e for k, e in ratio.items() if e > 0})
                == self._product(int(b[0] * den), b[1],
                                 {k: -e for k, e in ratio.items() if e < 0}))

    def _product(self, unit, mono, atoms):
        """The LaurentPolynomial unit * monomial * prod(atom^e) for a nonzero
        int unit and every e > 0; the smallest atoms are multiplied in
        first."""
        polys = sorted(
            (self._poly(k) for k, e in atoms.items() for _ in range(e)),
            key=lambda p: len(p.terms),
        )
        out = LaurentPolynomial(self.context, {mono: unit})
        for p in polys:
            out = out * p
        return out

    def _poly(self, atom):
        poly = self._polys.get(atom)
        if poly is None:
            n, x = atom
            if n == 0:
                terms = dict(x)
            else:
                terms = {tuple(j * e for e in x): c for j, c in enumerate(cyclotomic(n)) if c}
            poly = self._polys[atom] = LaurentPolynomial(self.context, terms)
        return poly

    def _factor(self, terms):
        """(int unit, monomial, {atom: exponent}) of a nonzero {exponent: int
        coefficient} dict."""
        if len(terms) == 1:
            (mono, c), = terms.items()
            return c, mono, {}
        line = _line(list(terms))
        if line is None:
            return self._opaque(terms)
        base, x, steps = line
        lo = min(steps)
        g = 0
        for j in steps:
            g = gcd(g, j - lo)
        # h is the primitive integer polynomial, so every division stays in
        # ints: num is the gcd of the coefficients
        num = gcd(*terms.values())
        h = [0] * ((max(steps) - lo) // g + 1)
        for j, c in zip(steps, terms.values()):
            h[(j - lo) // g] = c // num
        atoms = {}
        for k in cyclotomic_candidates(len(h) - 1):
            phi = cyclotomic(k)
            if len(phi) > len(h):
                break  # phi(k) exceeds what is left of deg h, as for every later k
            while len(h) >= len(phi):
                quo, rem = poly_divmod(h, phi)
                if any(rem):
                    break
                h = quo
                for d in range(1, g + 1):
                    if g % d == 0 and gcd(k, g // d) == 1:
                        atoms[(k * d, x)] = atoms.get((k * d, x), 0) + 1
        mono = tuple(b + lo * e for b, e in zip(base, x))
        if len(h) == 1:
            return h[0] * num, mono, atoms
        sign, rest_mono, opaque = self._opaque(
            {tuple(i * g * e for e in x): c for i, c in enumerate(h) if c}
        )
        return sign * num, _mono_add(mono, rest_mono), _merge(atoms, opaque, 1)

    def _opaque(self, terms):
        """(int unit, monomial, {opaque atom: 1}) of a nonzero {exponent: int
        coefficient} dict: the unit and monomial are its Laurent content, and
        the atom is what dividing them out leaves."""
        poly = LaurentPolynomial(self.context, terms)
        unit, mono = poly.content()
        key = tuple(sorted(poly.divide_by_term(unit, mono).terms.items()))
        return unit, mono, {(0, key): 1}

    def atom_name(self, atom):
        """Phi_n(x) with x rendered as a monomial, or an opaque polynomial
        in parentheses."""
        n, x = atom
        if n == 0:
            return "(%s)" % LaurentPolynomial(self.context, dict(x)).render()
        return "Phi_%d(%s)" % (n, LaurentPolynomial(self.context, {x: 1}).render())

    def _render(self, a):
        unit, mono, atoms = a
        head = render_terms(self.context, {mono: unit})
        parts = [self.atom_name(k) + ("" if atoms[k] == 1 else "^%d" % atoms[k])
                 for k in sorted(atoms)]
        if not parts:
            return head
        if head == "1":
            return "*".join(parts)
        if head == "-1":
            return "-" + "*".join(parts)
        return "*".join([head] + parts)


def split(x):
    """(the unit times the monomial of a factored x, as an element of its
    field; [(atom name, exponent)] for every atom of x, in a fixed order)."""
    unit, mono, atoms = x.value
    head = Scalar(x.field, (unit, mono, {}))
    return head, [(x.field.atom_name(k), atoms[k]) for k in sorted(atoms)]


def _mono_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _mono_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _merge(a, b, sign):
    """The map a + sign * b, exponentwise, without zero exponents."""
    out = dict(a)
    for k, e in b.items():
        e = out.get(k, 0) + sign * e
        if e:
            out[k] = e
        else:
            del out[k]
    return out


def _line(points):
    """(base, x, steps) with point i = base + steps[i] * x for a primitive,
    oriented x, or None when the points are not collinear."""
    first = points[0]
    x = None
    for p in points[1:]:
        diff = tuple(a - b for a, b in zip(p, first))
        g = 0
        for e in diff:
            g = gcd(g, e)
        if g:
            x = tuple(e // g for e in diff)
            break
    if next(e for e in x if e) < 0:
        x = tuple(-e for e in x)
    lead = next(i for i, e in enumerate(x) if e)
    steps = []
    for p in points:
        step, off = divmod(p[lead] - first[lead], x[lead])
        if off or any(a - b != step * e for a, b, e in zip(p, first, x)):
            return None
        steps.append(step)
    return first, x, steps


def _unit(c):
    """A rational as an int when it is integral, else as a Fraction."""
    return c.numerator if c.denominator == 1 else c


@lru_cache(maxsize=None)
def cyclotomic_candidates(degree):
    """Every k with phi(k) <= degree, by ascending phi(k) then k.  Since
    phi(k) >= sqrt(k) for k > 6, k never exceeds max(6, degree^2)."""
    ks = [k for k in range(1, max(6, degree * degree) + 1) if _totient(k) <= degree]
    return tuple(sorted(ks, key=lambda k: (_totient(k), k)))


def _totient(n):
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out
