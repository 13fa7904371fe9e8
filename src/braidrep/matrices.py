"""Exact dense linear algebra over the scalar backends.

Everything here works for any field object from :mod:`braidrep.fields`:
rationals, rational functions, or number fields.  Square matrices stay
tiny (at most 8x8), and the widest system reduced is the 2d^2 x d^2
intertwiner system (50x25 at d = 5), so the algorithms favour exactness and
clarity over asymptotics.  Every elimination (determinants, ranks,
nullspaces, inverses) goes through one kernel, the incremental reduced
echelon form RowSpace; det reads its pivots off it, and spin grows the
orbit of a vector under linear maps in it.  Over the rationals RowSpace
inserts fraction-free, keeping its rows as primitive integer vectors; it
reads them back, and reduce() works on them, as Scalar rows with pivot 1 on
every field.  UniPoly calls the polynomial kernels of braidrep.fields.
"""

from __future__ import annotations

from bisect import bisect
from collections import deque
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
import operator

from .fields import BackendMismatch, RationalField, Scalar, horner, poly_mul

MIN_DIM = 2
MAX_DIM = 8


class SquareMatrix:
    """Immutable square matrix of Scalars over a single field."""

    __slots__ = ("field", "rows")

    def __init__(self, field, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if not (MIN_DIM <= n <= MAX_DIM):
            raise ValueError(f"matrix dimension {n} outside supported range {MIN_DIM}..{MAX_DIM}")
        for r in rows:
            if len(r) != n:
                raise ValueError("matrix is not square")
            _refuse_foreign(field, r)
        self.field = field
        self.rows = rows

    @property
    def dim(self):
        return len(self.rows)

    @classmethod
    def identity(cls, field, n):
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_function(cls, field, n, fn):
        """Build from fn(i, j) -> Scalar with 1-based indices."""
        return cls(field, [[fn(i + 1, j + 1) for j in range(n)] for i in range(n)])

    def entry(self, i, j):
        """1-based access, matching the row/column conventions in formulas."""
        return self.rows[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other, op):
        self._check(other)
        return SquareMatrix(self.field, [map(op, r, s) for r, s in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        self._check(other)
        n = self.dim
        cols = list(zip(*other.rows))
        out = []
        for i in range(n):
            row = self.rows[i]
            out.append([dot(row, cols[j]) for j in range(n)])
        return SquareMatrix(self.field, out)

    def _check(self, other):
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.field is not other.field and self.field != other.field:
            raise BackendMismatch("matrices over different fields")

    def scale(self, c):
        return SquareMatrix(self.field, [[c * x for x in r] for r in self.rows])

    def det(self):
        """Product of the pivots met while the rows are reduced in order,
        negated once for each earlier pivot column right of a new one."""
        space = RowSpace(self.field, self.dim)
        det = self.field.one
        for row in self.rows:
            v = space.reduce(row)
            pivot = next((j for j, x in enumerate(v) if not x.is_zero()), None)
            if pivot is None:
                return self.field.zero
            if sum(p > pivot for p in space.pivots) % 2:
                det = -det
            det = det * v[pivot]
            space.insert(v)
        return det

    def inverse(self):
        n = self.dim
        one, zero = self.field.one, self.field.zero
        space = RowSpace(self.field, 2 * n, (
            list(row) + [one if j == i else zero for j in range(n)]
            for i, row in enumerate(self.rows)
        ))
        # [M | I] reduces to [I | M^-1] exactly when M is invertible
        if space.pivots != list(range(n)):
            raise ZeroDivisionError("matrix is singular")
        return SquareMatrix(self.field, [row[n:] for row in space.rows])

    def is_zero(self):
        return all(x.is_zero() for r in self.rows for x in r)

    def zero_outside(self, support):
        """True when every entry (i, j), 1-based, with support(i, j) false is zero."""
        return all(
            x.is_zero()
            for i, row in enumerate(self.rows, 1)
            for j, x in enumerate(row, 1)
            if not support(i, j)
        )

    def scalar_value(self):
        """The c with self == c*I, or None when the matrix is not scalar."""
        c = self.rows[0][0]
        diagonal = all(r[i] == c for i, r in enumerate(self.rows))
        return c if diagonal and self.zero_outside(lambda i, j: i == j) else None

    def render(self):
        """Nested list of canonical strings, row major."""
        return [[x.render() for x in r] for r in self.rows]

    def __repr__(self):
        body = "; ".join(", ".join(x.render() for x in r) for r in self.rows)
        return f"SquareMatrix[{body}]"


def _refuse_foreign(field, values):
    """Refuse any value that is not a Scalar of field: TypeError for a
    non-Scalar, BackendMismatch for a Scalar of another field."""
    for x in values:
        if not isinstance(x, Scalar):
            raise TypeError("entries must be Scalars")
        if x.field is not field and x.field != field:
            raise BackendMismatch("entry from a different field")


def dot(row, col):
    """Sum of the entrywise products of two equal-length Scalar sequences."""
    return reduce(operator.add, map(operator.mul, row, col))


def vec(matrix):
    """Row-major flattening of a SquareMatrix into a list of Scalars."""
    return [x for r in matrix.rows for x in r]


class UniPoly:
    """Univariate polynomial with Scalar coefficients, ascending order."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        coeffs = list(coeffs)
        while len(coeffs) > 1 and coeffs[-1].is_zero():
            coeffs.pop()
        if not coeffs:
            coeffs = [field.zero]
        self.field = field
        self.coeffs = tuple(coeffs)

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __mul__(self, other):
        return UniPoly(self.field, poly_mul(self.coeffs, other.coeffs, self.field.zero))

    def eval_matrix(self, m):
        ident = SquareMatrix.identity(self.field, m.dim)
        return horner([ident.scale(c) for c in self.coeffs], m)

    def __repr__(self):
        # coefficients in ascending order
        return "UniPoly(%s)" % ", ".join(c.render() for c in self.coeffs)


def rref(field, rows):
    """Reduced row echelon form of a list of coordinate lists.

    Returns (reduced_rows, pivot_columns); zero rows are dropped.
    """
    space = RowSpace(field, len(rows[0]) if rows else 0, rows)
    return space.rows, space.pivots


def nullspace_basis(field, rows, ncols):
    """Basis of the right nullspace of the given row list, as coordinate lists."""
    space = RowSpace(field, ncols, rows)
    reduced = space.rows
    basis = []
    for f in range(ncols):
        if f in space.pivots:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(reduced, space.pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def nullspace_dim(field, rows, ncols):
    return ncols - RowSpace(field, ncols, rows).rank


def times(rows):
    """The map v -> M*v of the matrix M with the given rows."""
    return lambda v: [dot(row, v) for row in rows]


def spin(field, vector, maps):
    """Orbit of a nonzero vector under linear maps, each a function from a
    vector to its image.

    One FIFO queue of images: each queued vector is sent through every map,
    and an image is queued when it enlarges the span.  Returns the RowSpace
    of the orbit; it stops at the insert that reaches full rank.
    """
    space = RowSpace(field, len(vector), [vector])
    queue = deque([vector])
    while queue and space.rank < space.ncols:
        v = queue.popleft()
        for apply in maps:
            image = apply(v)
            if space.insert(image):
                queue.append(image)
                if space.rank == space.ncols:
                    break
    return space


class RowSpace:
    """Incrementally maintained row space in reduced echelon form.

    The package's one elimination routine: rref, nullspaces, inverses,
    determinants and number-field inversion all reduce through it, on
    systems as wide as the 2d^2 x d^2 intertwiner system (50x25 at d = 5).
    insert() returns True when the vector enlarged the span.  The orbit
    closures (spin, which both span oracles of braidrep.classify run)
    insert one candidate at a time; many are rejected, and the incremental
    reduction keeps that cheap.

    Over RationalField insert keeps each row fraction-free (Bareiss 1968),
    as a primitive integer vector with a positive pivot: a vector is cleared
    at a pivot by cross-multiplication, row[p]*u - u[p]*row, divided by its
    content, so no gcd runs per entry operation.  Over any other field a row
    is a Scalar list with pivot 1, where the same step is u - u[p]*row.
    Either way rows reads as Scalar lists with pivot 1, and reduce() clears
    a vector against those; the reduced echelon form is unique, so both give
    the same rows, pivots and reductions.
    """

    __slots__ = ("field", "ncols", "pivots", "_rows", "_integer")

    def __init__(self, field, ncols, rows=()):
        self.field = field
        self.ncols = ncols
        self.pivots = []
        self._rows = []
        self._integer = isinstance(field, RationalField)
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.pivots)

    @property
    def rows(self):
        """The rows as Scalar lists with pivot 1; over Q decoded on each read."""
        if not self._integer:
            return self._rows
        field = self.field
        return [
            [Scalar(field, Fraction(x, row[p])) for x in row]
            for row, p in zip(self._rows, self.pivots)
        ]

    def _checked(self, vector):
        """The vector as a list, refused unless it holds ncols Scalars of
        this field."""
        v = list(vector)
        if len(v) != self.ncols:
            raise ValueError(f"vector of length {len(v)} in a row space of width {self.ncols}")
        _refuse_foreign(self.field, v)
        return v

    def reduce(self, vector):
        """The vector less the combination of the rows that clears every
        pivot column."""
        v = self._checked(vector)
        for row, p in zip(self.rows, self.pivots):
            v = _subtract(v, row, p)
        return v

    def insert(self, vector):
        v = self._checked(vector)
        if self._integer:
            # integer numerators over one common denominator
            values = [x.value for x in v]
            den = lcm(*[x.denominator for x in values])
            v = [x.numerator * (den // x.denominator) for x in values]
        step = _cleared if self._integer else _subtract
        for row, p in zip(self._rows, self.pivots):
            v = step(v, row, p)
        if self._integer:
            pivot = next((i for i, x in enumerate(v) if x), None)
            if pivot is not None:
                v = _primitive(v if v[pivot] > 0 else [-x for x in v])
        else:
            pivot = next((i for i, x in enumerate(v) if not x.is_zero()), None)
            if pivot is not None:
                inv = v[pivot].inv()
                v = [inv * x for x in v]
        if pivot is None:
            return False
        # back-substitute into the existing rows to stay fully reduced
        rows = self._rows
        for idx, row in enumerate(rows):
            rows[idx] = step(row, v, pivot)
        at = bisect(self.pivots, pivot)
        rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def _subtract(u, row, p):
    """u - u[p]*row: column p of u cleared by a Scalar row with pivot 1 there."""
    c = u[p]
    if c.is_zero():
        return u
    return [x - c * y for x, y in zip(u, row)]


def _cleared(u, row, p):
    """row[p]*u - u[p]*row divided by its content: column p of u cleared by
    an integer row with its pivot there, with entries kept from growing
    with every step; u itself when that entry is already zero."""
    c = u[p]
    if not c:
        return u
    a = row[p]
    return _primitive([a * x - c * y for x, y in zip(u, row)])


def _primitive(v):
    """An integer vector divided by the gcd of its entries (a zero vector as it is)."""
    g = gcd(*v)
    return v if g <= 1 else [x // g for x in v]
