"""Reference routes that only the tests run, each cross-checking a library route.

- char_poly (Faddeev-LeVerrier) and min_poly (the first dependency among
  I, M, M^2, ...) <-> UniPoly.eval_matrix and p_poly: Cayley-Hamilton, and
  on simple pairs min poly = char poly with rank-one p_poly(r)(A).
- specialize <-> SymbolicField arithmetic: evaluation at a point is a ring
  homomorphism into RationalField or a NumberField.
- verify_lemma_identities <-> build_rep and structure_report: the
  consequences of the braid relation ((ABA)^2 = delta*I, conjugation by ABA
  swapping A and B, eigenvector transport), checked by multiplication.
- verify_skew_criterion and binomial_identity_check <-> build_binomial_rep:
  a skew involution conjugates A to B, and the binomial convolution identity
  puts BA on and above the skew diagonal.
- q_corner <-> q_from_spec: the (1,d) Q scalar read off the corner product
  P_1(B) P_d(A).
- FractionRowSpace, with fraction_det, fraction_nullspace_basis and
  fraction_spin <-> RowSpace, SquareMatrix.det, nullspace_basis and spin:
  the elimination over Scalar rows with pivot 1 that RowSpace ran over Q
  before it kept integer rows; the reduced echelon form is unique, so both
  give the same rows, pivots, reductions, determinants and nullspaces.
- contains <-> RowSpace.insert: membership read off reduce, which the
  tests use to check spans that insert built.
"""

from collections import deque
import math

from braidrep.classify import p_poly
from braidrep.fields import BackendMismatch, SymbolicField
from braidrep.matrices import RowSpace, SquareMatrix, UniPoly, dot, nullspace_basis, vec


def char_poly(m):
    """Characteristic polynomial det(tI - M) by the Faddeev-LeVerrier recurrence."""
    field = m.field
    n = m.dim
    coeffs = [field.zero] * (n + 1)
    coeffs[n] = field.one
    ident = SquareMatrix.identity(field, n)
    mk = ident.scale(field.zero)
    c = field.one
    for k in range(1, n + 1):
        mk = m * (mk + ident.scale(c))
        trace = sum((mk.entry(i, i) for i in range(1, n + 1)), field.zero)
        c = -(trace / field.const(k))
        coeffs[n - k] = c
    return UniPoly(field, coeffs)


def min_poly(m):
    """Monic minimal polynomial: first linear dependency among I, M, M^2, ...

    Each power is reduced as vec(M^k) tagged with the unit vector e_k; once
    the vec part reduces to zero, the tag part holds the coefficients of a
    polynomial that kills M, with leading coefficient 1 at t^k.
    """
    field = m.field
    n = m.dim
    square = n * n
    space = RowSpace(field, square + n + 1)
    power = SquareMatrix.identity(field, n)
    # Cayley-Hamilton: a dependency turns up by k = n
    for k in range(n + 1):
        tag = [field.zero] * (n + 1)
        tag[k] = field.one
        v = space.reduce(vec(power) + tag)
        if all(x.is_zero() for x in v[:square]):
            return UniPoly(field, v[square:])
        space.insert(v)
        power = power * m


class SpecializationError(ValueError):
    """Raised when a variable assignment is incomplete or hits a zero denominator."""


def specialize(scalar, assignment, target):
    """Evaluate a symbolic scalar under {variable name: Scalar in target field}.

    Ring homomorphism on the polynomial level; raises SpecializationError if a
    variable is missing, a variable value is zero while a negative power occurs,
    or the denominator evaluates to zero.
    """
    field = scalar.field
    if not isinstance(field, SymbolicField):
        raise SpecializationError("specialize expects a symbolic scalar")
    for name in field.context.names:
        if name not in assignment:
            raise SpecializationError("no value for variable %r" % name)
        if assignment[name].field != target:
            raise BackendMismatch("assignment value for %r is not in the target field" % name)
    num, den = scalar.value
    den_val = _eval_poly(den, field.context, assignment, target)
    if den_val.is_zero():
        raise SpecializationError("denominator vanishes under this assignment")
    num_val = _eval_poly(num, field.context, assignment, target)
    return num_val / den_val


def _eval_poly(p, context, assignment, target):
    total = target.zero
    for mono, coeff in p.terms.items():
        term = target.const(coeff)
        for name, e in zip(context.names, mono):
            if e == 0:
                continue
            base = assignment[name]
            if base.is_zero() and e < 0:
                raise SpecializationError("negative power of zero for variable %r" % name)
            term = term * base**e
        total = total + term
    return total


def verify_lemma_identities(rep):
    """The basic consequences of the braid relation, checked by multiplication.

    Returns a dict of booleans: conjugation by ABA swaps A and B; the
    quotient identities ABA(AB)^-1 = B and BAB(BA)^-1 = A; (ABA)^2 is the
    scalar delta with (ABA)^-1 = delta^-1 ABA; and, when the eigenvalues are
    pairwise distinct, ABA maps each eigenvector of A to an eigenvector of B
    with the same eigenvalue (None when eigenvalues repeat).
    """
    a, b, d = rep.A, rep.B, rep.dim
    field = rep.field
    aba = a * b * a
    out = {}
    aba_inv = aba.inverse()
    out["conjugation_swaps"] = (aba * a * aba_inv == b) and (aba * b * aba_inv == a)
    out["quotient_identities"] = (
        aba * (a * b).inverse() == b and (b * a * b) * (b * a).inverse() == a
    )
    delta = (aba * aba).scalar_value()
    out["center_scalar"] = delta is not None and aba_inv == aba.scale(delta.inv())

    eigs = rep.spec.eigenvalues
    distinct = all(
        eigs[i] != eigs[j] for i in range(d) for j in range(i + 1, d)
    )
    if not distinct:
        out["eigenvector_transport"] = None
        return out
    transport = True
    ident = SquareMatrix.identity(field, d)
    for i in range(d):
        shifted = a - ident.scale(eigs[i])
        basis = nullspace_basis(field, shifted.rows, d)
        if len(basis) != 1:
            transport = False
            break
        v = basis[0]
        image = [dot(row, v) for row in aba.rows]
        b_image = [dot(row, image) for row in b.rows]
        if any(b_image[k] != eigs[i] * image[k] for k in range(d)):
            transport = False
            break
    out["eigenvector_transport"] = transport
    return out


def verify_skew_criterion(a, s, c):
    """Sufficient criterion for the braid relation from a skew involution.

    a must be upper triangular and s skew-diagonal with s^2 = c*I; sets
    B = s a s^-1 and tests (i) (BA)_{ij} = 0 for i+j > d+1 and (ii)
    lambda_i (BA)_{i, bar i} = kappa * s_{i, bar i} for a single constant
    kappa.  Condition (ii) makes ABA a scalar multiple of s, which is what
    forces BAB = S(ABA)S^-1 = ABA; the scalar need not equal c itself (for
    the binomial family it is (-1)^(dim-1) * c).  When both hold the braid
    relation is certified by direct multiplication (an internal failure there
    raises, it cannot happen if the criterion is sound).
    """
    d = a.dim
    field = a.field
    if not a.zero_outside(lambda i, j: i <= j):
        raise ValueError("first matrix must be upper triangular")
    if not s.zero_outside(lambda i, j: i + j == d + 1):
        raise ValueError("conjugator must be skew-diagonal")
    if c.is_zero():
        raise ValueError("conjugator squared scalar must be nonzero")
    if s * s != SquareMatrix.identity(field, d).scale(c):
        raise ValueError("conjugator squared must be the given scalar")
    b = s * a * s.inverse()
    ba = b * a
    if not ba.zero_outside(lambda i, j: i + j <= d + 1):
        return False
    kappa = a.entry(1, 1) * ba.entry(1, d) / s.entry(1, d)
    for i in range(2, d + 1):
        lhs = a.entry(i, i) * ba.entry(i, d + 1 - i)
        if lhs != kappa * s.entry(i, d + 1 - i):
            return False
    if a * b * a != b * a * b:
        raise ValueError("criterion hypotheses held but the braid relation failed")
    return True


def binomial_identity_check(d):
    """Exact integer check of the alternating binomial convolution identity.

    sum_k (-1)^(i+k) C(i,k) C(d-k, d-j) = (-1)^i C(d-i, j) for 0<=i,j<=d.
    The right side vanishes exactly when i+j > d, which is what makes the
    product BA of the binomial pair supported on and above the skew diagonal.
    """
    if d > 12:
        raise ValueError("identity check capped at 12")
    for i in range(d + 1):
        for j in range(d + 1):
            total = sum(
                (-1) ** (i + k) * math.comb(i, k) * math.comb(d - k, d - j)
                for k in range(d + 1)
            )
            if total != (-1) ** i * math.comb(d - i, j):
                return False
    return True


def q_corner(rep):
    """The (1,d) Q scalar read off the corner identity.

    P_1(B) P_d(A) is supported on the single (d,d) entry, whose value is the
    Q scalar; any other nonzero entry is an internal error.
    """
    eigs = list(rep.spec.eigenvalues)
    d = rep.dim
    m = p_poly(1, eigs).eval_matrix(rep.B) * p_poly(d, eigs).eval_matrix(rep.A)
    if not m.zero_outside(lambda i, j: i == j == d):
        raise RuntimeError("corner product has support off the (d,d) entry")
    return m.entry(d, d)


def contains(space, vector):
    """True when the vector lies in the span of the RowSpace."""
    return all(x.is_zero() for x in space.reduce(vector))


class FractionRowSpace:
    """Incrementally maintained row space in reduced echelon form, every
    row a Scalar list with pivot 1 (over Q, a list of Fractions).

    RowSpace's elimination as it ran over every field before rows over Q
    became integer vectors.  insert() returns True when the vector enlarged
    the span.
    """

    __slots__ = ("field", "ncols", "rows", "pivots")

    def __init__(self, field, ncols, rows=()):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self.pivots = []
        for row in rows:
            self.insert(row)

    @property
    def rank(self):
        return len(self.rows)

    def reduce(self, vector):
        v = list(vector)
        for row, p in zip(self.rows, self.pivots):
            c = v[p]
            if not c.is_zero():
                v = [v[i] - c * row[i] for i in range(self.ncols)]
        return v

    def insert(self, vector):
        v = self.reduce(vector)
        pivot = next((i for i in range(self.ncols) if not v[i].is_zero()), None)
        if pivot is None:
            return False
        inv = v[pivot].inv()
        v = [inv * x for x in v]
        # back-substitute into the existing rows to stay fully reduced
        for idx in range(len(self.rows)):
            c = self.rows[idx][pivot]
            if not c.is_zero():
                self.rows[idx] = [self.rows[idx][i] - c * v[i] for i in range(self.ncols)]
        at = next((k for k, p in enumerate(self.pivots) if p > pivot), len(self.pivots))
        self.rows.insert(at, v)
        self.pivots.insert(at, pivot)
        return True


def fraction_det(m):
    """Product of the pivots met while the rows are reduced in order,
    negated once for each earlier pivot column right of a new one."""
    space = FractionRowSpace(m.field, m.dim)
    det = m.field.one
    for row in m.rows:
        v = space.reduce(row)
        pivot = next((j for j, x in enumerate(v) if not x.is_zero()), None)
        if pivot is None:
            return m.field.zero
        if sum(p > pivot for p in space.pivots) % 2:
            det = -det
        det = det * v[pivot]
        space.insert(v)
    return det


def fraction_nullspace_basis(field, rows, ncols):
    """Basis of the right nullspace of the given row list, as coordinate lists."""
    space = FractionRowSpace(field, ncols, rows)
    basis = []
    for f in range(ncols):
        if f in space.pivots:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for row, p in zip(space.rows, space.pivots):
            v[p] = -row[f]
        basis.append(v)
    return basis


def fraction_spin(field, vector, maps):
    """Orbit of a nonzero vector under linear maps, each a function from a
    vector to its image."""
    space = FractionRowSpace(field, len(vector), [vector])
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
