"""Simplicity, equivalence, and modular-group membership for braid pairs.

A classified pair is simple exactly when none of a short list of obstruction
polynomials in the eigenvalues (and root parameter) vanishes.  The criterion
lives in the Q scalars: for each index pair r != s, the triple product
P_r(A) P_s(B) P_r(A) is a scalar multiple Q_rs of the rank-one matrix P_r(A),
and the pair is simple iff every Q_rs is nonzero.  The obstruction
polynomials are stated once, as one factor table (_factors), and Q_rs is
a leading factor times the table's factors that separate r from s.  This
module evaluates the closed forms of Q_rs and of the central scalar from
a classified RepSpec: obstruction_generators is the table on the spec's
Scalars, q_scalars the one evaluation of the Q closed forms (over Q on
the spec cleared of denominators, so the table holds integers),
q_from_spec its per-pair wrapper, and delta_from_spec gives the central
scalar; all read the root parameter through one bridge, _root_square.
The module also recomputes Q_rs from the defining matrix identity as an
independent route, and cross-checks the verdict against a
generated-algebra span oracle that knows nothing about the closed forms
(Norton's irreducibility test at the eigenvalues of the pair's spec,
with the span of words as its fallback).

Every check is exact; nothing here tolerates approximation.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import combinations
import math

from .fields import RationalField, Scalar, SymbolicField, root_of_unity
from .matrices import SquareMatrix, UniPoly, dot, nullspace_basis, nullspace_dim, spin, times, vec
from .reps import CLASSIFIED, RepSpecError


def p_poly(r, eigenvalues):
    """Monic polynomial with every eigenvalue except the r-th as a root.

    Degree is one less than the count; evaluated at A it projects (up to a
    scalar) onto the r-th eigenspace.  Indices are 1-based.
    """
    d = len(eigenvalues)
    if not 1 <= r <= d:
        raise ValueError("index %d out of range 1..%d" % (r, d))
    field = eigenvalues[0].field
    linear = [UniPoly(field, [-lam, field.one]) for lam in eigenvalues]
    return math.prod(linear[: r - 1] + linear[r:], start=UniPoly(field, [field.one]))


def _root_square(spec):
    """The squared root g^2 of the closed forms: the bridge l2*l3/D in
    dimension 4, gamma^2 in dimension 5.

    The one place that knows how the root parameter enters: dimension 4
    only through this bridge, dimension 5 through gamma and its square.
    """
    if spec.dim == 4:
        return spec.eigenvalues[1] * spec.eigenvalues[2] / spec.root_param
    return spec.root_param ** 2


def _cleared(spec):
    """(S, L, G, G2) for a spec over Q: S the lcm of the denominators of the
    eigenvalues (and of gamma), L_i = S*l_i and G = S*gamma as integers, and
    G2 = S^2*g^2, that is G^2, or L2*L3/D (a Fraction) in dimension 4."""
    values = [x.value for x in spec.eigenvalues]
    if spec.dim == 5:
        values.append(spec.root_param.value)
    scale = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (scale // v.denominator) for v in values]
    g = g2 = None
    if spec.dim == 4:
        g2 = ints[1] * ints[2] / spec.root_param.value
    elif spec.dim == 5:
        g = ints.pop()
        g2 = g * g
    return scale, ints, g, g2


# One evaluated factor of the closed forms: a label, the eigenvalue indices
# involved, the value, and the side: Q_rs has the factor exactly when one
# of r, s is on its side.
Obstruction = namedtuple("Obstruction", "label indices value side")


def _factors(d, lam, g, g2):
    """The factor table of dimension d, evaluated at the eigenvalues lam,
    the root parameter g and its square g2 (_root_square; g is read only
    in dimension 5, g2 from dimension 4 on).

      d = 2: l1^2-l1*l2+l2^2, side {1};
      d = 3: l_i^2+l_j*l_k, side {i};
      d = 4: l_i^2+g^2, side {i}, then g^2+l_i*l_j+l_r*l_s for each
             pairing {i,j | r,s} of 1..4, side {i, j};
      d = 5: g^2+g*l_i+l_i^2, side {i}, then g^2+l_i*l_j, side {i, j}.

    Every ordered pair r != s separates exactly 2^(d-2) of the factors.
    """
    lam = dict(enumerate(lam, start=1))
    if d == 2:
        return [Obstruction(
            "l1^2-l1*l2+l2^2", [1, 2], lam[1] ** 2 - lam[1] * lam[2] + lam[2] ** 2, {1},
        )]
    if d == 3:
        return [
            Obstruction("l%d^2+l%d*l%d" % (i, j, k), [i, j, k], lam[i] ** 2 + lam[j] * lam[k], {i})
            for i, j, k in ((1, 2, 3), (2, 1, 3), (3, 1, 2))
        ]
    if d == 4:
        return [
            Obstruction("l%d^2+g^2" % i, [i], lam[i] ** 2 + g2, {i}) for i in lam
        ] + [
            Obstruction(
                "g^2+l%d*l%d+l%d*l%d" % (i, j, r, s), [i, j, r, s],
                g2 + lam[i] * lam[j] + lam[r] * lam[s], {i, j},
            )
            for i, j, r, s in ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3))
        ]
    return [
        Obstruction("g^2+g*l%d+l%d^2" % (i, i), [i], g2 + g * lam[i] + lam[i] ** 2, {i})
        for i in lam
    ] + [
        Obstruction("g^2+l%d*l%d" % (i, j), [i, j], g2 + lam[i] * lam[j], {i, j})
        for i, j in combinations(lam, 2)
    ]


def q_scalars(spec, pairs):
    """Closed forms of the Q scalars of a classified spec: {(r, s): Q_rs}.

    The one evaluation of the closed forms; q_from_spec is its per-pair
    wrapper.  pairs is a list of ordered index pairs r != s in 1..d, and
    the result keeps its order.  Each call evaluates the factor table
    (_factors) once, and Q_rs = lead * P_rs, with P_rs the product of the
    factors that have exactly one of r, s on their side, in table order,
    and lead = -1, 1, -(g^2)^-1 and (g^2)^-4 for d = 2..5, formed on the
    spec's Scalars.

    Over Q the table runs on the spec cleared of denominators (_cleared):
    each factor, of degree 2, is then S^2 times its value, and
    Q_rs = lead * P_rs / S^(2^(d-1)) is formed as one Fraction.  Other
    backends run the same table on their Scalars.
    """
    if spec.family != CLASSIFIED:
        raise RepSpecError("Q scalars apply to the classified family")
    d = spec.dim
    for r, s in pairs:
        if r == s or not (1 <= r <= d and 1 <= s <= d):
            raise ValueError("indices must be distinct and within 1..%d" % d)
    lam, g = spec.eigenvalues, spec.root_param
    g2 = _root_square(spec) if d >= 4 else None
    one = spec.field.one
    lead = -one if d == 2 else one if d == 3 else -(g2.inv()) if d == 4 else g2 ** -4
    rational = isinstance(spec.field, RationalField)
    if rational:
        scale, lam, g, g2 = _cleared(spec)
    table = _factors(d, lam, g, g2)
    products = {}
    for r, s in pairs:
        first, *rest = (f.value for f in table if (r in f.side) != (s in f.side))
        products[r, s] = math.prod(rest, start=first)
    if rational:
        lead = lead.value
        den = lead.denominator * scale ** (2 ** (d - 1))
        return {
            pair: Scalar(spec.field, Fraction(lead.numerator * p, den))
            for pair, p in products.items()
        }
    return {pair: lead * p for pair, p in products.items()}


def q_from_spec(spec, r, s):
    """Closed form of the Q scalar of a classified spec for one index pair
    r != s: q_scalars for that pair alone."""
    return q_scalars(spec, [(r, s)])[r, s]


def delta_from_spec(spec):
    """Closed form of the central scalar delta of a classified spec.

    (ABA)^2 = delta * I with delta = -(l1*l2)^3 for d=2, (l1*l2*l3)^2 for
    d=3, -(l2*l3/D)^3 for d=4 and gamma^6 for d=5: one monomial in the
    spec's parameters, with delta^d = det(A)^6.
    """
    if spec.family != CLASSIFIED:
        raise RepSpecError("the central scalar closed form applies to the classified family")
    d = spec.dim
    if d == 2:
        l1, l2 = spec.eigenvalues
        return -((l1 * l2) ** 3)
    if d == 3:
        return spec.det ** 2
    cube = _root_square(spec) ** 3
    return -cube if d == 4 else cube


def q_oracle(rep, r, s):
    """Q recomputed from the defining identity, with no closed form involved.

    Evaluates P_r at A and P_s at B, checks the triple product is an exact
    scalar multiple of P_r(A) entry by entry, and returns that scalar.  A zero
    P_r(A) or a failed proportionality marks input outside the oracle's
    domain and raises.
    """
    eigs = list(rep.spec.eigenvalues)
    pa = p_poly(r, eigs).eval_matrix(rep.A)
    pb = p_poly(s, eigs).eval_matrix(rep.B)
    if pa.is_zero():
        raise ValueError("P_r(A) vanished; the pair cannot be simple")
    triple = pa * pb * pa
    d = rep.dim
    ref = next(
        (i, j)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
        if not pa.entry(i, j).is_zero()
    )
    q = triple.entry(*ref) / pa.entry(*ref)
    if triple != pa.scale(q):
        raise RuntimeError("triple product is not proportional to P_r(A)")
    return q


def obstruction_generators(spec):
    """The obstruction list for the spec's dimension: the factor table
    (_factors) evaluated on the spec's Scalars.

    The pair is simple iff no value in this list is zero; the list is the
    irredundant generator set of the non-simple locus per dimension.  For
    dimension 5 the quadratic family g^2+g*l_i+l_i^2 is included for all five
    indices, not just the first four: the Q factorization is symmetric in all
    indices, so restricting to four would miss permuted zeros.
    """
    if spec.family != CLASSIFIED:
        raise RepSpecError("obstruction generators apply to the classified family")
    g2 = _root_square(spec) if spec.dim >= 4 else None
    return _factors(spec.dim, spec.eigenvalues, spec.root_param, g2)


class ClassificationReport:
    """Simplicity verdict plus any optional checks that were run.

    vanishing_factors holds the zero obstruction generators as (label,
    indices) pairs.  sl2z/psl2z, burnside and deligne_certificate stay None
    unless their checks ran.  The JSON ends in a westbury key that is always
    null, so its shape stays stable.
    """

    # in the order of the JSON keys
    __slots__ = (
        "simple", "vanishing_factors", "sl2z", "psl2z",
        "burnside", "deligne_certificate",
    )

    def __init__(self, simple, vanishing_factors):
        self.simple = simple
        self.vanishing_factors = vanishing_factors
        self.sl2z = None
        self.psl2z = None
        self.burnside = None
        self.deligne_certificate = None

    def to_json_dict(self):
        out = {name: getattr(self, name) for name in self.__slots__}
        out["vanishing_factors"] = [
            {"generator": label, "indices": list(indices)}
            for label, indices in self.vanishing_factors
        ]
        out["westbury"] = None
        return out


def is_simple(spec):
    """Classify the spec: simple iff every Q scalar with r != s is nonzero.

    The verdict is computed twice, from the Q closed forms (q_scalars, over
    Q on cleared integers) and from the obstruction generator list, which
    stays on the field's Scalars; the two routes cover the same zero locus,
    so disagreement is an internal error, not a data-dependent outcome.
    """
    if spec.family != CLASSIFIED:
        raise RepSpecError("simplicity classification applies to the classified family")
    pairs = list(combinations(range(1, spec.dim + 1), 2))
    q_all_nonzero = not any(q.is_zero() for q in q_scalars(spec, pairs).values())
    vanishing = [
        (gen.label, gen.indices)
        for gen in obstruction_generators(spec)
        if gen.value.is_zero()
    ]
    if q_all_nonzero != (not vanishing):
        raise RuntimeError(
            "Q scalars and obstruction generators disagree on the zero locus"
        )
    return ClassificationReport(q_all_nonzero, vanishing)


def burnside_oracle(rep):
    """Span oracle: do words in {A, B} span the full matrix ring?

    By Burnside's theorem they do exactly when the pair is absolutely
    irreducible, and Norton's test decides that with orbits of vectors
    (norton_orbits): when some theta = A - lambda*I has nullity exactly 1,
    the pair is simple iff the kernel vector of theta spins to the whole
    space under A and B, and the kernel vector of theta^T does under their
    transposes.  A proper submodule U either holds the kernel vector of
    theta, whose orbit then stays in U, or meets ker theta in 0; then theta
    is injective on U, its kernel on V/U is a line, and the annihilator of
    U, a proper submodule of the dual, holds the kernel vector of theta^T.
    The nullity stays 1 over every extension field, so irreducible here
    means absolutely irreducible.  When no eigenvalue of the pair's spec
    gives nullity 1, the span of words (word_span_oracle) decides instead.
    Specialized backends only.
    """
    if isinstance(rep.field, SymbolicField):
        raise ValueError("the span oracle needs specialized scalars")
    orbits = norton_orbits(rep)
    if orbits is None:
        return word_span_oracle(rep)
    return all(space.rank == rep.dim for space in orbits)


def norton_orbits(rep):
    """The orbits Norton's test spins, or None when it cannot decide.

    theta = A - lambda*I is tried for lambda over the distinct eigenvalues
    of the pair's spec, in order, whatever basis A is written in; a
    nonsingular theta has nullity 0 and is skipped.  At the first theta of
    nullity exactly 1, the kernel vector of theta is spun under (A, B),
    then the kernel vector of theta^T under (A^T, B^T), stopping after the
    first orbit below full rank.  Returns the RowSpaces spun, in that
    order.  A proper orbit of the first vector is a submodule; one of the
    second is closed under right multiplication by A and B, so its
    annihilator is a submodule.
    """
    field, d = rep.field, rep.dim
    a_rows, b_rows = rep.A.rows, rep.B.rows
    eigs = rep.spec.eigenvalues
    for n, lam in enumerate(eigs):
        if lam in eigs[:n]:
            continue
        theta = [
            [x - lam if j == i else x for j, x in enumerate(row)]
            for i, row in enumerate(a_rows)
        ]
        kernel = nullspace_basis(field, theta, d)
        if len(kernel) != 1:
            continue
        (w,) = nullspace_basis(field, list(zip(*theta)), d)
        orbits = []
        transposes = (list(zip(*a_rows)), list(zip(*b_rows)))
        for start, maps in ((kernel[0], (a_rows, b_rows)), (w, transposes)):
            orbits.append(spin(field, start, [times(rows) for rows in maps]))
            if orbits[-1].rank < d:
                break
        return orbits
    return None


def word_span_oracle(rep):
    """Span of the words in {A, B}: the spin of vec(I) under right
    multiplication by A and B.

    A word X is its row-major vector vec(X) of width dim^2, and its image
    under a generator M is vec(X*M), formed entry by entry with dot.  Every
    queued word enlarged the span, so at most dim^2 words are queued, and
    the spin stops as soon as the rank is dim^2.  burnside_oracle's
    fallback, and the test oracle for Norton's route.
    """
    field, d = rep.field, rep.dim

    def right(m):
        cols = list(zip(*m.rows))
        return lambda v: [dot(v[i:i + d], col) for i in range(0, d * d, d) for col in cols]

    ident = vec(SquareMatrix.identity(field, d))
    return spin(field, ident, [right(rep.A), right(rep.B)]).rank == d * d


def hom_space_dim(rep1, rep2):
    """Dimension of the space of intertwiners X with X A1 = A2 X, X B1 = B2 X.

    Assembled as an explicit 2*d^2 x d^2 exact linear system; its nullity is
    1 between equivalent simple pairs, 0 between inequivalent ones.
    """
    if rep1.dim != rep2.dim:
        raise ValueError("intertwiner space needs equal dimensions")
    d = rep1.dim
    field = rep1.field
    rows = []
    for m1, m2 in ((rep1.A, rep2.A), (rep1.B, rep2.B)):
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                row = [field.zero] * (d * d)
                for k in range(1, d + 1):
                    # coefficient of x_{ik} from X*M1, of x_{kj} from -M2*X
                    row[(i - 1) * d + (k - 1)] = row[(i - 1) * d + (k - 1)] + m1.entry(k, j)
                    row[(k - 1) * d + (j - 1)] = row[(k - 1) * d + (j - 1)] - m2.entry(i, k)
                rows.append(row)
    return nullspace_dim(field, rows, d * d)


def sl2z_flags(spec):
    """Whether the pair factors through the modular group or its quotient.

    The central scalar delta is read off the spec by its closed form
    (delta_from_spec), with no matrix built; the pair descends to SL(2,Z)
    iff delta^2 = 1 and to PSL(2,Z) iff delta = 1.  Symbolic specs are
    rejected: equality with 1 is not decidable for free parameters.
    """
    if isinstance(spec.field, SymbolicField):
        raise ValueError(
            "modular-group flags need specialized scalars; "
            "delta = 1 is undecidable with free parameters"
        )
    delta = delta_from_spec(spec)
    one = spec.field.one
    return (delta * delta == one, delta == one)


def deligne_check(spec):
    """Sufficient simplicity certificate from eigenvalue products.

    A proper nonzero submodule of size r would force
    (product of all eigenvalues)^(6r) = (product over the submodule)^(6d).
    If that equation fails for every proper nonempty index subset, no such
    submodule can exist and the certificate (True) is issued.  One-way only:
    False means no certificate, not non-simplicity.
    """
    if isinstance(spec.field, SymbolicField):
        raise ValueError("the certificate check needs specialized scalars")
    if spec.family != CLASSIFIED:
        raise RepSpecError("the certificate check applies to the classified family")
    d = spec.dim
    total = spec.det
    for r in range(1, d):
        lhs = total ** (6 * r)
        for subset in combinations(spec.eigenvalues, r):
            if lhs == math.prod(subset[1:], start=subset[0]) ** (6 * d):
                return False
    return True


def westbury_dims(rep, sixth_root):
    """Eigenspace dimensions of the normalized order-2 and order-3 elements.

    Scaling A and B by the inverse of a sixth root of the central scalar
    makes ABA an involution and AB of order three.  Returns
    (n1, n2, m1, m2, m3): the +1/-1 eigenspace dimensions of normalized ABA
    and the eigenspace dimensions of normalized AB at the three cube roots of
    unity (1, omega, omega^2).  Needs a backend containing a primitive cube
    root of unity, and a classified pair: the central scalar is read off its
    spec (delta_from_spec).
    """
    field = rep.field
    delta = delta_from_spec(rep.spec)
    if sixth_root ** 6 != delta:
        raise ValueError("sixth_root^6 must equal the central scalar")
    inv = sixth_root.inv()
    ap = rep.A.scale(inv)
    bp = rep.B.scale(inv)
    d = rep.dim
    ident = SquareMatrix.identity(field, d)

    def eigdim(m, value):
        shifted = m - ident.scale(value)
        return nullspace_dim(field, shifted.rows, d)

    involution = ap * bp * ap
    n1 = eigdim(involution, field.one)
    n2 = eigdim(involution, -field.one)
    omega = root_of_unity(field, 3)
    rotation = ap * bp
    ms = [eigdim(rotation, field.one), eigdim(rotation, omega), eigdim(rotation, omega * omega)]
    if n1 + n2 != d or sum(ms) != d:
        raise RuntimeError("eigenspace dimensions do not fill the space")
    return (n1, n2, ms[0], ms[1], ms[2])
