"""Categorical dimensions of tensor-square summands, two ways.

A braided category whose object Z has a multiplicity-free tensor square
with d summands yields a d-dimensional braid pair on the morphism space
of Z into its third tensor power.  The pair scalar Q and the
eigenprojection values P then express every summand dimension as

    dim_i = Q_1i * (dim Z)^2 / (P_1(l_1) * P_i(l_i)),

with index 1 on the trivial summand.  This module computes dimensions
along that route and compares them with a catalog of closed bracket
formulas for two series, reporting exact equality per summand.
"""

import math

from .classify import p_poly, q_closed
from .fields import SymbolicField, VarContext


class BracketContext:
    """Two-variable Laurent ring generating quantum-integer brackets.

    bracket(n, lam) = weight^lam * base^n - weight^-lam * base^-n.  The
    exceptional series is naturally written in the squares s = base^2,
    t = weight^2 with half-integer exponents; generating the ring at the
    square-root level keeps every bracket Laurent, and all results are
    even in (base, weight) so the root choices never matter.
    """

    __slots__ = ("field", "base", "weight")

    def __init__(self, base_name, weight_name):
        field = SymbolicField(VarContext((base_name, weight_name)))
        self.field = field
        self.base = field.var(base_name)
        self.weight = field.var(weight_name)

    def bracket(self, n, lam=0):
        lead = self.weight ** lam * self.base ** n
        return lead - lead ** -1


def bcd_context():
    return BracketContext("q", "r")


def exceptional_context():
    return BracketContext("u", "w")


def bcd_dims(ctx, alpha_sq):
    """Closed dimension formulas for the orthogonal/symplectic series.

    The tensor square of Z splits as trivial + alternating + symmetric
    traceless.  alpha_sq is the square of a free unit and must be 1 or
    -1; the dimensions depend on it only through dim Z.  Returns
    (dim_z, dim_x, dim_y) with X the alternating summand.
    """
    one = ctx.field.one
    if alpha_sq != one and alpha_sq != -one:
        raise ValueError("alpha_sq must be 1 or -1")
    lam = ctx.bracket(0, 1)
    unit = ctx.bracket(1)
    two = ctx.bracket(2)
    dim_z = alpha_sq * (lam / unit + one)
    dim_x = (ctx.bracket(-1, 1) + two) / two * lam / unit
    dim_y = (ctx.bracket(1, 1) + two) / two * lam / unit
    return dim_z, dim_x, dim_y


# bracket products as (n, lam) exponent pairs, numerator then denominator
EXCEPTIONAL_CATALOG = (
    ("adjoint",
     ((4, 0), (-6, 1), (5, 1)),
     ((2, 0), (-1, 1), (0, 1))),
    ("alternating_complement",
     ((5, 0), (-6, 1), (5, 1), (-4, 1), (3, 1), (4, 2), (-6, 2)),
     ((1, 0), (0, 1), (-1, 1), (2, 1), (-3, 1), (0, 2), (-2, 2))),
    ("symmetric",
     ((6, 0), (5, 0), (4, 0), (5, 1), (-4, 1), (-6, 3)),
     ((2, 0), (-1, 1), (0, 1), (0, 2), (-1, 2), (-2, 1))),
    ("symmetric_dual",
     ((6, 0), (5, 0), (4, 0), (-6, 1), (6, 2), (3, 3), (2, 1)),
     ((2, 0), (-1, 1), (0, 1), (-2, 2), (-1, 2), (4, 2), (1, 1))),
)


def bracket_product(ctx, pairs):
    out = ctx.field.one
    for n, lam in pairs:
        out = out * ctx.bracket(n, lam)
    return out


def exceptional_dims(ctx):
    """Catalog closed formulas for the exceptional-series summands.

    Returns the bracket-product expressions for the adjoint summand, the
    complement of the adjoint in the alternating square, and the dual
    pair filling the symmetric square.  These catalog values are inputs
    to be checked, not trusted: verify_series reports which of them
    match the projector route, and for this catalog three of the four
    turn out not to.
    """
    return tuple(
        bracket_product(ctx, num) / bracket_product(ctx, den)
        for _, num, den in EXCEPTIONAL_CATALOG
    )


def dim_from_rep(d, eigenvalues, gamma, dim_z, i):
    """Dimension of summand i from the braid-pair scalars.

    Index 1 labels the trivial summand and is pinned to dimension one;
    any other index uses Q_1i (dim Z)^2 / (P_1(l_1) P_i(l_i)).  Repeated
    eigenvalues make an eigenprojection value vanish and raise.
    """
    if len(eigenvalues) != d:
        raise ValueError("need one eigenvalue per summand")
    if not 1 <= i <= d:
        raise ValueError("summand index out of range")
    field = eigenvalues[0].field
    if i == 1:
        return field.one
    p1 = p_poly(1, eigenvalues).eval_scalar(eigenvalues[0])
    pi = p_poly(i, eigenvalues).eval_scalar(eigenvalues[i - 1])
    if p1.is_zero() or pi.is_zero():
        raise ValueError("eigenprojection value vanished; eigenvalues must be distinct")
    q1i = q_closed(d, 1, i, list(eigenvalues), gamma)
    return q1i * dim_z * dim_z / (p1 * pi)


def derive_dimZ(d, eigenvalues, gamma, self_index):
    """Dimension of Z read off the summand isomorphic to Z itself.

    Equating the summand formula at self_index with dim Z pins
    dim Z = P_1(l_1) P_self(l_self) / Q_{1,self}, sign included.
    """
    if len(eigenvalues) != d:
        raise ValueError("need one eigenvalue per summand")
    q1s = q_closed(d, 1, self_index, list(eigenvalues), gamma)
    if q1s.is_zero():
        raise ValueError("pair scalar vanishes at the self summand")
    p1 = p_poly(1, eigenvalues).eval_scalar(eigenvalues[0])
    ps = p_poly(self_index, eigenvalues).eval_scalar(eigenvalues[self_index - 1])
    return p1 * ps / q1s


class DimReport:
    """Route comparison for one summand: projector route vs catalog."""

    __slots__ = ("summand", "route_a", "route_b", "equal", "gamma", "sign_flip")

    def __init__(self, summand, route_a, route_b, gamma, sign_flip):
        self.summand = summand
        self.route_a = route_a
        self.route_b = route_b
        self.equal = route_a == route_b
        self.gamma = gamma
        self.sign_flip = sign_flip

    def to_json_dict(self):
        return {
            "summand": self.summand,
            "route_a": self.route_a.render(),
            "route_b": self.route_b.render(),
            "equal": self.equal,
            "convention": {
                "gamma": None if self.gamma is None else self.gamma.render(),
                "sign_flip": self.sign_flip,
            },
        }


BCD_SUMMANDS = ("alternating", "symmetric_traceless")
EXCEPTIONAL_SUMMANDS = (
    "adjoint", "alternating_complement", "symmetric", "symmetric_dual",
)


def verify_series(series):
    """Compare the projector route with the catalog for one series.

    Returns one DimReport per non-trivial summand.  Route mismatches are
    reported through the equal flag, never raised; exceptions mark
    broken internal conventions only.
    """
    if series == "bcd":
        return _verify_bcd()
    if series == "exceptional":
        return _verify_exceptional()
    raise ValueError("series must be 'bcd' or 'exceptional'")


def _verify_bcd():
    # The braiding eigenvalues carry a free unit alpha with only
    # alpha^2 = +-1 observable.  Q_1i and P_1(l_1) P_i(l_i) are both
    # homogeneous of degree four in the eigenvalues and (alpha^2)^2 = 1,
    # so the route may fix alpha = 1 in the eigenvalue list and carry
    # alpha^2 through dim Z alone; both signs are still run and must
    # produce identical summand dimensions.
    ctx = bcd_context()
    one = ctx.field.one
    eigenvalues = [ctx.weight ** -1, -(ctx.base ** -1), ctx.base]
    closed_x = closed_y = None
    per_alpha = []
    for alpha_sq in (one, -one):
        dim_z, closed_x, closed_y = bcd_dims(ctx, alpha_sq)
        per_alpha.append([
            dim_from_rep(3, eigenvalues, None, dim_z, 2),
            dim_from_rep(3, eigenvalues, None, dim_z, 3),
        ])
    if per_alpha[0] != per_alpha[1]:
        raise RuntimeError("summand dimensions depend on the sign of alpha squared")
    routes = per_alpha[0]
    return [
        DimReport(BCD_SUMMANDS[0], routes[0], closed_x, None, False),
        DimReport(BCD_SUMMANDS[1], routes[1], closed_y, None, False),
    ]


def _verify_exceptional():
    ctx = exceptional_context()
    one = ctx.field.one
    u, w = ctx.base, ctx.weight
    eigenvalues = [u ** 12, -(u ** 6), -one, w ** 2, u ** 2 * w ** -2]
    gamma = u ** 4
    product = math.prod(eigenvalues, start=one)
    # the fifth-root and central-scalar conventions the route relies on
    if gamma ** 5 != product or product != u ** 20:
        raise RuntimeError("eigenvalue product breaks the fifth-root convention")
    if gamma ** 6 != u ** 24:
        raise RuntimeError("central scalar is not the sixth power of gamma")
    for i in range(2, 6):
        if q_closed(5, 1, i, eigenvalues, gamma).is_zero():
            raise RuntimeError("pair scalar vanished; the series pair must be simple")
    dim_z = derive_dimZ(5, eigenvalues, gamma, 2)
    routes = [dim_z] + [
        dim_from_rep(5, eigenvalues, gamma, dim_z, i) for i in (3, 4, 5)
    ]
    # the summand dimensions, trivial included, must add to (dim Z)^2;
    # this pins the sign of dim Z and is independent of the catalog.
    # Cleared of denominators: summing the unreduced fractions directly
    # multiplies their denominators into minute-scale arithmetic.
    pv = [p_poly(i, eigenvalues).eval_scalar(eigenvalues[i - 1]) for i in range(1, 6)]
    q1 = {i: q_closed(5, 1, i, eigenvalues, gamma) for i in range(2, 6)}
    n, d = pv[0] * pv[1], q1[2]
    tail = pv[0] * pv[2] * pv[3] * pv[4]
    lhs = (d * d * tail + n * d * tail
           + n * n * (q1[3] * pv[3] * pv[4]
                      + q1[4] * pv[2] * pv[4]
                      + q1[5] * pv[2] * pv[3]))
    if lhs != n * n * tail:
        raise RuntimeError("summand dimensions do not add to the square of dim Z")
    catalog = list(exceptional_dims(ctx))
    # one global sign flip of all Q-derived quantities is allowed, but
    # only when it makes the whole catalog match; it never engages
    # partially
    sign_flip = False
    flipped = [-value for value in routes]
    if all(a == b for a, b in zip(flipped, catalog)):
        routes = flipped
        sign_flip = True
    return [
        DimReport(name, a, b, gamma, sign_flip)
        for name, a, b in zip(EXCEPTIONAL_SUMMANDS, routes, catalog)
    ]
