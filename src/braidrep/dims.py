"""Categorical dimensions of tensor-square summands, two ways.

A braided category whose object Z has a multiplicity-free tensor square
with d summands yields a d-dimensional braid pair on the morphism space
of Z into its third tensor power.  The pair scalar Q and the
eigenprojection values P then express every summand dimension as

    dim_i = Q_1i * (dim Z)^2 / (P_1(l_1) * P_i(l_i)),

with index 1 on the trivial summand.  Each series is a classified RepSpec;
its route table holds every P_i(l_i) and Q_1i, evaluated once, and the
summand dimensions read that table.  Both series then run one pipeline:
one partition check, read off the table, that the route's dimensions,
trivial included, add to (dim Z)^2, and one comparison with a catalog
of closed bracket formulas, reporting exact equality per summand.

Each series is evaluated twice by the same code.  Over SymbolicField its
values are expanded, and the reports render them.  Over FactoredField
(braidrep.factored) every table entry, route and catalog value is a unit
times a monomial times cyclotomic factors of binomials, and these values
decide every check: a catalog equality or the sign-flip test compares
exponent maps and expands nothing, and the partition check expands only
what the terms of its sums do not share.  A summand whose catalog entry
disagrees is explained by the atoms of catalog/route (DimReport.mismatch).
"""

from collections import namedtuple
import math

from .classify import q_scalars
from .fields import SymbolicField, VarContext
from .reps import CLASSIFIED, RepSpec


class BracketContext:
    """Two-variable Laurent ring generating quantum-integer brackets.

    bracket(n, lam) = weight^lam * base^n - weight^-lam * base^-n.  The
    exceptional series is naturally written in the squares s = base^2,
    t = weight^2 with half-integer exponents; generating the ring at the
    square-root level keeps every bracket Laurent, and all results are
    even in (base, weight) so the root choices never matter.  The ring is
    the fraction field of the given backend: SymbolicField expands and
    renders, FactoredField keeps every value factored for the checks.
    """

    __slots__ = ("field", "base", "weight", "_brackets")

    def __init__(self, base_name, weight_name, backend=SymbolicField):
        field = backend(VarContext((base_name, weight_name)))
        self.field = field
        self.base = field.var(base_name)
        self.weight = field.var(weight_name)
        self._brackets = {}  # (n, lam) -> bracket; the catalog repeats half of its 46

    def bracket(self, n, lam=0):
        value = self._brackets.get((n, lam))
        if value is None:
            lead = self.weight ** lam * self.base ** n
            value = self._brackets[(n, lam)] = lead - lead ** -1
        return value


def bcd_context(backend=SymbolicField):
    return BracketContext("q", "r", backend)


def exceptional_context(backend=SymbolicField):
    return BracketContext("u", "w", backend)


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


def route_table(spec):
    """Eigenprojection values and trivial-summand pair scalars of a classified spec.

    Returns (p, q1): p[i] = P_i(l_i), the product of l_i - l_j over
    j != i, for i = 1..d and q1[i] = Q_1i for i = 2..d, each evaluated
    once.  Repeated eigenvalues make an eigenprojection value vanish and
    raise.
    """
    eigs = spec.eigenvalues
    p = {i: math.prod(lam - other for other in eigs[: i - 1] + eigs[i:])
         for i, lam in enumerate(eigs, start=1)}
    if any(value.is_zero() for value in p.values()):
        raise ValueError("eigenprojection value vanished; eigenvalues must be distinct")
    q = q_scalars(spec, [(1, i) for i in range(2, spec.dim + 1)])
    return p, {s: value for (_, s), value in q.items()}


def summand_dim(table, dim_z, i):
    """Dimension of summand i > 1: Q_1i (dim Z)^2 / (P_1(l_1) P_i(l_i))."""
    p, q1 = table
    return q1[i] * dim_z * dim_z / (p[1] * p[i])


def partition_holds(table, dim_z):
    """Whether the summand dimensions, trivial included, add to (dim Z)^2.

    Checked divided through by (dim Z)^2 / P_1(l_1), as
    P_1/(dim Z)^2 + sum over i > 1 of Q_1i/P_i(l_i) = P_1(l_1): summing
    the unreduced dimensions directly multiplies their denominators into
    minute-scale arithmetic.  Over FactoredField each sum pulls out the
    factors its two terms share, so only the rest is expanded.
    """
    p, q1 = table
    total = p[1] / (dim_z * dim_z)
    for i, q in q1.items():
        total = total + q / p[i]
    return total == p[1]


class DimReport:
    """Route comparison for one summand: projector route vs catalog.

    route_a and route_b are the expanded SymbolicField values the report
    renders; exact_a and exact_b are the same values over FactoredField,
    and equal compares those.
    """

    __slots__ = ("summand", "route_a", "route_b", "exact_a", "exact_b", "equal",
                 "gamma", "sign_flip")

    def __init__(self, summand, shown, exact, gamma, sign_flip):
        self.summand = summand
        self.route_a, self.route_b = shown
        self.exact_a, self.exact_b = exact
        self.equal = self.exact_a == self.exact_b
        self.gamma = gamma
        self.sign_flip = sign_flip

    def mismatch(self):
        """One line on how the catalog entry differs from the route: the
        unit times monomial of catalog/route, then the atoms the catalog
        has extra and those it lacks, with their multiplicities."""
        from .factored import split  # imported late, as in verify_series

        head, atoms = split(self.exact_b / self.exact_a)

        def names(sign):
            found = ["%s^%d" % (name, e * sign) if e * sign > 1 else name
                     for name, e in atoms if e * sign > 0]
            return ", ".join(found) or "none"

        return "%s: catalog/route = %s; catalog extra: %s; catalog lacks: %s" % (
            self.summand, head.render(), names(1), names(-1),
        )

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
EXCEPTIONAL_SUMMANDS = tuple(name for name, _, _ in EXCEPTIONAL_CATALOG)


def verify_series(series):
    """Compare the projector route with the catalog for one series.

    Returns one DimReport per non-trivial summand.  Route mismatches are
    reported through the equal flag, never raised; exceptions mark
    broken internal conventions only.
    """
    # imported here, not with the module: every CLI command imports dims,
    # and only this check needs the factored backend
    from .factored import FactoredField

    if series == "bcd":
        exact, exact_flipped = _bcd_values(FactoredField)
        # only the alpha^2 = 1 reports are shown, so only they are expanded;
        # the alpha^2 = -1 pass is checked on the factored values alone
        shown, = _bcd_values(SymbolicField, (1,))
        reports = _compare(exact, shown, BCD_SUMMANDS)
        flipped = _compare(exact_flipped, exact_flipped, BCD_SUMMANDS)
        if [r.exact_a for r in reports] != [r.exact_a for r in flipped]:
            raise RuntimeError("summand dimensions depend on the sign of alpha squared")
        return reports
    if series == "exceptional":
        return _compare(
            _exceptional_values(FactoredField), _exceptional_values(SymbolicField),
            EXCEPTIONAL_SUMMANDS,
        )
    raise ValueError("series must be 'bcd' or 'exceptional'")


# one series evaluated over one backend: the route table, dim Z, the route
# and catalog value of each summand, and the root convention
SeriesValues = namedtuple("SeriesValues", "table dim_z routes catalog gamma")


def _compare(exact, shown, names):
    """Partition check, then one DimReport per summand against the catalog.

    exact holds the series over FactoredField, shown the same series over
    SymbolicField; every check reads exact, and the reports render shown.
    One global sign flip of all Q-derived quantities is allowed, but only
    when it makes the whole catalog match; the routes are nonzero, so it
    never engages while some summand already matches.
    """
    if any(value.is_zero() for value in exact.table[1].values()):
        raise RuntimeError("pair scalar vanished; the series pair must be simple")
    if not partition_holds(exact.table, exact.dim_z):
        raise RuntimeError("summand dimensions do not add to the square of dim Z")
    rows = list(zip(names, shown.routes, shown.catalog, exact.routes, exact.catalog))
    reports = [DimReport(n, (sa, sb), (a, b), shown.gamma, False) for n, sa, sb, a, b in rows]
    if not any(r.equal for r in reports) and all(-a == b for *_, a, b in rows):
        reports = [DimReport(n, (-sa, sb), (-a, b), shown.gamma, True)
                   for n, sa, sb, a, b in rows]
    return reports


def _bcd_values(backend, alpha_squares=(1, -1)):
    # The braiding eigenvalues carry a free unit alpha with only
    # alpha^2 = +-1 observable.  Q_1i and P_1(l_1) P_i(l_i) are both
    # homogeneous of degree four in the eigenvalues and (alpha^2)^2 = 1,
    # so the route may fix alpha = 1 in the eigenvalue list and carry
    # alpha^2 through dim Z alone; both signs are still run and must
    # produce identical summand dimensions that, trivial included, add
    # to (dim Z)^2.  Returns the series at each of alpha_squares.
    ctx = bcd_context(backend)
    spec = RepSpec(CLASSIFIED, [ctx.weight ** -1, -(ctx.base ** -1), ctx.base])
    table = route_table(spec)
    out = []
    for alpha_sq in alpha_squares:
        dim_z, *catalog = bcd_dims(ctx, ctx.field.const(alpha_sq))
        routes = [summand_dim(table, dim_z, i) for i in (2, 3)]
        out.append(SeriesValues(table, dim_z, routes, catalog, spec.root_param))
    return out


def _exceptional_values(backend):
    ctx = exceptional_context(backend)
    u, w = ctx.base, ctx.weight
    # RepSpec checks the fifth-root convention gamma^5 = product of eigenvalues
    spec = RepSpec(
        CLASSIFIED,
        [u ** 12, -(u ** 6), -ctx.field.one, w ** 2, u ** 2 * w ** -2],
        root_param=u ** 4,
    )
    table = p, q1 = route_table(spec)
    # summand 2 is Z itself; equating its formula with dim Z pins
    # dim Z = P_1(l_1) P_2(l_2) / Q_12, sign included
    dim_z = p[1] * p[2] / q1[2]
    routes = [dim_z] + [summand_dim(table, dim_z, i) for i in (3, 4, 5)]
    return SeriesValues(table, dim_z, routes, exceptional_dims(ctx), spec.root_param)
