"""Construction of braid matrix pairs and their structural identities.

Two families are built here.  The classified family gives, for each dimension
2..5, the pair (A, B) of triangular matrices determined by the eigenvalues of
A (plus a root parameter in dimensions 4 and 5); these realize every simple
pair in those dimensions.  The binomial family is a separate parametric family
in any size, with entries built from binomial coefficients.

Conventions used throughout: A is upper triangular with diagonal
(lambda_1..lambda_d), B is lower triangular with the reversed diagonal, and
bar(i) = d+1-i.  The product ABA is then skew-diagonal; its entries sigma_i
carry a square root of the central scalar delta up to rescaling, and all
reported identities are stated in rescaling-invariant form (no radicals are
ever constructed).
"""

import json
import math

from .fields import (
    NumberField,
    RationalField,
    Scalar,
    SymbolicField,
    VarContext,
)
from .matrices import MAX_DIM, MIN_DIM, SquareMatrix

CLASSIFIED = "classified"
BINOMIAL = "binomial"


class RepSpecError(ValueError):
    """Raised when representation parameters violate a family constraint."""


class RepSpec:
    """Validated parameter set for one representation.

    classified: dim 2..5, eigenvalues lambda_1..lambda_d, root_param is D for
    dim 4 (D^2 = l2*l3/(l1*l4)) and gamma for dim 5 (gamma^5 = prod of
    eigenvalues).  binomial: dim is the matrix size (2..8), eigenvalues is the
    parameter list lambda_0..lambda_{size-1} with lambda_i*lambda_{size-1-i}
    constant.  det is the eigenvalue product, det(A).
    """

    __slots__ = ("family", "dim", "field", "eigenvalues", "root_param", "det")

    def __init__(self, family, eigenvalues, root_param=None):
        eigenvalues = tuple(eigenvalues)
        if not eigenvalues:
            raise RepSpecError("no eigenvalues given")
        for lam in eigenvalues:
            if not isinstance(lam, Scalar):
                raise RepSpecError("eigenvalues must be Scalars")
            if lam.is_zero():
                raise RepSpecError("zero eigenvalue")
        d = len(eigenvalues)
        det = math.prod(eigenvalues[1:], start=eigenvalues[0])  # det(A)
        if family == CLASSIFIED:
            if not 2 <= d <= 5:
                raise RepSpecError(f"classified family needs 2..5 eigenvalues, got {d}")
            if d <= 3:
                if root_param is not None:
                    raise RepSpecError("root parameter only applies to dim 4 and 5")
            else:
                if root_param is None:
                    raise RepSpecError(f"dim {d} needs a root parameter")
                if not isinstance(root_param, Scalar):
                    raise RepSpecError("root parameter must be a Scalar")
                if root_param.is_zero():
                    raise RepSpecError("zero root parameter")
                if d == 4:
                    l1, l2, l3, l4 = eigenvalues
                    if root_param ** 2 != l2 * l3 / (l1 * l4):
                        raise RepSpecError("root parameter squared must equal l2*l3/(l1*l4)")
                else:
                    if root_param ** 5 != det:
                        raise RepSpecError("root parameter to the 5th must equal the eigenvalue product")
        elif family == BINOMIAL:
            if not MIN_DIM <= d <= MAX_DIM:
                raise RepSpecError(f"binomial family supports sizes {MIN_DIM}..{MAX_DIM}, got {d}")
            if root_param is not None:
                raise RepSpecError("binomial family takes no root parameter")
            c = eigenvalues[0] * eigenvalues[-1]
            for i in range(d):
                if eigenvalues[i] * eigenvalues[d - 1 - i] != c:
                    raise RepSpecError("opposite parameters must have constant product")
        else:
            raise RepSpecError(f"unknown family {family!r}")
        # every family inverts det(A); under a reducible modulus a zero
        # divisor among the eigenvalues raises ZeroDivisorError here
        det.inv()
        self.family = family
        self.dim = d
        self.field = eigenvalues[0].field
        self.eigenvalues = eigenvalues
        self.root_param = root_param
        self.det = det


class Rep:
    """A matrix pair together with the spec that produced (or describes) it."""

    __slots__ = ("spec", "A", "B")

    def __init__(self, spec, a, b):
        if a.dim != spec.dim or b.dim != spec.dim:
            raise RepSpecError("matrix size does not match spec dimension")
        self.spec = spec
        self.A = a
        self.B = b

    @property
    def dim(self):
        return self.spec.dim

    @property
    def field(self):
        return self.spec.field


_SYMBOLIC_NAMES = {
    2: ("l1", "l2"),
    3: ("l1", "l2", "l3"),
    4: ("l1", "l2", "l3", "D"),
    5: ("l1", "l2", "l3", "l4", "g"),
}


def symbolic_classified_spec(d):
    """Fully symbolic spec for the classified family.

    Free variables: d=2,3 all eigenvalues; d=4 (l1,l2,l3,D) with l4
    eliminated via the root constraint; d=5 (l1..l4,g) with l5 eliminated.
    """
    if d not in _SYMBOLIC_NAMES:
        raise RepSpecError(f"no classified family in dimension {d}")
    names = _SYMBOLIC_NAMES[d]
    field = SymbolicField(VarContext(names))
    values = [field.var(n) for n in names]
    if d <= 3:
        return RepSpec(CLASSIFIED, values)
    return solved_classified_spec(values[:-1], values[-1])


def solved_classified_spec(eigenvalues, root):
    """Classified spec in dimension 4 or 5 from its first d-1 eigenvalues and
    the root parameter; the last eigenvalue is solved from the root
    constraint, l4 = l2*l3/(l1*D^2) or l5 = g^5/(l1*l2*l3*l4)."""
    eigenvalues = list(eigenvalues)
    if len(eigenvalues) == 3:
        l1, l2, l3 = eigenvalues
        eigenvalues.append(l2 * l3 / (l1 * root ** 2))
    else:
        l1, l2, l3, l4 = eigenvalues
        eigenvalues.append(root ** 5 / (l1 * l2 * l3 * l4))
    return RepSpec(CLASSIFIED, eigenvalues, root_param=root)


def build_rep(spec):
    """Construct the explicit matrix pair for a classified spec."""
    if spec.family != CLASSIFIED:
        raise RepSpecError("build_rep expects a classified spec; use build_binomial_rep")
    field = spec.field
    z = field.zero
    eigs = spec.eigenvalues
    d = spec.dim
    if d == 2:
        l1, l2 = eigs
        a = SquareMatrix(field, [[l1, l1], [z, l2]])
        b = SquareMatrix(field, [[l2, z], [-l2, l1]])
    elif d == 3:
        l1, l2, l3 = eigs
        top = l1 * l3 / l2 + l2
        a = SquareMatrix(field, [
            [l1, top, l2],
            [z, l2, l2],
            [z, z, l3],
        ])
    elif d == 4:
        l1, l2, l3, l4 = eigs
        dd = spec.root_param
        di = dd ** -1
        a = SquareMatrix(field, [
            [l1, (1 + di + di ** 2) * l2, (1 + di + di ** 2) * l3, l4],
            [z, l2, (1 + di) * l3, l4],
            [z, z, l3, l4],
            [z, z, z, l4],
        ])
        b = SquareMatrix(field, [
            [l4, z, z, z],
            [-l3, l3, z, z],
            [dd * l2, -(dd + 1) * l2, l2, z],
            [-dd ** 3 * l1, (dd ** 3 + dd ** 2 + dd) * l1, -(dd ** 2 + dd + 1) * l1, l1],
        ])
    else:
        l1, l2, l3, l4, l5 = eigs
        g = spec.root_param
        a15 = g ** 3 / (l1 * l5)
        a34 = a15 + l3
        a24 = a15 + l3 + g
        a23 = g + l3 + g ** 2 / l3
        a14 = (l2 * l4 / g ** 2 + 1) * (l3 + g ** 3 / (l2 * l4))
        a12 = (1 + g ** 2 / (l2 * l4)) * (l2 + g ** 3 / (l3 * l4))
        a13 = (g ** 2 / l3 + l3 + g) * (1 + l1 * l5 / g ** 2)
        a = SquareMatrix(field, [
            [l1, a12, a13, a14, a15],
            [z, l2, a23, a24, a15],
            [z, z, l3, a34, a15],
            [z, z, z, l4, l4],
            [z, z, z, z, l5],
        ])
    if d % 2 == 1:
        # B is forced by the skew symmetry b_ij = (-1)^(i+j) a_(bar i, bar j),
        # which holds exactly in the odd dimensions 3 and 5 (radical-free there)
        b = SquareMatrix.from_function(
            field, d,
            lambda i, j: (-1) ** (i + j) * a.entry(d + 1 - i, d + 1 - j),
        )
    return Rep(spec, a, b)


def build_binomial_rep(params):
    """Binomial-coefficient family on size = len(params) basis vectors.

    params is lambda_0..lambda_{size-1} with lambda_i*lambda_{bar i} constant
    (RepSpec checks it), bar i = size-1-i.  A_ij = C(bar i, bar j) lambda_j, B_ij =
    (-1)^(i+j) C(i, j) lambda_{bar i} with 0-based indices.
    """
    spec = RepSpec(BINOMIAL, params)
    params, field, size = spec.eigenvalues, spec.field, spec.dim
    n = size - 1

    def a_entry(i, j):
        # 1-based from SquareMatrix; shift to the 0-based convention
        i, j = i - 1, j - 1
        return field.const(math.comb(n - i, n - j)) * params[j]

    def b_entry(i, j):
        i, j = i - 1, j - 1
        return field.const((-1) ** (i + j) * math.comb(i, j)) * params[n - i]

    a = SquareMatrix.from_function(field, size, a_entry)
    b = SquareMatrix.from_function(field, size, b_entry)
    return Rep(spec, a, b)


def verify_braid(rep):
    return rep.A * rep.B * rep.A == rep.B * rep.A * rep.B


def verify_ordered_triangular(rep):
    """A upper triangular with eigenvalue i at (i,i); B lower with the reverse."""
    a, b, d = rep.A, rep.B, rep.dim
    eigs = rep.spec.eigenvalues
    return (
        all(a.entry(i, i) == eigs[i - 1] for i in range(1, d + 1))
        and all(b.entry(i, i) == eigs[d - i] for i in range(1, d + 1))
        and a.zero_outside(lambda i, j: i <= j)
        and b.zero_outside(lambda i, j: i >= j)
    )


class StructureReport:
    """Outcome of the structural identity checks on a braid pair.

    sigma_i denotes (ABA)_{i, bar i}.  All identity checks are stated in the
    rescaling-invariant form, so they hold for any valid basis choice:

      skew_diag_ok   ABA has zero entries off the skew diagonal
      delta          the scalar with (ABA)^2 = delta * I
      delta_power_ok delta^d = det(A)^6
      b_symmetry_ok  sigma_j * b_ij = sigma_i * a_{bar i, bar j}
      ba_skew_ok     lambda_i * (BA)_{i, bar i} = sigma_i
      ba_zero_ok     (BA)_{ij} = 0 whenever i+j > d+1
      corner_ok      a_{1d} * lambda_1 * lambda_d = sigma_1

    strict_symmetry reports whether the stronger per-entry form
    b_ij = (-1)^(i+j) a_{bar i, bar j} holds verbatim; it does for the odd
    dimensions built here and fails for the even-dimensional normalizations,
    whose basis scaling absorbs a square root.  sign_pattern_ok checks, for
    symbolic input only, that each sigma_i is a single Laurent term and the
    coefficient signs alternate relative to sigma_1; on specialized input it
    is None (the sign pattern is not basis-invariant there).
    """

    # in the order of the JSON keys
    __slots__ = (
        "braid_ok", "triangular_ok", "skew_diag_ok", "sigma",
        "delta", "delta_power_ok", "b_symmetry_ok", "ba_skew_ok",
        "ba_zero_ok", "corner_ok", "strict_symmetry", "sign_pattern_ok",
    )

    def all_ok(self):
        core = (
            self.braid_ok, self.triangular_ok, self.skew_diag_ok,
            self.delta_power_ok, self.b_symmetry_ok, self.ba_skew_ok,
            self.ba_zero_ok, self.corner_ok,
        )
        if not all(core):
            return False
        return self.sign_pattern_ok is not False

    def to_json_dict(self):
        out = {name: getattr(self, name) for name in self.__slots__}
        out["sigma"] = self.sigma.render()
        out["delta"] = self.delta.render()
        return out


def structure_report(rep):
    """Run every structural check; raises if the braid relation fails."""
    a, b, d = rep.A, rep.B, rep.dim
    # one ABA and one BA serve the braid check and the reads below
    aba = a * b * a
    ba = b * a
    if aba != ba * b:
        raise ValueError("braid relation fails; no structure to report")
    field = rep.field
    eigs = rep.spec.eigenvalues
    report = StructureReport()
    report.braid_ok = True
    report.triangular_ok = verify_ordered_triangular(rep)

    report.skew_diag_ok = aba.zero_outside(lambda i, j: i + j == d + 1)
    sigmas = [aba.entry(i, d + 1 - i) for i in range(1, d + 1)]
    report.sigma = sigmas[0]

    delta = (aba * aba).scalar_value()
    if delta is None:
        raise ValueError("ABA squared is not scalar")
    report.delta = delta
    report.delta_power_ok = delta ** d == a.det() ** 6

    report.b_symmetry_ok = all(
        sigmas[j - 1] * b.entry(i, j) == sigmas[i - 1] * a.entry(d + 1 - i, d + 1 - j)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
    )
    report.strict_symmetry = all(
        b.entry(i, j) == (-1) ** (i + j) * a.entry(d + 1 - i, d + 1 - j)
        for i in range(1, d + 1)
        for j in range(1, d + 1)
    )

    report.ba_skew_ok = all(
        eigs[i - 1] * ba.entry(i, d + 1 - i) == sigmas[i - 1] for i in range(1, d + 1)
    )
    report.ba_zero_ok = ba.zero_outside(lambda i, j: i + j <= d + 1)
    report.corner_ok = a.entry(1, d) * eigs[0] * eigs[d - 1] == sigmas[0]

    report.sign_pattern_ok = None
    if isinstance(field, SymbolicField):
        signs = []
        for s in sigmas:
            num, den = s.value
            if not den.is_one() or len(num.terms) != 1:
                signs = None
                break
            coeff = next(iter(num.terms.values()))
            signs.append(1 if coeff > 0 else -1)
        if signs is None:
            report.sign_pattern_ok = False
        else:
            report.sign_pattern_ok = all(
                signs[i] == signs[0] * (-1) ** i for i in range(d)
            )
    return report


def rescale_basis(rep, diag):
    """Conjugate by diag(diag); entries must be nonzero and palindromic."""
    diag = list(diag)
    d = rep.dim
    if len(diag) != d:
        raise ValueError("need one scale per basis vector")
    for i in range(d):
        x = diag[i]
        if not isinstance(x, Scalar) or x.is_zero():
            raise ValueError("scales must be nonzero Scalars")
        if x != diag[d - 1 - i]:
            raise ValueError("scales must be palindromic")

    def conj(m):
        return SquareMatrix.from_function(
            rep.field, d,
            lambda i, j: diag[i - 1] * m.entry(i, j) / diag[j - 1],
        )

    return Rep(rep.spec, conj(rep.A), conj(rep.B))


# --- serialization -----------------------------------------------------------

def rep_to_json_dict(rep):
    field = rep.field
    out = {
        "dim": rep.dim,
        "family": rep.spec.family,
        "variables": list(field.context.names) if isinstance(field, SymbolicField) else [],
    }
    if isinstance(field, NumberField):
        out["modulus"] = field.modulus_render()
    out["eigenvalues"] = [lam.render() for lam in rep.spec.eigenvalues]
    out["root_param"] = rep.spec.root_param.render() if rep.spec.root_param is not None else None
    out["A"] = rep.A.render()
    out["B"] = rep.B.render()
    return out


def rep_from_json_dict(data):
    """The Rep of a decoded JSON object.  An absent or null variables means
    none, and an absent, null or empty modulus means Q.  Refused with a
    ValueError that names the field: a missing family, dim, eigenvalues, A
    or B; a dim that is not a JSON integer; a non-list where a list belongs
    (variables, eigenvalues, A, B or a matrix row); a non-string variable,
    modulus, eigenvalue, root_param or matrix entry; a modulus beside a
    non-empty variables."""
    if not isinstance(data, dict):
        raise ValueError("the top level must be an object")
    for key in ("family", "dim", "eigenvalues", "A", "B"):
        if key not in data:
            raise ValueError("missing field %r" % key)
    variables = data.get("variables")
    variables = [] if variables is None else _listed(variables, "variables")
    modulus = data.get("modulus")
    if variables and modulus not in (None, ""):
        raise ValueError("modulus must be empty when variables are given")
    if variables:
        field = SymbolicField(VarContext(tuple(_text(v, "a variable") for v in variables)))
    elif modulus not in (None, ""):
        field = NumberField.from_modulus_string(_text(modulus, "modulus"))
    else:
        field = RationalField()
    eigs = [field.parse(_text(s, "an eigenvalue"))
            for s in _listed(data["eigenvalues"], "eigenvalues")]
    root = data.get("root_param")
    root = None if root in (None, "") else field.parse(_text(root, "root_param"))
    spec = RepSpec(data["family"], eigs, root_param=root)
    if type(data["dim"]) is not int:  # a bool is an int to isinstance
        raise ValueError("dim must be an integer")
    if spec.dim != data["dim"]:
        raise RepSpecError("dimension does not match eigenvalue count")
    a, b = (
        [[field.parse(_text(s, "an entry of " + key)) for s in _listed(row, key + " row")]
         for row in _listed(data[key], key)]
        for key in ("A", "B")
    )
    return Rep(spec, SquareMatrix(field, a), SquareMatrix(field, b))


def _listed(value, what):
    """value, refused with ValueError unless it is a JSON list."""
    if not isinstance(value, list):
        raise ValueError("%s must be a list" % what)
    return value


def _text(value, what):
    """value, refused with ValueError unless it is a JSON string."""
    if not isinstance(value, str):
        raise ValueError("%s must be a string" % what)
    return value


def rep_from_json(text):
    return rep_from_json_dict(json.loads(text))
