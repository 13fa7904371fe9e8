"""Tests for the two-route summand dimension verifier.

The projector route is the arbiter here: the partition of (dim Z)^2 into
summand dimensions is checked inside verify_series independently of the
catalog, so when a catalog entry disagrees with the route the catalog is
what is off.  These tests freeze the observed agreement pattern and the
exact corrected expressions the route produces.
"""

from fractions import Fraction
import hashlib
import json
import random

import pytest

from braidrep import dims
from braidrep.dims import (
    BCD_SUMMANDS,
    EXCEPTIONAL_CATALOG,
    bcd_context,
    bcd_dims,
    bracket_product,
    exceptional_context,
    exceptional_dims,
    partition_holds,
    route_table,
    summand_dim,
    verify_series,
)
from braidrep.factored import FactoredField
from braidrep.fields import LaurentPolynomial, RationalField, SymbolicField
from braidrep.reps import CLASSIFIED, RepSpec
from braidrep.samplers import random_classified_spec, small_fraction


Q = RationalField()


# ---------------------------------------------------------------------------
# bracket ring basics


def test_bracket_antisymmetry():
    ctx = bcd_context()
    for n, lam in ((1, 0), (3, 0), (2, 1), (-4, 2)):
        assert ctx.bracket(-n, -lam) == -ctx.bracket(n, lam)
    assert ctx.bracket(0).is_zero()


def test_bracket_splits_as_product_of_generators():
    ctx = exceptional_context()
    u, w = ctx.base, ctx.weight
    assert ctx.bracket(3, 2) == w ** 2 * u ** 3 - w ** -2 * u ** -3


# ---------------------------------------------------------------------------
# orthogonal/symplectic series


def test_bcd_dims_rejects_non_unit_alpha_squared():
    ctx = bcd_context()
    two = ctx.field.one + ctx.field.one
    with pytest.raises(ValueError):
        bcd_dims(ctx, two)


def test_bcd_dimz_flips_with_alpha_squared():
    ctx = bcd_context()
    one = ctx.field.one
    dim_z_plus, x_plus, y_plus = bcd_dims(ctx, one)
    dim_z_minus, x_minus, y_minus = bcd_dims(ctx, -one)
    assert dim_z_minus == -dim_z_plus
    assert x_minus == x_plus
    assert y_minus == y_plus


def report_sha256(reports):
    """sha256 of the reports as `braidrep dims` prints them in JSON."""
    text = json.dumps([r.to_json_dict() for r in reports], indent=2) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_verify_bcd_both_summands_match():
    reports = verify_series("bcd")
    assert [r.summand for r in reports] == list(BCD_SUMMANDS)
    for report in reports:
        assert report.equal is True
        assert report.gamma is None
        assert report.sign_flip is False
    assert report_sha256(reports) == (
        "9e9c6129e85a7c66c128168acb87e3365aeeb6d93e806e37b1c38252e010f535"
    )


def test_verify_bcd_expands_only_the_shown_sign(monkeypatch):
    # the alpha^2 = -1 pass is checked on factored values and never shown,
    # so the expanded series is formed once, at alpha^2 = 1
    real = dims.bcd_dims
    calls = []

    def recording(ctx, alpha_sq):
        calls.append((type(ctx.field).__name__, alpha_sq == ctx.field.one))
        return real(ctx, alpha_sq)

    monkeypatch.setattr(dims, "bcd_dims", recording)
    reports = verify_series("bcd")
    assert sorted(calls) == [("FactoredField", False), ("FactoredField", True),
                             ("SymbolicField", True)]
    assert [(r.equal, r.sign_flip) for r in reports] == [(True, False)] * 2
    assert report_sha256(reports) == (
        "9e9c6129e85a7c66c128168acb87e3365aeeb6d93e806e37b1c38252e010f535"
    )


def test_verify_bcd_checks_the_partition_of_dimz_squared(monkeypatch):
    # Doubling dim Z scales both summands by four for either sign of
    # alpha^2, so the sign check still passes; only 1 + X + Y = (dim Z)^2
    # catches it.
    real = dims.bcd_dims

    def doubled(ctx, alpha_sq):
        dim_z, dim_x, dim_y = real(ctx, alpha_sq)
        return dim_z + dim_z, dim_x, dim_y

    monkeypatch.setattr(dims, "bcd_dims", doubled)
    with pytest.raises(RuntimeError, match="square of dim Z"):
        verify_series("bcd")


def negating_bcd_catalog(monkeypatch, negate):
    real = dims.bcd_dims

    def negated(ctx, alpha_sq):
        dim_z, *closed = real(ctx, alpha_sq)
        return (dim_z, *(-v if k in negate else v for k, v in enumerate(closed)))

    monkeypatch.setattr(dims, "bcd_dims", negated)


def test_sign_flip_engages_when_every_negated_route_matches(monkeypatch):
    negating_bcd_catalog(monkeypatch, {0, 1})
    reports = verify_series("bcd")
    assert [(r.equal, r.sign_flip) for r in reports] == [(True, True)] * 2
    for report in reports:
        assert report.route_a == report.route_b
        assert report.to_json_dict()["convention"]["sign_flip"] is True


def test_sign_flip_never_engages_partially(monkeypatch):
    negating_bcd_catalog(monkeypatch, {1})
    reports = verify_series("bcd")
    assert [(r.equal, r.sign_flip) for r in reports] == [(True, False), (False, False)]


# ---------------------------------------------------------------------------
# exceptional series: frozen agreement pattern


@pytest.fixture(scope="module")
def exceptional_reports():
    return verify_series("exceptional")


def test_verify_exceptional_agreement_pattern(exceptional_reports):
    flags = [(r.summand, r.equal) for r in exceptional_reports]
    assert flags == [
        ("adjoint", False),
        ("alternating_complement", True),
        ("symmetric", False),
        ("symmetric_dual", False),
    ]


def test_verify_exceptional_convention(exceptional_reports):
    for report in exceptional_reports:
        assert report.gamma.render() == "u^4"
        assert report.sign_flip is False


def test_verify_exceptional_bytes(exceptional_reports):
    assert report_sha256(exceptional_reports) == (
        "a185d4c6d37d604be1d9584c6da49b15a4d6de09b878782b1a67bce4e6e950a5"
    )


def test_report_json_shape(exceptional_reports):
    data = exceptional_reports[0].to_json_dict()
    assert list(data) == ["summand", "route_a", "route_b", "equal", "convention"]
    assert list(data["convention"]) == ["gamma", "sign_flip"]
    assert data["convention"]["gamma"] == "u^4"
    assert data["convention"]["sign_flip"] is False
    bcd_data = verify_series("bcd")[0].to_json_dict()
    assert bcd_data["convention"]["gamma"] is None
    assert bcd_data["equal"] is True


def test_verify_series_rejects_unknown_series():
    with pytest.raises(ValueError):
        verify_series("foo")


# ---------------------------------------------------------------------------
# exceptional series: what the route actually equals


def exceptional_spec(ctx):
    u, w = ctx.base, ctx.weight
    return RepSpec(
        CLASSIFIED,
        [u ** 12, -(u ** 6), -ctx.field.one, w ** 2, u ** 2 * w ** -2],
        root_param=u ** 4,
    )


def test_route_table_coefficients_are_exact():
    # no int / int division reaches a coefficient as a float on either series
    bcd = bcd_context()
    specs = [
        RepSpec(CLASSIFIED, [bcd.weight ** -1, -(bcd.base ** -1), bcd.base]),
        exceptional_spec(exceptional_context()),
    ]
    for spec in specs:
        p, q1 = route_table(spec)
        for value in [*p.values(), *q1.values()]:
            for poly in value.value:
                assert all(type(c) in (int, Fraction) for c in poly.terms.values())


@pytest.fixture(scope="module")
def exceptional_routes(exceptional_reports):
    # sign_flip is False (frozen above), so route_a is the route itself
    return exceptional_context(), [r.route_a for r in exceptional_reports]


def test_route_self_summand_reproduces_dimz(exceptional_routes):
    ctx, routes = exceptional_routes
    table = route_table(exceptional_spec(ctx))
    assert summand_dim(table, routes[0], 2) == routes[0]


def test_route_disagreements_are_signs_except_the_dual(exceptional_routes):
    # Three of the catalog entries are off by exactly a global sign; the
    # route recovers them as their negatives.
    ctx, routes = exceptional_routes
    catalog = exceptional_dims(ctx)
    assert routes[0] == -catalog[0]
    assert routes[1] == catalog[1]
    assert routes[2] == -catalog[2]
    assert routes[3] != catalog[3]
    assert routes[3] != -catalog[3]


def test_route_dual_summand_compact_form(exceptional_routes):
    # The dual symmetric summand disagrees with its catalog entry by
    # more than a sign; the route value collapses to this bracket
    # product instead.
    ctx, routes = exceptional_routes
    br = ctx.bracket
    corrected = -(
        br(6) * br(5) * br(4) * br(-6, 1) * br(3, 1) * br(3, 3)
        / (br(2) * br(-1, 1) * br(0, 1) * br(-2, 2) * br(-1, 2) * br(1, 1))
    )
    assert routes[3] == corrected


# ---------------------------------------------------------------------------
# catalog structure: balance and inversion invariance


def test_catalog_bracket_counts_balance():
    for name, num, den in EXCEPTIONAL_CATALOG:
        assert len(num) == len(den), name


def test_catalog_invariant_under_generator_inversion():
    # Substituting inverses for both generators negates every bracket,
    # and balanced counts make each ratio invariant.
    ctx = exceptional_context()
    for name, num, den in EXCEPTIONAL_CATALOG:
        flip_num = [(-n, -lam) for n, lam in num]
        flip_den = [(-n, -lam) for n, lam in den]
        assert (
            bracket_product(ctx, flip_num) * bracket_product(ctx, den)
            == bracket_product(ctx, num) * bracket_product(ctx, flip_den)
        ), name


# ---------------------------------------------------------------------------
# route building blocks


def test_route_table_rejects_repeated_eigenvalues():
    repeated = RepSpec(CLASSIFIED, [Q.const(1), Q.const(1), Q.const(2)])
    with pytest.raises(ValueError, match="distinct"):
        route_table(repeated)


def test_route_table_entries_on_rational_inputs():
    # P_i(l_i) = prod over j != i of (l_i - l_j); Q_1i as in test_classify
    p, q1 = route_table(RepSpec(CLASSIFIED, [Q.const(1), Q.const(2), Q.const(3)]))
    assert p == {1: Q.const(2), 2: Q.const(-1), 3: Q.const(2)}
    assert q1 == {2: Q.const(49), 3: Q.const(77)}
    assert summand_dim((p, q1), Q.const(2), 3) == Q.const(77)


def test_exceptional_refuses_vanishing_pair_scalar(monkeypatch):
    real = dims.q_scalars

    def vanishing_at_three(spec, pairs):
        q = real(spec, pairs)
        q[1, 3] = spec.field.zero
        return q

    monkeypatch.setattr(dims, "q_scalars", vanishing_at_three)
    with pytest.raises(RuntimeError, match="pair scalar vanished"):
        verify_series("exceptional")


def test_exceptional_partition_catches_a_corrupted_summand(monkeypatch):
    # a doubled Q_13 leaves every pair scalar nonzero and changes only
    # the route of one summand, so only the partition check can see it
    real = dims.q_scalars

    def doubled_at_three(spec, pairs):
        q = real(spec, pairs)
        q[1, 3] = q[1, 3] + q[1, 3]
        return q

    monkeypatch.setattr(dims, "q_scalars", doubled_at_three)
    with pytest.raises(RuntimeError, match="square of dim Z"):
        verify_series("exceptional")


@pytest.mark.parametrize("d", [3, 4, 5])
def test_partition_holds_matches_the_direct_sum(d):
    # Over Q the direct identity 1 + sum of dims = (dim Z)^2 is cheap.  A
    # sampled table rarely admits a rational dim Z, so P_1(l_1) is reset
    # to the value z^2 S / (z^2 - 1), S = sum of Q_1i / P_i(l_i), that
    # makes a sampled z the true dim Z; 2z is then a false one.
    rng = random.Random(d)
    checked = 0
    while checked < 4:
        spec = random_classified_spec(d, rng)
        z = Q.const(small_fraction(rng))
        if len({lam.value for lam in spec.eigenvalues}) < d or z * z == Q.one:
            continue
        table = p, q1 = route_table(spec)
        tail = sum((q / p[i] for i, q in q1.items()), Q.zero)
        if tail.is_zero():
            continue
        p[1] = z * z * tail / (z * z - Q.one)
        checked += 1
        for dim_z, holds in ((z, True), (z + z, False)):
            direct = Q.one + sum(
                (summand_dim(table, dim_z, i) for i in q1), Q.zero
            ) == dim_z * dim_z
            assert partition_holds(table, dim_z) == direct == holds


# ---------------------------------------------------------------------------
# the factored checks against the expanded backend


def both_backends():
    """(factored, symbolic) values of the exceptional series and of the bcd
    series at alpha^2 = 1 and -1."""
    exact = [dims._exceptional_values(FactoredField), *dims._bcd_values(FactoredField)]
    shown = [dims._exceptional_values(SymbolicField), *dims._bcd_values(SymbolicField)]
    return list(zip(exact, shown))


def test_factored_checks_agree_with_symbolic_equality():
    for exact, shown in both_backends():
        for a, b, sa, sb in zip(exact.routes, exact.catalog, shown.routes, shown.catalog):
            assert (a == b) == (sa == sb)
            assert (-a == b) == (-sa == sb)
            assert (a == -b) == (sa == -sb)
        assert partition_holds(exact.table, exact.dim_z)
        assert partition_holds(shown.table, shown.dim_z)
        for dim_z, shown_dim_z in ((-exact.dim_z, -shown.dim_z),
                                   (exact.dim_z + exact.dim_z, shown.dim_z + shown.dim_z)):
            assert partition_holds(exact.table, dim_z) == partition_holds(shown.table, shown_dim_z)
        assert not partition_holds(exact.table, exact.dim_z + exact.dim_z)


def test_exceptional_checks_form_no_laurent_product(monkeypatch):
    # The partition check expands its sums; once it has passed, the four
    # catalog equalities, the sign-flip test and the mismatch lines compare
    # factored maps only.
    real = dims.partition_holds

    def forbidden(self, other):
        raise AssertionError("a LaurentPolynomial product was formed")

    def then_forbid(table, dim_z):
        holds = real(table, dim_z)
        monkeypatch.setattr(LaurentPolynomial, "__mul__", forbidden)
        return holds

    exact = dims._exceptional_values(FactoredField)
    monkeypatch.setattr(dims, "partition_holds", then_forbid)
    reports = verify_series("exceptional")
    assert [r.equal for r in reports] == [False, True, False, False]
    assert [-a == b for a, b in zip(exact.routes, exact.catalog)] == [True, False, True, False]
    assert all(r.mismatch() for r in reports if not r.equal)
