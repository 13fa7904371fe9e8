"""Builders, braid relation, and structural identities for both families."""

from fractions import Fraction
import json
import random
import tracemalloc

import pytest

from braidrep.classify import delta_from_spec
from braidrep.fields import RationalField, SymbolicField, VarContext, cyclotomic_field
from braidrep.matrices import SquareMatrix
from braidrep.reps import (
    BINOMIAL,
    CLASSIFIED,
    Rep,
    RepSpec,
    RepSpecError,
    build_binomial_rep,
    build_rep,
    rep_from_json,
    rep_to_json_dict,
    rescale_basis,
    structure_report,
    symbolic_classified_spec,
    verify_braid,
    verify_ordered_triangular,
)
from braidrep.samplers import random_classified_spec, small_fraction

from helpers import random_binomial_params
from oracles import binomial_identity_check, verify_lemma_identities, verify_skew_criterion


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_symbolic_build_satisfies_braid(d):
    spec = symbolic_classified_spec(d)
    rep = build_rep(spec)
    assert verify_braid(rep)
    assert verify_ordered_triangular(rep)


def test_braid_failure_detected():
    q = RationalField()
    spec = RepSpec(CLASSIFIED, [q.one, q.one])
    a = SquareMatrix(q, [[q.one, q.one], [q.zero, q.one]])
    rep = Rep(spec, a, SquareMatrix.identity(q, 2))
    assert not verify_braid(rep)
    with pytest.raises(ValueError):
        structure_report(rep)


def test_triangular_check_rejects_mismatch():
    q = RationalField()
    spec = RepSpec(CLASSIFIED, [q.one, q.const(2)])
    ident = SquareMatrix.identity(q, 2)
    rep = Rep(spec, ident, ident)
    assert not verify_ordered_triangular(rep)


class TestStructureSymbolic:
    """Frozen structural values for the four symbolic builds.

    Each also equates the report's delta with delta_from_spec.  The identity
    holds in the generic Laurent ring, and build_rep divides only by
    monomials in the parameters, which RepSpec keeps invertible; so it holds on
    every specialization, and these four checks prove the closed form.
    """

    def test_dim2(self):
        spec = symbolic_classified_spec(2)
        field = spec.field
        rep = build_rep(spec)
        r = structure_report(rep)
        l1, l2 = field.var("l1"), field.var("l2")
        assert r.skew_diag_ok and r.ba_skew_ok and r.ba_zero_ok
        assert r.b_symmetry_ok and r.corner_ok and r.delta_power_ok
        assert r.sigma == l1 ** 2 * l2
        assert r.delta == -((l1 * l2) ** 3)
        assert r.delta == delta_from_spec(spec)
        assert r.sign_pattern_ok is True
        # the printed normalization absorbs a square root: per-entry symmetry fails
        assert r.strict_symmetry is False

    def test_dim3(self):
        spec = symbolic_classified_spec(3)
        field = spec.field
        rep = build_rep(spec)
        r = structure_report(rep)
        prod = field.var("l1") * field.var("l2") * field.var("l3")
        assert r.all_ok()
        assert r.sigma == prod
        assert r.delta == prod ** 2
        assert r.delta == delta_from_spec(spec)
        assert r.strict_symmetry is True

    def test_dim4(self):
        spec = symbolic_classified_spec(4)
        field = spec.field
        rep = build_rep(spec)
        r = structure_report(rep)
        gsq = field.var("l2") * field.var("l3") / field.var("D")
        assert r.all_ok()
        assert r.delta == -(gsq ** 3)
        assert r.delta == delta_from_spec(spec)
        assert r.strict_symmetry is False
        assert r.sign_pattern_ok is True

    def test_dim5(self):
        spec = symbolic_classified_spec(5)
        field = spec.field
        rep = build_rep(spec)
        r = structure_report(rep)
        g = field.var("g")
        assert r.all_ok()
        assert r.sigma == g ** 3
        assert r.delta == g ** 6
        assert r.delta == delta_from_spec(spec)
        assert r.strict_symmetry is True


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_specialized_builds(d):
    rng = random.Random(900 + d)
    for _ in range(3):
        spec = random_classified_spec(d, rng, bound=5)
        rep = build_rep(spec)
        assert verify_braid(rep)
        assert verify_ordered_triangular(rep)
        r = structure_report(rep)
        assert r.skew_diag_ok and r.b_symmetry_ok and r.ba_skew_ok
        assert r.ba_zero_ok and r.corner_ok and r.delta_power_ok
        assert r.sign_pattern_ok is None  # not defined away from symbolic input


def test_spec_validation_errors():
    q = RationalField()
    with pytest.raises(RepSpecError):
        RepSpec(CLASSIFIED, [q.one, q.zero])
    with pytest.raises(RepSpecError):
        RepSpec(CLASSIFIED, [q.one] * 6)
    with pytest.raises(RepSpecError):
        RepSpec(CLASSIFIED, [q.one] * 4)  # missing root parameter
    with pytest.raises(RepSpecError):
        RepSpec(CLASSIFIED, [q.one] * 4, root_param=q.const(3))  # 9 != 1
    with pytest.raises(RepSpecError):
        RepSpec(CLASSIFIED, [q.one] * 5, root_param=q.const(2))  # 32 != 1
    with pytest.raises(RepSpecError):
        RepSpec(CLASSIFIED, [q.one, q.one], root_param=q.one)
    with pytest.raises(RepSpecError):
        RepSpec(BINOMIAL, [q.one, q.const(2), q.one])  # 1*1 != 2*2
    with pytest.raises(RepSpecError, match=r"^binomial family supports sizes 2\.\.8, got 9$"):
        RepSpec(BINOMIAL, [q.one] * 9)
    with pytest.raises(RepSpecError):
        RepSpec("other", [q.one, q.one])
    # dim-4 root constraint satisfied -> accepted
    spec = RepSpec(CLASSIFIED, [q.one, q.const(2), q.const(2), q.one], root_param=q.const(2))
    assert spec.dim == 4


Q = RationalField()


@pytest.mark.parametrize("eigenvalues, root, message", [
    ([1, Q.one], None, "eigenvalues must be Scalars"),
    # the eigenvalues are checked in order, the field read after them all
    ([Q.zero, 1], None, "zero eigenvalue"),
    ([Q.one] * 4, 1, "root parameter must be a Scalar"),
    ([Q.one] * 5, 2.0, "root parameter must be a Scalar"),
])
def test_spec_refuses_a_parameter_that_is_not_a_scalar(eigenvalues, root, message):
    with pytest.raises(RepSpecError) as err:
        RepSpec(CLASSIFIED, eigenvalues, root_param=root)
    assert str(err.value) == message


def test_binomial_known_3x3():
    q = RationalField()
    l0, l1, l2 = q.const(4), q.const(2), q.const(1)
    rep = build_binomial_rep([l0, l1, l2])
    assert rep.A.render() == [["4", "4", "1"], ["0", "2", "1"], ["0", "0", "1"]]
    assert verify_braid(rep)
    assert verify_ordered_triangular(rep)


def test_binomial_2x2():
    q = RationalField()
    rep = build_binomial_rep([q.const(6), q.const(2)])
    assert rep.A.render() == [["6", "2"], ["0", "2"]]
    assert verify_braid(rep)


@pytest.mark.parametrize("size", [3, 4, 5, 6, 7, 8])
def test_binomial_sizes_braid(size):
    rng = random.Random(7000 + size)
    params, _ = random_binomial_params(size, rng, bound=5)
    rep = build_binomial_rep(params)
    assert verify_braid(rep)
    assert verify_ordered_triangular(rep)


def test_binomial_identity_through_12():
    for d in range(0, 13):
        assert binomial_identity_check(d)
    with pytest.raises(ValueError):
        binomial_identity_check(13)


def test_skew_criterion_recovers_smallest_rep():
    q = RationalField()
    a = SquareMatrix(q, [[q.one, q.one], [q.zero, q.one]])
    s = SquareMatrix(q, [[q.zero, q.one], [-q.one, q.zero]])
    assert verify_skew_criterion(a, s, -q.one)
    assert s * a * s.inverse() == SquareMatrix(q, [[q.one, q.zero], [-q.one, q.one]])
    # with the sign-free swap the conjugate pair genuinely breaks the braid
    # relation, so the criterion must refuse it
    swap = SquareMatrix(q, [[q.zero, q.one], [q.one, q.zero]])
    assert not verify_skew_criterion(a, swap, q.one)
    b_bad = swap * a * swap.inverse()
    assert a * b_bad * a != b_bad * a * b_bad


def test_skew_criterion_rejects_identity_pair():
    q = RationalField()
    ident = SquareMatrix.identity(q, 2)
    s = SquareMatrix(q, [[q.zero, q.one], [-q.one, q.zero]])
    assert not verify_skew_criterion(ident, s, -q.one)


def test_skew_criterion_validates_conjugator():
    q = RationalField()
    ident = SquareMatrix.identity(q, 2)
    with pytest.raises(ValueError):
        verify_skew_criterion(ident, ident, q.one)  # not skew-diagonal
    s = SquareMatrix(q, [[q.zero, q.one], [q.one, q.zero]])
    with pytest.raises(ValueError):
        verify_skew_criterion(ident, s, -q.one)  # s^2 != -1


def test_skew_criterion_requires_upper_triangular_first_matrix():
    q = RationalField()
    for d in range(2, 6):
        s = SquareMatrix.from_function(q, d, lambda i, j: q.one if i + j == d + 1 else q.zero)
        for i in range(1, d):
            # one entry just below the diagonal is refused, one just above is not
            below = SquareMatrix.from_function(
                q, d, lambda r, c: q.one if r == c or (r, c) == (i + 1, i) else q.zero
            )
            with pytest.raises(ValueError, match="upper triangular"):
                verify_skew_criterion(below, s, q.one)
            above = SquareMatrix.from_function(
                q, d, lambda r, c: q.one if r == c or (r, c) == (i, i + 1) else q.zero
            )
            assert verify_skew_criterion(above, s, q.one) in (True, False)


def test_skew_criterion_on_binomial_family():
    # the binomial pair comes from conjugating by the alternating skew matrix;
    # its square is (-1)^(size-1) times the constant
    rng = random.Random(11)
    for size in (3, 4, 5):
        params, c = random_binomial_params(size, rng, bound=5)
        rep = build_binomial_rep(params)
        field = rep.field
        n = size - 1

        def s_entry(i, j):
            i0, j0 = i - 1, j - 1
            if j0 != n - i0:
                return field.zero
            return field.const((-1) ** i0) * params[n - i0]

        s = SquareMatrix.from_function(field, size, s_entry)
        c_eff = field.const((-1) ** n) * c
        assert s * s == SquareMatrix.identity(field, size).scale(c_eff)
        assert verify_skew_criterion(rep.A, s, c_eff)
        assert s * rep.A * s.inverse() == rep.B


@pytest.mark.parametrize("d", [2, 3])
def test_lemma_identities_symbolic(d):
    spec = symbolic_classified_spec(d)
    rep = build_rep(spec)
    out = verify_lemma_identities(rep)
    assert out["conjugation_swaps"]
    assert out["quotient_identities"]
    assert out["center_scalar"]
    assert out["eigenvector_transport"] is True


@pytest.mark.parametrize("d", [4, 5])
def test_lemma_identities_specialized(d):
    rng = random.Random(40 + d)
    spec = random_classified_spec(d, rng, bound=5)
    rep = build_rep(spec)
    out = verify_lemma_identities(rep)
    assert out["conjugation_swaps"]
    assert out["quotient_identities"]
    assert out["center_scalar"]
    eigs = spec.eigenvalues
    distinct = all(
        eigs[i] != eigs[j] for i in range(d) for j in range(i + 1, d)
    )
    if distinct:
        assert out["eigenvector_transport"] is True
    else:
        assert out["eigenvector_transport"] is None


def test_rescale_preserves_structure():
    spec = symbolic_classified_spec(3)
    field = spec.field
    rep = build_rep(spec)
    two = field.const(2)
    scaled = rescale_basis(rep, [two, field.one, two])
    assert verify_braid(scaled)
    assert verify_ordered_triangular(scaled)
    before = structure_report(rep)
    after = structure_report(scaled)
    assert before.sigma == after.sigma
    assert before.delta == after.delta
    # conjugation by a palindromic diagonal leaves ABA itself unchanged
    assert rep.A * rep.B * rep.A == scaled.A * scaled.B * scaled.A


def test_rescale_validation():
    spec = symbolic_classified_spec(2)
    field = spec.field
    rep = build_rep(spec)
    with pytest.raises(ValueError):
        rescale_basis(rep, [field.one, field.const(2)])  # not palindromic
    with pytest.raises(ValueError):
        rescale_basis(rep, [field.zero, field.zero])
    same = rescale_basis(rep, [field.const(3), field.const(3)])
    assert same.A == rep.A and same.B == rep.B


def test_json_round_trip_symbolic():
    spec = symbolic_classified_spec(4)
    rep = build_rep(spec)
    text = json.dumps(rep_to_json_dict(rep), indent=2)
    back = rep_from_json(text)
    assert back.A == rep.A and back.B == rep.B
    assert back.spec.family == CLASSIFIED
    assert back.spec.root_param == spec.root_param
    assert json.dumps(rep_to_json_dict(back), indent=2) == text


def test_json_round_trip_rational_and_cyclotomic():
    q = RationalField()
    rng = random.Random(5)
    rep = build_rep(random_classified_spec(3, rng, bound=5))
    back = rep_from_json(json.dumps(rep_to_json_dict(rep), indent=2))
    assert back.A == rep.A and back.B == rep.B

    k = cyclotomic_field(6)
    zeta = k.gen
    spec = RepSpec(CLASSIFIED, [zeta, zeta * zeta])
    rep2 = build_rep(spec)
    text = json.dumps(rep_to_json_dict(rep2), indent=2)
    assert '"modulus"' in text
    back2 = rep_from_json(text)
    assert back2.A == rep2.A and back2.B == rep2.B


def test_json_round_trip_binomial():
    rng = random.Random(17)
    params, c = random_binomial_params(4, rng, bound=5)
    rep = build_binomial_rep(params)
    back = rep_from_json(json.dumps(rep_to_json_dict(rep), indent=2))
    assert back.A == rep.A and back.B == rep.B
    assert back.spec.family == BINOMIAL
    assert back.spec.eigenvalues[0] * back.spec.eigenvalues[-1] == c


def test_small_fraction_draws_what_a_choice_from_the_numerator_list_draws():
    for seed in range(4):
        for bound in range(1, 31):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(20):
                num = ref.choice([n for n in range(-bound, bound + 1) if n != 0])
                assert small_fraction(rng, bound) == Fraction(num, ref.randint(1, bound))
            assert rng.getstate() == ref.getstate()


def test_small_fraction_builds_no_list_of_numerators():
    rng = random.Random(5)
    small_fraction(rng, 10 ** 5)
    tracemalloc.start()
    try:
        small_fraction(rng, 10 ** 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
