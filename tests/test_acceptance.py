"""Acceptance suite: one test per criterion, one verdict line per run.

Every check is exact, zero tolerance; each test also enforces its wall
clock budget.  Seeds are fixed so every run sees the same instances.  One
test is expected to fail: the exceptional-series catalog comparison asks
for four exact matches and the catalog provides only one, which is a
property of the catalog itself; the frozen mismatch pattern and the
corrected closed forms are in test_dims.py.
"""

import io
import json
import random
import time

import pytest

from braidrep.classify import (
    burnside_oracle,
    deligne_check,
    hom_space_dim,
    is_simple,
    p_poly,
    q_from_spec,
    q_oracle,
    westbury_dims,
)
from braidrep.cli import main
from braidrep.dims import verify_series
from braidrep.fields import cyclotomic_field
from braidrep.matrices import RowSpace
from braidrep.reps import (
    CLASSIFIED,
    RepSpec,
    build_binomial_rep,
    build_rep,
    rescale_basis,
    structure_report,
    symbolic_classified_spec,
    verify_braid,
)
from braidrep.samplers import (
    central_unit_spec,
    degenerate_classified_spec,
    random_classified_spec,
    small_fraction,
)

from helpers import random_binomial_params, sample_simple_specs
from oracles import binomial_identity_check, char_poly, min_poly


DIMS = (2, 3, 4, 5)


def test_criterion_01_braid_relation_symbolic():
    """Free-parameter builds satisfy the braid relation in every dimension."""
    start = time.monotonic()
    for d in DIMS:
        spec = symbolic_classified_spec(d)
        assert verify_braid(build_rep(spec)), d
    assert time.monotonic() - start < 60


def test_criterion_02_structure_identities_symbolic():
    """Product identities of the pair hold exactly on the symbolic builds.

    The per-entry sign form of the B/A symmetry holds verbatim for the odd
    dimensions; the even-dimensional normalizations absorb a square root
    into the basis, so there it holds in the rescaling-covariant form
    checked by structure_report, with the alternating sign content carried
    by the sign pattern check.
    """
    start = time.monotonic()
    for d in DIMS:
        spec = symbolic_classified_spec(d)
        report = structure_report(build_rep(spec))
        assert report.skew_diag_ok, d
        assert report.delta_power_ok, d
        assert report.b_symmetry_ok, d
        assert report.ba_skew_ok, d
        assert report.ba_zero_ok, d
        assert report.corner_ok, d
        assert report.sign_pattern_ok is True, d
        if d in (3, 5):
            assert report.strict_symmetry, d
    assert time.monotonic() - start < 60


def test_criterion_03_pair_scalar_closed_form_vs_oracle():
    """Closed pair scalars equal the projector-product oracle.

    Symbolic in dimensions 2 and 3 for every ordered index pair, and on
    100 seeded rational specializations each for dimensions 4 and 5 (all
    index pairs per instance).  Equality is strict; no sign normalization
    is applied anywhere.
    """
    start = time.monotonic()
    for d in (2, 3):
        spec = symbolic_classified_spec(d)
        rep = build_rep(spec)
        for r in range(1, d + 1):
            for s in range(1, d + 1):
                if r != s:
                    assert q_oracle(rep, r, s) == q_from_spec(spec, r, s), (d, r, s)
    for d in (4, 5):
        rng = random.Random(300 + d)
        done = 0
        while done < 100:
            spec = random_classified_spec(d, rng)
            rep = build_rep(spec)
            try:
                for r in range(1, d + 1):
                    for s in range(r + 1, d + 1):
                        assert q_oracle(rep, r, s) == q_from_spec(spec, r, s), (d, r, s)
            except ValueError:
                continue  # a projector value vanished; not a comparable instance
            done += 1
    assert time.monotonic() - start < 120


def test_criterion_04_classifier_vs_span_oracle():
    """Polynomial verdict equals the span oracle on 200 instances per dim.

    At least 20 of each dimension's instances are constructed to sit on
    the non-simple locus (dimension 2 over the sixth cyclotomic field,
    where its locus has its zeros).  Agreement must be total.
    """
    start = time.monotonic()
    for d in DIMS:
        rng = random.Random(400 + d)
        specs = [random_classified_spec(d, rng) for _ in range(180)]
        specs += [degenerate_classified_spec(d, rng) for _ in range(20)]
        for spec in specs:
            verdict = is_simple(spec).simple
            assert burnside_oracle(build_rep(spec)) == verdict
    assert time.monotonic() - start < 300


def test_criterion_05_rescale_rigidity_and_root_separation():
    """Equivalence detection: rescaled copies are equivalent, distinct roots are not.

    For 20 simple instances per dimension the intertwiner space to a
    random palindromic diagonal rescaling has dimension exactly 1.  In
    dimension 5 the root parameter is a fifth root of the eigenvalue
    product, unique over the rationals, so the two-distinct-roots case is
    realized over the fifth cyclotomic field: same eigenvalue list, roots
    differing by a primitive fifth root of unity, intertwiner dimension 0.
    """
    start = time.monotonic()
    for d in DIMS:
        rng = random.Random(500 + d)
        for spec in sample_simple_specs(d, rng, 20):
            rep = build_rep(spec)
            field = spec.field
            half = [field.const(small_fraction(rng)) for _ in range((d + 1) // 2)]
            diag = half + half[: d // 2][::-1]
            assert hom_space_dim(rep, rescale_basis(rep, diag)) == 1
    field = cyclotomic_field(5)
    zeta = field.gen
    rng = random.Random(555)
    found = 0
    while found < 5:
        lams = [field.const(small_fraction(rng)) for _ in range(4)]
        g = field.const(small_fraction(rng))
        l5 = g ** 5 / (lams[0] * lams[1] * lams[2] * lams[3])
        eigs = lams + [l5]
        spec1 = RepSpec(CLASSIFIED, eigs, root_param=g)
        spec2 = RepSpec(CLASSIFIED, eigs, root_param=zeta * g)
        if not (is_simple(spec1).simple and is_simple(spec2).simple):
            continue
        rep1, rep2 = build_rep(spec1), build_rep(spec2)
        assert hom_space_dim(rep1, rep1) == 1
        assert hom_space_dim(rep1, rep2) == 0
        found += 1
    assert time.monotonic() - start < 120


def test_criterion_06_minimal_polynomial_and_rank_one_projections():
    """On simple instances the generators are cyclic and projections are rank 1.

    min poly = char poly for both generator images, and every eigenvalue
    projection polynomial evaluates on A to a rank-1 matrix.
    """
    start = time.monotonic()
    for d in DIMS:
        rng = random.Random(600 + d)
        for spec in sample_simple_specs(d, rng, 10):
            rep = build_rep(spec)
            for m in (rep.A, rep.B):
                assert min_poly(m) == char_poly(m)
            for r in range(1, d + 1):
                image = p_poly(r, spec.eigenvalues).eval_matrix(rep.A)
                assert RowSpace(image.field, d, image.rows).rank == 1
    assert time.monotonic() - start < 60


def test_criterion_07_exceptional_series_dimension_identities():
    """All four exceptional-series summand dimensions match the catalog.

    The route values themselves are internally consistent (the partition
    of the squared dimension is checked exactly inside verify_series, and
    the root and central scalar conventions are pinned there); the
    criterion then asks for equal=true on all four summands.
    """
    start = time.monotonic()
    reports = verify_series("exceptional")
    assert time.monotonic() - start < 60
    flags = {report.summand: report.equal for report in reports}
    assert flags == {
        "adjoint": True,
        "alternating_complement": True,
        "symmetric": True,
        "symmetric_dual": True,
    }


def test_criterion_08_bcd_series_dimension_identities():
    """Both orthogonal/symplectic summand dimensions match, for both unit signs.

    verify_series runs the route at alpha squared = 1 and -1 and raises
    if they differ, so one clean pass covers both signs.
    """
    start = time.monotonic()
    reports = verify_series("bcd")
    assert [report.equal for report in reports] == [True, True]
    assert time.monotonic() - start < 30


def test_criterion_09_binomial_family_and_convolution_identity():
    """Binomial builds satisfy the braid relation; the support identity holds.

    Sizes 3 through 8 on seeded constraint-satisfying parameters, and the
    alternating binomial convolution identity for all degrees up to 12.
    """
    start = time.monotonic()
    rng = random.Random(900)
    for size in range(3, 9):
        params, _ = random_binomial_params(size, rng)
        assert verify_braid(build_binomial_rep(params)), size
    for d in range(13):
        assert binomial_identity_check(d), d
    assert time.monotonic() - start < 60


def test_criterion_10_subset_certificate_is_one_directional():
    """Certified instances are simple; some simple instances go uncertified.

    A 500-instance seeded sweep over all dimensions; every fifth instance
    draws from a deliberately small value pool so eigenvalue coincidences
    (which block certificates without blocking simplicity) actually occur.
    """
    start = time.monotonic()
    rng = random.Random(1000)
    simple_without_certificate = 0
    for index in range(500):
        d = DIMS[index % 4]
        bound = 3 if index % 5 == 0 else 10
        spec = random_classified_spec(d, rng, bound=bound)
        certified = deligne_check(spec)
        simple = is_simple(spec).simple
        if certified:
            assert simple, "certificate issued for a non-simple instance"
        elif simple:
            simple_without_certificate += 1
    print("simple instances without certificates: %d" % simple_without_certificate)
    assert simple_without_certificate > 0
    assert time.monotonic() - start < 120


def test_criterion_11_eigenspace_inequality_on_modular_instances():
    """Torsion eigenspace dimensions on simple central-scalar-one instances.

    24 instances over the sixth cyclotomic field (which holds the needed
    cube root of unity): the two involution eigenspaces and the three
    rotation eigenspaces each fill the space, and the smaller involution
    eigenspace is at least as large as the largest rotation eigenspace.
    """
    start = time.monotonic()
    field = cyclotomic_field(6)
    checked = 0
    for d in DIMS:
        rng = random.Random(1100 + d)
        done = 0
        while done < 6:
            spec = central_unit_spec(d, rng, field=field)
            if not is_simple(spec).simple:
                continue
            rep = build_rep(spec)
            n1, n2, m1, m2, m3 = westbury_dims(rep, field.one)
            assert n1 + n2 == d
            assert m1 + m2 + m3 == d
            assert min(n1, n2) >= max(m1, m2, m3)
            done += 1
            checked += 1
    assert checked >= 20
    assert time.monotonic() - start < 120


def test_criterion_12_cli_round_trip_and_determinism(capsys, monkeypatch):
    """construct piped to verify succeeds in every dimension; scans are stable.

    The same seed must reproduce the scan stream byte for byte.
    """
    start = time.monotonic()
    for d in DIMS:
        code = main(["construct", "--dim", str(d), "--symbolic"])
        out = capsys.readouterr().out
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code = main(["verify"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["braid_ok"] is True
    argv = ["scan", "--dim", "4", "--count", "8", "--seed", "11"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert time.monotonic() - start < 30
