"""Tests for the simplicity classifier and its independent oracles.

The closed-form scalars are checked against the matrix-level oracle with
strict equality, never up to sign. Symbolic runs cover sizes 2 and 3 in
full and size 4 pairwise; size 5 is spot-checked here on specialized
instances because the fully symbolic sweep is slow, and the acceptance
suite covers it with a large specialized sample.
"""

from itertools import combinations
import random

import pytest

from braidrep import classify
from braidrep.classify import (
    burnside_oracle,
    deligne_check,
    delta_from_spec,
    hom_space_dim,
    is_simple,
    obstruction_generators,
    p_poly,
    q_from_spec,
    q_oracle,
    q_scalars,
    sl2z_flags,
    westbury_dims,
    word_span_oracle,
)
from braidrep.fields import (
    NumberField,
    RationalField,
    cyclotomic_field,
    horner,
    root_of_unity,
)
from braidrep import matrices
from braidrep.matrices import SquareMatrix, dot, nullspace_basis, nullspace_dim
from braidrep.reps import (
    CLASSIFIED,
    Rep,
    RepSpec,
    RepSpecError,
    build_binomial_rep,
    build_rep,
    rescale_basis,
    solved_classified_spec,
    structure_report,
    symbolic_classified_spec,
)
from braidrep.samplers import (
    central_unit_spec,
    degenerate_classified_spec,
    random_classified_spec,
    small_fraction,
)

from helpers import assert_kernels_agree, sample_simple_specs
from oracles import contains, fraction_det, fraction_spin, q_corner


Q = RationalField()


def frac(n, d=1):
    return Q.const(n) / Q.const(d)


# ---------------------------------------------------------------------------
# closed-form scalars on frozen inputs


def q_of(eigenvalues, r, s):
    return q_from_spec(RepSpec(CLASSIFIED, eigenvalues), r, s)


def test_q_closed_dim2_frozen_values():
    one = Q.one
    assert q_of([one, one], 1, 2) == -one
    # lambda2 = primitive sixth root times lambda1 kills the scalar
    z = cyclotomic_field(6)
    assert q_of([z.one, z.gen], 1, 2) == z.zero
    assert q_of([Q.const(2), Q.const(3)], 1, 2) == Q.const(-7)


def test_q_closed_dim3_frozen_values():
    vals = [Q.one, Q.one, -Q.one]
    assert q_of(vals, 1, 2) == Q.zero
    vals = [Q.one, Q.const(2), Q.const(3)]
    assert q_of(vals, 1, 2) == Q.const(49)
    assert q_of(vals, 1, 3) == Q.const(77)
    assert q_of(vals, 2, 3) == Q.const(77)


def assert_q_table(eigenvalues, root, table):
    # every pair in both orders, per pair and in one shared evaluation
    spec = RepSpec(
        CLASSIFIED, [Q.parse(x) for x in eigenvalues], root_param=Q.parse(root)
    )
    ordered = list(table) + [(s, r) for r, s in table]
    shared = q_scalars(spec, ordered)
    assert list(shared) == ordered
    for (r, s), text in table.items():
        value = Q.parse(text)
        assert q_from_spec(spec, r, s) == value, (r, s)
        assert q_from_spec(spec, s, r) == value, (s, r)
        assert shared[r, s] == value and shared[s, r] == value, (r, s)


# Frozen values of the per-pair closed forms at two seeded specs per
# dimension (random_classified_spec with bound 5, random.Random seeds 41
# and 42 at d = 4, 40 and 41 at d = 5: distinct eigenvalues, distinct Q
# values), so the shared factor table is compared with a record rather
# than with itself.
def test_q_closed_dim4_frozen_values():
    assert_q_table(["2/3", "-1", "2/5", "-15"], "-1/5", {
        (1, 2): "39886/75", (1, 3): "-12936/125", (1, 4): "9054122/405",
        (2, 3): "32634/125", (2, 4): "-66738/5", (3, 4): "22223754/625",
    })
    assert_q_table(["-4", "-1/2", "-1", "-25/128"], "-4/5", {
        (1, 2): "-6888861/327680", (1, 3): "1557549/163840",
        (1, 4): "-42265130481/536870912", (2, 3): "-1608201/1310720",
        (2, 4): "24350949/67108864", (3, 4): "-107701461/134217728",
    })


def test_q_closed_dim5_frozen_values():
    assert_q_table(["3/5", "4", "-2/3", "-1", "5/1944"], "1/3", {
        (1, 2): "2350787566127/1594323000",
        (1, 3): "703699909451/15943230000",
        (1, 4): "1171920573551/12754584000",
        (1, 5): "4100439641051819351/16267941301305600000",
        (2, 3): "212696440957/191318760",
        (2, 4): "2737973018473/956593800",
        (2, 5): "5939006704857490033/13881976577114112",
        (3, 4): "10847585749/382637520",
        (3, 5): "804897170277109/3856104604753920",
        (4, 5): "2193644285923321/1735247072139264",
    })
    assert_q_table(["2/3", "-1", "2/5", "-1/5", "-75/4096"], "-1/4", {
        (1, 2): "329803033497/1342177280000",
        (1, 3): "96439019789/50331648000000",
        (1, 4): "9365988060863/905969664000000",
        (1, 5): "21878059929835206839/3501999070243297689600",
        (2, 3): "1440196418311/33554432000000",
        (2, 4): "1189631974293/67108864000000",
        (2, 5): "410607657912045069/7205759403792793600",
        (3, 4): "7744443425523/838860800000000",
        (3, 5): "2548362578482842219/9007199254740992000000",
        (4, 5): "221401973290566817/4503599627370496000000",
    })


def route_specs():
    """Seeded specs over Q from every sampler kind, bounds 3, 10 and 50,
    d = 2..5; degenerate d = 2 is left out, since its zeros need a sixth
    root of unity."""
    for d in (2, 3, 4, 5):
        for sampler in (random_classified_spec, degenerate_classified_spec, central_unit_spec):
            if d == 2 and sampler is degenerate_classified_spec:
                continue
            for bound in (3, 10, 50):
                for seed in (1, 2):
                    yield sampler(d, random.Random(100 * seed + bound), field=Q, bound=bound)


def test_q_over_cleared_integers_matches_the_scalar_route_and_the_oracle():
    # over Q the factor table runs on integers; the same eigenvalues as
    # constants of a number field take the Scalar route, and q_oracle
    # reads Q_rs off the matrices with no closed form
    k = NumberField.from_modulus_string("z^2+1")
    seen = set()
    for spec in route_specs():
        d = spec.dim
        ordered = [(r, s) for r in range(1, d + 1) for s in range(1, d + 1) if r != s]
        q = q_scalars(spec, ordered)
        root = spec.root_param
        lifted = RepSpec(
            CLASSIFIED, [k.const(x.value) for x in spec.eigenvalues],
            root_param=None if root is None else k.const(root.value),
        )
        scalar_route = q_scalars(lifted, ordered)
        rep = build_rep(spec)
        distinct = len({x.value for x in spec.eigenvalues}) == d
        for pair in ordered:
            assert scalar_route[pair] == k.const(q[pair].value), (spec.eigenvalues, pair)
            if distinct:
                assert q_oracle(rep, *pair) == q[pair], (spec.eigenvalues, pair)
        seen.add(("distinct", distinct))
        seen.add(("zero Q", any(value.is_zero() for value in q.values())))
        if d == 4:
            seen.add(("fractional D", root.value.denominator > 1))
        if d == 5:
            seen.add(("negative gamma", root.value < 0))
            seen.add(("fractional gamma", root.value.denominator > 1))
    assert {key for key, flag in seen if flag} == {
        "distinct", "zero Q", "fractional D", "negative gamma", "fractional gamma",
    }


def test_q_symmetric_in_the_pair():
    for d in (2, 3, 4, 5):
        spec = symbolic_classified_spec(d)
        for r in range(1, d + 1):
            for s in range(r + 1, d + 1):
                assert q_from_spec(spec, r, s) == q_from_spec(spec, s, r)


# ---------------------------------------------------------------------------
# eigenprojection polynomials


def test_p_poly_is_monic_of_degree_dim_minus_one():
    vals = [Q.const(2), Q.const(3), Q.const(5), Q.const(7)]
    for r in (1, 2, 3, 4):
        poly = p_poly(r, vals)
        assert len(poly.coeffs) - 1 == 3
        assert poly.coeffs[-1] == Q.one
        # evaluates to zero at every eigenvalue except the kept one
        for i, lam in enumerate(vals, start=1):
            assert (horner(poly.coeffs, lam) == Q.zero) == (i != r)


def test_p_poly_of_a_has_rank_one():
    rep = build_rep(random_classified_spec(4, random.Random(11), bound=5))
    poly = p_poly(2, rep.spec.eigenvalues)
    image = poly.eval_matrix(rep.A)
    rows = [
        [image.entry(i, j) for j in range(1, 5)] for i in range(1, 5)
    ]
    assert nullspace_dim(rep.field, rows, 4) == 3


# ---------------------------------------------------------------------------
# closed form vs matrix oracle, strict equality


def test_oracle_matches_closed_form_symbolically_dims_2_3_4():
    for d in (2, 3, 4):
        spec = symbolic_classified_spec(d)
        rep = build_rep(spec)
        for r in range(1, d + 1):
            for s in range(r + 1, d + 1):
                assert q_oracle(rep, r, s) == q_from_spec(spec, r, s)


def test_oracle_matches_closed_form_specialized_dim5():
    rng = random.Random(23)
    for _ in range(4):
        spec = random_classified_spec(5, rng, bound=5)
        rep = build_rep(spec)
        for r in range(1, 6):
            for s in range(r + 1, 6):
                assert q_oracle(rep, r, s) == q_from_spec(spec, r, s)


def test_corner_route_matches_closed_form():
    for d in (2, 3, 4):
        spec = symbolic_classified_spec(d)
        assert q_corner(build_rep(spec)) == q_from_spec(spec, 1, d)
    rng = random.Random(29)
    for _ in range(5):
        spec = random_classified_spec(5, rng, bound=5)
        assert q_corner(build_rep(spec)) == q_from_spec(spec, 1, 5)


def test_oracle_rejects_vanishing_projection():
    # the identity pair is diagonalizable with a repeated eigenvalue, so
    # the kept-eigenvalue projection of A is the zero matrix
    eye = SquareMatrix.identity(Q, 2)
    rep = Rep(RepSpec(CLASSIFIED, [Q.one, Q.one]), eye, eye)
    with pytest.raises(ValueError):
        q_oracle(rep, 1, 2)


# ---------------------------------------------------------------------------
# obstruction generators


def test_obstruction_labels_dim2():
    obs = obstruction_generators(RepSpec(CLASSIFIED, [Q.one, Q.one]))
    assert [o.label for o in obs] == ["l1^2-l1*l2+l2^2"]
    assert obs[0].indices == [1, 2]
    assert obs[0].value == Q.one


def test_obstruction_labels_dim3():
    obs = obstruction_generators(RepSpec(CLASSIFIED, [Q.one, Q.one, -Q.one]))
    labels = [o.label for o in obs]
    assert labels == ["l1^2+l2*l3", "l2^2+l1*l3", "l3^2+l1*l2"]
    zero = [o for o in obs if o.value == Q.zero]
    assert [o.label for o in zero] == ["l1^2+l2*l3", "l2^2+l1*l3"]


def test_obstruction_counts_dims_4_5():
    spec4 = random_classified_spec(4, random.Random(3), bound=5)
    obs4 = obstruction_generators(spec4)
    assert len(obs4) == 7
    assert sum(o.label.startswith("l") for o in obs4) == 4
    assert sum(o.label.startswith("g^2+l") for o in obs4) == 3
    spec5 = random_classified_spec(5, random.Random(4), bound=5)
    obs5 = obstruction_generators(spec5)
    assert len(obs5) == 15
    assert sum(o.label.startswith("g^2+g*l") for o in obs5) == 5
    assert sum(o.label.startswith("g^2+l") for o in obs5) == 10


def test_obstruction_zero_locus_matches_q_zero_locus():
    rng = random.Random(5)
    for d in (2, 3, 4, 5):
        for k in range(6):
            if k % 2:
                spec = random_classified_spec(d, rng, bound=4)
            else:
                spec = degenerate_classified_spec(d, rng, bound=4)
            some_zero = any(
                o.value == spec.field.zero for o in obstruction_generators(spec)
            )
            q_zero = any(
                q_from_spec(spec, r, s) == spec.field.zero
                for r in range(1, d + 1)
                for s in range(r + 1, d + 1)
            )
            assert some_zero == q_zero


# ---------------------------------------------------------------------------
# the classifier verdict and the span oracle


def test_is_simple_frozen_examples():
    report = is_simple(RepSpec(CLASSIFIED, [Q.one, Q.one]))
    assert report.simple is True
    assert report.vanishing_factors == []

    report = is_simple(RepSpec(CLASSIFIED, [Q.one, Q.one, -Q.one]))
    assert report.simple is False
    assert ("l1^2+l2*l3", [1, 2, 3]) in report.vanishing_factors


def test_is_simple_symbolic_generic_point():
    for d in (2, 3, 4, 5):
        spec = symbolic_classified_spec(d)
        report = is_simple(spec)
        assert report.simple is True


def placed(values, first):
    # values[0], values[1], ... at the 1-based positions first, in order,
    # then the rest at the remaining positions in increasing order
    rest = [i for i in range(1, len(values) + 1) if i not in first]
    out = dict(zip(list(first) + rest, values))
    return [out[i] for i in range(1, len(values) + 1)]


def one_generator_specs():
    """(spec, label) for every obstruction generator in dimensions 3 to 5,
    each spec solved so that this generator vanishes.

    Dimension 5 permutes one solved spec (gamma^5 = det is symmetric), and
    dimension 4 swaps l1 with l4 or l2 with l3, which keeps D^2 and
    g^2 = l2*l3/D.  The d = 4 pairings and the d = 5 family
    g^2 + g*l_i + l_i^2 vanish only with a primitive cube root w of unity,
    so those specs are over Q(zeta_3).
    """
    out = []
    two, three = Q.const(2), Q.const(3)
    for i in (1, 2, 3):
        j, k = sorted({1, 2, 3} - {i})
        spec = RepSpec(CLASSIFIED, placed([two, three, -two ** 2 / three], (i, j)))
        out.append((spec, "l%d^2+l%d*l%d" % (i, j, k)))

    l1, l2, l3 = Q.const(2), Q.const(3), Q.const(5)
    first = solved_classified_spec([l1, l2, l3], -(l2 * l3) / l1 ** 2)
    a, b, c, e = first.eigenvalues
    out.append((first, "l1^2+g^2"))
    out.append((solved_classified_spec([l1, l2, l3], -l3 / l2), "l2^2+g^2"))
    out.append((solved_classified_spec([l1, l2, l3], -l2 / l3), "l3^2+g^2"))
    out.append((RepSpec(CLASSIFIED, [e, b, c, a], first.root_param), "l4^2+g^2"))
    z3 = cyclotomic_field(3)
    w = root_of_unity(z3, 3)
    m1, m4, dd = z3.const(2), z3.const(3), z3.const(5)
    # g^2 = D*l1*l4, so g^2 + l1*l4 + l2*l3 = l1*l4*(D + 1 + D^2)
    out.append((solved_classified_spec([m1, z3.const(3), z3.const(5)], w),
                "g^2+l1*l4+l2*l3"))
    # l1*l2 = w*g^2 and l3*l4 = w^2*g^2
    m2, m3 = w * dd * m4, w * w * dd * m1
    out.append((RepSpec(CLASSIFIED, [m1, m2, m3, m4], dd), "g^2+l1*l2+l3*l4"))
    out.append((RepSpec(CLASSIFIED, [m1, m3, m2, m4], dd), "g^2+l1*l3+l2*l4"))

    g = Q.const(2)
    link = solved_classified_spec([three, -g ** 2 / three, Q.const(5), Q.const(-7)], g)
    for i, k in combinations(range(1, 6), 2):
        spec = RepSpec(CLASSIFIED, placed(link.eigenvalues, (i, k)), g)
        out.append((spec, "g^2+l%d*l%d" % (i, k)))
    g = z3.const(2)
    square = solved_classified_spec([w * g, z3.const(3), z3.const(5), z3.const(-7)], g)
    for i in range(1, 6):
        spec = RepSpec(CLASSIFIED, placed(square.eigenvalues, (i,)), g)
        out.append((spec, "g^2+g*l%d+l%d^2" % (i, i)))
    return out


def in_closed_form(generator, r, s):
    """Whether the closed form of Q_rs has this generator as a factor."""
    idx = generator.indices
    if len(idx) == 4:  # d = 4 pairing {i, j | k, l}: r and s in different blocks
        return {r, s} not in ({idx[0], idx[1]}, {idx[2], idx[3]})
    if generator.label.startswith("g^2+l"):  # d = 5 link g^2 + l_i*l_k
        return len({r, s} & set(idx)) == 1
    # l_i^2 + l_j*l_k (d = 3), l_i^2 + g^2 (d = 4), g^2 + g*l_i + l_i^2 (d = 5)
    return idx[0] in (r, s)


def test_each_obstruction_generator_zeros_exactly_its_pair_scalars():
    cases = one_generator_specs()
    for d in (3, 4, 5):
        # one spec per generator of the dimension
        labels = [o.label for o in obstruction_generators(symbolic_classified_spec(d))]
        assert sorted(label for spec, label in cases if spec.dim == d) == sorted(labels)
    for spec, label in cases:
        d = spec.dim
        report = is_simple(spec)
        assert report.simple is False, label
        assert [found for found, _ in report.vanishing_factors] == [label]
        (generator,) = [o for o in obstruction_generators(spec) if o.label == label]
        ordered = [(r, s) for r in range(1, d + 1) for s in range(1, d + 1) if r != s]
        zero = {pair for pair, q in q_scalars(spec, ordered).items() if q.is_zero()}
        assert zero == {pair for pair in ordered if in_closed_form(generator, *pair)}, label
        assert zero, label


def test_factor_table_gives_every_pair_its_share():
    # each Q_rs takes 2^(d-2) factors of degree 2, hence the S^(2^(d-1))
    # denominator over Q; Q_rs = Q_sr; and every factor lies in some Q_rs,
    # so the obstruction list and the Q scalars share one zero locus
    for d in (2, 3, 4, 5):
        spec = symbolic_classified_spec(d)
        table = obstruction_generators(spec)
        ordered = [(r, s) for r in range(1, d + 1) for s in range(1, d + 1) if r != s]
        taken = {
            (r, s): [o for o in table if (r in o.side) != (s in o.side)] for r, s in ordered
        }
        for pair, factors in taken.items():
            assert len(factors) == 2 ** (d - 2), (d, pair)
            assert factors == [o for o in table if in_closed_form(o, *pair)], (d, pair)
        assert {o.label for factors in taken.values() for o in factors} == {
            o.label for o in table
        }
        q = q_scalars(spec, ordered)
        assert all(q[r, s] == q[s, r] for r, s in ordered), d


def test_is_simple_cross_check_sees_a_dropped_generator(monkeypatch):
    spec = degenerate_classified_spec(5, random.Random(31), bound=5)
    real = classify.obstruction_generators
    vanishing = [o.label for o in real(spec) if o.value.is_zero()]
    assert len(vanishing) == 1
    monkeypatch.setattr(
        classify, "obstruction_generators",
        lambda spec: [o for o in real(spec) if o.label not in vanishing],
    )
    with pytest.raises(RuntimeError, match="disagree on the zero locus"):
        is_simple(spec)


def test_is_simple_cross_check_sees_a_corrupted_cleared_value(monkeypatch):
    spec = degenerate_classified_spec(5, random.Random(31), bound=5)
    assert not is_simple(spec).simple
    real = classify._cleared

    def corrupted(spec):
        # every factor of the d = 5 table holds the cleared root square
        scale, ints, g, g2 = real(spec)
        return scale, ints, g, g2 + 1

    monkeypatch.setattr(classify, "_cleared", corrupted)
    with pytest.raises(RuntimeError, match="disagree on the zero locus"):
        is_simple(spec)


def test_classifier_agrees_with_burnside_span():
    rng = random.Random(7)
    for d in (2, 3, 4, 5):
        for k in range(8):
            if k % 3:
                spec = random_classified_spec(d, rng, bound=5)
            else:
                spec = degenerate_classified_spec(d, rng, bound=5)
            assert is_simple(spec).simple == burnside_oracle(build_rep(spec))


def test_burnside_rejects_identity_pair():
    eye = SquareMatrix.identity(Q, 2)
    rep = Rep(RepSpec(CLASSIFIED, [Q.one, Q.one]), eye, eye)
    assert burnside_oracle(rep) is False


def test_burnside_rejects_symbolic_backend():
    spec = symbolic_classified_spec(2)
    rep = build_rep(spec)
    with pytest.raises(ValueError):
        burnside_oracle(rep)


def recorded_ranks(monkeypatch):
    """Patch RowSpace.insert to append the rank after every call to a list."""
    ranks = []
    real = matrices.RowSpace.insert

    def insert(self, row):
        grew = real(self, row)
        ranks.append(self.rank)
        return grew

    monkeypatch.setattr(matrices.RowSpace, "insert", insert)
    return ranks


def test_burnside_stops_at_the_insert_that_reaches_full_rank(monkeypatch):
    ranks = recorded_ranks(monkeypatch)
    assert word_span_oracle(build_rep(random_classified_spec(5, random.Random(0)))) is True
    assert ranks[-1] == 25
    assert ranks.index(25) == len(ranks) - 1


def test_burnside_queues_only_words_that_grew_the_span(monkeypatch):
    # identity, then two products per queued word; every queued word raised
    # the rank by one, so a closure that never reaches full rank makes
    # exactly 1 + 2 * rank inserts
    ranks = recorded_ranks(monkeypatch)
    spec = degenerate_classified_spec(5, random.Random(0))
    assert word_span_oracle(build_rep(spec)) is False
    assert ranks[-1] < 25
    assert len(ranks) == 1 + 2 * ranks[-1]


def test_norton_spins_vectors_and_stops_at_full_rank(monkeypatch):
    # every elimination Norton's route does is on d-vectors, and both
    # orbits of a simple pair end at the insert that reaches rank d
    inserts = []
    real = matrices.RowSpace.insert

    def insert(self, row):
        grew = real(self, row)
        inserts.append((self, self.ncols, self.rank))
        return grew

    monkeypatch.setattr(matrices.RowSpace, "insert", insert)
    assert burnside_oracle(build_rep(random_classified_spec(5, random.Random(0)))) is True
    assert {ncols for _, ncols, _ in inserts} == {5}
    full = [space for space, _, rank in inserts if rank == 5]
    assert len(full) == 2 and full[0] is not full[1]
    for space in full:
        ranks = [rank for s, _, rank in inserts if s is space]
        assert ranks.index(5) == len(ranks) - 1


def test_burnside_falls_back_when_no_nullity_is_one(monkeypatch):
    # A = I has nullity 2 at its one diagonal entry, so Norton cannot decide
    calls = []
    real = classify.word_span_oracle
    monkeypatch.setattr(classify, "word_span_oracle", lambda rep: calls.append(rep) or real(rep))
    eye = SquareMatrix.identity(Q, 2)
    rep = Rep(RepSpec(CLASSIFIED, [Q.one, Q.one]), eye, eye)
    assert classify.norton_orbits(rep) is None
    assert burnside_oracle(rep) is False
    assert calls == [rep]
    assert burnside_oracle(build_rep(random_classified_spec(3, random.Random(0)))) is True
    assert calls == [rep]


def criterion_04_specs():
    """The instances of acceptance criterion 04, in its order and seeds."""
    for d in (2, 3, 4, 5):
        rng = random.Random(400 + d)
        specs = [random_classified_spec(d, rng) for _ in range(180)]
        specs += [degenerate_classified_spec(d, rng) for _ in range(20)]
        yield from specs


def number_field_specs():
    """Seeded instances over Q(zeta_3), d = 2..5, all three samplers, and
    over Q(zeta_5), d = 3..5, the random and central-unit samplers."""
    plan = (
        (3, (2, 3, 4, 5), (random_classified_spec, degenerate_classified_spec, central_unit_spec)),
        (5, (3, 4, 5), (random_classified_spec, central_unit_spec)),
    )
    for n, dims, samplers in plan:
        field = cyclotomic_field(n)
        for d in dims:
            rng = random.Random(100 * n + d)
            for sampler in samplers:
                for _ in range(3 if n == 3 else 2):
                    yield sampler(d, rng, field=field)


def test_norton_agrees_with_the_word_queue_on_every_sampled_instance():
    for spec in [*criterion_04_specs(), *number_field_specs()]:
        rep = build_rep(spec)
        assert classify.norton_orbits(rep) is not None
        assert burnside_oracle(rep) == word_span_oracle(rep), spec.eigenvalues


def unimodular(field, d, rng):
    """A seeded integer matrix of determinant 1: a product of elementary
    matrices I + c*E_ij with i != j."""
    m = SquareMatrix.identity(field, d)
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        rows = [list(row) for row in SquareMatrix.identity(field, d).rows]
        rows[i][j] = field.const(rng.choice([-2, -1, 1, 2]))
        m = m * SquareMatrix(field, rows)
    return m


def test_norton_decides_pairs_that_build_rep_did_not_build():
    # conjugating by P moves A off the triangular basis but keeps its
    # eigenvalues, so theta still has nullity 1 at the spec's eigenvalues;
    # one draw each over Q(zeta_3), where the word span is slow
    for field, draws in ((Q, 4), (cyclotomic_field(3), 1)):
        rng = random.Random(2201)
        for d in (3, 4, 5):
            for sampler in (random_classified_spec, degenerate_classified_spec):
                for _ in range(draws):
                    spec = sampler(d, rng, field=field)
                    built = build_rep(spec)
                    p = unimodular(field, d, rng)
                    p_inv = p.inverse()
                    rep = Rep(spec, p * built.A * p_inv, p * built.B * p_inv)
                    assert classify.norton_orbits(rep) is not None
                    verdict = is_simple(spec).simple
                    assert burnside_oracle(rep) == word_span_oracle(rep) == verdict


def recorded(monkeypatch, name, calls):
    """Patch classify's name to append (arguments, result) of every call to calls."""
    real = getattr(classify, name)

    def wrapper(*args):
        out = real(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(classify, name, wrapper)


def test_integer_rows_match_the_fraction_kernel_on_norton_instances(monkeypatch):
    # every theta and theta^T that Norton's route reduces on the 848
    # instances of the cross-check above, and every orbit it spins
    systems, orbits = [], []
    recorded(monkeypatch, "nullspace_basis", systems)
    recorded(monkeypatch, "spin", orbits)
    for spec in [*criterion_04_specs(), *number_field_specs()]:
        classify.norton_orbits(build_rep(spec))
    assert len(orbits) >= 848
    for (field, rows, ncols), _ in systems:
        columns = list(zip(*rows))
        assert_kernels_agree(field, ncols, rows, probes=columns)
        m = SquareMatrix(field, rows)
        assert m.det() == fraction_det(m)
    for (field, vector, maps), space in orbits:
        ref = fraction_spin(field, vector, maps)
        assert (space.rank, space.pivots, space.rows) == (ref.rank, ref.pivots, ref.rows)
        # reduce is linear, so the unit vectors determine it
        for i in range(len(vector)):
            unit = [field.one if j == i else field.zero for j in range(len(vector))]
            assert space.reduce(unit) == ref.reduce(unit)


def criterion_05_pairs():
    """The pairs over Q of acceptance criterion 05, in its order and seeds:
    each simple instance and a palindromic rescaling of it."""
    for d in (2, 3, 4, 5):
        rng = random.Random(500 + d)
        for spec in sample_simple_specs(d, rng, 20):
            rep = build_rep(spec)
            half = [Q.const(small_fraction(rng)) for _ in range((d + 1) // 2)]
            yield rep, rescale_basis(rep, half + half[: d // 2][::-1])


def test_integer_rows_match_the_fraction_kernel_on_intertwiner_systems(monkeypatch):
    # the 2d^2 x d^2 systems of criterion 05 over Q; its Q(zeta_5) systems
    # keep Scalar rows, which is the Fraction kernel's own loop
    systems = []
    recorded(monkeypatch, "nullspace_dim", systems)
    for rep1, rep2 in criterion_05_pairs():
        assert hom_space_dim(rep1, rep2) == 1
    assert len(systems) == 80
    for (field, rows, ncols), _ in systems:
        assert_kernels_agree(field, ncols, rows, probes=rows[::7])


def closed_under(space, maps):
    return all(contains(space, [dot(row, v) for row in m]) for v in space.rows for m in maps)


def test_norton_witness_is_an_invariant_subspace():
    # a proper orbit of the kernel vector of theta is a submodule; a proper
    # orbit of the kernel vector of theta^T (a row vector under right
    # multiplication) has a submodule as its annihilator
    nonsimple = 0
    for spec in criterion_04_specs():
        if is_simple(spec).simple:
            continue
        nonsimple += 1
        rep = build_rep(spec)
        field, d, a, b = rep.field, rep.dim, rep.A.rows, rep.B.rows
        orbits = classify.norton_orbits(rep)
        witness = orbits[-1]
        assert 1 <= witness.rank <= d - 1
        if len(orbits) == 1:
            assert closed_under(witness, (a, b))
        else:
            assert orbits[0].rank == d
            assert closed_under(witness, (list(zip(*a)), list(zip(*b))))
            annihilator = matrices.RowSpace(field, d, nullspace_basis(field, witness.rows, d))
            assert 1 <= annihilator.rank <= d - 1
            assert closed_under(annihilator, (a, b))
    assert nonsimple >= 80


# ---------------------------------------------------------------------------
# intertwiner dimensions


def test_hom_space_schur_on_simple_pair():
    rep = build_rep(random_classified_spec(3, random.Random(1), bound=5))
    assert hom_space_dim(rep, rep) == 1


def test_hom_space_sees_through_rescaling():
    rep = build_rep(random_classified_spec(4, random.Random(9), bound=5))
    diag = [Q.const(2), frac(1, 3), frac(1, 3), Q.const(2)]
    assert hom_space_dim(rep, rescale_basis(rep, diag)) == 1


def test_hom_space_zero_for_inequivalent_pairs():
    rep1 = build_rep(random_classified_spec(3, random.Random(1), bound=5))
    rep2 = build_rep(random_classified_spec(3, random.Random(2), bound=5))
    assert hom_space_dim(rep1, rep2) == 0


def test_hom_space_self_dim_on_degenerate_pair():
    # a degenerate pair is reducible but can still be indecomposable,
    # so the self-intertwiner space only has to contain the identity
    spec = degenerate_classified_spec(3, random.Random(14), bound=5)
    rep = build_rep(spec)
    assert not is_simple(spec).simple
    assert hom_space_dim(rep, rep) >= 1


# ---------------------------------------------------------------------------
# central element flags


def test_sl2z_flags_frozen_examples():
    # central scalar -1: lands in the double cover only
    assert sl2z_flags(RepSpec(CLASSIFIED, [Q.one, Q.one])) == (True, False)
    # lambda2 = -1/lambda1 gives central scalar 1
    l1 = Q.const(3)
    assert sl2z_flags(RepSpec(CLASSIFIED, [l1, -Q.one / l1])) == (True, True)
    # generic integers land in neither
    assert sl2z_flags(RepSpec(CLASSIFIED, [Q.const(2), Q.const(3)])) == (
        False,
        False,
    )


def test_sl2z_flags_on_central_unit_sampler():
    rng = random.Random(31)
    for d in (2, 3, 4, 5):
        for _ in range(3):
            spec = central_unit_spec(d, rng, bound=5)
            assert sl2z_flags(spec) == (True, True)


def test_delta_closed_form_matches_the_structure_report_on_every_sampled_instance():
    specs = [*criterion_04_specs(), *number_field_specs()]
    assert len(specs) == 848
    for spec in specs:
        assert delta_from_spec(spec) == structure_report(build_rep(spec)).delta, spec.eigenvalues


def test_sl2z_flags_form_no_matrix_product(monkeypatch):
    def no_product(self, other):
        raise AssertionError("sl2z_flags reads delta off the spec")

    monkeypatch.setattr(SquareMatrix, "__mul__", no_product)
    test_sl2z_flags_frozen_examples()
    test_sl2z_flags_on_central_unit_sampler()


def test_delta_from_spec_rejects_binomial_spec():
    rep = build_binomial_rep([Q.one, Q.const(2), Q.const(4)])
    with pytest.raises(RepSpecError):
        delta_from_spec(rep.spec)


def test_sl2z_flags_reject_symbolic_backend():
    with pytest.raises(ValueError):
        spec = symbolic_classified_spec(2)
        sl2z_flags(spec)


# ---------------------------------------------------------------------------
# tensor-power certificate


def test_deligne_frozen_examples():
    assert deligne_check(RepSpec(CLASSIFIED, [Q.one, Q.const(2)])) is True
    assert deligne_check(RepSpec(CLASSIFIED, [Q.one, Q.one])) is False


def test_deligne_certificate_implies_simple():
    rng = random.Random(17)
    hits = 0
    for d in (2, 3):
        for _ in range(10):
            spec = random_classified_spec(d, rng, bound=5)
            if deligne_check(spec):
                hits += 1
                assert is_simple(spec).simple
                assert burnside_oracle(build_rep(spec))
    assert hits > 0


def test_deligne_is_only_sufficient():
    # simple pair whose eigenvalues are all equal, so every singleton
    # subset satisfies the excluded relation and no certificate exists
    spec = RepSpec(CLASSIFIED, [Q.one, Q.one])
    assert is_simple(spec).simple
    assert deligne_check(spec) is False


# ---------------------------------------------------------------------------
# eigenspace dimensions of the finite-order images


def test_westbury_dims_fill_the_space():
    z6 = cyclotomic_field(6)
    for d in (2, 3, 4, 5):
        spec = central_unit_spec(d, random.Random(40 + d), field=z6)
        rep = build_rep(spec)
        n1, n2, m1, m2, m3 = westbury_dims(rep, z6.one)
        assert n1 + n2 == d
        assert m1 + m2 + m3 == d
        assert min(n1, n2) >= 0 and min(m1, m2, m3) >= 0


def test_westbury_frozen_dim2():
    z6 = cyclotomic_field(6)
    spec = central_unit_spec(2, random.Random(42), field=z6)
    rep = build_rep(spec)
    assert structure_report(rep).delta == z6.one
    assert westbury_dims(rep, z6.one) == (1, 1, 0, 1, 1)


def test_westbury_rejects_wrong_sixth_root():
    z6 = cyclotomic_field(6)
    spec = central_unit_spec(3, random.Random(43), field=z6)
    rep = build_rep(spec)
    with pytest.raises(ValueError):
        westbury_dims(rep, z6.const(2))


def test_westbury_with_nontrivial_central_scalar():
    # central scalar -1 over a field with a primitive twelfth root
    z12 = NumberField((1, 0, -1, 0, 1))
    spec = RepSpec(CLASSIFIED, [z12.one, z12.one])
    rep = build_rep(spec)
    assert structure_report(rep).delta == -z12.one
    root = z12.gen
    assert root ** 6 == -z12.one
    n1, n2, m1, m2, m3 = westbury_dims(rep, root)
    assert n1 + n2 == 2
    assert m1 + m2 + m3 == 2
