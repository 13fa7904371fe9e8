"""Exact linear algebra checks: inverses, characteristic/minimal polynomials, spans."""

from fractions import Fraction
from itertools import permutations
import math
import random

import pytest

from braidrep.fields import (
    BackendMismatch,
    RationalField,
    SymbolicField,
    VarContext,
    cyclotomic_field,
    horner,
    poly_divmod,
)
from braidrep.matrices import (
    RowSpace,
    SquareMatrix,
    UniPoly,
    nullspace_basis,
    nullspace_dim,
    spin,
    times,
    vec,
)

from helpers import assert_kernels_agree, random_fraction, random_nonzero_fraction
from oracles import char_poly, contains, fraction_det, min_poly


def random_rational_matrix(field, rng, n):
    return SquareMatrix(
        field, [[field.const(random_fraction(rng)) for _ in range(n)] for _ in range(n)]
    )


def test_inverse_round_trip_dims_2_to_6():
    q = RationalField()
    rng = random.Random(31337)
    for n in range(2, 7):
        found = 0
        while found < 5:
            m = random_rational_matrix(q, rng, n)
            if m.det().is_zero():
                continue
            ident = SquareMatrix.identity(q, n)
            assert m * m.inverse() == ident
            assert m.inverse() * m == ident
            found += 1


def test_inverse_symbolic():
    f = SymbolicField(VarContext(("a", "b")))
    a, b = f.var("a"), f.var("b")
    m = SquareMatrix(f, [[a, f.one], [f.zero, b]])
    inv = m.inverse()
    assert m * inv == SquareMatrix.identity(f, 2)
    assert inv.entry(1, 1) == a ** -1


def test_det_multiplicative_and_triangular():
    q = RationalField()
    rng = random.Random(4242)
    for n in (2, 3, 4, 5):
        m1 = random_rational_matrix(q, rng, n)
        m2 = random_rational_matrix(q, rng, n)
        assert (m1 * m2).det() == m1.det() * m2.det()
    f = SymbolicField(VarContext(("x", "y", "z")))
    diag = [f.var("x"), f.var("y"), f.var("z")]
    tri = SquareMatrix(
        f,
        [
            [diag[0], f.one, f.one],
            [f.zero, diag[1], f.one],
            [f.zero, f.zero, diag[2]],
        ],
    )
    assert tri.det() == diag[0] * diag[1] * diag[2]


def leibniz_det(m):
    """Sum over permutations of the signed products of entries, the reference."""
    n = m.dim
    total = m.field.zero
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = math.prod((m.rows[i][perm[i]] for i in range(n)), start=m.field.one)
        total = total - term if inversions % 2 else total + term
    return total


def test_det_matches_leibniz_formula():
    q = RationalField()
    one, zero = q.one, q.zero
    # every permutation matrix of size 5: the pivot columns arrive in each order
    for perm in permutations(range(5)):
        m = SquareMatrix(q, [[one if j == p else zero for j in range(5)] for p in perm])
        assert m.det() == leibniz_det(m), perm
    rng = random.Random(8128)
    for n in range(2, 6):
        for trial in range(12):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            rows[trial % n][0] = 0  # a zero leading entry
            if trial % 3 == 0:
                # singular: the last row a combination of earlier ones
                rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[-2])]
            rng.shuffle(rows)
            m = SquareMatrix(q, [[q.const(x) for x in row] for row in rows])
            assert m.det() == leibniz_det(m), rows


def test_singular_matrix_raises():
    q = RationalField()
    m = SquareMatrix(q, [[q.one, q.one], [q.one, q.one]])
    with pytest.raises(ZeroDivisionError):
        m.inverse()
    assert m.det().is_zero()


def test_cayley_hamilton_dims_2_to_5():
    q = RationalField()
    rng = random.Random(60321)
    for n in range(2, 6):
        for _ in range(3):
            m = random_rational_matrix(q, rng, n)
            p = char_poly(m)
            assert len(p.coeffs) - 1 == n
            assert p.coeffs[-1] == q.one
            assert p.eval_matrix(m).is_zero()


def test_char_poly_known_values():
    q = RationalField()
    m = SquareMatrix(q, [[q.const(2), q.one], [q.zero, q.const(3)]])
    p = char_poly(m)
    # (t-2)(t-3) = t^2 - 5t + 6
    assert [c.render() for c in p.coeffs] == ["6", "-5", "1"]


def test_min_poly_divides_char_poly():
    q = RationalField()
    rng = random.Random(2718)
    for n in range(2, 6):
        for _ in range(3):
            m = random_rational_matrix(q, rng, n)
            mp = min_poly(m)
            cp = char_poly(m)
            assert mp.coeffs[-1] == q.one
            assert mp.eval_matrix(m).is_zero()
            _, rem = poly_divmod(cp.coeffs, mp.coeffs)
            assert all(x.is_zero() for x in rem)


def test_min_poly_detects_scalar_and_projection():
    q = RationalField()
    ident = SquareMatrix.identity(q, 4)
    assert len(min_poly(ident).coeffs) - 1 == 1
    proj = SquareMatrix(
        q,
        [
            [q.one, q.zero, q.zero],
            [q.zero, q.one, q.zero],
            [q.zero, q.zero, q.zero],
        ],
    )
    mp = min_poly(proj)
    # t^2 - t
    assert [c.render() for c in mp.coeffs] == ["0", "-1", "1"]


def test_rank_and_nullspace():
    q = RationalField()
    m = SquareMatrix(
        q,
        [
            [q.one, q.const(2), q.const(3)],
            [q.const(2), q.const(4), q.const(6)],
            [q.one, q.zero, q.one],
        ],
    )
    assert RowSpace(q, 3, m.rows).rank == 2
    rows = [list(r) for r in m.rows]
    assert nullspace_dim(q, rows, 3) == 1
    basis = nullspace_basis(q, rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        acc = q.zero
        for x, c in zip(row, v):
            acc = acc + x * c
        assert acc.is_zero()


def test_nullspace_of_zero_rows():
    q = RationalField()
    assert nullspace_dim(q, [], 4) == 4
    basis = nullspace_basis(q, [], 3)
    assert len(basis) == 3


def test_row_space_incremental():
    q = RationalField()
    rs = RowSpace(q, 4)
    e = lambda *vals: [q.const(v) for v in vals]
    assert rs.insert(e(1, 2, 0, 0))
    assert rs.insert(e(0, 1, 1, 0))
    assert not rs.insert(e(1, 3, 1, 0))  # sum of the first two
    assert rs.rank == 2
    assert contains(rs, e(2, 5, 1, 0))
    assert not contains(rs, e(0, 0, 0, 1))
    assert rs.insert(e(0, 0, 0, 1))
    assert rs.rank == 3


def test_row_space_rank_known_by_construction():
    # r basis vectors that restrict to the identity on r chosen columns are
    # independent; a unitriangular mix of them plus extra combinations and a
    # zero row spans a space of rank exactly r
    q = RationalField()
    rng = random.Random(515)
    ncols = 6
    for _ in range(20):
        r = rng.randint(1, 5)
        chosen = rng.sample(range(ncols), r)
        basis = []
        for p in chosen:
            v = [q.const(random_fraction(rng, 3)) for _ in range(ncols)]
            for c in chosen:
                v[c] = q.one if c == p else q.zero
            basis.append(v)

        def coeffs(k):
            return [q.const(random_fraction(rng, 3)) for _ in range(k)]

        def combine(cs):
            return [sum((c * b[j] for c, b in zip(cs, basis)), q.zero) for j in range(ncols)]

        vectors = [combine([q.zero] * i + [q.one] + coeffs(r - i - 1)) for i in range(r)]
        vectors += [combine(coeffs(r)) for _ in range(3)]
        vectors.append([q.zero] * ncols)
        rng.shuffle(vectors)
        rs = RowSpace(q, ncols)
        for v in vectors:
            rs.insert(v)
        assert rs.rank == r
        assert all(contains(rs, v) for v in basis)
        # reduced echelon form: strictly increasing pivots, each a 1 with
        # zeros elsewhere in its column and before it in its row
        assert rs.pivots == sorted(set(rs.pivots))
        for i, (row, p) in enumerate(zip(rs.rows, rs.pivots)):
            assert row[p] == q.one
            assert all(x.is_zero() for x in row[:p])
            assert all(other[p].is_zero() for k, other in enumerate(rs.rows) if k != i)


@pytest.mark.parametrize("field", [RationalField(), cyclotomic_field(5)], ids=repr)
def test_row_space_refuses_a_vector_of_the_wrong_length(field):
    # an empty space once took the first vector's length, and the integer
    # rows' zip loops would truncate a later one silently
    space = RowSpace(field, 3)
    for length in (2, 4):
        with pytest.raises(ValueError, match="width 3"):
            space.insert([field.one] * length)
        with pytest.raises(ValueError, match="width 3"):
            space.reduce([field.one] * length)
    assert space.rank == 0
    assert space.insert([field.one, field.zero, field.one])
    with pytest.raises(ValueError):
        space.insert([field.one] * 4)
    assert space.rank == 1


def test_row_space_refuses_a_scalar_from_another_backend():
    # the first vector of an empty space meets no stored row, so the entries
    # themselves are checked: over Q a Q(zeta_5) entry has no denominator
    q, k = RationalField(), cyclotomic_field(5)
    for field, row in ((q, [k.gen, k.one]), (q, [q.one, k.one]), (k, [k.gen, q.one])):
        space = RowSpace(field, 2)
        with pytest.raises(BackendMismatch):
            space.insert(row)
        with pytest.raises(BackendMismatch):
            space.reduce(row)
        assert space.rank == 0
    with pytest.raises(TypeError):
        RowSpace(q, 2).insert([1, 2])


def test_matrices_and_row_spaces_refuse_foreign_entries_alike():
    q, k = RationalField(), cyclotomic_field(5)
    entry_points = (lambda field, row: SquareMatrix(field, [row, row]),
                    lambda field, row: RowSpace(field, 2).insert(row))
    for build in entry_points:
        with pytest.raises(BackendMismatch, match="^entry from a different field$"):
            build(q, [q.one, k.one])
        with pytest.raises(TypeError, match="^entries must be Scalars$") as refused:
            build(q, [q.one, 1])
        assert not isinstance(refused.value, BackendMismatch)


HUGE = Fraction(10**30, 7**20)


def kernel_entry(rng):
    """Mostly small fractions of either sign, some zeros, some near 10^13."""
    roll = rng.random()
    if roll < 0.25:
        return Fraction(0)
    if roll < 0.35:
        return HUGE * random_nonzero_fraction(rng)
    return random_fraction(rng)


def rational_systems(rng, count, widths, max_rank=8):
    """Seeded row lists over Q of rank at most max_rank: full-rank and
    rank-deficient systems with zero rows, duplicate and negated rows, in
    shuffled order."""
    q = RationalField()
    for _ in range(count):
        ncols = rng.choice(widths)
        rank = rng.randint(1, min(ncols, max_rank))
        basis = [[kernel_entry(rng) for _ in range(ncols)] for _ in range(rank)]
        rows = [list(b) for b in basis]
        for _ in range(rng.randint(0, 3)):
            cs = [random_fraction(rng) for _ in basis]
            rows.append([sum(c * b[j] for c, b in zip(cs, basis)) for j in range(ncols)])
        pick = rng.choice(basis)
        rows += [[Fraction(0)] * ncols, list(pick), [-x for x in pick]]
        rng.shuffle(rows)
        yield ncols, [[q.const(x) for x in row] for row in rows]


def test_integer_rows_match_the_fraction_kernel_on_random_systems():
    q = RationalField()
    rng = random.Random(1968)
    systems = [*rational_systems(rng, 120, (1, 2, 3, 4, 5, 8)),
               *rational_systems(rng, 12, (13, 25, 50)),
               *rational_systems(rng, 2, (25,), max_rank=25)]
    for ncols, rows in systems:
        probes = [[q.const(kernel_entry(rng)) for _ in range(ncols)] for _ in range(3)]
        probes += rows[:2]
        assert_kernels_agree(q, ncols, rows, probes)


def test_integer_det_matches_the_fraction_kernel():
    q = RationalField()
    one, zero = q.one, q.zero
    # permutation matrices: det is the sign, whatever order the pivots arrive in
    for n in (2, 3, 4):
        for perm in permutations(range(n)):
            m = SquareMatrix(q, [[one if j == p else zero for j in range(n)] for p in perm])
            inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
            assert m.det() == fraction_det(m) == q.const((-1) ** inversions)
    rng = random.Random(1969)
    for n in range(2, 9):
        diag = [q.const(kernel_entry(rng) or 1) for _ in range(n)]
        # upper and lower triangular: det is the diagonal product, pivots
        # negative or huge
        for upper in (True, False):
            m = SquareMatrix.from_function(q, n, lambda i, j: (
                diag[i - 1] if i == j
                else q.const(kernel_entry(rng)) if (i < j) == upper else zero
            ))
            assert m.det() == fraction_det(m) == math.prod(diag, start=one)
        for _, rows in rational_systems(rng, 3, (n,)):
            # full rank or singular, with repeated rows when there are fewer than n
            m = SquareMatrix(q, (rows * n)[:n])
            assert m.det() == fraction_det(m)
        m = SquareMatrix(q, [[q.const(kernel_entry(rng)) for _ in range(n)] for _ in range(n)])
        assert m.det() == fraction_det(m)


def test_spin_orbit_of_a_vector():
    q = RationalField()
    e = lambda *vals: [q.const(v) for v in vals]
    # the shift e1 -> e2 -> e3 -> e4 carries e1 around the whole space
    shift = [e(0, 0, 0, 0), e(1, 0, 0, 0), e(0, 1, 0, 0), e(0, 0, 1, 0)]
    space = spin(q, e(1, 0, 0, 0), [times(shift)])
    assert space.rank == 4 and space.pivots == [0, 1, 2, 3]
    # e3 only reaches e4 under the shift, and the diagonal map fixes both lines
    diagonal = [e(2, 0, 0, 0), e(0, 3, 0, 0), e(0, 0, 5, 0), e(0, 0, 0, 7)]
    space = spin(q, e(0, 0, 1, 0), [times(diagonal), times(shift)])
    assert space.rank == 2 and space.pivots == [2, 3]
    assert spin(q, e(1, 1, 0, 0), [times(diagonal)]).rank == 2


def test_scalar_matrix_detection():
    q = RationalField()
    m = SquareMatrix.identity(q, 3).scale(q.const(Fraction(7, 2)))
    assert m.scalar_value() == q.const(Fraction(7, 2))
    m2 = SquareMatrix(q, [[q.one, q.one], [q.zero, q.one]])
    assert m2.scalar_value() is None


SUPPORTS = {
    "upper": lambda d: lambda i, j: i <= j,
    "lower": lambda d: lambda i, j: i >= j,
    "skew-diagonal": lambda d: lambda i, j: i + j == d + 1,
    "on or above the skew diagonal": lambda d: lambda i, j: i + j <= d + 1,
}


@pytest.mark.parametrize("name", SUPPORTS)
def test_zero_outside_support_boundary(name):
    q = RationalField()
    for d in range(2, 6):
        support = SUPPORTS[name](d)
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                # a single nonzero entry is allowed exactly on the support; the
                # cells next to a boundary are the ones an off-by-one misreads
                m = SquareMatrix.from_function(
                    q, d, lambda r, c: q.one if (r, c) == (i, j) else q.zero
                )
                assert m.zero_outside(support) is support(i, j), (name, d, i, j)


def test_unipoly_divmod_and_eval():
    q = RationalField()
    # (t^2+1)(t-3) + 2 = t^3 - 3t^2 + t - 1
    p = UniPoly(q, [q.const(-1), q.one, q.const(-3), q.one])
    d = UniPoly(q, [q.const(-3), q.one])
    quo, rem = poly_divmod(p.coeffs, d.coeffs)
    assert [c.render() for c in quo] == ["1", "0", "1"]
    assert [c.render() for c in rem] == ["2"]
    assert horner(p.coeffs, q.const(3)) == q.const(2)


def test_dimension_bounds_enforced():
    q = RationalField()
    with pytest.raises(ValueError):
        SquareMatrix(q, [[q.one]])
    with pytest.raises(ValueError):
        SquareMatrix.identity(q, 9)


def test_vec_row_major():
    q = RationalField()
    m = SquareMatrix(q, [[q.one, q.const(2)], [q.const(3), q.const(4)]])
    assert [s.render() for s in vec(m)] == ["1", "2", "3", "4"]
