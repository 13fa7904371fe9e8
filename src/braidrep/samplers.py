"""Seeded parameter samplers for sweeps and oracle cross-checks.

All samplers take an explicit random.Random instance so a fixed seed
reproduces the exact parameter stream.  Values are small rationals (bounded
numerator and denominator) to keep exact arithmetic cheap; dependent
parameters are derived so the family constraints hold by construction.
"""

from fractions import Fraction

from .fields import RationalField, cyclotomic_field, root_of_unity
from .reps import CLASSIFIED, RepSpec, solved_classified_spec


def small_fraction(rng, bound=10):
    """Nonzero rational with |numerator| and denominator at most bound."""
    # one draw from the 2*bound nonzero numerators -bound..-1, 1..bound, as
    # rng.choice would make from their list, without building it
    k = rng.randrange(2 * bound)
    num = k - bound if k < bound else k - bound + 1
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_classified_spec(d, rng, field=None, bound=10):
    """Random specialized spec for the classified family.

    d values are drawn.  For d=4 and d=5 the last one is the root parameter
    and the last eigenvalue is derived from it, so the family constraint
    holds by construction.
    """
    if not 2 <= d <= 5:
        raise ValueError("classified family covers dimensions 2..5, got %d" % d)
    if field is None:
        field = RationalField()
    values = [field.const(small_fraction(rng, bound)) for _ in range(d)]
    if d <= 3:
        return RepSpec(CLASSIFIED, values)
    return solved_classified_spec(values[:-1], values[-1])


def degenerate_classified_spec(d, rng, field=None, bound=10):
    """Spec sitting on the non-simple locus: one obstruction factor is zero.

    One eigenvalue (or the root parameter) is solved from a vanishing factor
    rather than rejection-sampled, so coverage of the locus is guaranteed.
    Dimension 2 has no rational zeros, so it defaults to the sixth-cyclotomic
    field; other dimensions default to the rationals.
    """
    if d == 2:
        # l1^2 - l1*l2 + l2^2 = 0 at l2 = z*l1 for a primitive sixth root z
        if field is None:
            field = cyclotomic_field(6)
        z = root_of_unity(field, 6)
        l1 = field.const(small_fraction(rng, bound))
        return RepSpec(CLASSIFIED, [l1, z * l1])
    if field is None:
        field = RationalField()
    if d == 3:
        # l1^2 + l2*l3 = 0 at l3 = -l1^2/l2
        l1 = field.const(small_fraction(rng, bound))
        l2 = field.const(small_fraction(rng, bound))
        return RepSpec(CLASSIFIED, [l1, l2, -(l1 ** 2) / l2])
    if d == 4:
        # the square of the root parameter is l2*l3/D; choosing D = -l2*l3/l1^2
        # makes that square equal -l1^2, so l1^2 + gamma^2 = 0
        l1, l2, l3 = (field.const(small_fraction(rng, bound)) for _ in range(3))
        root = -(l2 * l3) / l1 ** 2
        return solved_classified_spec([l1, l2, l3], root)
    if d == 5:
        # gamma^2 + l1*l2 = 0 at l2 = -gamma^2/l1
        l1 = field.const(small_fraction(rng, bound))
        g = field.const(small_fraction(rng, bound))
        l2 = -(g ** 2) / l1
        l3, l4 = (field.const(small_fraction(rng, bound)) for _ in range(2))
        return solved_classified_spec([l1, l2, l3, l4], g)
    raise ValueError("classified family covers dimensions 2..5, got %d" % d)


def central_unit_spec(d, rng, field=None, bound=10):
    """Spec whose central scalar is 1.

    Each case pins one parameter so that the closed form of the central
    scalar, classify.delta_from_spec, collapses to 1.
    """
    if field is None:
        field = RationalField()
    if d == 2:
        l1 = field.const(small_fraction(rng, bound))
        return RepSpec(CLASSIFIED, [l1, field.const(-1) / l1])
    if d == 3:
        l1, l2 = (field.const(small_fraction(rng, bound)) for _ in range(2))
        sign = field.const(rng.choice((1, -1)))
        return RepSpec(CLASSIFIED, [l1, l2, sign / (l1 * l2)])
    if d == 4:
        l1, l2, l3 = (field.const(small_fraction(rng, bound)) for _ in range(3))
        return solved_classified_spec([l1, l2, l3], field.const(-1) * l2 * l3)
    if d == 5:
        l1, l2, l3, l4 = (field.const(small_fraction(rng, bound)) for _ in range(4))
        g = field.const(rng.choice((1, -1)))
        return solved_classified_spec([l1, l2, l3, l4], g)
    raise ValueError("classified family covers dimensions 2..5, got %d" % d)
