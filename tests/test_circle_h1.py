"""Circle families: exact covering radii, separations, and certification."""

import itertools
import random
from decimal import Decimal
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from arakelov_rr import circle_h1
from arakelov_rr.errors import DomainError, OutOfRangeError, SizeCapError


# ---------------------------------------------------------------------------
# brute-force oracles on the unit circle R/Z
# ---------------------------------------------------------------------------


def oracle_distance(x, y):
    d = abs(Fraction(x) - Fraction(y)) % 1
    return min(d, 1 - d)


def oracle_subset_sums(points):
    sums = set()
    for r in range(len(points) + 1):
        for combo in itertools.combinations(points, r):
            sums.add(sum(combo, Fraction(0)) % 1)
    return sums


def oracle_covering(points):
    """Worst distance to the set, attained at a midpoint of a cyclic gap."""
    pts = sorted(set(points))
    candidates = []
    for i, p in enumerate(pts):
        q = pts[(i + 1) % len(pts)] + (1 if i + 1 == len(pts) else 0)
        candidates.append((p + q) / 2 % 1)
    return max(
        min(oracle_distance(c, p) for p in pts) for c in candidates
    )


def oracle_separation(points):
    pts = sorted(set(points))
    return min(
        oracle_distance(x, y) for x, y in itertools.combinations(pts, 2)
    )


def fraction_subset_sums(points):
    # subset_sums as it was before it moved to ints
    sums = {circle_h1.circle_point(0)}
    for p in points:
        p = circle_h1.circle_point(p)
        sums |= {circle_h1.circle_point(s + p) for s in sums}
    return frozenset(sums)


def fraction_covering_radius(points):
    # covering_radius as it was before it moved to ints
    pts = sorted({circle_h1.circle_point(p) for p in points})
    if len(pts) == 1:
        return Fraction(1, 2)
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)] + [1 - pts[-1] + pts[0]]
    return max(gaps) / 2


def two_pass_certify_family(m):
    # certify_family as it was before its int kernel, on the Fraction
    # helpers above: one pass over the sums here, one more for generating
    lam = Fraction(1, 2 ** (m + 1))
    family = circle_h1.f_generators(m)
    sums = fraction_subset_sums(family)
    on_grid = all(2 ** m % s.denominator == 0 for s in sums)
    separated = m < 2 or oracle_separation(family) > lam
    return circle_h1.CircleCertificate(
        m=m,
        lam=lam,
        family=family,
        sum_count=len(sums),
        sums_are_dyadic_grid=on_grid and len(sums) == 2 ** m,
        covering=fraction_covering_radius(sums),
        separation=oracle_separation(family) if m >= 2 else None,
        cardinality_bound=circle_h1.lower_bound_cardinality(lam),
        generating=separated
        and fraction_covering_radius(fraction_subset_sums(family)) <= lam,
    )


circle_fractions = st.fractions(min_value=0, max_value=1, max_denominator=64).map(
    lambda q: q % 1
)


# ---------------------------------------------------------------------------
# points and distance
# ---------------------------------------------------------------------------


def test_circle_point_normalizes():
    assert circle_h1.circle_point(Fraction(5, 4)) == Fraction(1, 4)
    assert circle_h1.circle_point(Fraction(-1, 3)) == Fraction(2, 3)
    assert circle_h1.circle_point(7) == 0


def test_circle_point_rejects_float():
    with pytest.raises(DomainError):
        circle_h1.circle_point(0.25)


@pytest.mark.parametrize("bad", [True, False, Decimal("0.75"), None, 1j, 0.25])
def test_circle_inputs_refuse_what_ceil_prime_refuses(bad):
    # one exact-rational check for points and lambda: a bool or a Decimal is
    # refused, and None is a DomainError, not a TypeError from Fraction
    with pytest.raises(DomainError):
        circle_h1.circle_point(bad)
    with pytest.raises(DomainError):
        circle_h1.covering_radius([Fraction(1, 2), bad])
    with pytest.raises(DomainError):
        circle_h1.is_generating([Fraction(1, 2)], bad)


def test_circle_inputs_read_ints_and_strings_exactly():
    assert circle_h1.circle_point("7/4") == Fraction(3, 4)
    assert circle_h1.covering_radius([0, "1/2"]) == Fraction(1, 4)
    assert circle_h1.is_generating([Fraction(1, 2)], "1/4")
    assert not circle_h1.is_generating([Fraction(1, 2)], "1/5")
    for lam in (0, "-1/4"):
        with pytest.raises(DomainError):
            circle_h1.is_generating([Fraction(1, 2)], lam)


# ---------------------------------------------------------------------------
# the family F(m) and its subset sums
# ---------------------------------------------------------------------------


def test_f_generators_frozen():
    assert circle_h1.f_generators(0) == ()
    assert circle_h1.f_generators(4) == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(7, 8),
        Fraction(1, 16),
    )


@hypothesis.given(st.integers(0, 14))
def test_f_generators_closed_form(m):
    points = circle_h1.f_generators(m)
    assert len(points) == m
    for j, p in enumerate(points, start=1):
        if j % 2 == 1:
            assert p == 1 - Fraction(1, 2 ** j)
        else:
            assert p == Fraction(1, 2 ** j)


@hypothesis.given(st.lists(circle_fractions, max_size=8))
def test_subset_sums_match_bruteforce(points):
    assert circle_h1.subset_sums(points) == frozenset(oracle_subset_sums(points))


def random_non_dyadic_family(rng):
    points = []
    for _ in range(rng.randint(1, 8)):
        den = rng.choice((3, 5, 6, 12))
        num = rng.randint(-3 * den, 3 * den)
        points.append(rng.choice((Fraction(num, den), f"{num}/{den}", num // den)))
    return points


def test_int_kernels_match_fraction_implementations():
    rng = random.Random(20261018)
    for _ in range(400):
        points = random_non_dyadic_family(rng)
        sums = circle_h1.subset_sums(points)
        assert sums == fraction_subset_sums(points)
        assert all(type(s) is Fraction for s in sums)
        for family in (points, sums):
            radius = circle_h1.covering_radius(family)
            assert type(radius) is Fraction
            assert radius == fraction_covering_radius(family)
    assert circle_h1.subset_sums([]) == frozenset({Fraction(0)})


def test_int_kernels_reject_floats():
    with pytest.raises(DomainError):
        circle_h1.subset_sums([Fraction(1, 3), 0.25])
    with pytest.raises(DomainError):
        circle_h1.covering_radius([0.5])


def test_subset_sums_cap():
    # refused before a single sum is enumerated
    points = circle_h1.f_generators(circle_h1.SUBSET_SUM_CAP + 1)
    with pytest.raises(SizeCapError):
        circle_h1.subset_sums(points)


def test_sums_fill_dyadic_grid():
    # the 2**m subset sums of F(m) are exactly the multiples of 2**-m
    for m in range(9):
        sums = circle_h1.subset_sums(circle_h1.f_generators(m))
        assert sums == frozenset(
            Fraction(i, 2 ** m) for i in range(2 ** m)
        )


# ---------------------------------------------------------------------------
# covering radius and separation
# ---------------------------------------------------------------------------


@hypothesis.given(st.lists(circle_fractions, min_size=1, max_size=10))
def test_covering_radius_matches_oracle(points):
    assert circle_h1.covering_radius(points) == oracle_covering(points)


def test_covering_radius_single_point():
    assert circle_h1.covering_radius([Fraction(1, 3)]) == Fraction(1, 2)


@hypothesis.given(st.lists(circle_fractions, min_size=2, max_size=10))
def test_min_separation_matches_oracle(points):
    hypothesis.assume(len(set(points)) >= 2)
    assert circle_h1.min_separation(points) == oracle_separation(points)


def test_min_separation_frozen():
    assert circle_h1.min_separation(circle_h1.f_generators(3)) == Fraction(1, 4)
    assert circle_h1.min_separation(circle_h1.f_generators(4)) == Fraction(3, 16)


def test_min_separation_needs_two_points():
    with pytest.raises(DomainError):
        circle_h1.min_separation([Fraction(1, 2)])


def test_covering_radius_of_grid():
    for m in range(1, 8):
        grid = [Fraction(i, 2 ** m) for i in range(2 ** m)]
        assert circle_h1.covering_radius(grid) == Fraction(1, 2 ** (m + 1))


# ---------------------------------------------------------------------------
# generating families and certification
# ---------------------------------------------------------------------------


def test_is_generating_at_threshold():
    for m in range(2, 9):
        family = circle_h1.f_generators(m)
        lam = Fraction(1, 2 ** (m + 1))
        assert circle_h1.is_generating(family, lam)
        # any tighter tolerance leaves the gap midpoints uncovered
        assert not circle_h1.is_generating(family, lam / 2)


def test_is_generating_rejects_bad_lambda():
    with pytest.raises(DomainError):
        circle_h1.is_generating([Fraction(1, 2)], Fraction(0))
    with pytest.raises(DomainError):
        circle_h1.is_generating([Fraction(1, 2)], 0.1)


def test_certify_family_rejects_m0():
    with pytest.raises(OutOfRangeError):
        circle_h1.certify_family(0)


def test_certify_family_small():
    for m in range(1, 11):
        cert = circle_h1.certify_family(m)
        assert cert.generating
        assert cert.lam == Fraction(1, 2 ** (m + 1))
        assert cert.covering == cert.lam
        assert cert.sum_count == 2 ** m
        assert cert.sums_are_dyadic_grid
        assert cert.cardinality_bound == m
        if m >= 2:
            assert cert.separation is not None
            assert cert.separation > cert.lam
        else:
            assert cert.separation is None


def test_certify_family_refuses_sums_off_the_dyadic_grid(monkeypatch):
    # 1/3 and 1/6 have four distinct subset sums, 0, 1/6, 1/3 and 1/2, as
    # many as F(2), but not the quarters: the count alone is no grid
    monkeypatch.setattr(circle_h1, "f_generators", lambda m: (Fraction(1, 3), Fraction(1, 6)))
    cert = circle_h1.certify_family(2)
    assert cert.sum_count == 4
    assert not cert.sums_are_dyadic_grid
    assert not cert.passed


def test_certify_family_matches_the_two_pass_fraction_oracle():
    for m in range(1, 15):
        assert circle_h1.certify_family(m) == two_pass_certify_family(m), m


def test_certify_family_cap():
    # refused before a single sum is enumerated
    with pytest.raises(SizeCapError):
        circle_h1.certify_family(circle_h1.SUBSET_SUM_CAP + 1)


def test_lower_bound_cardinality():
    # least k with 2 * lam * 2**k >= 1
    assert circle_h1.lower_bound_cardinality(Fraction(1, 2)) == 0
    assert circle_h1.lower_bound_cardinality(Fraction(1, 4)) == 1
    assert circle_h1.lower_bound_cardinality(Fraction(1, 8)) == 2
    assert circle_h1.lower_bound_cardinality(Fraction(3, 16)) == 2
    for m in range(0, 16):
        assert circle_h1.lower_bound_cardinality(Fraction(1, 2 ** (m + 1))) == m
    assert circle_h1.lower_bound_cardinality(Fraction(1, 2 ** 20001)) == 20000
    assert circle_h1.lower_bound_cardinality(Fraction(1, 2 ** 20001 - 1)) == 20000


@hypothesis.given(st.fractions(min_value=Fraction(1, 4096), max_value=1, max_denominator=4096))
def test_lower_bound_cardinality_is_least(lam):
    hypothesis.assume(lam > 0)
    k = circle_h1.lower_bound_cardinality(lam)
    assert 2 * lam * 2 ** k >= 1
    if k > 0:
        assert 2 * lam * 2 ** (k - 1) < 1


# ---------------------------------------------------------------------------
# the dimension
# ---------------------------------------------------------------------------


def test_dim_h1_spot_values():
    assert circle_h1.dim_h1(Fraction(-7, 2)) == 3
    assert circle_h1.dim_h1(0) == 0
    assert circle_h1.dim_h1(-1) == 0
    assert circle_h1.dim_h1(-2) == 1
    assert circle_h1.dim_h1(Fraction(-3, 2)) == 1
    assert circle_h1.dim_h1(5) == 0


@hypothesis.given(st.fractions(min_value=-40, max_value=40, max_denominator=8))
def test_dim_h1_closed_form(q):
    import math

    assert circle_h1.dim_h1(q) == max(0, -math.floor(q) - 1)


def test_dim_h1_rejects_float():
    with pytest.raises(DomainError):
        circle_h1.dim_h1(-1.5)


def test_dim_h1_reads_a_string_degree_exactly_and_refuses_non_rationals():
    # as ceil_prime does: a string is an exact rational, None and 1j are not
    assert circle_h1.dim_h1("1/3") == 0
    assert circle_h1.dim_h1("-7/2") == 3
    for bad in (None, 1j):
        with pytest.raises(DomainError):
            circle_h1.dim_h1(bad)
