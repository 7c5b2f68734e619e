"""Finite subsets of the dyadic circle and the H1 dimension.

Points live on R/Z as exact Fractions in [0, 1).  A finite pointed family
generates the lambda-coarsened circle when its subset sums come within
lambda of every point; the workhorse family F(m) consists of the m points
(-2)**-j reduced mod 1, whose subset sums are exactly the 2**m multiples
of 2**-m.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from ._record import record
from .errors import DomainError, OutOfRangeError, SizeCapError
from .exact import _checked_rational, degree_floor

#: Cap on exhaustive subset-sum enumeration (2**m sums).
SUBSET_SUM_CAP = 24


def circle_point(value) -> Fraction:
    """Reduce an exact rational to its representative in [0, 1)."""
    q = _checked_rational(value, "circle point")
    return q - math.floor(q)


def _on_common_denominator(points: Iterable) -> tuple[int, list[int]]:
    """(d, ns): the points reduced mod 1 are exactly the n / d for n in ns."""
    qs = [_checked_rational(p, "circle point") for p in points]
    d = math.lcm(*(q.denominator for q in qs))
    return d, [q.numerator * (d // q.denominator) % d for q in qs]


def f_generators(m: int) -> tuple[Fraction, ...]:
    """The family F(m): for j = 1..m, the point (-2)**-j reduced mod 1.

    Odd j gives 1 - 2**-j, even j gives 2**-j.  Its 2**m subset sums are
    exactly the multiples of 2**-m (see subset_sums); that is the
    smallest family with this span, by counting.
    """
    if m < 0:
        raise OutOfRangeError("m must be nonnegative")
    points = []
    for j in range(1, m + 1):
        if j % 2:
            points.append(1 - Fraction(1, 2 ** j))
        else:
            points.append(Fraction(1, 2 ** j))
    return tuple(points)


def _sums_mod(d: int, steps: Sequence[int]) -> set[int]:
    """All subset sums of the residues steps, mod d (empty sum included)."""
    if len(steps) > SUBSET_SUM_CAP:
        raise SizeCapError(
            f"subset sums would enumerate 2**{len(steps)}; cap is 2**{SUBSET_SUM_CAP}"
        )
    sums = {0}
    for step in steps:
        sums |= {(s + step) % d for s in sums}
    return sums


def _widest_gap(d: int, pts: Sequence[int]) -> int:
    """Widest cyclic gap between the sorted distinct residues pts mod d
    (d for a single point)."""
    return max(d - pts[-1] + pts[0], max(map(operator.sub, pts[1:], pts), default=0))


def subset_sums(points: Sequence[Fraction]) -> frozenset:
    """All subset sums of the family, reduced mod 1 (empty sum included)."""
    d, steps = _on_common_denominator(points)
    return frozenset(Fraction(s, d) for s in _sums_mod(d, steps))


def covering_radius(points: Iterable[Fraction]) -> Fraction:
    """Largest arc distance from any circle point to the set: half the
    widest cyclic gap between consecutive points."""
    d, ns = _on_common_denominator(points)
    if not ns:
        raise DomainError("covering radius of an empty set is infinite")
    return Fraction(_widest_gap(d, sorted(set(ns))), 2 * d)


def min_separation(points: Iterable[Fraction]) -> Fraction:
    """Smallest pairwise arc distance (distinct points required).

    On a sorted circle the minimum is attained by cyclically adjacent
    points (any other pair is separated by a sum of gaps on both sides),
    so a single linear sweep suffices.
    """
    pts = sorted({circle_point(p) for p in points})
    if len(pts) < 2:
        raise DomainError("separation needs at least two distinct points")
    gaps = [pts[i + 1] - pts[i] for i in range(len(pts) - 1)]
    gaps.append(1 - pts[-1] + pts[0])
    return min(gaps)


def _checked_lambda(lam) -> Fraction:
    lam = _checked_rational(lam, "lambda")
    if lam <= 0:
        raise DomainError("lambda must be positive")
    return lam


def is_generating(points: Sequence[Fraction], lam) -> bool:
    """Whether the family generates the lambda-coarsened circle.

    Two conditions: the family itself is faithfully separated (pairwise
    arc distance strictly above lambda, vacuous for at most one point),
    and its subset sums come within lambda of every circle point.  The
    boundary is closed: covering radius exactly lambda still generates.
    """
    lam = _checked_lambda(lam)
    pts = tuple(points)
    if len(pts) > 1 and min_separation(pts) <= lam:
        return False
    return covering_radius(subset_sums(pts)) <= lam


def lower_bound_cardinality(lam) -> int:
    """Least k with 2**k * (2 * lam) >= 1: k points yield at most 2**k
    subset sums, and that many closed arcs of radius lam must cover the
    circle of circumference 1."""
    # 2**k >= 1 / (2 * lam) exactly when 2**k >= its ceiling, which is >= 1
    return (math.ceil(1 / (2 * _checked_lambda(lam))) - 1).bit_length()


@record
class CircleCertificate:
    """Exact audit of the family F(m) at its critical coarsening."""

    m: int
    lam: Fraction
    family: tuple[Fraction, ...]
    sum_count: int
    sums_are_dyadic_grid: bool
    covering: Fraction
    separation: Fraction | None
    cardinality_bound: int
    generating: bool

    @property
    def passed(self) -> bool:
        return (
            self.generating
            and self.sums_are_dyadic_grid
            and self.sum_count == 2 ** self.m
            and self.cardinality_bound == len(self.family)
        )


def certify_family(m: int) -> CircleCertificate:
    """Certify F(m) at lam = 2**-(m+1): its 2**m subset sums are exactly
    the multiples of 2**-m, the covering radius is exactly lam, and no
    smaller family could cover (counting bound)."""
    if m < 1:
        raise OutOfRangeError("m must be positive")
    lam = Fraction(1, 2 ** (m + 1))
    family = f_generators(m)
    d, steps = _on_common_denominator(family)
    sums = _sums_mod(d, steps)
    # 2**m distinct points of [0, 1), all multiples of 2**-m, are the grid.
    on_grid = all((s << m) % d == 0 for s in sums)
    return CircleCertificate(
        m=m,
        lam=lam,
        family=family,
        sum_count=len(sums),
        sums_are_dyadic_grid=on_grid and len(sums) == 2 ** m,
        covering=Fraction(_widest_gap(d, sorted(sums)), 2 * d),
        separation=min_separation(family) if m >= 2 else None,
        cardinality_bound=lower_bound_cardinality(lam),
        # Through the public subset_sums and covering_radius, which stay on
        # the dim-h1 path as intended bench layers.  They share _sums_mod
        # and _widest_gap with the fields above, so this is no independent
        # check of them.
        generating=is_generating(family, lam),
    )


def dim_h1(deg2) -> int:
    """Dimension at degree deg2 (log2 units): 0 at and above degree -1,
    and m on the window [-m - 1, -m).

    Reads the degree as exact.degree_floor does.
    """
    return max(0, -degree_floor(deg2, "degree") - 1)
