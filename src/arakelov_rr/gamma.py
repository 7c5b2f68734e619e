"""Finite pointed sets, base-point preserving maps, and subset-sum modules.

Level-k data is a k-tuple of exact scalars (int or Fraction).  A pointed
map pushes such a tuple forward by summing over preimages.  The modules
of interest consist of the tuples all of whose subset sums stay inside a
prescribed subset of the scalar line; the exhaustive membership test
lives here together with a linear-time shortcut for symmetric intervals.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from fractions import Fraction

from ._record import record
from .errors import DomainError, LevelMismatchError, SizeCapError

Scalar = int | Fraction

#: Image value that sends an element to the base point.
BASEPOINT = 0

#: The sum over the empty index set.  Shared by every module that speaks
#: about subset sums so the convention lives in exactly one place.
EMPTY_SUM = 0

#: Hard cap on exhaustive subset enumeration (2**k sums).
SUBSET_ENUM_CAP = 24


def _checked_scalar(value: Scalar) -> Scalar:
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise DomainError(f"exact scalar (int or Fraction) required, got {value!r}")
    return value


@record
class PointedMap:
    """A base-point preserving map from the pointed set k+ to m+.

    ``image[i]`` is where element i+1 goes: ``BASEPOINT`` (0) for the base
    point, otherwise a value in 1..target_size.
    """

    source_size: int
    target_size: int
    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.source_size < 0 or self.target_size < 0:
            raise DomainError("pointed set sizes must be nonnegative")
        if len(self.image) != self.source_size:
            raise LevelMismatchError(
                f"image has {len(self.image)} entries for source size {self.source_size}"
            )
        for value in self.image:
            if isinstance(value, bool) or not isinstance(value, int):
                raise DomainError(f"image entries must be ints, got {value!r}")
            if not 0 <= value <= self.target_size:
                raise DomainError(
                    f"image entry {value} outside 0..{self.target_size}"
                )

    @classmethod
    def identity(cls, k: int) -> "PointedMap":
        return cls(k, k, tuple(range(1, k + 1)))

    def compose(self, other: "PointedMap") -> "PointedMap":
        """self after other (apply ``other`` first)."""
        if other.target_size != self.source_size:
            raise LevelMismatchError(
                f"cannot compose: inner target {other.target_size} != outer source {self.source_size}"
            )
        image = tuple(
            BASEPOINT if v == BASEPOINT else self.image[v - 1] for v in other.image
        )
        # valid by construction, so built without __post_init__
        composed = object.__new__(PointedMap)
        _set_source(composed, other.source_size)
        _set_target(composed, self.target_size)
        _set_image(composed, image)
        return composed


#: Set a map's fields past the frozen __setattr__ (the slots' own setters).
_set_source, _set_target, _set_image = (
    field.__set__ for field in (PointedMap.source_size, PointedMap.target_size, PointedMap.image)
)


@record
class PointedVector:
    """An element of the level-k module: a k-tuple of exact scalars."""

    entries: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        _set_entries(self, tuple(_checked_scalar(e) for e in self.entries))

    @property
    def level(self) -> int:
        return len(self.entries)


#: Sets a vector's entries past the frozen __setattr__ (the slot's own setter).
_set_entries = PointedVector.entries.__set__


def _unchecked(entries: tuple[Scalar, ...]) -> PointedVector:
    """A vector of scalars built from checked ones: skips __post_init__."""
    x = object.__new__(PointedVector)
    _set_entries(x, entries)
    return x


def vector(*entries: Scalar) -> PointedVector:
    """Convenience constructor: vector(1, -2, 5)."""
    return PointedVector(tuple(entries))


@record
class SubsetSpec:
    """A subset of the scalar line used to constrain subset sums.

    Three kinds: ``symmetric`` is the closed interval [-bound, bound],
    ``integers`` its integer points, ``explicit`` a finite set (which must
    contain 0, the empty sum).
    """

    kind: str
    bound: Scalar | None = None
    members: frozenset | None = None

    @classmethod
    def symmetric(cls, bound: Scalar) -> "SubsetSpec":
        bound = _checked_scalar(bound)
        if bound < 0:
            raise DomainError("symmetric interval needs a nonnegative bound")
        return cls("symmetric", bound=bound)

    @classmethod
    def integers(cls, a: int) -> "SubsetSpec":
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            raise DomainError("integer interval needs a nonnegative int bound")
        return cls("integers", bound=a)

    @classmethod
    def explicit(cls, values: Iterable[Scalar]) -> "SubsetSpec":
        members = frozenset(_checked_scalar(v) for v in values)
        if EMPTY_SUM not in members:
            raise DomainError("an explicit subset must contain 0 (the empty sum)")
        return cls("explicit", members=members)

    def contains(self, value: Scalar) -> bool:
        if self.kind == "symmetric":
            return -self.bound <= value <= self.bound
        if self.kind == "integers":
            q = Fraction(value)
            return q.denominator == 1 and -self.bound <= q <= self.bound
        return value in self.members

    def scaled_test(self, scale: int) -> Callable[[int], bool]:
        """The test ``t -> self.contains(Fraction(t, scale))`` on integers t."""
        if self.kind == "symmetric":
            limit = math.floor(self.bound * scale)
            return lambda t: -limit <= t <= limit
        if self.kind == "integers":
            limit = self.bound * scale
            return lambda t: t % scale == 0 and -limit <= t <= limit
        scaled = (Fraction(v) * scale for v in self.members)
        allowed = frozenset(int(v) for v in scaled if v.denominator == 1)
        return allowed.__contains__


def pushforward(phi: PointedMap, x: PointedVector) -> PointedVector:
    """Apply phi to x: entry l of the result sums the entries phi sends to l."""
    if x.level != phi.source_size:
        raise LevelMismatchError(
            f"vector level {x.level} does not match map source {phi.source_size}"
        )
    sums: list[Scalar] = [EMPTY_SUM] * phi.target_size
    for value, target in zip(x.entries, phi.image):
        if target != BASEPOINT:
            sums[target - 1] = sums[target - 1] + value
    return _unchecked(tuple(sums))


def member_subfunctor(x: PointedVector, subset: SubsetSpec) -> bool:
    """Whether every subset of the entries of x sums into ``subset``.

    Exhaustive over all 2**k index subsets, including the empty one.  This
    is the reference predicate; the linear-time variants below are tested
    against it.  The sums are taken over ints: every entry is multiplied by
    the lcm of the denominators, and the subset test is scaled to match.
    Zero entries are skipped, as they add no new sum.  Gray-code order
    keeps each step to a single add, and a violating sum exits immediately.
    """
    k = x.level
    if k > SUBSET_ENUM_CAP:
        raise SizeCapError(
            f"membership would enumerate 2**{k} sums; cap is 2**{SUBSET_ENUM_CAP}"
        )
    if not subset.contains(EMPTY_SUM):
        return False
    scale = math.lcm(*(e.denominator for e in x.entries))
    entries = [e.numerator * (scale // e.denominator) for e in x.entries if e != 0]
    inside = subset.scaled_test(scale)
    total = 0
    picked = 0
    for counter in range(1, 1 << len(entries)):
        index = (counter & -counter).bit_length() - 1
        bit = 1 << index
        picked ^= bit
        if picked & bit:
            total += entries[index]
        else:
            total -= entries[index]
        if not inside(total):
            return False
    return True


def member_fast_symmetric(x: PointedVector, bound: Scalar) -> bool:
    """Linear-time membership test for the symmetric interval [-bound, bound].

    Agrees with member_subfunctor(x, SubsetSpec.symmetric(bound)): the
    extreme subset sums are the sum of the positive entries and the sum of
    the negative entries, so checking those two suffices.
    """
    bound = _checked_scalar(bound)
    if bound < 0:
        raise DomainError("symmetric interval needs a nonnegative bound")
    positive = sum((e for e in x.entries if e > 0), EMPTY_SUM)
    negative = sum((e for e in x.entries if e < 0), EMPTY_SUM)
    return positive <= bound and -negative <= bound


def member_norm(x: PointedVector, bound: Scalar) -> bool:
    """Whether the l1 norm of x is at most bound."""
    bound = _checked_scalar(bound)
    return sum((abs(e) for e in x.entries), EMPTY_SUM) <= bound


def smash_action(alpha: PointedVector, a: PointedVector) -> PointedVector:
    """Act by a tuple of unit total mass: entries alpha_i * a_j, row-major in (i, j).

    The acting tuple must satisfy member_norm(alpha, 1); the all-zero
    base point of either factor collapses the product to the base point.
    """
    if not member_norm(alpha, 1):
        raise DomainError("acting tuple must have l1 norm at most 1")
    return _unchecked(tuple(ai * aj for ai in alpha.entries for aj in a.entries))
