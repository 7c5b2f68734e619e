"""Admissible generation of symmetric integer intervals, and the H0 dimension.

A set G of nonzero integers in [-a, a] generates the interval when every
target j in [-a, a] is the sum of some subset Z of G that is *admissible*:
all subset sums of Z stay inside [-a, a] (equivalently, the positive part
of Z sums to at most a and the negative part to at least -a).

This module provides the admissibility test, full-interval coverage from
two subset-sum bitsets masked to 0..a (admissibility bounds the positive
and negative parts apart), lexicographically-least witnesses, an explicit
size-(n+1) construction for every a with 2**(n-1) <= a < 2**n, a
deterministic pruned depth-first search for minimal generating sets, and the
resulting dimension formula for nonnegative degrees.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence

from ._record import record
from .errors import DomainError, OutOfRangeError, SizeCapError
from .exact import degree_floor
from .gamma import EMPTY_SUM

#: Largest bound the exhaustive minimal-set search accepts: every a up to
#: it finishes in well under a second (a = 64 takes seconds).
SEARCH_CAP = 63


def _checked_bound(a: int) -> int:
    if isinstance(a, bool) or not isinstance(a, int) or a < 0:
        raise DomainError(f"interval bound must be a nonnegative int, got {a!r}")
    return a


def _checked_generators(generators: Iterable[int], a: int) -> tuple[int, ...]:
    gs = list(generators)
    if len(set(gs)) != len(gs):
        raise DomainError("generators must be distinct")
    for g in gs:
        if isinstance(g, bool) or not isinstance(g, int):
            raise DomainError(f"generators must be ints, got {g!r}")
        if g == 0 or abs(g) > a:
            raise DomainError(f"generator {g} outside [-{a}, {a}] or zero")
    return tuple(sorted(gs))


def is_admissible(zs: Iterable[int], a: int) -> bool:
    """Whether every subset sum of zs stays in [-a, a].

    Positive and negative parts bound all subset sums from above and
    below, so two comparisons decide it.
    """
    a = _checked_bound(a)
    pos = neg = EMPTY_SUM
    for z in zs:
        if z > 0:
            pos += z
        else:
            neg -= z
    return pos <= a and neg <= a


def _extend(loads: tuple[int, int], g: int, full: int) -> tuple[int, int]:
    """Admissible loads after offering one more generator g.

    loads = (ps, qs): bit p of ps is set when the positive generators have
    a subset summing to p, bit q of qs when the negated negative ones have
    a subset summing to q; both are masked by full = (1 << (a + 1)) - 1.
    """
    ps, qs = loads
    if g > 0:
        return ps | ((ps << g) & full), qs
    return ps, qs | ((qs << -g) & full)


def _reachable(generators: Sequence[int], a: int) -> tuple[int, int]:
    """Admissible loads over all subsets of generators (see _extend)."""
    full = (1 << (a + 1)) - 1
    loads = (1, 1)
    for g in generators:
        loads = _extend(loads, g, full)
    return loads


def _coverage(loads: tuple[int, int], a: int) -> int:
    """Bitmask over [-a, a] (bit j + a) of sums p - q reachable admissibly."""
    ps, qs = loads
    out = 0
    while qs:
        q = qs.bit_length() - 1
        qs ^= 1 << q
        out |= ps << (a - q)
    return out


def covers(generators: Iterable[int], a: int) -> bool:
    """Whether every j in [-a, a] has an admissible witness subset."""
    a = _checked_bound(a)
    gs = _checked_generators(generators, a)
    return _coverage(_reachable(gs, a), a) == (1 << (2 * a + 1)) - 1


def first_unrealizable(generators: Iterable[int], a: int) -> int | None:
    """Smallest j in [-a, a] with no admissible witness, or None."""
    a = _checked_bound(a)
    gs = _checked_generators(generators, a)
    mask = _coverage(_reachable(gs, a), a)
    j = (~mask & (mask + 1)).bit_length() - 1 - a
    return j if j <= a else None


def _suffix_states(gs: Sequence[int], a: int) -> list[tuple[int, int]]:
    """suffix[i] = reachable loads using only generators gs[i:]."""
    full = (1 << (a + 1)) - 1
    suffix = [(1, 1)]
    for g in reversed(gs):
        suffix.append(_extend(suffix[-1], g, full))
    return suffix[::-1]


def _completable(loads: tuple[int, int], j: int, p: int, q: int, a: int) -> bool:
    """Can loads (p, q) be extended by some subset in loads to total sum j
    admissibly?  That needs p2 in ps up to a - p and q2 in qs up to a - q
    with p2 - q2 = j - p + q."""
    ps = loads[0] & ((2 << (a - p)) - 1)
    qs = loads[1] & ((2 << (a - q)) - 1)
    shift = j - p + q
    return bool((qs << shift if shift >= 0 else qs >> -shift) & ps)


def _realize_greedy(
    j: int, gs: Sequence[int], a: int, suffix: Sequence[tuple[int, int]]
) -> tuple[int, ...] | None:
    if not _completable(suffix[0], j, 0, 0, a):
        return None
    chosen: list[int] = []
    p = q = 0
    for i, g in enumerate(gs):
        if _completable(suffix[i + 1], j, p, q, a):
            continue
        # Skipping g is infeasible, so every completion takes it (and any
        # completion is admissible, so the new loads cannot overflow).
        if g > 0:
            p += g
        else:
            q -= g
        chosen.append(g)
    return tuple(chosen)


@record
class GeneratingCertificate:
    """A generating set with one admissible witness per target."""

    a: int
    generators: tuple[int, ...]
    witnesses: dict[int, tuple[int, ...]]

    def validate(self) -> bool:
        """Recheck every witness independently of how it was found."""
        if sorted(self.witnesses) != list(range(-self.a, self.a + 1)):
            return False
        gset = set(self.generators)
        for target, witness in self.witnesses.items():
            zs = list(witness)
            if len(set(zs)) != len(zs) or not set(zs) <= gset:
                return False
            if sum(zs, EMPTY_SUM) != target or not is_admissible(zs, self.a):
                return False
        return True


def generates(generators: Iterable[int], a: int) -> GeneratingCertificate | None:
    """Certificate with witnesses for all of [-a, a], or None if any target fails."""
    a = _checked_bound(a)
    gs = _checked_generators(generators, a)
    suffix = _suffix_states(gs, a)
    if _coverage(suffix[0], a) != (1 << (2 * a + 1)) - 1:
        return None
    witnesses = {}
    for j in range(-a, a + 1):
        w = _realize_greedy(j, gs, a, suffix)
        assert w is not None
        witnesses[j] = w
    return GeneratingCertificate(a=a, generators=gs, witnesses=witnesses)


#: Tabulated minimal generating sets for small bounds (1 <= a <= 15).
TABULATED_SETS: dict[int, tuple[int, ...]] = {
    1: (-1, 1),
    2: (-2, 1, 2),
    3: (-3, 1, 2),
    4: (-3, -1, 1, 3),
    5: (-4, -1, 2, 3),
    6: (-6, 1, 2, 3),
    7: (-7, 1, 2, 4),
    8: (-7, -1, 1, 2, 5),
    9: (-8, -1, 1, 3, 5),
    10: (-10, 1, 2, 3, 4),
    11: (-11, 1, 2, 3, 5),
    12: (-12, 1, 2, 3, 6),
    13: (-13, 1, 2, 3, 7),
    14: (-14, 1, 2, 4, 7),
    15: (-15, 1, 2, 4, 8),
}


def explicit_generating_set(a: int) -> tuple[int, ...]:
    """A generating set of size n + 1 for [-a, a], where 2**(n-1) <= a < 2**n.

    Values up to 15 are tabulated minimal sets.  Beyond that the set is
    {-a} together with n positive elements: near-powers of two chosen so
    that subsets of the positive part hit every value in [0, a], with
    total exactly a (which makes every witness automatically admissible
    on the positive side).
    """
    if isinstance(a, bool) or not isinstance(a, int) or a < 1:
        raise OutOfRangeError("bound must be a positive int")
    if a <= 15:
        return TABULATED_SETS[a]
    n = a.bit_length()
    sigma = 2 ** (n - 1) - 1
    rest = a - sigma  # in 1..2**(n-1), since 2**(n-1) <= a <= 2**n - 1
    small_powers = [2 ** j for j in range(n - 2)]
    if a == 2 ** (n - 1):
        positives = small_powers + [2 ** (n - 2) - 2, 3]
    elif rest & (rest - 1) == 0 and rest <= 2 ** (n - 2):
        positives = small_powers + [2 ** (n - 2) - 1, rest + 1]
    else:
        positives = small_powers + [2 ** (n - 2), rest]
    return tuple(sorted([-a] + positives))


def lower_bound_size(a: int) -> int:
    """Least c with 2**c >= 2a + 1: a generating set needs at least c elements,
    since its subsets must produce 2a + 1 distinct sums."""
    return (2 * _checked_bound(a)).bit_length()


@record
class MinSearchResult:
    size: int
    witness: tuple[int, ...]
    certificate: GeneratingCertificate
    all_minima: tuple[tuple[int, ...], ...] | None = None


def _search_level(
    universe: tuple[int, ...], a: int, size: int, prune: bool, collect_all: bool
) -> list[tuple[int, ...]]:
    """Generating sets of the given size in itertools.combinations order of
    the sorted universe: the first one, or all of them.

    A depth-first search over prefixes, extending the two load bitsets by
    one generator per step.  With pruning, a prefix is cut when no
    completion can generate: each pick at most doubles the c covered sums,
    so r picks left need c << r >= 2a + 1; and realizing -a needs negative
    load exactly a, which the greatest one reached so far plus the r
    largest negated values still available must supply (realizing a needs
    no such check: a itself is always still available).  When the picks
    left are all positive, or only one is left, each new sum is a covered
    sum plus at least the next pick g (picks rise along the universe), so g
    may carry the least covered sum no further than the least missing one.
    The last pick only shifts covered sums by g, so it must also carry the
    greatest covered sum to or above the greatest missing one.
    """
    n = len(universe)
    full = (1 << (a + 1)) - 1
    targets = (1 << (2 * a + 1)) - 1
    picked: list[int] = []
    found: list[tuple[int, ...]] = []

    def visit(start: int, loads: tuple[int, int]) -> None:
        r = size - len(picked)
        if r == 0:
            if _coverage(loads, a) == targets:
                found.append(tuple(picked))
            return
        stop = n - r + 1
        if prune:
            covered = _coverage(loads, a)
            if covered.bit_count() << r < 2 * a + 1:
                return
            # The k largest negatives left: start - a, start - a + 1, ...  The
            # positive twin, j = min(r, a) >= 1 values a, a - 1, ..., always
            # sums to at least a, so it never cuts.
            k = min(r, max(0, a - start))
            if loads[1].bit_length() - 1 + k * (a - start) - k * (k - 1) // 2 < a:
                return
            missing = targets ^ covered
            if missing and (r == 1 or universe[start] > 0):
                # next pick g <= min(missing) - min(covered); last pick also
                # g >= max(missing) - max(covered)
                high = (missing & -missing).bit_length() - (covered & -covered).bit_length()
                stop = min(stop, bisect_right(universe, high))
                if r == 1:
                    low = missing.bit_length() - covered.bit_length()
                    start = max(start, bisect_left(universe, low))
        for i in range(start, stop):
            g = universe[i]
            picked.append(g)
            visit(i + 1, _extend(loads, g, full))
            picked.pop()
            if found and not collect_all:
                return

    visit(0, (1, 1))
    return found


def min_generating_set(
    a: int, report_all_minima: bool = False, prune: bool = True
) -> MinSearchResult:
    """Smallest generating set of [-a, a], by cardinality then lex order.

    Searches candidate subsets of the nonzero integers in [-a, a] level
    by level starting at the counting lower bound, for a up to
    SEARCH_CAP; within a level, candidates come in lexicographic order of
    the sorted universe, so the reported witness is deterministic.  The
    prunes (see _search_level) cut only prefixes that cannot generate;
    prune=False visits every candidate and serves as the reference.
    """
    a = _checked_bound(a)
    if a > SEARCH_CAP:
        raise SizeCapError(
            f"exhaustive search capped at a = {SEARCH_CAP}; "
            "use explicit_generating_set for larger bounds"
        )
    universe = tuple(v for v in range(-a, a + 1) if v != 0)
    # The whole universe generates, so some level answers.
    for size in range(lower_bound_size(a), len(universe) + 1):
        found = _search_level(universe, a, size, prune, report_all_minima)
        if found:
            witness = found[0]
            certificate = generates(witness, a)
            assert certificate is not None
            return MinSearchResult(
                size=size,
                witness=witness,
                certificate=certificate,
                all_minima=tuple(found) if report_all_minima else None,
            )
    raise AssertionError(f"the nonzero integers in [-{a}, {a}] do not generate")


def dim_h0(deg2) -> int:
    """Module dimension at degree deg2 (log2 units): 0 below degree 0,
    otherwise floor(deg2) + 2, the n + 1 with 2**(n-1) <= floor(2**deg2) < 2**n.

    Reads the degree as exact.degree_floor does.
    """
    k = degree_floor(deg2, "degree")
    return k + 2 if k >= 0 else 0
