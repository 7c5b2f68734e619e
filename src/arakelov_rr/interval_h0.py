"""Admissible generation of symmetric integer intervals, and the H0 dimension.

A set G of nonzero integers in [-a, a] generates the interval when every
target j in [-a, a] is the sum of some subset Z of G that is *admissible*:
all subset sums of Z stay inside [-a, a] (equivalently, the positive part
of Z sums to at most a and the negative part to at least -a).

This module provides the admissibility test, full-interval coverage via a
bitmask dynamic program, lexicographically-least witnesses, an explicit
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


def _extend(states: dict[int, int], g: int, a: int, full: int) -> dict[int, int]:
    """Admissible load pairs after offering one more generator g.

    Key: negative load q in 0..a.  Value: bitmask with bit p set when some
    subset has positive part p and negative part q.  Admissibility prunes
    as it goes: loads above a are dropped, positive ones by masking with
    full = (1 << (a + 1)) - 1.  The input is left unchanged.
    """
    if g > 0:
        return {q: mask | ((mask << g) & full) for q, mask in states.items()}
    out = dict(states)
    for q, mask in states.items():
        if q - g <= a:
            out[q - g] = out.get(q - g, 0) | mask
    return out


def _reachable(generators: Sequence[int], a: int) -> dict[int, int]:
    """Admissible load pairs over all subsets of generators (see _extend)."""
    full = (1 << (a + 1)) - 1
    states = {0: 1}
    for g in generators:
        states = _extend(states, g, a, full)
    return states


def _coverage(states: dict[int, int], a: int) -> int:
    """Bitmask over [-a, a] (bit j + a) of sums p - q reachable admissibly."""
    out = 0
    for q, mask in states.items():
        out |= mask << (a - q)
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
    for j in range(-a, a + 1):
        if not (mask >> (j + a)) & 1:
            return j
    return None


def _suffix_states(gs: Sequence[int], a: int) -> list[dict[int, int]]:
    """suffix[i] = reachable loads using only generators gs[i:]."""
    full = (1 << (a + 1)) - 1
    suffix = [{0: 1}]
    for g in reversed(gs):
        suffix.append(_extend(suffix[-1], g, a, full))
    return suffix[::-1]


def _completable(states: dict[int, int], j: int, p: int, q: int, a: int) -> bool:
    """Can loads (p, q) be extended by some state to total sum j admissibly?"""
    for q2, mask in states.items():
        if q + q2 > a:
            continue
        p2 = j - p + q + q2
        if 0 <= p2 <= a - p and (mask >> p2) & 1:
            return True
    return False


def _realize_greedy(
    j: int, gs: Sequence[int], a: int, suffix: Sequence[dict[int, int]]
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
    states = _reachable(gs, a)
    if _coverage(states, a) != (1 << (2 * a + 1)) - 1:
        return None
    suffix = _suffix_states(gs, a)
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

    A depth-first search over prefixes, extending the load DP by one
    generator per step.  With pruning, a prefix is cut when no completion
    can generate: each pick at most doubles the c covered sums, so r picks
    left need c << r >= 2a + 1; and realizing a and -a needs positive and
    negative parts each summing to at least a, which the r largest values
    still available must be able to supply.  When the picks left are all
    positive, or only one is left, each new sum is a covered sum plus at
    least the next pick g (picks rise along the universe), so g may carry
    the least covered sum no further than the least missing one.  The last
    pick only shifts covered sums by g, so it must also carry the greatest
    covered sum to or above the greatest missing one.
    """
    n = len(universe)
    loads = (1 << (a + 1)) - 1
    targets = (1 << (2 * a + 1)) - 1
    picked: list[int] = []
    found: list[tuple[int, ...]] = []

    def visit(start: int, states: dict[int, int], pos: int, neg: int) -> None:
        r = size - len(picked)
        if r == 0:
            if _coverage(states, a) == targets:
                found.append(tuple(picked))
            return
        stop = n - r + 1
        if prune:
            covered = _coverage(states, a)
            if covered.bit_count() << r < 2 * a + 1:
                return
            # The most the r picks left can add to each side: the k largest
            # negatives left (start - a, start - a + 1, ...), the j largest
            # positives (a, a - 1, ...).
            k, j = min(r, max(0, a - start)), min(r, a)
            if neg + k * (a - start) - k * (k - 1) // 2 < a or pos + j * a - j * (j - 1) // 2 < a:
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
            visit(i + 1, _extend(states, g, a, loads), pos + max(g, 0), neg + max(-g, 0))
            picked.pop()
            if found and not collect_all:
                return

    visit(0, {0: 1}, 0, 0)
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
