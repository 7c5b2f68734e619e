"""Built-in verification suites behind the CLI verify commands.

Each suite re-derives frozen facts from scratch with library operations
and reports granular pass/fail checks.  The test suite of the package
performs the same verifications again with independent oracles; these
runners exist so a deployed installation can audit itself.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from . import circle_h1, gamma, interval_h0, negabinary
from .divisor import ArakelovDivisor, ceil_prime, euler_characteristic, rr_scan
from .errors import OutOfRangeError

#: Seed and number of the random cases of the pointed-maps suite.
POINTED_MAPS_SEED = 20260816
POINTED_MAPS_CASES = 2000
#: Widest negabinary words the negabinary suite checks.
NEGABINARY_N_MAX = 16
#: Grid of the euler-identity suite.
IDENTITY_GRID = (Fraction(-6), Fraction(6), Fraction(1, 4))
#: Default and largest bound of the construction suite (verify-lemma33
#: --construction-max); the command takes 0.6-0.9 s at the cap in a fresh process.
CONSTRUCTION_MAX = 512
CONSTRUCTION_CAP = 1 << 15
#: Default and largest m of the circle suite (verify-h1 --max-m); the
#: command takes 0.6-0.9 s at the cap, about twice that one step above.
CIRCLE_M_MAX = 12
CIRCLE_M_CAP = 16


def _check_suite_bound(name: str, value: int, cap: int) -> None:
    if not 1 <= value <= cap:
        raise OutOfRangeError(f"{name} must lie in 1..{cap} (got {value})")


class SuiteResult:
    """The checks one suite ran and the messages of those that failed."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    @property
    def passed(self) -> bool:
        return not self.failures

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "checks": self.checks,
            "failures": list(self.failures),
            # No suite skips a check; the key stays for the report schema.
            "skipped": [],
        }


def verify_pointed_maps() -> SuiteResult:
    """Functor laws exhaustively at small level, equivalence and the
    module action on seeded random data."""
    result = SuiteResult("pointed-maps")
    levels = range(0, 3)
    maps: dict[tuple[int, int], list[gamma.PointedMap]] = {}
    for k in levels:
        for m in levels:
            maps[(k, m)] = [
                gamma.PointedMap(k, m, image)
                for image in itertools.product(range(m + 1), repeat=k)
            ]
    panel = {
        k: [gamma.PointedVector(e) for e in itertools.product((-2, 0, 1), repeat=k)]
        for k in levels
    }
    for k in levels:
        ident = gamma.PointedMap.identity(k)
        for x in panel[k]:
            result.check(
                gamma.pushforward(ident, x) == x, f"identity law failed at level {k}"
            )
    for k in levels:
        for m in levels:
            for p in levels:
                for phi in maps[(k, m)]:
                    for psi in maps[(m, p)]:
                        composed = psi.compose(phi)
                        for x in panel[k]:
                            lhs = gamma.pushforward(composed, x)
                            rhs = gamma.pushforward(psi, gamma.pushforward(phi, x))
                            ok = lhs == rhs
                            # The message is formatted only for a failure.
                            result.check(
                                ok,
                                "" if ok else f"composition law failed: {phi} then {psi} on {x}",
                            )
    rng = random.Random(POINTED_MAPS_SEED)
    # Entries and bounds are drawn as quarters and scaled by 4 to ints:
    # both membership tests give the same answer on the scaled data.  The
    # first cases run the reference test on the quarters themselves, so
    # its scaling of Fraction entries and bounds is audited too.
    for case in range(POINTED_MAPS_CASES):
        k = rng.randint(0, 8)
        entries = tuple(
            rng.randint(-12, 12) * (4 // rng.choice((1, 1, 2, 4))) for _ in range(k)
        )
        x = gamma.PointedVector(entries)
        bound = rng.randint(0, 30) * (4 // rng.choice((1, 2, 4)))
        if case < POINTED_MAPS_CASES // 16:
            quarters = gamma.PointedVector(tuple(Fraction(e, 4) for e in entries))
            slow = gamma.member_subfunctor(
                quarters, gamma.SubsetSpec.symmetric(Fraction(bound, 4))
            )
        else:
            slow = gamma.member_subfunctor(x, gamma.SubsetSpec.symmetric(bound))
        fast = gamma.member_fast_symmetric(x, bound)
        ok = slow == fast
        result.check(ok, "" if ok else f"membership tests disagree on {x} at {bound}")
    for _ in range(POINTED_MAPS_CASES // 4):
        ka = rng.randint(0, 4)
        kb = rng.randint(0, 4)
        alpha_raw = [Fraction(rng.randint(-4, 4), 16) for _ in range(ka)]
        a = gamma.vector(*(rng.randint(-9, 9) for _ in range(kb)))
        alpha = gamma.vector(*alpha_raw)
        if not gamma.member_norm(alpha, 1):
            continue
        product = gamma.smash_action(alpha, a)
        expected = tuple(ai * aj for ai in alpha.entries for aj in a.entries)
        result.check(product.entries == expected, "module action is not row-major")
        bound = Fraction(rng.randint(0, 40), 2)
        if gamma.member_fast_symmetric(a, bound):
            result.check(
                gamma.member_fast_symmetric(product, bound),
                f"unit-mass action left the symmetric module at {bound}",
            )
    return result


def verify_negabinary() -> SuiteResult:
    """Window endpoints, bijectivity and roundtrips for widths up to
    NEGABINARY_N_MAX."""
    result = SuiteResult("negabinary")
    for n in range(0, 2 * NEGABINARY_N_MAX + 2):
        result.check(
            negabinary.j_value(n) == negabinary.j_value_closed_form(n),
            f"recurrence and closed form disagree at {n}",
        )
    frozen = {0: 0, 1: 0, 2: 1, 3: -2, 4: 5, 5: -10, 6: 21, 7: -42}
    for n, expected in frozen.items():
        result.check(
            negabinary.j_value(n) == expected, f"j({n}) != {expected}"
        )
    for n in range(1, NEGABINARY_N_MAX + 1):
        window = negabinary.delta_interval(n)
        weights = [(-2) ** i for i in range(n)]
        lo = sum(w for w in weights if w < 0)
        hi = sum(w for w in weights if w > 0)
        result.check(
            (window.lo, window.hi) == (lo, hi),
            f"window endpoints at width {n} differ from signed weight sums",
        )
        report = negabinary.verify_bijection(n)
        result.check(report.passed, f"width-{n} words are not bijective onto the window")
        for q in range(window.lo, window.hi + 1):
            word = negabinary.encode(q, n)
            if len(word.digits) != n or negabinary.decode(word) != q:
                result.check(False, f"roundtrip failed for {q} at width {n}")
                break
        else:
            result.check(True, "")
    return result


def verify_golden_table(inject_fault: bool = False) -> SuiteResult:
    """The tabulated sets generate with minimal size; endpoints balance
    except at the known a = 2 anomaly; brute force confirms minimality."""
    result = SuiteResult("interval-golden-table")
    table = dict(interval_h0.TABULATED_SETS)
    if inject_fault:
        table[7] = (-7, 1, 2, 5)
    for a in sorted(table):
        gens = table[a]
        expected_size = a.bit_length() + 1
        result.check(
            len(gens) == expected_size,
            f"a={a}: tabulated set has size {len(gens)}, expected {expected_size}",
        )
        result.check(
            interval_h0.lower_bound_size(a) == expected_size,
            f"a={a}: counting lower bound does not meet the tabulated size",
        )
        cert = interval_h0.generates(gens, a)
        if cert is None:
            gap = interval_h0.first_unrealizable(gens, a)
            result.check(False, f"a={a}: tabulated set fails to generate (first gap at {gap})")
            continue
        result.check(cert.validate(), f"a={a}: certificate failed independent recheck")
        balanced = (
            sum(g for g in gens if g > 0) == a and sum(g for g in gens if g < 0) == -a
        )
        if a == 2:
            result.check(not balanced, "a=2: expected the anomalous unbalanced endpoints")
        else:
            result.check(balanced, f"a={a}: endpoints do not balance to +-a")
        found = interval_h0.min_generating_set(a)
        result.check(
            found.size == expected_size,
            f"a={a}: brute-force minimum {found.size} != {expected_size}",
        )
    anomaly = interval_h0.min_generating_set(2)
    result.check(
        anomaly.witness == (-2, -1, 2),
        f"a=2: first minimal witness is {anomaly.witness}, expected (-2, -1, 2)",
    )
    return result


def verify_construction(a_max: int = CONSTRUCTION_MAX) -> SuiteResult:
    """For every a up to a_max, the size-(n+1) construction generates and no smaller set can."""
    _check_suite_bound("construction bound", a_max, CONSTRUCTION_CAP)
    result = SuiteResult("interval-construction")
    for a in range(1, a_max + 1):
        gens = interval_h0.explicit_generating_set(a)
        expected_size = a.bit_length() + 1
        if len(set(gens)) != expected_size:
            result.check(False, f"a={a}: construction has wrong size or repeats")
            continue
        if interval_h0.lower_bound_size(a) != expected_size:
            result.check(False, f"a={a}: counting lower bound does not meet the construction")
            continue
        if not interval_h0.covers(gens, a):
            gap = interval_h0.first_unrealizable(gens, a)
            result.check(False, f"a={a}: construction misses target {gap}")
            continue
        result.check(True, "")
    return result


def verify_circle(m_max: int = CIRCLE_M_MAX) -> SuiteResult:
    """The dyadic family F(m) is a minimal generating family at its
    critical coarsening, for m up to m_max."""
    _check_suite_bound("m", m_max, CIRCLE_M_CAP)
    result = SuiteResult("circle-families")
    for m in range(1, m_max + 1):
        cert = circle_h1.certify_family(m)
        result.check(
            cert.sum_count == 2 ** m and cert.sums_are_dyadic_grid,
            f"m={m}: subset sums are not the 2^{m} dyadic grid points",
        )
        result.check(
            cert.covering == Fraction(1, 2 ** (m + 1)),
            f"m={m}: covering radius {cert.covering} != 2^-(m+1)",
        )
        result.check(
            cert.cardinality_bound == m,
            f"m={m}: counting bound {cert.cardinality_bound} != m",
        )
        result.check(cert.generating, f"m={m}: family does not generate at 2^-(m+1)")
        if cert.separation is not None:
            result.check(
                cert.separation > cert.lam,
                f"m={m}: separation {cert.separation} not above lambda",
            )
    frozen_separations = {3: Fraction(1, 4), 4: Fraction(3, 16)}
    for m, expected in frozen_separations.items():
        got = circle_h1.min_separation(circle_h1.f_generators(m))
        result.check(got == expected, f"m={m}: separation {got} != {expected}")
    return result


def verify_identity() -> SuiteResult:
    """The chi identity on IDENTITY_GRID plus divisor spot values."""
    result = SuiteResult("euler-identity")
    report = rr_scan(*IDENTITY_GRID)
    result.check(
        report.passed,
        f"identity fails at {report.violations[:3] if report.violations else ()}",
    )
    result.checks += report.points
    zero = euler_characteristic(ArakelovDivisor.zero())
    result.check((zero.h0, zero.h1, zero.chi) == (2, 0, 2), "wrong dimensions at the zero divisor")
    canonical = euler_characteristic(ArakelovDivisor.canonical())
    result.check(
        (canonical.h0, canonical.h1, canonical.chi) == (0, 1, -1),
        "wrong dimensions at the canonical divisor",
    )
    odd = euler_characteristic(ArakelovDivisor.from_places({3: 1}))
    result.check(
        (odd.h0, odd.h1, odd.chi) == (3, 0, 3),
        "wrong dimensions at the place-3 divisor",
    )
    result.check(ceil_prime(Fraction(0)) == 1, "primed ceiling wrong at 0")
    result.check(ceil_prime(Fraction(-1, 2)) == -1, "primed ceiling wrong at -1/2")
    return result


def run_all(inject_fault: bool = False) -> list[SuiteResult]:
    return [
        verify_pointed_maps(),
        verify_negabinary(),
        verify_golden_table(inject_fault=inject_fault),
        verify_construction(),
        verify_circle(),
        verify_identity(),
    ]
