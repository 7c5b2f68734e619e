"""End-to-end acceptance checks, one per headline guarantee of the package.

Each test prints exactly one PASS/FAIL line (bypassing capture so the
verdicts are visible in any pytest run) and enforces its runtime budget.
Every comparison is exact -- integers and Fractions throughout, no
tolerances anywhere.
"""

import itertools
import random
import time
from fractions import Fraction

from arakelov_rr import circle_h1, divisor, exact, gamma, interval_h0, negabinary
from arakelov_rr.gamma import PointedMap, PointedVector, SubsetSpec


def _report(capsys, num, label, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {num} ({label}): {verdict} -- {detail}")
    assert ok, f"criterion {num} ({label}) failed: {detail}"


def _balanced(zs, a):
    pos = sum(z for z in zs if z > 0)
    neg = sum(z for z in zs if z < 0)
    return pos == a and neg == -a


def _certificate_is_valid(cert, zs, a):
    """Every value in [-a, a] must carry a witness that is a genuine
    subset of the generators (each used at most once) with the right sum."""
    if cert is None:
        return False
    gens = sorted(zs)
    for j in range(-a, a + 1):
        w = cert.witnesses.get(j)
        if w is None or sum(w) != j:
            return False
        pool = list(gens)
        for z in w:
            if z not in pool:
                return False
            pool.remove(z)
    return True


def test_criterion_1_minimal_sizes_match_golden_table(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for a in range(1, 16):
        # 2**(n-1) <= a < 2**n pins n = a.bit_length(); the claim is that
        # the true minimum is n + 1.
        expected = a.bit_length() + 1
        result = interval_h0.min_generating_set(a)  # defaults: single-threaded
        if result.size != expected:
            ok = False
            detail = f"a={a}: brute minimum {result.size} != {expected}"
            break
        if interval_h0.lower_bound_size(a) != expected:
            ok = False
            detail = f"a={a}: counting bound {interval_h0.lower_bound_size(a)} != {expected}"
            break
        tab = interval_h0.TABULATED_SETS[a]
        cert = interval_h0.generates(tab, a)
        if len(tab) != expected or not _certificate_is_valid(cert, tab, a):
            ok = False
            detail = f"a={a}: tabulated set {tab} is not a valid minimal generator"
            break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"a=1..15 minima all n+1, tabulated sets certified, {elapsed:.2f}s"
    ok = ok and elapsed < budget
    _report(capsys, 1, "minimal generating sets 1..15", ok, detail)


def test_criterion_2_balanced_set_anomaly_at_two(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    ok = True
    detail = ""

    result = interval_h0.min_generating_set(2, report_all_minima=True)
    if result.size != 3:
        ok = False
        detail = f"minimum for a=2 is {result.size}, not 3"

    # Exhaustively: no 3-element generating subset of the a=2 universe is
    # balanced (positive part summing to 2 and negative part to -2).
    if ok:
        universe = (-2, -1, 1, 2)
        generating = [
            s for s in itertools.combinations(universe, 3) if interval_h0.covers(s, 2)
        ]
        if not generating:
            ok = False
            detail = "no 3-subset of the a=2 universe generates at all"
        elif any(_balanced(s, 2) for s in generating):
            ok = False
            detail = "found a balanced minimal generating set for a=2"
        elif set(generating) != set(result.all_minima):
            ok = False
            detail = "reported minima disagree with the exhaustive scan"

    # ... and a=2 is the only bound up to 15 with that defect: for every
    # other a the tabulated set is minimal, generating, and balanced.
    if ok:
        for a in range(1, 16):
            if a == 2:
                continue
            tab = interval_h0.TABULATED_SETS[a]
            if not (
                len(tab) == a.bit_length() + 1
                and interval_h0.covers(tab, a)
                and _balanced(tab, a)
            ):
                ok = False
                detail = f"a={a}: tabulated set is not a balanced minimal generator"
                break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"a=2 needs 3 unbalanced; every other a<=15 has a balanced minimum, {elapsed:.2f}s"
    ok = ok and elapsed < budget
    _report(capsys, 2, "a=2 balance anomaly", ok, detail)


def test_criterion_3_explicit_sets_stay_minimal_to_4096(capsys):
    budget = 120.0
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for a in range(16, 4097):
        gens = interval_h0.explicit_generating_set(a)
        if len(set(gens)) != len(gens):
            ok = False
            detail = f"a={a}: construction repeats an element"
            break
        if len(gens) != interval_h0.lower_bound_size(a):
            ok = False
            detail = f"a={a}: construction has {len(gens)} elements, bound is {interval_h0.lower_bound_size(a)}"
            break
        if not interval_h0.covers(gens, a):
            missing = interval_h0.first_unrealizable(gens, a)
            ok = False
            detail = f"a={a}: construction misses {missing}"
            break
    # Full witness certificates on a spread of bounds (covers() already
    # ran the same realizability DP for every a above).
    if ok:
        for a in (16, 100, 257, 1024, 2048, 4096):
            gens = interval_h0.explicit_generating_set(a)
            if not _certificate_is_valid(interval_h0.generates(gens, a), gens, a):
                ok = False
                detail = f"a={a}: certificate validation failed"
                break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"4081 constructions all minimal and generating, {elapsed:.2f}s"
    ok = ok and elapsed < budget
    _report(capsys, 3, "explicit sets 16..4096", ok, detail)


def test_criterion_4_negabinary_bijection_to_width_16(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for n in range(1, 17):
        report = negabinary.verify_bijection(n)
        window = negabinary.delta_interval(n)
        k = 2 * (n // 2) + 1
        checks = (
            report.passed
            and report.distinct_values == 2 ** n
            and window.lo == negabinary.j_value(k) == negabinary.j_value_closed_form(k)
            and window.hi == window.lo + 2 ** n - 1
            and negabinary.decode(negabinary.NegabinaryWord(report.lo_witness)) == window.lo
            and negabinary.decode(negabinary.NegabinaryWord(report.hi_witness)) == window.hi
        )
        if not checks:
            ok = False
            detail = f"n={n}: image is not the full window {window.lo}..{window.hi}"
            break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"widths 1..16 bijective onto closed-form windows, {elapsed:.2f}s"
    ok = ok and elapsed < budget
    _report(capsys, 4, "negabinary windows", ok, detail)


def test_criterion_5_covering_radius_halves_each_generation(capsys):
    budget = 30.0
    t0 = time.perf_counter()
    ok = True
    detail = ""
    for m in range(1, 13):
        lam = Fraction(1, 2 ** (m + 1))
        cert = circle_h1.certify_family(m)
        checks = (
            cert.lam == lam
            and cert.covering == lam
            and cert.sum_count == 2 ** m
            and cert.generating
            and cert.cardinality_bound == m
            and circle_h1.lower_bound_cardinality(lam) == m
            and (cert.separation > lam if m >= 2 else cert.separation is None)
        )
        if not checks:
            ok = False
            detail = f"m={m}: certificate fields off (covering {cert.covering}, want {lam})"
            break
    # Degenerate family: the empty sum alone covers at radius 1/2 and
    # needs zero generators.
    if ok:
        if circle_h1.covering_radius(circle_h1.subset_sums(())) != Fraction(1, 2):
            ok = False
            detail = "empty family covering radius is not 1/2"
        elif circle_h1.lower_bound_cardinality(Fraction(1, 2)) != 0:
            ok = False
            detail = "cardinality bound at radius 1/2 is not 0"
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"m=1..12 cover at exactly 2**-(m+1) with separation above it, {elapsed:.2f}s"
    ok = ok and elapsed < budget
    _report(capsys, 5, "circle covering radii", ok, detail)


def test_criterion_6_identity_scan_with_continuity_probes(capsys):
    budget = 10.0
    t0 = time.perf_counter()
    report = divisor.rr_scan(Fraction(-6), Fraction(6), Fraction(1, 4))
    xs = {row.deg2 for row in report.rows}
    probe = Fraction(1, 64)  # min(step, 1) / 16
    ok = report.violations == ()
    detail = ""
    if not ok:
        detail = f"violations at {report.violations}"
    else:
        for n in range(-6, 7):
            wanted = {Fraction(n)}
            if n + probe <= 6:
                wanted.add(n + probe)
            if n - probe >= -6:
                wanted.add(n - probe)
            if not wanted <= xs:
                ok = False
                detail = f"missing continuity probes around {n}"
                break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"{len(report.rows)} grid and probe points, zero violations, {elapsed:.2f}s"
    ok = ok and elapsed < budget
    _report(capsys, 6, "identity scan on [-6, 6]", ok, detail)


def test_criterion_7_spot_values_of_chi(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = ""

    zero = divisor.euler_characteristic(divisor.ArakelovDivisor.zero())
    if (zero.h0, zero.h1, zero.chi) != (2, 0, 2):
        ok = False
        detail = f"zero divisor gives {(zero.h0, zero.h1, zero.chi)}, want (2, 0, 2)"

    if ok:
        kan = divisor.ArakelovDivisor.canonical()
        deg = kan.deg2()
        ec = divisor.euler_characteristic(kan)
        if not (deg.is_rational and deg.rational_part == -2 and ec.chi == -1):
            ok = False
            detail = f"canonical divisor: degree {deg}, chi {ec.chi}; want -2 and -1"

    if ok:
        # chi is constant at -m on each unit interval [-m-1, -m).
        for m in (1, 2, 3):
            for x in (
                Fraction(-m - 1),
                Fraction(-2 * m - 1, 2),
                Fraction(-m) - Fraction(1, 64),
            ):
                ec = divisor.euler_characteristic(
                    divisor.ArakelovDivisor(archimedean_log2=x)
                )
                if ec.chi != -m:
                    ok = False
                    detail = f"chi({x}) = {ec.chi}, want {-m}"
                    break
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = f"zero, canonical, and three negative unit intervals all exact, {elapsed:.2f}s"
    _report(capsys, 7, "Euler characteristic spot values", ok, detail)


def _all_maps(k, m):
    return [
        PointedMap(k, m, image) for image in itertools.product(range(m + 1), repeat=k)
    ]


def _grid_vectors(k, lo=-3, hi=3):
    return [
        PointedVector(entries)
        for entries in itertools.product(range(lo, hi + 1), repeat=k)
    ]


# Entries 8**i make every subset sum a distinct base-8 numeral, so two
# index-to-index maps that push this vector forward to the same place are
# equal as maps; and pushforward is linear in the vector, so any law
# verified on it at map level holds for every vector.
_SEPARATING = (1, 8, 64, 512)


def test_criterion_8_functor_laws_and_closure(capsys):
    t0 = time.perf_counter()
    ok = True
    detail = ""

    # Identity law, literally, on full integer grids.
    for k in range(0, 4):
        ident = PointedMap.identity(k)
        for x in _grid_vectors(k):
            if gamma.pushforward(ident, x) != x:
                ok = False
                detail = f"identity law fails at {x.entries}"
                break
        if not ok:
            break

    # Composition law on the separating vector for every pair of
    # composable maps between levels 0..4 (848469 pairs), then literally
    # on full grids for levels up to 2.
    pairs = 0
    if ok:
        for m in range(5):
            maps_into = {k: _all_maps(k, m) for k in range(5)}
            for p in range(5):
                phis = _all_maps(m, p)
                for k in range(5):
                    x = PointedVector(_SEPARATING[:k])
                    for psi in maps_into[k]:
                        mid = gamma.pushforward(psi, x)
                        for phi in phis:
                            pairs += 1
                            if gamma.pushforward(
                                phi.compose(psi), x
                            ) != gamma.pushforward(phi, mid):
                                ok = False
                                detail = f"composition law fails for {psi.image} then {phi.image}"
                                break
                        if not ok:
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break

    if ok:
        for k in range(3):
            for m in range(3):
                for p in range(3):
                    for psi in _all_maps(k, m):
                        for phi in _all_maps(m, p):
                            for x in _grid_vectors(k):
                                if gamma.pushforward(
                                    phi.compose(psi), x
                                ) != gamma.pushforward(phi, gamma.pushforward(psi, x)):
                                    ok = False
                                    detail = "literal composition check failed"
                                    break

    # Closure of sum-bounded membership under every pushforward.
    closure_checks = 0
    if ok:
        specs = [
            SubsetSpec.integers(1),
            SubsetSpec.integers(2),
            SubsetSpec.integers(3),
            SubsetSpec.symmetric(Fraction(5, 2)),
        ]
        panel4 = [
            PointedVector(e) for e in itertools.product((-3, 0, 2), repeat=4)
        ] + [PointedVector((3, 3, 3, 3)), PointedVector((-3, -3, -3, -3))]
        for k, vectors in [(0, _grid_vectors(0)), (1, _grid_vectors(1)),
                           (2, _grid_vectors(2)), (3, _grid_vectors(3)),
                           (4, panel4)]:
            maps_from = [phi for m in range(5) for phi in _all_maps(k, m)]
            for x in vectors:
                for spec in specs:
                    if not gamma.member_subfunctor(x, spec):
                        continue
                    for phi in maps_from:
                        closure_checks += 1
                        if not gamma.member_subfunctor(gamma.pushforward(phi, x), spec):
                            ok = False
                            detail = f"pushforward of {x.entries} along {phi.image} leaves the subfunctor"
                            break
                    if not ok:
                        break
                if not ok:
                    break
            if not ok:
                break

    # Seeded random sweep: the closed-form symmetric membership test
    # agrees with subset enumeration, and smashing with a unit-mass
    # actor preserves membership (with exactly multiplicative mass).
    rng = random.Random(20260816)
    random_checks = 0
    if ok:
        for _ in range(10_000):
            k = rng.randint(0, 8)
            x = PointedVector(
                tuple(
                    Fraction(rng.randint(-24, 24), rng.randint(1, 4))
                    for _ in range(k)
                )
            )
            bound = Fraction(rng.randint(0, 12), rng.randint(1, 4))
            if gamma.member_fast_symmetric(x, bound) != gamma.member_subfunctor(
                x, SubsetSpec.symmetric(bound)
            ):
                ok = False
                detail = f"membership tests disagree at {x.entries}, bound {bound}"
                break
            random_checks += 1
    if ok:
        for _ in range(10_000):
            raw = [
                Fraction(rng.randint(-8, 8), rng.randint(1, 8))
                for _ in range(rng.randint(0, 3))
            ]
            mass = sum(abs(r) for r in raw)
            alpha = PointedVector(
                tuple(r / mass if mass > 1 else r for r in raw)
            )
            a = PointedVector(
                tuple(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 4))
                    for _ in range(rng.randint(0, 4))
                )
            )
            lam = Fraction(rng.randint(0, 10), rng.choice((1, 2, 4)))
            y = gamma.smash_action(alpha, a)
            alpha_mass = sum(abs(e) for e in alpha.entries)
            a_mass = sum(abs(e) for e in a.entries)
            if sum(abs(e) for e in y.entries) != alpha_mass * a_mass:
                ok = False
                detail = "smash action does not multiply total mass"
                break
            if gamma.member_fast_symmetric(a, lam) and not gamma.member_fast_symmetric(
                y, lam
            ):
                ok = False
                detail = f"smash pushed a bounded vector out of bound {lam}"
                break
            random_checks += 1

    elapsed = time.perf_counter() - t0
    if ok:
        detail = (
            f"{pairs} composable pairs, {closure_checks} closure checks, "
            f"{random_checks} seeded random checks, zero failures, {elapsed:.2f}s"
        )
    _report(capsys, 8, "functor laws and closure", ok, detail)


def test_criterion_9_dimension_matches_scaled_lattice(capsys):
    budget = 60.0
    t0 = time.perf_counter()
    ok = True
    detail = ""
    search_cache = {}
    probes = 0
    for k in (0, 1, 2):
        for r in (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)):
            u = k + r
            d = divisor.ArakelovDivisor.from_places({2: k}, arch=r)
            deg = d.deg2()
            if not (deg.is_rational and deg.rational_part == u):
                ok = False
                detail = f"degree of 2^{k} shifted by {r} reduced to {deg}, want {u}"
                break
            h0 = divisor.euler_characteristic(d).h0
            a = exact.floor_pow2_rational(u)
            if a not in search_cache:
                search_cache[a] = interval_h0.min_generating_set(a).size
            if h0 != search_cache[a] or h0 != interval_h0.dim_h0(u):
                ok = False
                detail = (
                    f"k={k}, arch={r}: h0 {h0} vs lattice dimension "
                    f"{search_cache[a]} at bound {a}"
                )
                break
            probes += 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    if ok:
        detail = (
            f"{probes} divisors, bounds {sorted(search_cache)} searched "
            f"directly, {elapsed:.2f}s"
        )
    ok = ok and elapsed < budget
    _report(capsys, 9, "scaling invariance of h0", ok, detail)
