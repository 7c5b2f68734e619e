"""Exact degrees with prime logarithms, the Euler characteristic identity,
scans, and the figure emitters."""

import decimal
import json
import math
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import jsonschema
import pytest

from arakelov_rr import divisor as dv
from arakelov_rr import exact
from arakelov_rr.circle_h1 import dim_h1
from arakelov_rr.errors import DomainError, FormulaViolation, PrecisionError, SizeCapError
from arakelov_rr.exact import log2_bounds
from arakelov_rr.interval_h0 import dim_h0

ODD_PRIMES = (3, 5, 7, 11, 13)

rationals = st.fractions(min_value=-25, max_value=25, max_denominator=4)

log_terms = st.lists(
    st.tuples(st.sampled_from(ODD_PRIMES), st.integers(-3, 3)),
    max_size=2,
    unique_by=lambda t: t[0],
).map(tuple)

degree_values = st.builds(
    dv.DegreeValue, rational_part=rationals, log_terms=log_terms
)


def exact_power(value: dv.DegreeValue):
    """(2**degree)**beta as an exact Fraction, beta the rational denominator."""
    beta = value.rational_part.denominator
    q = Fraction(2) ** value.rational_part.numerator
    for p, m in value.log_terms:
        q *= Fraction(p) ** (m * beta)
    return q, beta


# ---------------------------------------------------------------------------
# DegreeValue
# ---------------------------------------------------------------------------


def test_degree_value_validation():
    with pytest.raises(DomainError):
        dv.DegreeValue(Fraction(0), ((2, 1),))
    with pytest.raises(DomainError):
        dv.DegreeValue(Fraction(0), ((9, 1),))
    with pytest.raises(DomainError):
        dv.DegreeValue(Fraction(0), ((15, 1),))
    with pytest.raises(DomainError):
        dv.DegreeValue(Fraction(0), precision_bits=8)


def test_degree_value_merges_and_drops_terms():
    value = dv.DegreeValue(Fraction(1), ((5, 2), (3, 1), (5, -2)))
    assert value.log_terms == ((3, 1),)
    assert dv.DegreeValue(Fraction(1), ((7, 0),)).is_rational


def decimal_degree(value: dv.DegreeValue):
    """Reference evaluation at 100 digits; error ~1e-97, far below any
    interval width the bounds method can produce."""
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        total = decimal.Decimal(value.rational_part.numerator) / decimal.Decimal(
            value.rational_part.denominator
        )
        ln2 = decimal.Decimal(2).ln()
        for p, m in value.log_terms:
            total += m * decimal.Decimal(p).ln() / ln2
        return Fraction(total)


DEGREE_SLACK = Fraction(1, 10 ** 90)


@hypothesis.given(degree_values, st.sampled_from([32, 64, 128]))
def test_bounds_enclose_reference_value(value, bits):
    lo, hi = value.bounds(bits)
    assert lo <= hi
    reference = decimal_degree(value)
    assert lo <= reference + DEGREE_SLACK
    assert reference - DEGREE_SLACK <= hi


@hypothesis.given(degree_values)
def test_sign_and_floor_consistent_with_bounds(value):
    lo, hi = value.bounds(96)
    sign = value.sign()
    if lo > 0:
        assert sign == 1
    if hi < 0:
        assert sign == -1
    fl = value.floor()
    assert Fraction(fl) <= hi and lo <= fl + 1


def test_compare_frozen_logs():
    log2_3 = dv.DegreeValue(Fraction(0), ((3, 1),))
    assert log2_3.compare(Fraction(8, 5)) == -1  # log2 3 = 1.58496... < 1.6
    assert log2_3.compare(Fraction(19, 12)) == 1  # > 1.58333...
    assert log2_3.floor() == 1
    assert log2_3.sign() == 1
    assert not log2_3.is_rational


def test_compare_exact_equality_on_rationals():
    value = dv.DegreeValue(Fraction(7, 3))
    assert value.compare(Fraction(7, 3)) == 0
    assert value.is_rational
    assert value.floor() == 2


@hypothesis.given(degree_values)
def test_floor_is_exact(value):
    fl = value.floor()
    q, beta = exact_power(value)
    # 2**fl <= 2**degree < 2**(fl + 1), cleared of the root (beta is small)
    assert Fraction(2) ** (fl * beta) <= q < Fraction(2) ** ((fl + 1) * beta)


@hypothesis.given(degree_values)
def test_floor_pow2_defining_inequality(value):
    if value.sign() < 0:
        assert value.floor_pow2() == 0
        return
    t = value.floor_pow2()
    q, beta = exact_power(value)
    assert Fraction(t) ** beta <= q < Fraction(t + 1) ** beta


def test_floor_pow2_spot_values():
    assert dv.DegreeValue(Fraction(0), ((3, 1),)).floor_pow2() == 3
    assert dv.DegreeValue(Fraction(0), ((3, 1), (5, 1))).floor_pow2() == 15
    # 15 / sqrt(2) = 10.606...
    assert dv.DegreeValue(Fraction(-1, 2), ((3, 1), (5, 1))).floor_pow2() == 10
    # a negative multiplicity divides: 7/3 = 2.33..., and 7/(3 sqrt(2)) = 1.65...
    assert dv.DegreeValue(Fraction(0), ((3, -1), (7, 1))).floor_pow2() == 2
    assert dv.DegreeValue(Fraction(-1, 2), ((3, -1), (7, 1))).floor_pow2() == 1
    assert dv.DegreeValue(Fraction(-3)).floor_pow2() == 0


def test_floor_pow2_bracketing_survives_huge_precision():
    # a 400-bit rational approximation of log2(3), negated against the log
    # term: at 512 bits the tiny positive difference resolves without ever
    # materializing 2**(huge numerator)
    lo, _ = log2_bounds(3, 400)
    value = dv.DegreeValue(-lo, ((3, 1),), precision_bits=512)
    assert value.sign() == 1
    assert value.floor() == 0
    assert value.floor_pow2() == 1


def test_precision_exhaustion_raises():
    lo, _ = log2_bounds(3, 400)
    value = dv.DegreeValue(-lo, ((3, 1),), precision_bits=64)
    with pytest.raises(PrecisionError):
        value.sign()


def test_precision_exhaustion_message_abbreviates_huge_ints():
    # 2**(1/3 + 400000*log2(3)) would be bracketed among 633,986-bit t,
    # which str() refuses to print in full: the message gives t's width
    value = dv.DegreeValue(Fraction(1, 3), ((3, 400000),))
    with pytest.raises(PrecisionError) as info:
        value.floor_pow2()
    message = str(info.value)
    assert message.startswith("cannot separate 1/3 + 400000*log2(3) from log2(")
    assert message.endswith("(t) for t of 633986 bits within 256 bits")


def test_str_rendering():
    assert str(dv.DegreeValue(Fraction(-1, 2), ((3, 2), (5, -1)))) == (
        "-1/2 + 2*log2(3) - log2(5)"
    )


# ---------------------------------------------------------------------------
# the integer enclosure against the Fraction arithmetic it replaced
# ---------------------------------------------------------------------------


def oracle_bounds(value: dv.DegreeValue, bits: int) -> tuple[Fraction, Fraction]:
    """The enclosure summed in Fractions, term by term."""
    lo = hi = value.rational_part
    for p, m in value.log_terms:
        plo, phi = log2_bounds(p, bits)
        if m >= 0:
            lo, hi = lo + m * plo, hi + m * phi
        else:
            lo, hi = lo + m * phi, hi + m * plo
    return lo, hi


def oracle_compare(value: dv.DegreeValue, other) -> int:
    other = Fraction(other)
    if value.is_rational:
        diff = value.rational_part - other
        return (diff > 0) - (diff < 0)

    def step(bits):
        lo, hi = oracle_bounds(value, bits)
        if lo > other:
            return 1
        return -1 if hi < other else None

    return exact.refine(
        step, value.precision_bits, lambda: f"cannot separate {value} from {other}"
    )


def oracle_floor(value: dv.DegreeValue) -> int:
    if value.is_rational:
        return math.floor(value.rational_part)

    def step(bits):
        lo, hi = oracle_bounds(value, bits)
        k = math.floor(lo)
        return k if k == math.floor(hi) else None

    return exact.refine(step, value.precision_bits, lambda: f"floor of {value} undecided")


def outcome(decide, *args):
    """decide(*args), or the message of the PrecisionError it raises."""
    try:
        return decide(*args)
    except PrecisionError as exc:
        return f"PrecisionError: {exc}"


#: Known primes far from the small ones, as the benchmark draws them.
LARGE_PRIMES = (1000003, 998244353, 2305843009213693951)

wide_log_terms = st.lists(
    st.tuples(st.sampled_from(ODD_PRIMES + LARGE_PRIMES), st.integers(-6, 6).filter(bool)),
    max_size=4,
    unique_by=lambda t: t[0],
).map(tuple)


@st.composite
def degrees_with_comparands(draw):
    """A degree with 0-4 log terms and a cap of 32-4096 bits, and rationals
    to compare it with.  Half of the degrees with log terms lie within
    about 2**-8..2**-400 above an integer n, so refinement runs deep or
    exhausts the cap; the others have a rational part of denominator at
    most 2**20."""
    terms = draw(wide_log_terms)
    cap = draw(st.integers(32, 4096))
    n = draw(st.integers(-70, 70))
    if terms and draw(st.booleans()):
        close = draw(st.integers(8, 400))
        rational = n - oracle_bounds(dv.DegreeValue(Fraction(0), terms), close)[0]
    else:
        rational = draw(st.fractions(-64, 64, max_denominator=1 << 20))
    others = (n, draw(st.fractions(-70, 70, max_denominator=1 << 20)))
    return dv.DegreeValue(rational, terms, cap), others


@hypothesis.settings(max_examples=400, deadline=None)
@hypothesis.given(degrees_with_comparands(), st.integers(1, 512))
def test_integer_enclosure_agrees_with_the_fraction_oracle(case, bits):
    value, others = case
    assert value.bounds(bits) == oracle_bounds(value, bits)
    lo, hi = oracle_bounds(value, 64)
    approx = value.approx()
    assert type(approx) is float and approx == float((lo + hi) / 2)
    assert outcome(value.floor) == outcome(oracle_floor, value)
    assert outcome(value.sign) == outcome(oracle_compare, value, 0)
    for other in others:
        assert outcome(value.compare, other) == outcome(oracle_compare, value, other)


def test_oracle_cases_reach_deep_refinement_and_exhaustion():
    # the strategy's near-integer branch: 2**-300 above 5, decided at 512
    # bits under a 4096-bit cap, undecided under a 256-bit one
    terms = ((3, 2), (1000003, -1), (7, 1))
    rational = 5 - oracle_bounds(dv.DegreeValue(Fraction(0), terms), 300)[0]
    deep = dv.DegreeValue(rational, terms, 4096)
    assert (deep.floor(), deep.compare(5), deep.sign()) == (5, 1, 1)
    shallow = dv.DegreeValue(rational, terms, 256)
    with pytest.raises(PrecisionError) as info:
        shallow.floor()
    assert str(info.value) == f"floor of {shallow} undecided within 256 bits"
    assert outcome(shallow.floor) == outcome(oracle_floor, shallow)
    assert outcome(shallow.compare, 5) == outcome(oracle_compare, shallow, 5)


# ---------------------------------------------------------------------------
# primed ceiling
# ---------------------------------------------------------------------------


def test_ceil_prime_spot_values():
    assert dv.ceil_prime(0) == 1
    assert dv.ceil_prime(Fraction(1, 2)) == 1
    assert dv.ceil_prime(1) == 2
    assert dv.ceil_prime(Fraction(-1, 2)) == -1
    assert dv.ceil_prime(-2) == -2
    assert dv.ceil_prime(Fraction(5, 2)) == 3


@hypothesis.given(st.fractions(min_value=-30, max_value=30, max_denominator=8))
def test_ceil_prime_closed_form(q):
    expected = math.floor(q) + 1 if q >= 0 else math.floor(q)
    assert dv.ceil_prime(q) == expected


def test_ceil_prime_on_degree_values():
    assert dv.ceil_prime(dv.DegreeValue(Fraction(0), ((3, 1),))) == 2
    assert dv.ceil_prime(dv.DegreeValue(Fraction(0), ((3, -1),))) == -2


@hypothesis.given(degree_values.filter(lambda value: not value.is_rational))
def test_ceil_prime_on_log_term_degrees_decides_by_the_floor(value):
    assert dv.ceil_prime(value) == value.floor() + (value.sign() >= 0)


class Floored:
    """A degree carrier that exposes only its floor."""

    def __init__(self, k):
        self.k = k

    def floor(self):
        return self.k


@pytest.mark.parametrize("k", range(-4, 5))
def test_degree_readers_read_anything_with_a_floor(k):
    assert dim_h0(Floored(k)) == dim_h0(k) == (k + 2 if k >= 0 else 0)
    assert dim_h1(Floored(k)) == dim_h1(k) == max(0, -k - 1)
    assert dv.ceil_prime(Floored(k)) == dv.ceil_prime(k)


def test_dim_h0_answers_from_the_floor_where_the_root_cannot_be_taken():
    # 2**(10**7) is past MATERIALIZE_CAP_BITS, and bracketing 2**deg needs
    # floor(deg) within the precision cap; the floor alone needs neither
    assert dim_h0(Fraction(10 ** 7)) == 10 ** 7 + 2
    with pytest.raises(SizeCapError):
        exact.floor_pow2_rational(10 ** 7)
    wide = dv.DegreeValue(Fraction(1, 3), ((3, 600000),))
    k = wide.floor()
    assert k == 950977
    assert (dim_h0(wide), dim_h1(wide), dv.ceil_prime(wide)) == (k + 2, 0, k + 1)
    with pytest.raises(PrecisionError):
        wide.floor_pow2()


# ---------------------------------------------------------------------------
# divisors
# ---------------------------------------------------------------------------


def test_from_places_merges():
    d = dv.ArakelovDivisor.from_places([(3, 1), (3, 1), (2, 2)], Fraction(-1, 2))
    assert d.finite_part == ((2, 2), (3, 2))
    places = dict(d.finite_part)
    assert places[3] == 2
    assert 7 not in places
    deg = d.deg2()
    assert deg.rational_part == Fraction(3, 2)  # 2 from the prime 2, -1/2 arch
    assert deg.log_terms == ((3, 2),)


def test_from_places_mapping_form():
    d = dv.ArakelovDivisor.from_places({2: -2})
    assert d == dv.ArakelovDivisor.canonical()


def test_divisor_validation():
    with pytest.raises(DomainError):
        dv.ArakelovDivisor.from_places([(4, 1)])
    with pytest.raises(DomainError):
        dv.ArakelovDivisor.from_places([(3, 1)], 0.5)


def test_zero_and_canonical():
    zero = dv.ArakelovDivisor.zero()
    assert zero.deg2().compare(0) == 0
    canonical = dv.ArakelovDivisor.canonical()
    assert canonical.finite_part == ((2, -2),)
    assert canonical.deg2().compare(-2) == 0


def test_deg2_moves_the_place_two_into_the_rational_part():
    d = dv.ArakelovDivisor.from_places([(2, 1), (5, 1)], Fraction(1, 4))
    deg = d.deg2()
    assert deg == dv.DegreeValue(Fraction(5, 4), ((5, 1),))
    assert deg.rational_part == Fraction(5, 4)
    assert deg.log_terms == ((5, 1),)


# ---------------------------------------------------------------------------
# Euler characteristic
# ---------------------------------------------------------------------------


def test_euler_spot_values():
    zero = dv.euler_characteristic(dv.ArakelovDivisor.zero())
    assert (zero.h0, zero.h1, zero.chi) == (2, 0, 2)
    canonical = dv.euler_characteristic(dv.ArakelovDivisor.canonical())
    assert (canonical.h0, canonical.h1, canonical.chi) == (0, 1, -1)
    place3 = dv.euler_characteristic(dv.ArakelovDivisor.from_places([(3, 1)]))
    assert (place3.h0, place3.h1, place3.chi) == (3, 0, 3)


@hypothesis.given(rationals)
def test_euler_identity_on_archimedean_divisors(arch):
    d = dv.ArakelovDivisor(archimedean_log2=arch)
    result = dv.euler_characteristic(d)
    assert result.chi == result.step_value == dv.ceil_prime(arch) + 1
    assert result.h0 == dim_h0(arch)
    assert result.h1 == dim_h1(arch)


@hypothesis.given(
    st.lists(
        st.tuples(st.sampled_from((2,) + ODD_PRIMES), st.integers(-3, 3)),
        max_size=2,
        unique_by=lambda t: t[0],
    ),
    rationals,
)
def test_euler_identity_on_mixed_divisors(places, arch):
    d = dv.ArakelovDivisor.from_places(places, arch)
    result = dv.euler_characteristic(d)
    assert result.chi == result.h0 - result.h1
    assert result.chi == result.step_value


def test_euler_brackets_rather_than_materialize_wide_log_terms(monkeypatch):
    # degree about 0.08: 2**deg is the 125000-th root of a fraction whose
    # denominator alone is millions of bits wide, so it must be bracketed
    real = exact.nth_root_floor_fraction

    def refuse_wide(q, k):
        width = max(q.numerator.bit_length(), q.denominator.bit_length())
        assert width <= exact.MATERIALIZE_CAP_BITS, f"built a {width}-bit power"
        return real(q, k)

    monkeypatch.setattr(exact, "nth_root_floor_fraction", refuse_wide)
    d = dv.ArakelovDivisor.from_places(
        [(5, -6), (1000003, -1), (2, -4)], Fraction(4742643, 125000)
    )
    result = dv.euler_characteristic(d)
    assert (result.h0, result.h1, result.chi) == (2, 0, 2)


@pytest.mark.parametrize(
    "places, arch, chi",
    [([(3, 700)], Fraction(1, 500), 1111), ([(3, 190000)], Fraction(1, 2), 301145)],
)
def test_euler_takes_the_root_when_k_is_too_wide_to_bracket(places, arch, chi):
    # k is 1109 and 301142: bisecting [2**k, 2**(k+1)) at 256 bits runs out
    # of precision, so these wide-numerator degrees must take the root
    result = dv.euler_characteristic(dv.ArakelovDivisor.from_places(places, arch))
    assert (result.h0, result.h1, result.chi) == (chi, 0, chi)


def test_floor_pow2_brackets_a_wide_denominator_only_below_half_the_precision(monkeypatch):
    # with the cap at 100 bits, a denominator 3**(2*40) of 160 estimated bits
    # is too wide; k = 6 brackets, k = 41 > 64 // 2 takes the root
    monkeypatch.setattr(exact, "MATERIALIZE_CAP_BITS", 100)
    small_k = dv.DegreeValue(Fraction(1, 2), ((3, -40), (5, 30)), precision_bits=64)
    wide_k = dv.DegreeValue(Fraction(1, 2), ((3, -40), (5, 45)), precision_bits=64)
    assert (small_k.floor(), wide_k.floor()) == (6, 41)
    real = exact.nth_root_floor_fraction
    roots = []

    def counted(q, k):
        roots.append(k)
        return real(q, k)

    monkeypatch.setattr(exact, "nth_root_floor_fraction", counted)
    for value, root_taken in ((small_k, []), (wide_k, [2])):
        roots.clear()
        t = value.floor_pow2()
        assert roots == root_taken
        q, beta = exact_power(value)
        assert Fraction(t) ** beta <= q < Fraction(t + 1) ** beta


def test_floor_pow2_refuses_to_bracket_past_the_precision_cap(monkeypatch):
    # k = 257, one past the default cap: log2(t + 1) - log2(t) < 1.45 * 2**-k
    # is below the 2**-256 spacing of every enclosure end, so no bisection
    # of [2**k, 2**(k+1)) can finish, and none may start
    value = dv.DegreeValue(Fraction(4097, 8192), ((3, 162),))
    assert value.floor() == value.precision_bits + 1
    real = exact.compare_to_log2
    probes = []

    def counted(bounds, t, cap, name):
        probes.append(t)
        return real(bounds, t, cap, name)

    monkeypatch.setattr(exact, "compare_to_log2", counted)
    with pytest.raises(PrecisionError) as info:
        value.floor_pow2()
    assert probes == []
    assert str(info.value) == (
        "cannot separate 4097/8192 + 162*log2(3) from log2(t) for t of 258 bits within 256 bits"
    )


def test_floor_pow2_takes_the_root_when_bracketing_runs_out(monkeypatch):
    value = dv.DegreeValue(Fraction(1, 2), ((3, -40), (5, 30)), precision_bits=64)
    expected = value.floor_pow2()
    monkeypatch.setattr(exact, "MATERIALIZE_CAP_BITS", 100)

    def undecided(bounds, t, cap, name):
        raise PrecisionError(f"cannot separate {name} from log2({t})")

    monkeypatch.setattr(exact, "compare_to_log2", undecided)
    assert value.floor_pow2() == expected


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_rr_scan_sweep_is_clean():
    report = dv.rr_scan(-6, 6, Fraction(1, 4))
    assert report.passed
    assert report.violations == ()
    xs = {row.deg2 for row in report.rows}
    probe = Fraction(1, 4) / 16
    for n in range(-6, 7):
        assert Fraction(n) in xs
        if n < 6:
            assert Fraction(n) + probe in xs
        if n > -6:
            assert Fraction(n) - probe in xs


def test_rr_scan_rows_are_sorted_and_consistent():
    report = dv.rr_scan(Fraction(-3, 2), Fraction(3, 2), Fraction(1, 2))
    xs = [row.deg2 for row in report.rows]
    assert xs == sorted(xs)
    for row in report.rows:
        assert row.chi == row.h0 - row.h1
        assert row.step_value == dv.ceil_prime(row.deg2) + 1


def bisect_floor_pow2(x: Fraction) -> int:
    """Largest t with t**b <= 2**a for x = a/b >= 0, by bisection in
    [2**floor(x), 2**(floor(x) + 1))."""
    a, b = x.numerator, x.denominator
    lo, hi = 1 << (a // b), 1 << (a // b + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid ** b <= 2 ** a:
            lo = mid
        else:
            hi = mid
    return lo


def test_rr_scan_h0_is_the_bit_length_of_the_exact_root():
    # a scan the size of the benchmark's medium self-audit scans: quarter
    # ends, step 1/8 and probes at 1/128, every denominator a power of two
    report = dv.rr_scan(Fraction(-87, 4), Fraction(91, 4), Fraction(1, 8))
    assert report.passed
    assert len(report.rows) == 445
    for row in report.rows:
        expected = 0 if row.deg2 < 0 else bisect_floor_pow2(row.deg2).bit_length() + 1
        assert row.h0 == expected, row.deg2


def test_floor_pow2_has_bits_is_the_bit_length_of_the_exact_root():
    # every scan includes the integers in range, where 2**x is a power of two
    # and a bit count one short would pass an inclusive upper bound
    report = dv.rr_scan(0, 6, Fraction(1, 3))
    for x in (row.deg2 for row in report.rows):
        bits = bisect_floor_pow2(x).bit_length()
        for claimed in (bits - 1, bits, bits + 1):
            assert dv.floor_pow2_has_bits(
                x.numerator, x.denominator, claimed
            ) == (claimed == bits), (x, claimed)
        # the same answer at a common denominator, as the scan asks it
        assert dv.floor_pow2_has_bits(7 * x.numerator, 7 * x.denominator, bits)


def test_rr_scan_reports_where_the_witness_disagrees(monkeypatch):
    # 2**((alpha - 1)/beta) lies below 2**(alpha/beta), and its floor has one
    # bit fewer exactly where alpha/beta is an integer
    has_bits = dv.floor_pow2_has_bits
    monkeypatch.setattr(
        dv, "floor_pow2_has_bits", lambda alpha, beta, bits: has_bits(alpha - 1, beta, bits)
    )
    report = dv.rr_scan(-2, 3, Fraction(1, 2))
    assert report.violations == tuple(
        row.deg2 for row in report.rows if row.deg2 >= 0 and row.deg2.denominator == 1
    )
    assert {0, 1, 2, 3} <= set(report.violations)
    assert all(row.h0 == dim_h0(row.deg2) for row in report.rows)


def test_rr_scan_single_point():
    report = dv.rr_scan(Fraction(1, 3), Fraction(1, 3), 1)
    assert report.passed
    assert report.rows[0].deg2 == Fraction(1, 3)


def test_rr_scan_point_cap():
    # at step 1 each integer costs a grid point and three probes
    assert dv.rr_scan(-2499, 0, 1).passed
    with pytest.raises(SizeCapError):
        dv.rr_scan(-2500, 0, 1)
    with pytest.raises(SizeCapError):
        dv.rr_scan(-100000, 100000, Fraction(1, 100))


def test_rr_scan_argument_errors():
    with pytest.raises(DomainError):
        dv.rr_scan(1, 0, 1)
    with pytest.raises(DomainError):
        dv.rr_scan(0, 1, 0)
    with pytest.raises(DomainError):
        dv.rr_scan(0.0, 1, Fraction(1, 2))


def walked_scan_points(lo, hi, step):
    """The points of rr_scan, by the Fraction walk it once took: lo, lo +
    step, ... up to hi, each integer in range, and the probes min(step, 1)/16
    to either side of an integer that stay in range, sorted."""
    points = set()
    x = lo
    while x <= hi:
        points.add(x)
        x += step
    probe = min(step, Fraction(1)) / 16
    n = math.ceil(lo)
    while n <= hi:
        points.add(Fraction(n))
        for side in (Fraction(n) - probe, Fraction(n) + probe):
            if lo <= side <= hi:
                points.add(side)
        n += 1
    return sorted(points)


@pytest.mark.parametrize(
    "lo, hi, step",
    [
        (Fraction(-9, 2), Fraction(-1, 3), Fraction(2, 3)),
        (Fraction(-89, 4), Fraction(87, 4), Fraction(1, 8)),
        (Fraction(1, 3), Fraction(1, 3), Fraction(1)),
    ],
    ids=["negative-range", "probes-at-step-1/8", "single-point"],
)
def test_rr_scan_rows_are_the_walked_points_with_their_closed_forms(lo, hi, step):
    report = dv.rr_scan(lo, hi, step)
    expected = tuple(
        dv.ScanRow(x, dim_h0(x), dim_h1(x), dim_h0(x) - dim_h1(x), dv.ceil_prime(x) + 1)
        for x in walked_scan_points(lo, hi, step)
    )
    assert report.points == len(expected)
    # the rows are rebuilt at each read, the same each time
    assert report.rows == expected
    assert report.rows == expected


def walked_figure_points(lo, hi, samples_per_unit):
    """The sample points of figure_data, by the Fraction walk it once took."""
    points = []
    x = lo
    while x <= hi:
        points.append(x)
        x += Fraction(1, samples_per_unit)
    return points


grid_ends = st.fractions(min_value=-12, max_value=12, max_denominator=12)
grid_steps = st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12)


@hypothesis.given(grid_ends, grid_ends, grid_steps)
@hypothesis.example(Fraction(1, 3), Fraction(1, 3), Fraction(1))  # lo == hi
@hypothesis.example(Fraction(5), Fraction(5), Fraction(1, 4))  # one integer, no probes
@hypothesis.example(Fraction(-9, 2), Fraction(-1, 3), Fraction(2, 3))  # negative range
@hypothesis.example(Fraction(-7, 3), Fraction(17, 5), Fraction(5, 2))  # step above 1
@hypothesis.example(Fraction(-1, 6), Fraction(11, 4), Fraction(3, 8))  # hi off the grid
def test_rr_scan_points_match_the_fraction_walk(a, b, step):
    lo, hi = min(a, b), max(a, b)
    xs = [row.deg2 for row in dv.rr_scan(lo, hi, step).rows]
    assert xs == walked_scan_points(lo, hi, step)
    assert all(type(x) is Fraction for x in xs)


@hypothesis.given(grid_ends, grid_ends, st.integers(1, 24))
@hypothesis.example(Fraction(-9, 2), Fraction(-1, 3), 3)  # negative range
@hypothesis.example(Fraction(-1, 6), Fraction(11, 4), 8)  # hi off the grid
@hypothesis.example(Fraction(1, 7), Fraction(2, 7), 1)  # one sample
def test_figure_data_samples_match_the_fraction_walk(a, b, samples_per_unit):
    hypothesis.assume(a != b)
    lo, hi = min(a, b), max(a, b)
    series = dv.figure_data(lo, hi, samples_per_unit)
    xs = [x for x, _ in series.samples]
    assert xs == walked_figure_points(lo, hi, samples_per_unit)
    assert all(type(x) is Fraction for x in xs)
    assert [value for _, value in series.samples] == [dv.ceil_prime(x) for x in xs]


# ---------------------------------------------------------------------------
# figure series and emitters
# ---------------------------------------------------------------------------


def test_figure_data_jumps_and_samples():
    series = dv.figure_data(-2, 2, samples_per_unit=4)
    assert series.jump_points == (Fraction(-1), Fraction(0), Fraction(1), Fraction(2))
    assert series.samples[0] == (Fraction(-2), -2)
    assert series.samples[-1] == (Fraction(2), 3)
    for x, value in series.samples:
        assert value == dv.ceil_prime(x)
    # values never decrease left to right
    values = [v for _, v in series.samples]
    assert values == sorted(values)


def test_figure_data_sample_cap():
    # 0, 1, ..., 100000 is one sample more than the cap
    with pytest.raises(SizeCapError):
        dv.figure_data(0, dv.MAX_FIGURE_SAMPLES, samples_per_unit=1)
    with pytest.raises(SizeCapError):
        dv.figure_data(-100000, 100000, samples_per_unit=1000)


def test_figure_data_range_validation():
    with pytest.raises(DomainError):
        dv.figure_data(1, 1)
    with pytest.raises(DomainError):
        dv.figure_data(0, 1, samples_per_unit=0)


def test_csv_golden():
    series = dv.figure_data(-1, 1, samples_per_unit=2)
    assert dv.series_to_csv(series) == (
        "deg2,chi_minus_1,is_jump\n"
        "-1,-1,false\n"
        "-1/2,-1,false\n"
        "0,1,true\n"
        "1/2,1,false\n"
        "1,2,true\n"
    )


def test_json_matches_shipped_schema():
    import importlib.resources as resources

    schema = json.loads(
        resources.files("arakelov_rr").joinpath("figure_schema.json").read_text()
    )
    series = dv.figure_data(Fraction(-5, 2), Fraction(5, 2), samples_per_unit=3)
    payload = json.loads(json.dumps(dv.series_to_json_obj(series), indent=2))
    jsonschema.validate(payload, schema)
    assert payload["lo"] == "-5/2"
    assert payload["jump_points"] == ["-2", "-1", "0", "1", "2"]


def test_svg_is_deterministic_and_structured():
    series = dv.figure_data(-2, 2, samples_per_unit=8)
    svg = dv.series_to_svg(series)
    assert svg == dv.series_to_svg(series)
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    # a closed and an open dot per jump
    assert svg.count("<circle") == 2 * len(series.jump_points)
