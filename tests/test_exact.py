"""Integer roots, log2 enclosures, and primality used by the degree code.

Root and power checks clear denominators so the oracle is pure integer
arithmetic; the log2 enclosures are checked against Decimal.ln at 100
digits, whose error is dozens of orders of magnitude below the interval
widths.  No binary floating point anywhere.
"""

import decimal
import inspect
import math
import random
import sys
import time
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

import arakelov_rr
from arakelov_rr import exact
from arakelov_rr.errors import DomainError, PrecisionError, SizeCapError


@hypothesis.given(st.integers(0, 10 ** 30), st.integers(1, 12))
def test_nth_root_floor_defining_inequality(x, n):
    r = exact.nth_root_floor(x, n)
    assert r ** n <= x
    assert (r + 1) ** n > x


@st.composite
def wide_ints(draw, max_bits=20_000):
    return draw(st.integers(0, 2 ** draw(st.integers(0, max_bits))))


@hypothesis.given(wide_ints(), st.integers(1, 14))
def test_nth_root_floor_defining_inequality_wide(x, n):
    # wide enough to take the recursively seeded Newton path
    r = exact.nth_root_floor(x, n)
    assert r ** n <= x
    assert (r + 1) ** n > x


def test_nth_root_floor_exact_powers():
    for base in (0, 1, 2, 3, 10, 12345):
        for n in (1, 2, 3, 7):
            assert exact.nth_root_floor(base ** n, n) == base
            if base ** n > 0:
                assert exact.nth_root_floor(base ** n - 1, n) == base - 1
    # bases of several hundred bits, whose powers take the seeded path
    for base in (3 ** 200, 2 ** 300 - 1, 2 ** 300 + 1, 7 ** 250 + 12345, 10 ** 150):
        for n in range(2, 15):
            power = base ** n
            assert exact.nth_root_floor(power - 1, n) == base - 1
            assert exact.nth_root_floor(power, n) == base
            assert exact.nth_root_floor(power + 1, n) == base


@hypothesis.given(
    wide_ints(3 * exact.SQRT_SPLIT_BITS),
    st.integers(0, 15),
    st.sampled_from([1, 3, 5]),
)
def test_nth_root_floor_even_indices(x, j, odd):
    # an index 2**j * odd halves j times through square roots, then takes
    # the odd root; draws reach past SQRT_SPLIT_BITS, where _sqrt_rem takes
    # the square roots
    k = 2 ** j * odd
    r = exact.nth_root_floor(x, k)
    assert r ** k <= x < (r + 1) ** k


def traced_lines(call, args, starts, traced=None):
    """call(*args), with the lines of ``traced`` (call itself by default)
    that begin with one of ``starts`` as each of its calls ran them: per
    call, a list of (the line's beginning, n when it ran), traced line by
    line."""
    traced = traced or call
    lines, first = inspect.getsourcelines(traced)
    stripped = [line.strip() for line in lines]
    found = {first + next(i for i, line in enumerate(stripped) if line.startswith(start)): start
             for start in starts}
    calls = []

    def on_call(frame, event, arg):
        if frame.f_code is not traced.__code__:
            return None
        ran = []
        calls.append(ran)

        def on_line(frame, event, arg):
            if event == "line" and frame.f_lineno in found:
                ran.append((found[frame.f_lineno], frame.f_locals["n"]))
            return on_line

        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        r = call(*args)
    finally:
        sys.settrace(previous)
    return r, calls


@pytest.mark.parametrize("j", [0, 1, 2, 5, 15])
@pytest.mark.parametrize("odd", [1, 3, 5])
def test_nth_root_floor_takes_one_isqrt_per_factor_of_two(j, odd):
    # the even part of the index costs exactly j square roots at the
    # halving loop, math.isqrt's for a narrow n and _sqrt_rem's for a wide
    # one, and the first of them is taken on n itself, whatever its width
    k = 2 ** j * odd
    narrow = 3 ** 600 + 1
    wide = 3 ** 10_500 + 1
    assert narrow.bit_length() < exact.SQRT_SPLIT_BITS < wide.bit_length()
    for x in (narrow, wide):
        r, calls = traced_lines(exact.nth_root_floor, (x, k), ["n = math.isqrt(n)"])
        taken = [n for ran in calls for _, n in ran]
        assert len(taken) == j
        assert (taken[:1] == [x]) == (j > 0)
        assert r ** k <= x < (r + 1) ** k


#: Widths 4b - 1 to 4b + 1 around _sqrt_rem's limb splits: where math.isqrt
#: takes over (4b = SQRT_SPLIT_BITS) and one and two levels above it.
SPLIT_WIDTHS = [m * exact.SQRT_SPLIT_BITS + d for m in (1, 2, 4) for d in (-1, 0, 1)]


@st.composite
def sqrt_inputs(draw):
    """A random n of a split width or of any width to 8 * SQRT_SPLIT_BITS,
    a perfect square of about that width or one off it, or 2**(width - 1),
    the shape floor_pow2_rational passes in, of either parity."""
    width = draw(st.sampled_from(SPLIT_WIDTHS) | st.integers(2, 8 * exact.SQRT_SPLIT_BITS))
    shape = draw(st.sampled_from(["random", "square", "power"]))
    if shape == "power":
        return 1 << (width - 1)
    if shape == "random":
        return draw(st.integers(1 << (width - 1), (1 << width) - 1))
    half = width // 2
    t = draw(st.integers(1 << (half - 1), (1 << half) - 1))
    return t * t + draw(st.integers(-1, 1))


@hypothesis.given(sqrt_inputs())
def test_sqrt_rem_agrees_with_isqrt(n):
    s, r = exact._sqrt_rem(n)
    assert s == math.isqrt(n)
    assert r == n - s * s
    assert 0 <= r <= 2 * s


@pytest.mark.parametrize("off", [-1, 1])
def test_sqrt_rem_refuses_a_root_its_remainder_does_not_certify(off, monkeypatch):
    # a base root one below a square's root leaves the remainder 2s + 1, one
    # above it a negative one; either is refused before it is carried down
    # a level, on a narrow square and on a wide n whose top limbs are one
    isqrt = math.isqrt
    monkeypatch.setattr(math, "isqrt", lambda n: isqrt(n) + off)
    t = 3 ** 1200 + 1
    assert (t * t).bit_length() < exact.SQRT_SPLIT_BITS <= (t * t << 4000).bit_length()
    for n in (t * t, t * t << 4000):
        with pytest.raises(ArithmeticError):
            exact._sqrt_rem(n)


#: Divisor widths around _div2n1n's base: where divmod takes over, one step
#: above it (odd, so padded) and two levels above it.
DIV_WIDTHS = [exact.SQRT_SPLIT_BITS + d for d in (-1, 0, 1)] + [
    m * exact.SQRT_SPLIT_BITS + d for m in (2, 4) for d in (-1, 0, 1)
]


@st.composite
def div_inputs(draw):
    """(a, b, n): an n-bit b of a width around the base, or of any width
    to 8 * SQRT_SPLIT_BITS, and 0 <= a < b << n, random, a multiple of b,
    or the largest, whose quotient is all ones."""
    n = draw(st.sampled_from(DIV_WIDTHS) | st.integers(1, 8 * exact.SQRT_SPLIT_BITS))
    b = draw(st.integers(1 << (n - 1), (1 << n) - 1))
    shape = draw(st.sampled_from(["random", "multiple", "largest"]))
    if shape == "largest":
        return (b << n) - 1, b, n
    q = draw(st.integers(0, (1 << n) - 1))
    return q * b + (0 if shape == "multiple" else draw(st.integers(0, b - 1))), b, n


@hypothesis.given(div_inputs())
def test_div2n1n_agrees_with_divmod(case):
    a, b, n = case
    assert exact._div2n1n(a, b, n) == divmod(a, b)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_div2n1n_pads_an_odd_width(m):
    # an odd n above the base is shifted up a bit, and the remainder back
    rng = random.Random(20234 + m)
    n = m * exact.SQRT_SPLIT_BITS + 1
    for _ in range(3):
        b = rng.getrandbits(n) | 1 << (n - 1)
        a = rng.randrange(b << n)
        assert exact._div2n1n(a, b, n) == divmod(a, b)


def test_div2n1n_takes_the_shortcut_and_the_double_correction():
    # (b << n) - 1 has its top half equal to b's, so every level's top
    # quotient is all ones; a b of top half 2**(h-1) and bottom half all
    # ones, divided into (2**(2h-1) - 2**(h-1)) << n, takes 2**h - 1 from
    # the top halves, two above the quotient 2**h - 3
    n = 2 * exact.SQRT_SPLIT_BITS
    h = n // 2
    b = (1 << (n - 1)) + (1 << h) - 1
    rng = random.Random(20235)
    full = [((c << n) - 1, c) for c in (b, rng.getrandbits(n) | 1 << (n - 1))]
    double = ((1 << (n - 1)) - (1 << (h - 1))) << n
    shortcut, correction = "q, r = (1 << n) - 1", "q, r = q - 1, r + b"
    for a, divisor in (*full, (double, b)):
        (q, r), calls = traced_lines(
            exact._div2n1n, (a, divisor, n), [shortcut, correction], traced=exact._div3n2n
        )
        ran = [[line for line, _ in lines] for lines in calls]
        assert (q, r) == divmod(a, divisor)
        if a == double:
            assert q >> h == (1 << h) - 3
            assert ran[0].count(correction) == 2
        else:
            assert q == (1 << n) - 1
            assert all(shortcut in lines for lines in ran)


@pytest.mark.parametrize("off", [-1, 1])
def test_div2n1n_refuses_a_quotient_its_remainder_does_not_certify(off, monkeypatch):
    # a base quotient one low leaves the remainder b on an exact multiple,
    # one high a negative one; either is refused, on a divisor at the base
    # width and on one two levels above it
    def divmod_off(a, b):
        q = a // b + off
        return q, a - q * b

    monkeypatch.setattr(exact, "divmod", divmod_off, raising=False)
    rng = random.Random(20236)
    for n in (exact.SQRT_SPLIT_BITS, 4 * exact.SQRT_SPLIT_BITS):
        b = rng.getrandbits(n) | 1 << (n - 1)
        with pytest.raises(ArithmeticError):
            exact._div2n1n(b * (rng.getrandbits(n) | 1), b, n)


@pytest.mark.parametrize("k", [4, 8, 12, 64])
def test_nth_root_floor_wide_even_indices(k):
    # n of 2**17 - 1 and 2**17 + 1 bits, whose halvings take _sqrt_rem and
    # its recursive division, random and at powers and their neighbours
    rng = random.Random(20237 + k)
    for width in ((1 << 17) - 1, (1 << 17) + 1):
        base = rng.getrandbits(width // k) | 1 << (width // k - 1)
        for n in (rng.getrandbits(width) | 1 << (width - 1), base ** k - 1, base ** k, base ** k + 1):
            x = exact.nth_root_floor(n, k)
            assert x ** k <= n < (x + 1) ** k


@pytest.mark.parametrize(
    "n, k",
    [(10, 1.0), (10.0, 1), (10, True), (True, 2), (Fraction(10), 2), ("10", 2), (10, Fraction(2))],
)
def test_nth_root_floor_refuses_arguments_that_are_not_ints(n, k):
    with pytest.raises(ValueError):
        exact.nth_root_floor(n, k)


def closing_moves(n, k):
    """nth_root_floor(n, k), with how often each of its calls moved the
    Newton result down and up in the closing loops, and how often it
    checked (x + 1)**k <= n."""
    steps = ("x -= 1", "x += 1", "while (x + 1) ** k <= n:")
    r, calls = traced_lines(exact.nth_root_floor, (n, k), steps)
    return r, [tuple(sum(line == step for line, _ in ran) for step in steps) for ran in calls]


def test_nth_root_floor_newton_lands_on_the_root_or_one_above():
    # the seeded Newton step overestimates by at most one, so the closing
    # loops step down at most once and never up; exact powers and their
    # neighbours are the inputs a misplaced comparison would move on.
    # Roots of 900 bits and more take the truncated wide step, and of
    # 4,500 bits at even indices too.  A base whose low half is all ones
    # has its seed one above it, so the correction falls a hair short of
    # 1 at its power, and one overestimated by as little would land below
    # the root
    rng = random.Random(20231)
    cases = []
    for k in (3, 5, 7, 9, 15, 21, 25):
        for bits in (40, 200, 900):
            base = rng.getrandbits(bits) | 1 << (bits - 1)
            cases += [(base ** k + d, k) for d in (-1, 0, 1)]
            cases.append((rng.getrandbits(bits * k), k))
    for k in (3, 4, 5, 6, 7, 12, 25):
        for bits in (1_200, 4_500):
            half = bits // 2
            ones = (rng.getrandbits(bits - half) | 1 << (bits - half - 1)) << half | (1 << half) - 1
            for base in (rng.getrandbits(bits) | 1 << (bits - 1), ones):
                cases += [(base ** k + d, k) for d in (-1, 0, 1)]
            cases.append((rng.getrandbits(bits * k), k))
    for n, k in cases:
        r, moves = closing_moves(n, k)
        assert r ** k <= n < (r + 1) ** k
        assert all(down <= 1 and up == 0 for down, up, _ in moves), (n, k, moves)


def test_nth_root_floor_certifies_a_root_without_its_successor_power():
    # (x + 1)**k >= x**k + k * x**(k-1): once that bound, with the low bits
    # of x dropped, exceeds n, a root skips (x + 1)**k.  At a power of two
    # x nothing is dropped, so n = x**k + k * x**(k-1) meets the bound and
    # is checked, and one less is not; a random n is never checked.  Roots
    # of 100 bits take the narrow step, of 1,500 bits the wide one
    rng = random.Random(20232)
    for e in (100, 1_500):
        x = 1 << e
        for k in (3, 5, 7):
            bound = x ** k + k * x ** (k - 1)
            other = rng.getrandbits(e * k)
            for n, checks in ((bound - 1, 0), (bound, 1), (other, 0)):
                r, moves = closing_moves(n, k)
                assert r ** k <= n < (r + 1) ** k
                assert moves[0][2] == checks, (e, k, n == bound, moves)


def test_nth_root_floor_wide_roots_are_certified():
    # n of 4k to 160k bits, the sizes euler's roots reach, at every index
    # to 13 and at 16 and 24, with exact powers and their neighbours
    rng = random.Random(20233)
    for k in (*range(2, 14), 16, 24):
        for _ in range(3):
            bits = round(4_000 * 40 ** rng.random())
            base = rng.getrandbits(bits // k) | 1 << (bits // k - 1)
            for n in (rng.getrandbits(bits), base ** k - 1, base ** k, base ** k + 1):
                r = exact.nth_root_floor(n, k)
                assert r ** k <= n < (r + 1) ** k, (n.bit_length(), k)


def test_nth_root_floor_narrow_root_of_huge_index_is_fast():
    # the 32768-th root of 2 * 3**(13 * 32768), a 675,000-bit number whose
    # root has 21 bits: Newton from a power of two took minutes here
    n = 2 * 3 ** (13 * 32768)
    t0 = time.perf_counter()
    r = exact.nth_root_floor(n, 32768)
    elapsed = time.perf_counter() - t0
    assert r ** 32768 <= n < (r + 1) ** 32768
    assert elapsed < 5.0  # about 0.4 s; the Newton loop it replaced ran for minutes


@hypothesis.given(
    st.fractions(min_value=0, max_value=10 ** 12, max_denominator=10 ** 6),
    st.integers(1, 8),
)
def test_nth_root_floor_fraction_defining_inequality(q, n):
    r = exact.nth_root_floor_fraction(q, n)
    # r**n <= p/q < (r+1)**n, cleared of the denominator
    assert r ** n * q.denominator <= q.numerator
    assert (r + 1) ** n * q.denominator > q.numerator


@hypothesis.given(wide_ints(4_000), st.integers(1, 2 ** 64), st.integers(1, 14))
def test_nth_root_floor_fraction_defining_inequality_wide(num, den, n):
    # numerators wide enough for the seeded Newton path of nth_root_floor
    q = Fraction(num, den)
    r = exact.nth_root_floor_fraction(q, n)
    assert r ** n * q.denominator <= q.numerator
    assert (r + 1) ** n * q.denominator > q.numerator


@hypothesis.given(st.integers(0, 10 ** 30) | wide_ints(4_000), st.integers(1, 12))
def test_nth_root_floor_fraction_of_an_integer(q, n):
    # an int is a rational of denominator 1
    r = exact.nth_root_floor_fraction(q, n)
    assert r ** n <= q < (r + 1) ** n


def test_nth_root_floor_fraction_refuses_a_negative_argument():
    for q in (-1, Fraction(-1, 3)):
        with pytest.raises(ValueError):
            exact.nth_root_floor_fraction(q, 3)


@hypothesis.given(
    st.integers(0, 400),
    st.lists(
        st.tuples(st.sampled_from([3, 5, 7, 11, 13, 1000003]), st.integers(-40, 40)),
        max_size=3,
    ),
    st.integers(2, 12),
)
def test_nth_root_floor_fraction_place_quotients(alpha, places, beta):
    # the quotients DegreeValue.floor_pow2 builds: 2**alpha * prod p**(m*beta),
    # with negative multiplicities giving wide denominators
    q = Fraction(2) ** alpha
    for p, m in places:
        q *= Fraction(p) ** (m * beta)
    r = exact.nth_root_floor_fraction(q, beta)
    assert r ** beta * q.denominator <= q.numerator
    assert (r + 1) ** beta * q.denominator > q.numerator


def decimal_log2(t):
    """Reference log2 via Decimal.ln, correctly rounded at 100 digits.

    Clearing the dyadic denominators instead would raise t to a 2**64-bit
    exponent, so the integer route is closed; 100 digits leaves the
    oracle error around 1e-98, far below the 2**-32 interval widths it
    is asked to check.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 100
        return Fraction(decimal.Decimal(t).ln() / decimal.Decimal(2).ln())


ORACLE_SLACK = Fraction(1, 10 ** 90)


@hypothesis.given(st.integers(1, 10 ** 6), st.sampled_from([32, 48, 64, 96]))
def test_log2_bounds_enclose(t, bits):
    lo, hi = exact.log2_bounds(t, bits)
    assert lo <= hi
    reference = decimal_log2(t)
    assert lo <= reference + ORACLE_SLACK
    assert reference - ORACLE_SLACK <= hi


def test_log2_bounds_powers_of_two_are_exact():
    for k in range(12):
        lo, hi = exact.log2_bounds(2 ** k, 64)
        assert lo == hi == k


def test_log2_bounds_width_is_tight_normally():
    for t in (3, 5, 7, 10, 1000):
        for bits in (32, 64, 128):
            lo, hi = exact.log2_bounds(t, bits)
            assert hi - lo <= Fraction(2, 2 ** bits)


def test_log2_bounds_pinned_values():
    # (p, bits) -> (lo, hi) as the digit-by-digit Fraction sum produced them
    straddling = 1574241800873067763483740987709  # ~ 2**(100 + 5/16)
    pinned = {
        (3, 32): (Fraction(6807362105, 2 ** 32), Fraction(6807362107, 2 ** 32)),
        (3, 256): (
            Fraction(
                183526119321303951305965157795995817513352504879811268056770310897279532941815,
                2 ** 256,
            ),
            Fraction(
                183526119321303951305965157795995817513352504879811268056770310897279532941817,
                2 ** 256,
            ),
        ),
        (1000003, 128): (
            Fraction(6782362801985453736277396596505680222543, 2 ** 128),
            Fraction(6782362801985453736277396596505680222545, 2 ** 128),
        ),
        (straddling, 32): (Fraction(401, 4), Fraction(1607, 16)),
    }
    for (p, bits), expected in pinned.items():
        assert exact.log2_bounds(p, bits) == expected


def test_log2_bounds_cache_is_bounded():
    info = exact.log2_bounds.cache_info()
    assert info.maxsize == exact.LOG2_CACHE_SIZE
    for t in range(3, 3 + 2 * exact.LOG2_CACHE_SIZE):
        exact.log2_bounds(t, 32)
    assert exact.log2_bounds.cache_info().currsize <= exact.LOG2_CACHE_SIZE


def test_log2_bounds_refine_nested():
    coarse = exact.log2_bounds(3, 32)
    fine = exact.log2_bounds(3, 128)
    assert coarse[0] <= fine[0] <= fine[1] <= coarse[1]


def trial_division(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@hypothesis.given(st.integers(-10, 10 ** 5))
def test_is_prime_matches_trial_division(n):
    assert exact.is_prime(n) == trial_division(n)


def test_is_prime_psi12_is_composite():
    # the least strong pseudoprime to the twelve prime bases 2..37
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441
    assert not exact.is_prime(psi12)


def test_is_prime_refuses_psi13_and_above():
    assert not exact.is_prime(exact.PRIMALITY_LIMIT - 1)
    for n in (exact.PRIMALITY_LIMIT, 2 ** 127 - 1):
        with pytest.raises(SizeCapError):
            exact.is_prime(n)


def test_is_prime_fermat_liars():
    # Carmichael numbers fool the plain Fermat test
    for liar in (561, 1105, 1729, 2465, 41041):
        assert not exact.is_prime(liar)
    for p in (2, 3, 2 ** 13 - 1, 2 ** 31 - 1, 10 ** 18 + 9):
        assert exact.is_prime(p)


# ---------------------------------------------------------------------------
# the refinement primitive and comparisons against log2
# ---------------------------------------------------------------------------


def test_refine_doubles_from_32_bits_to_the_cap():
    seen = []

    def undecided(bits):
        seen.append(bits)
        return None

    described = []

    def describe():
        described.append(True)
        return "still undecided"

    with pytest.raises(PrecisionError, match="still undecided"):
        exact.refine(undecided, 200, describe)
    assert seen == [32, 64, 128, 200]
    assert described == [True]


def test_refine_returns_the_first_decision_and_builds_no_message():
    def describe():
        raise AssertionError("the message is built only on failure")

    assert exact.refine(lambda bits: 0 if bits >= 128 else None, 256, describe) == 0
    assert exact.refine(lambda bits: -1, 32, describe) == -1


def test_compare_to_log2_on_rationals():
    def sign(q, t):
        return exact.compare_to_log2(lambda bits: (q, q), t, exact.COMPARE_BITS_CAP, q)

    # log2(3) = 1.58496...
    assert sign(Fraction(8, 5), 3) == 1
    assert sign(Fraction(19, 12), 3) == -1
    # log2 of 1 and of other powers of two is exact, so ties are decided
    assert sign(Fraction(0), 1) == 0
    assert sign(Fraction(-1, 3), 1) == -1
    assert sign(Fraction(5), 32) == 0
    assert sign(Fraction(5), 33) == -1


def test_compare_to_log2_exhausts_the_cap_on_a_true_tie():
    def log2_3(bits):
        return exact.log2_bounds(3, bits)

    with pytest.raises(PrecisionError, match=r"^cannot separate x from log2\(3\) within 128 bits$"):
        exact.compare_to_log2(log2_3, 3, 128, "x")


def test_abbreviated():
    assert exact.abbreviated(12345) == "12345"
    assert exact.abbreviated(exact.STR_LIMIT - 1) == "9" * 4300
    big = 3 ** 400000
    assert exact.abbreviated(big) == (
        f"{str(big // 10 ** 190829)}... (190849 digits, 633986 bits)"
    )
    assert exact.abbreviated(10 ** 5000) == "1" + "0" * 19 + "... (5001 digits, 16610 bits)"


# ---------------------------------------------------------------------------
# the integer part of 2**q
# ---------------------------------------------------------------------------


@hypothesis.given(st.fractions(min_value=0, max_value=80, max_denominator=8))
def test_floor_pow2_rational_inequality(q):
    t = exact.floor_pow2_rational(q)
    assert t ** q.denominator <= 2 ** q.numerator
    assert (t + 1) ** q.denominator > 2 ** q.numerator


def test_floor_pow2_rational_bracketing_matches_materialized(monkeypatch):
    # same value through both the root path and the forced bracket path
    qs = (Fraction(15, 4), Fraction(47, 7), Fraction(100, 9))
    direct = [exact.floor_pow2_rational(q) for q in qs]
    monkeypatch.setattr(exact, "MATERIALIZE_CAP_BITS", 0)
    monkeypatch.setattr(exact, "nth_root_floor_fraction", None)  # no root taken
    assert [exact.floor_pow2_rational(q) for q in qs] == direct


def test_floor_pow2_rational_huge_denominator():
    # denominators too wide to clear, so the answer is bracketed
    cases = {
        Fraction(9) + Fraction(1, 2 ** 40): 512,
        Fraction(10) - Fraction(1, 5 ** 30): 1023,
    }
    for q, expected in cases.items():
        assert exact.floor_pow2_rational(q) == expected


def test_floor_pow2_rational_huge_integer_is_capped():
    with pytest.raises(SizeCapError):
        exact.floor_pow2_rational(Fraction(2 ** 25))


def test_floor_pow2_rational_rejects_negative():
    with pytest.raises(DomainError):
        exact.floor_pow2_rational(Fraction(-1, 3))


@pytest.mark.parametrize("q", [0.5, 2.75, 3.0, True, False, None, 1j])
def test_floor_pow2_rational_refuses_what_is_not_an_exact_rational(q):
    # binary floats are not exact rationals, a bool is not a degree, and
    # None or a complex is no number of either kind; the package exports
    # the function as floor_pow2
    for floor_pow2 in (exact.floor_pow2_rational, arakelov_rr.floor_pow2):
        with pytest.raises(DomainError):
            floor_pow2(q)


@pytest.mark.parametrize("q, expected", [(3, 8), (Fraction(5, 2), 5), ("11/4", 6), ("0", 1)])
def test_floor_pow2_rational_takes_ints_fractions_and_strings(q, expected):
    assert exact.floor_pow2_rational(q) == expected


@hypothesis.given(st.fractions(min_value=0, max_value=400, max_denominator=64))
def test_floor_pow2_rational_under_the_cap_takes_the_root_from_ints(q):
    # a rational degree under the cap never reaches the log-term machinery
    def refuse(*args):
        raise AssertionError("materialize_or_bracket entered")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "materialize_or_bracket", refuse)
        t = exact.floor_pow2_rational(q)
    assert t ** q.denominator <= 2 ** q.numerator < (t + 1) ** q.denominator
