"""Exact integer and rational helpers: n-th roots, log2 enclosures, primality.

Everything here works on Python ints and Fractions only.  The log2
enclosures are honest intervals: directed rounding throughout, so
``lo <= log2(p) <= hi`` is a theorem, not an estimate.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError, PrecisionError, SizeCapError

#: An enclosure of a real number: bits -> (lo, hi), about 2**-bits wide.
Enclosure = Callable[[int], tuple[Fraction, Fraction]]


#: A Newton correction of at least this many bits is divided by the top bits
#: of its divisor, not at full width: the faster step at indices 3 to 12.
WIDE_ROOT_STEP_BITS = 256

#: From this width on, square roots split n into limbs; divisions by a wider b split b.
SQRT_SPLIT_BITS = 1 << 12


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for an n-bit b and 0 <= a < b << n, certified as 0 <= r < b.

    Burnikel and Ziegler's recursive division (MPI-I-98-1-022) over Karatsuba
    products, as in CPython 3.12's _pylong; quadratic divmod takes a narrow b."""
    if n <= SQRT_SPLIT_BITS:
        q, r = divmod(a, b)
        if not 0 <= r < b:
            raise ArithmeticError("a division failed its remainder certificate")
        return q, r
    if pad := n & 1:
        a, b, n = a << 1, b << 1, n + 1
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q1, r = _div3n2n(a >> n, a >> h & mask, b, b1, b2, h)
    q2, r = _div3n2n(r, a & mask, b, b1, b2, h)
    return q1 << h | q2, r >> pad


def _div3n2n(a12: int, a3: int, b: int, b1: int, b2: int, n: int) -> tuple[int, int]:
    # a12 // b1 overestimates the quotient by at most two, as b's top bit is set
    if a12 >> n == b1:
        q, r = (1 << n) - 1, a12 - (b1 << n) + b1
    else:
        q, r = _div2n1n(a12, b1, n)
    r = (r << n | a3) - q * b2
    while r < 0:
        q, r = q - 1, r + b
    return q, r


def _sqrt_rem(n: int) -> tuple[int, int]:
    """(s, n - s*s) for s = isqrt(n), certified at each level as 0 <= n - s*s <= 2s.

    Zimmermann's Karatsuba square root over limbs of h = (bits + 1) // 4 bits: the top
    root s' >= 2**(h-1) bounds q <= 2**h and q*q <= 2s' << h, so s' << h plus q is the
    root or one above."""
    if n.bit_length() < SQRT_SPLIT_BITS:
        s = math.isqrt(n)
        r = n - s * s
    else:
        h = (n.bit_length() + 1) >> 2
        s, r = _sqrt_rem(n >> 2 * h)
        mask = (1 << h) - 1
        q, u = _div2n1n(r << h | n >> h & mask, s << 1, s.bit_length() + 1)
        s = (s << h) + q
        r = (u << h | n & mask) - q * q
        if r < 0:
            s, r = s - 1, r + 2 * s - 1
    if not 0 <= r <= 2 * s:
        raise ArithmeticError("a square root failed its remainder certificate")
    return s, r


def nth_root_floor(n: int, k: int) -> int:
    """Largest integer t with t**k <= n, for ints n >= 0, k >= 1.

    An even index is halved by a square root at every width (for an int
    t, t**m <= isqrt(n) exactly when t**(2m) <= n), cheaper than a Newton
    step at the even index.  Other roots use precision doubling: the root
    of n with its low k*s bits dropped, plus one and shifted left by s,
    overestimates the root with about half its bits right, so a single
    Newton step lands on it or one above.  With s >= WIDE_ROOT_STEP_BITS
    that step divides only by the top s + O(1) bits of its divisor, by
    _div2n1n, with an error below 2**-20; narrower ones divide n at full
    width.  The closing section steps down while t**k > n, then certifies
    n < (t+1)**k from t**k + k * t**(k-1) <= (t+1)**k, the low
    s bits of t dropped, computing (t+1)**k only when that bound is not
    above n.  Roots too narrow to split (a few bits more than log2(k))
    are bisected.  Arguments other than ints (a bool too) raise ValueError.
    """
    if type(n) is not int or type(k) is not int:
        raise ValueError("root arguments must be ints")
    if k < 1:
        raise ValueError("root index must be >= 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    while k % 2 == 0:
        n = math.isqrt(n) if n.bit_length() < SQRT_SPLIT_BITS else _sqrt_rem(n)[0]
        k //= 2
    if k == 1 or n in (0, 1):
        return n
    bits = n.bit_length()
    # Newton from x = t(1 + e) overshoots by at most (k-1)/2 * t * e**2,
    # with t*e <= 2**s; the guard bits keep that below one half.
    guard = (k - 1).bit_length() + 1
    s = (bits // k - guard) // 2
    if s < 1:
        # Bisect, keeping lo**k <= n < hi**k: Newton from a power of two
        # would gain only a factor of about (k - 1)/k per step.
        e = (bits - 1) // k
        lo, hi = 1 << e, 1 << (e + 1)
        while hi - lo > 1:
            mid = (lo + hi) >> 1
            if mid ** k <= n:
                lo = mid
            else:
                hi = mid
        return lo
    y = nth_root_floor(n >> (k * s), k) + 1
    x = y << s
    if s < WIDE_ROOT_STEP_BITS:
        x = ((k - 1) * x + n // x ** (k - 1)) // k
    else:
        # The step is x - c, c = (x**k - n) / (k * x**(k-1)) <= 2**s.
        # q counts quarters of c against the top T = s + 2*guard + 16 bits
        # of k * y**(k-1) rounded up, which has more than T bits as k >= 3,
        # so 4c - 1 - 2**-18 < q < 4c.  Then x - q//4 - 1 is at least
        # floor(x - c) and below x - c + 2**-20: within 2**-20 of the exact
        # step, which is at least the root and below it plus one half.
        power = y ** (k - 1)
        divisor = k * power
        t = divisor.bit_length() - (s + 2 * guard + 16)
        d = (divisor >> t) + 1
        q = _div2n1n(((power * y) << (k * s)) - n >> (t + s * (k - 1) - 2), d, d.bit_length())[0]
        x -= (q + 4) >> 2
    while (p := x ** k) > n:
        x -= 1
    # (x + 1)**k >= x**k + k * x**(k-1), so a bound on the right that
    # exceeds n certifies the root without the full-width (x + 1)**k.
    if p + (k * (x >> s) ** (k - 1) << s * (k - 1)) <= n:
        while (x + 1) ** k <= n:
            x += 1
    return x


def nth_root_floor_fraction(q: Fraction, k: int) -> int:
    """Largest integer t >= 0 with t**k <= q, for rational q >= 0, k >= 1."""
    if q.numerator < 0:
        raise ValueError("q must be nonnegative")
    # t**k is an integer, so t**k <= num/den exactly when t**k <= num // den.
    return nth_root_floor(q.numerator // q.denominator, k)


#: Entries kept by the log2_bounds cache.  Refinement reuses the few
#: small places at a few precisions; bisection probes are never reused.
LOG2_CACHE_SIZE = 256


@lru_cache(maxsize=LOG2_CACHE_SIZE)
def log2_bounds(p: int, bits: int) -> tuple[Fraction, Fraction]:
    """Rigorous enclosure lo <= log2(p) <= hi, normally of width 2**(1 - bits).

    Fixed-point binary-digit extraction: scale p into [1, 2), then square
    repeatedly at working precision bits + 32, rounding the lower track
    down and the upper track up.  If the two tracks ever straddle 2 the
    next digit is undecidable at this precision and a wider (but still
    honest) interval is returned; callers refine by doubling ``bits``.
    """
    if p < 1:
        raise ValueError("log2 bounds need p >= 1")
    if bits < 1:
        raise ValueError("bits must be positive")
    if p & (p - 1) == 0:
        exact = Fraction(p.bit_length() - 1)
        return exact, exact
    e = p.bit_length() - 1
    prec = bits + 32
    scaled = p << prec
    lo = scaled >> e
    hi = lo + (1 if scaled & ((1 << e) - 1) else 0)
    two = 2 << prec
    # The fractional digits found so far, as a binary integer.
    digits = 0
    for i in range(1, bits + 1):
        lo = (lo * lo) >> prec
        hi = -((-(hi * hi)) >> prec)
        digits <<= 1
        if lo >= two:
            digits |= 1
            lo >>= 1
            hi = -((-hi) >> 1)
        elif hi >= two:
            # Straddle: the i-th digit is undecidable at this precision.
            low = (e << i) + digits
            return Fraction(low, 1 << i), Fraction(low + 3, 1 << i)
    low = (e << bits) + digits
    return Fraction(low, 1 << bits), Fraction(low + 2, 1 << bits)


#: Precision, in bits, at which every refinement starts.
REFINE_START_BITS = 32


def refine(step: Callable[[int], int | None], cap: int, describe: Callable[[], str]) -> int:
    """The first answer of step(bits) at bits = 32, 64, 128, ..., up to cap.

    ``step`` returns None while enclosures about 2**-bits wide do not
    decide.  Past ``cap`` this raises PrecisionError naming the question
    as ``describe()``, so that text is built only then.
    """
    bits = REFINE_START_BITS
    while (answer := step(bits)) is None:
        if bits >= cap:
            raise PrecisionError(f"{describe()} within {cap} bits")
        bits = min(2 * bits, cap)
    return answer


#: str() refuses ints from here on, which have more than 4300 digits
#: (CPython's default int_max_str_digits).
STR_LIMIT = 10 ** 4300


def abbreviated(n: int) -> str:
    """str(n) for 0 <= n < STR_LIMIT; above it, n's leading digits, digit
    count and bit length."""
    if n < STR_LIMIT:
        return str(n)
    bits = n.bit_length()
    # 3010299/10**7 < log10(2), so the quotient keeps at least 20 digits.
    dropped = (bits - 1) * 3010299 // 10 ** 7 - 20
    lead = str(n // 10 ** dropped)
    return f"{lead[:20]}... ({len(lead) + dropped} digits, {bits} bits)"


def compare_to_log2(bounds: Enclosure, t: int, cap: int, name) -> int:
    """Sign of x - log2(t) for integer t >= 1, where bounds(bits) encloses x
    (a rational x is the enclosure (x, x)).  A tie is decided only when
    both sides are exact; a PrecisionError names x as ``name``."""

    def step(bits: int) -> int | None:
        (lo, hi), (tlo, thi) = bounds(bits), log2_bounds(t, bits)
        if lo > thi:
            return 1
        if hi < tlo:
            return -1
        return 0 if lo == hi and tlo == thi else None

    return refine(step, cap, lambda: f"cannot separate {name} from log2({t})")


#: Largest intermediate size (in bits, roughly) floor_pow2_rational will
#: materialize before switching to log-comparison bracketing.
MATERIALIZE_CAP_BITS = 1 << 20

#: Refinement cap for rational-vs-log2 comparisons in the bracketing path,
#: and the largest --precision the command line admits.
COMPARE_BITS_CAP = 1 << 12


def floor_pow2_bracketed(k: int, compare_to_log2: Callable[[int], int]) -> int:
    """Largest t in [2**k, 2**(k+1)) with log2(t) <= the target value.

    ``compare_to_log2(t)`` must return the sign of (target - log2(t));
    the target is assumed to lie in [k, k + 1).
    """
    lo, hi = 1 << k, (1 << (k + 1)) - 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if compare_to_log2(mid) >= 0:
            lo = mid
        else:
            hi = mid - 1
    return lo


def materialize_or_bracket(
    k: int, rational: Fraction, log_terms, bounds: Enclosure, cap: int, name
) -> int:
    """Integer part of 2**x for x = rational + sum(m * log2(p)) over the
    (p, m) in log_terms, where k = floor(x) >= 0 and bounds encloses x.

    With rational = alpha/beta, that is the integer beta-th root of
    2**alpha * prod(p**(m * beta)).  Past MATERIALIZE_CAP_BITS an integer
    x is refused; any other x makes 2**x irrational and is bracketed by
    log2 comparisons refined up to ``cap`` bits, or raises PrecisionError
    at once when k > cap.  Errors name x as ``name``.
    Under the cap only log-term degrees come here: floor_pow2_rational
    takes a rational's root itself.

    A ratio whose denominator alone would pass the cap is bracketed too,
    when beta > 1 (so 2**x is irrational: alpha/beta is in lowest terms
    and each p**(m * beta) is a beta-th power) and k is at most half of
    ``cap``, as bisecting [2**k, 2**(k+1)) must tell x from log2(t) to
    about 2**-k.  Should that still run out of precision, the root decides.
    """
    alpha, beta = rational.numerator, rational.denominator

    def bracket() -> int:
        return floor_pow2_bracketed(k, lambda t: compare_to_log2(bounds, t, cap, name))

    if (k + 2) * beta <= MATERIALIZE_CAP_BITS:
        if beta > 1 and k <= cap // 2:
            # the numerator is about (k + 2) * beta bits wider than this
            denominator_bits = max(-alpha, 0) + beta * sum(
                -m * p.bit_length() for p, m in log_terms if m < 0
            )
            if (k + 2) * beta + denominator_bits > MATERIALIZE_CAP_BITS:
                try:
                    return bracket()
                except PrecisionError:
                    pass
        num, den = (1 << alpha, 1) if alpha >= 0 else (1, 1 << -alpha)
        for p, m in log_terms:
            if m > 0:
                num *= p ** (m * beta)
            else:
                den *= p ** (-m * beta)
        return nth_root_floor_fraction(Fraction(num, den), beta)
    if beta == 1:
        text = f"({name})" if log_terms else abbreviated(alpha)
        raise SizeCapError(f"integer part of 2**{text} is too large to materialize")
    if k > cap:
        # Ending the bisection needs enclosure ends, multiples of 2**-cap, on
        # both sides of x within [log2(t), log2(t + 1)], less than 2**-cap wide.
        raise PrecisionError(
            f"cannot separate {name} from log2(t) for t of {k + 1} bits within {cap} bits"
        )
    return bracket()


def _checked_rational(value, what: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise DomainError(f"{what} must be an exact rational, not {value!r}")
    if not isinstance(value, (int, str)):
        raise DomainError(f"{what} must be an exact rational, got {value!r}")
    return Fraction(value)


def degree_floor(x, what: str) -> int:
    """floor(x) for a degree: an int as it is, x.floor() for anything that
    has one (a DegreeValue), and otherwise the floor of an exact rational
    (a Fraction or string); DomainError for anything else, naming it ``what``."""
    if type(x) is int:
        return x
    if hasattr(x, "floor"):
        return x.floor()
    q = _checked_rational(x, what)
    return q.numerator // q.denominator


def floor_pow2_rational(q: Fraction) -> int:
    """Integer part of 2**q for an exact rational q >= 0 (an int, Fraction
    or string); DomainError below 0 and for anything else.

    Under MATERIALIZE_CAP_BITS that is the b-th root of 2**a for q = a/b,
    taken from the ints; past it, materialize_or_bracket refuses an
    integer q and brackets any other.
    """
    q = _checked_rational(q, "exponent")
    a, b = q.numerator, q.denominator
    if a < 0:
        raise DomainError("exponent must be nonnegative")
    if (a // b + 2) * b <= MATERIALIZE_CAP_BITS:
        return nth_root_floor(1 << a, b)
    return materialize_or_bracket(a // b, q, (), lambda bits: (q, q), COMPARE_BITS_CAP, q)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

#: psi_13, the least strong pseudoprime to all thirteen bases above
#: (Sorenson and Webster, Math. Comp. 2017).  Below it the test is exact.
PRIMALITY_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below PRIMALITY_LIMIT.

    Larger n raise SizeCapError rather than get a probabilistic answer.
    """
    if n >= PRIMALITY_LIMIT:
        raise SizeCapError(
            f"primality is decided exactly only below {PRIMALITY_LIMIT}"
        )
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
