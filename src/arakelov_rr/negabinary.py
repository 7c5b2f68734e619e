"""Base -2 digit words and the integer windows they enumerate.

Width-n words over {0, 1}, digit i weighing (-2)**i, hit a window of
2**n consecutive integers exactly once each.  The window endpoints come
from the alternating sequence j(n) = 0, 0, 1, -2, 5, -10, 21, -42, ...
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from ._record import record
from .errors import OutOfRangeError, SizeCapError

#: Cap on exhaustive verification: 2**n words, held as a bitset of 2**n bits.
VERIFY_CAP = 20
#: Widest word encode builds (about 25 MiB of digits at the cap).
ENCODE_CAP = 100_000


def j_value(n: int) -> int:
    """n-th term of 0, 0, 1, -2, 5, -10, 21, ... (window endpoints).

    Integer recurrence j(n+1) = -2*j(n) + (n odd); see
    j_value_closed_form for the rational closed form used as cross-check.
    """
    if n < 0:
        raise OutOfRangeError("index must be nonnegative")
    value = 0
    for i in range(n):
        value = -2 * value + (i & 1)
    return value


def j_value_closed_form(n: int) -> int:
    """Same sequence via (-2)**n / 3 - (-1)**n / 2 + 1/6, exactly."""
    if n < 0:
        raise OutOfRangeError("index must be nonnegative")
    value = Fraction((-2) ** n, 3) - Fraction((-1) ** n, 2) + Fraction(1, 6)
    assert value.denominator == 1
    return value.numerator


@record
class DeltaInterval:
    """The window of 2**n consecutive integers realizable at width n."""

    n: int
    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo + 1


def delta_interval(n: int) -> DeltaInterval:
    """Window for width n: [j(k), j(k) + 2**n - 1] with k = 2*(n // 2) + 1.

    The lower endpoint is the alternating sum of the odd-index weights
    below n, i.e. the most negative width-n value.
    """
    if n < 1:
        raise OutOfRangeError("width must be positive")
    lo = j_value(2 * (n // 2) + 1)
    return DeltaInterval(n=n, lo=lo, hi=lo + 2 ** n - 1)


@record
class NegabinaryWord:
    """A digit word, little-endian: digits[i] weighs (-2)**i."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if any(d not in (0, 1) or isinstance(d, bool) for d in self.digits):
            raise OutOfRangeError("digits must be the ints 0 or 1")

    @property
    def width(self) -> int:
        return len(self.digits)


#: Translates the characters "0" and "1" to the bytes 0 and 1.
_ASCII_DIGITS = bytes.maketrans(b"01", b"\0\1")
#: Sets a word's digits past frozen's __setattr__ (the slot's own setter).
_set_digits = NegabinaryWord.digits.__set__


def decode(word: NegabinaryWord) -> int:
    """Evaluate a word: sum of digits[i] * (-2)**i (Horner from the top)."""
    value = 0
    for digit in reversed(word.digits):
        value = -2 * value + digit
    return value


def encode(q: int, n: int) -> NegabinaryWord:
    """The unique width-n word for q; q must lie in delta_interval(n).

    Let odd be the mask 0b...1010 of the odd positions below n.  A word
    with bits w decodes to (w & ~odd) - (w & odd), so the window is
    [-odd, 2**n - 1 - odd], and q + odd is a plain binary number in
    [0, 2**n): at an odd position i the digit d weighs -d * 2**i, and
    adding 2**i makes that (1 - d) * 2**i.  Xoring with odd flips those
    bits back, leaving the digits of q.
    """
    if n < 1:
        raise OutOfRangeError("width must be positive")
    if n > ENCODE_CAP:
        raise SizeCapError(f"encode builds at most {ENCODE_CAP} digits (got width {n})")
    odd = ((1 << (n & -2)) - 1) // 3 << 1
    bits = q + odd
    if bits >> n:
        raise OutOfRangeError(
            f"{q} has no width-{n} word: representable range is [{-odd}, {(1 << n) - 1 - odd}]"
        )
    bits ^= odd
    # The binary string of bits with a leading 1 at position n, reversed
    # past its "0b1" prefix, holds the n digits little-endian.
    digits = tuple(bin(bits | 1 << n)[:2:-1].encode().translate(_ASCII_DIGITS))
    # The digits are 0/1 ints by construction: skip __post_init__.
    word = object.__new__(NegabinaryWord)
    _set_digits(word, digits)
    return word


@record
class BijectionReport:
    """Outcome of exhaustively decoding every width-n word."""

    n: int
    interval: DeltaInterval
    distinct_values: int
    injective: bool
    onto_interval: bool
    lo_witness: tuple[int, ...]
    hi_witness: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.injective and self.onto_interval


def _sum_levels(weights: Sequence[int]) -> tuple[int, int]:
    """(bits, base) for the subset sums of weights.

    Bit o of bits is set when base + o is the sum of some subset of
    weights.  Each weight w shift-ors the bitset by |w|; a negative one
    also moves the base down by |w|.
    """
    bits, base = 1, 0
    for w in weights:
        if w >= 0:
            bits |= bits << w
        else:
            bits = bits << -w | bits
            base += w
    return bits, base


def verify_bijection(n: int) -> BijectionReport:
    """Check that width-n words decode bijectively onto delta_interval(n)."""
    if n < 1:
        raise OutOfRangeError("width must be positive")
    if n > VERIFY_CAP:
        raise SizeCapError(f"verification decodes 2**{n} words; cap is 2**{VERIFY_CAP}")
    window = delta_interval(n)
    # The values come from the weights (-2)**i, not from encode's masks.
    weights = [(-2) ** i for i in range(n)]
    bits, base = _sum_levels(weights)
    distinct = bits.bit_count()
    lo = base + (bits & -bits).bit_length() - 1
    hi = base + bits.bit_length() - 1
    injective = distinct == 1 << n
    # 2**n distinct values inside a window of width 2**n fill it exactly.
    onto = injective and distinct == window.width and (lo, hi) == (window.lo, window.hi)
    # No weight is 0, so the least sum takes exactly the negative weights
    # and the greatest exactly the positive ones, each by one word alone.
    return BijectionReport(
        n=n,
        interval=window,
        distinct_values=distinct,
        injective=injective,
        onto_interval=onto,
        lo_witness=tuple(int(w < 0) for w in weights),
        hi_witness=tuple(int(w > 0) for w in weights),
    )
