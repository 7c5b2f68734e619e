"""Base -2 digit words: the j sequence, windows, and the bijection."""

import dataclasses
import itertools
import random
import tracemalloc

import hypothesis
import hypothesis.strategies as st
import pytest

from arakelov_rr import negabinary, verify
from arakelov_rr.errors import OutOfRangeError, SizeCapError


def oracle_decode(digits):
    # independent of the library's Horner loop
    return sum(d * (-2) ** i for i, d in enumerate(digits))


def oracle_encode(q, n):
    # the division algorithm: peel q mod 2, divide the rest by -2
    digits = []
    while q:
        r = q & 1
        digits.append(r)
        q = (q - r) // -2
    assert len(digits) <= n
    return tuple(digits + [0] * (n - len(digits)))


def oracle_j(n):
    # j(0) = 0, j(n+1) = -2 j(n) + [n odd]
    value = 0
    for i in range(n):
        value = -2 * value + (1 if i % 2 == 1 else 0)
    return value


def mask_dict_verify_bijection(n):
    # verify_bijection as it was before it summed weights: each value from
    # the even and odd position masks, kept in a dict from value to least mask
    window = negabinary.delta_interval(n)
    size = 1 << n
    odd = ((1 << (n & -2)) - 1) // 3 << 1
    even = size - 1 - odd
    values = [(mask & even) - (mask & odd) for mask in range(size)]
    seen = dict(zip(reversed(values), range(size - 1, -1, -1)))
    injective = len(seen) == size
    onto = (
        injective
        and len(seen) == window.width
        and min(seen) == window.lo
        and max(seen) == window.hi
    )

    def digits_of(mask):
        return tuple((mask >> i) & 1 for i in range(n))

    return negabinary.BijectionReport(
        n=n,
        interval=window,
        distinct_values=len(seen),
        injective=injective,
        onto_interval=onto,
        lo_witness=digits_of(seen[min(seen)]),
        hi_witness=digits_of(seen[max(seen)]),
    )


J_FROZEN = {0: 0, 1: 0, 2: 1, 3: -2, 4: 5, 5: -10, 6: 21, 7: -42}

# (n, lo, hi) with hi - lo + 1 = 2**n
WINDOWS_FROZEN = [
    (1, 0, 1),
    (2, -2, 1),
    (3, -2, 5),
    (4, -10, 5),
    (5, -10, 21),
    (6, -42, 21),
]


def test_j_frozen_values():
    for n, expected in J_FROZEN.items():
        assert negabinary.j_value(n) == expected
        assert negabinary.j_value_closed_form(n) == expected


@hypothesis.given(st.integers(0, 200))
def test_j_recurrence_and_closed_form(n):
    assert negabinary.j_value(n) == oracle_j(n)
    assert negabinary.j_value_closed_form(n) == oracle_j(n)
    # the defining recurrence, stated directly
    bump = 1 if n % 2 == 1 else 0
    assert negabinary.j_value(n + 1) == -2 * negabinary.j_value(n) + bump


def test_windows_frozen():
    for n, lo, hi in WINDOWS_FROZEN:
        interval = negabinary.delta_interval(n)
        assert (interval.lo, interval.hi) == (lo, hi)
        assert interval.width == 2 ** n


@hypothesis.given(st.integers(1, 64))
def test_window_endpoints_from_j(n):
    interval = negabinary.delta_interval(n)
    lo = negabinary.j_value(2 * (n // 2) + 1)
    assert interval.lo == lo
    assert interval.hi == lo + 2 ** n - 1


@hypothesis.given(st.lists(st.integers(0, 1), max_size=16))
def test_decode_matches_weighted_sum(digits):
    word = negabinary.NegabinaryWord(tuple(digits))
    assert negabinary.decode(word) == oracle_decode(digits)


def test_exhaustive_bijection_small():
    # every width-n word decodes to a distinct value and the image is
    # exactly the window
    for n in range(1, 11):
        interval = negabinary.delta_interval(n)
        values = set()
        for mask in range(2 ** n):
            digits = tuple((mask >> i) & 1 for i in range(n))
            values.add(negabinary.decode(negabinary.NegabinaryWord(digits)))
        assert len(values) == 2 ** n
        assert values == set(range(interval.lo, interval.hi + 1))


def test_roundtrip_exhaustive_small():
    for n in range(1, 11):
        interval = negabinary.delta_interval(n)
        for q in range(interval.lo, interval.hi + 1):
            word = negabinary.encode(q, n)
            assert word.width == n
            assert negabinary.decode(word) == q


@hypothesis.given(st.integers(1, 48), st.data())
def test_roundtrip_random_wide(n, data):
    interval = negabinary.delta_interval(n)
    q = data.draw(st.integers(interval.lo, interval.hi))
    assert negabinary.decode(negabinary.encode(q, n)) == q


def test_encode_frozen_example():
    assert negabinary.encode(-42, 7).digits == (0, 1, 0, 1, 0, 1, 0)


def test_encode_out_of_window():
    with pytest.raises(OutOfRangeError):
        negabinary.encode(6, 4)
    with pytest.raises(OutOfRangeError):
        negabinary.encode(-11, 4)
    with pytest.raises(OutOfRangeError):
        negabinary.encode(1, 0)


def test_word_is_frozen():
    word = negabinary.encode(-42, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        word.digits = (0,) * 7
    with pytest.raises(dataclasses.FrozenInstanceError):
        negabinary.NegabinaryWord((1, 0)).digits = (0, 1)
    assert word.digits == (0, 1, 0, 1, 0, 1, 0)
    assert not hasattr(word, "__dict__")


def test_encode_width_cap():
    cap = negabinary.ENCODE_CAP
    assert negabinary.encode(0, cap).digits == (0,) * cap
    assert negabinary.encode(-2, cap).digits == (0, 1) + (0,) * (cap - 2)
    with pytest.raises(SizeCapError):
        negabinary.encode(0, cap + 1)


def test_word_digit_validation():
    with pytest.raises(OutOfRangeError):
        negabinary.NegabinaryWord((0, 2))
    with pytest.raises(OutOfRangeError):
        negabinary.NegabinaryWord((True,))


def test_verify_bijection_reports():
    for n in range(1, 13):
        report = negabinary.verify_bijection(n)
        assert report.passed
        assert report.distinct_values == 2 ** n
        assert report.injective and report.onto_interval
        interval = negabinary.delta_interval(n)
        assert oracle_decode(report.lo_witness) == interval.lo
        assert oracle_decode(report.hi_witness) == interval.hi


def test_verify_bijection_matches_the_mask_and_dict_oracle():
    for n in range(1, 19):
        report = negabinary.verify_bijection(n)
        expected = mask_dict_verify_bijection(n)
        assert report == expected, n


def subset_sums_by_itertools(weights):
    words = itertools.product((0, 1), repeat=len(weights))
    return {sum(w * d for w, d in zip(weights, word)) for word in words}


def assert_sum_levels_match_itertools(weights):
    for i in range(len(weights) + 1):
        bits, base = negabinary._sum_levels(weights[:i])
        sums = subset_sums_by_itertools(weights[:i])
        assert bits.bit_count() == len(sums)
        assert base + (bits & -bits).bit_length() - 1 == min(sums)
        assert base + bits.bit_length() - 1 == max(sums)
        assert {base + o for o in range(bits.bit_length()) if bits >> o & 1} == sums


@pytest.mark.parametrize(
    "weights", [(), (1,), (1, 1, 2), (0, 3), (2, -2, 4), (-1, -1), (0, 0, -3, 3), (5, -5, 0, 5)]
)
def test_sum_levels_match_itertools_where_negabinary_never_goes(weights):
    # zeros, repeats and mixed signs: the sums are not injective
    assert_sum_levels_match_itertools(weights)


@hypothesis.given(st.lists(st.integers(-9, 9), max_size=8))
def test_sum_levels_match_itertools_on_random_weights(weights):
    assert_sum_levels_match_itertools(weights)


def test_verify_bijection_memory_is_bits_not_words():
    # 2**20 values as Python ints in a list and a set take about 88 MiB;
    # as bits, under 1
    tracemalloc.start()
    try:
        negabinary.verify_bijection(negabinary.VERIFY_CAP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_verify_bijection_cap():
    with pytest.raises(SizeCapError):
        negabinary.verify_bijection(negabinary.VERIFY_CAP + 1)


@pytest.mark.parametrize("n", list(range(1, 21)) + [64, 129, 200])
def test_encode_matches_division_algorithm(n):
    window = negabinary.delta_interval(n)
    if n <= 12:
        qs = range(window.lo, window.hi + 1)
    else:
        rng = random.Random(n)
        qs = [window.lo, window.lo + 1, window.hi - 1, window.hi, 0]
        qs += [rng.randint(window.lo, window.hi) for _ in range(500)]
    for q in qs:
        word = negabinary.encode(q, n)
        assert word.digits == oracle_encode(q, n)
        assert word == negabinary.NegabinaryWord(oracle_encode(q, n))
    for q in (window.lo - 1, window.hi + 1):
        with pytest.raises(OutOfRangeError) as info:
            negabinary.encode(q, n)
        assert str(info.value) == (
            f"{q} has no width-{n} word: representable range is [{window.lo}, {window.hi}]"
        )


def test_verify_negabinary_catches_a_broken_decode(monkeypatch):
    assert verify.verify_negabinary().passed
    monkeypatch.setattr(
        negabinary, "decode", lambda word: oracle_decode(word.digits) + (word.width == 5)
    )
    result = verify.verify_negabinary()
    assert result.failures == ["roundtrip failed for -10 at width 5"]


def test_verify_negabinary_catches_a_broken_encode(monkeypatch):
    real = negabinary.encode

    def wrong_on_five(q, n):
        word = real(q, n)
        if (q, n) == (5, 4):
            return negabinary.NegabinaryWord(word.digits[:-1] + (1 - word.digits[-1],))
        return word

    monkeypatch.setattr(negabinary, "encode", wrong_on_five)
    result = verify.verify_negabinary()
    assert result.failures == ["roundtrip failed for 5 at width 4"]
    assert result.checks == 90


def test_verify_negabinary_catches_an_encode_of_the_wrong_width(monkeypatch):
    # one extra zero digit keeps the value, so only the width check sees it
    real = negabinary.encode

    def one_digit_too_many(q, n):
        word = real(q, n)
        return negabinary.NegabinaryWord(word.digits + (0,)) if (q, n) == (-2, 3) else word

    monkeypatch.setattr(negabinary, "encode", one_digit_too_many)
    result = verify.verify_negabinary()
    assert result.failures == ["roundtrip failed for -2 at width 3"]
