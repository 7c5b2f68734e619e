"""Generating sets of integer intervals: DP realizability vs. brute force,
the tabulated minimal sets, the general construction, and floor(2**x)."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import pytest

from arakelov_rr import interval_h0
from arakelov_rr.errors import DomainError, SizeCapError
from arakelov_rr.exact import floor_pow2_rational


# ---------------------------------------------------------------------------
# brute-force oracle: enumerate every subset of the generators
# ---------------------------------------------------------------------------


def oracle_admissible(zs, a):
    zs = tuple(zs)
    positive = sum(z for z in zs if z > 0)
    negative = sum(z for z in zs if z < 0)
    return positive <= a and -negative <= a


def oracle_realizable(j, gens, a):
    gens = tuple(gens)
    for r in range(len(gens) + 1):
        for combo in itertools.combinations(gens, r):
            if sum(combo) == j and oracle_admissible(combo, a):
                return True
    return False


def oracle_covers(gens, a):
    return all(oracle_realizable(j, gens, a) for j in range(-a, a + 1))


def generator_sets(max_a=6, max_size=8):
    def build(a):
        universe = [z for z in range(-a, a + 1) if z != 0]
        return st.tuples(
            st.just(a),
            st.lists(
                st.sampled_from(universe), unique=True, max_size=max_size
            ),
        )

    return st.integers(1, max_a).flatmap(build)


# ---------------------------------------------------------------------------
# admissibility and realizability
# ---------------------------------------------------------------------------


@hypothesis.given(st.lists(st.integers(-9, 9), max_size=10), st.integers(0, 9))
def test_is_admissible_matches_subset_sums(zs, a):
    # all subset sums stay in [-a, a] iff the two extreme ones do
    brute = all(
        -a <= sum(c) <= a
        for r in range(len(zs) + 1)
        for c in itertools.combinations(zs, r)
    )
    assert interval_h0.is_admissible(zs, a) == brute == oracle_admissible(zs, a)


@hypothesis.given(generator_sets())
def test_covers_matches_bruteforce(case):
    a, gens = case
    assert interval_h0.covers(gens, a) == oracle_covers(gens, a)


@hypothesis.given(generator_sets())
def test_first_unrealizable_is_least_missing(case):
    a, gens = case
    missing = [j for j in range(-a, a + 1) if not oracle_realizable(j, gens, a)]
    expected = missing[0] if missing else None
    assert interval_h0.first_unrealizable(gens, a) == expected


def oracle_subset_sum_bits(values, a):
    """Bit s set for each subset sum s of values in 0..a."""
    bits = 0
    for r in range(len(values) + 1):
        for combo in itertools.combinations(values, r):
            if sum(combo) <= a:
                bits |= 1 << sum(combo)
    return bits


@hypothesis.given(generator_sets())
def test_reachable_is_two_masked_subset_sum_bitsets(case):
    a, gens = case
    positives = [g for g in gens if g > 0]
    negated = [-g for g in gens if g < 0]
    expected = (oracle_subset_sum_bits(positives, a), oracle_subset_sum_bits(negated, a))
    assert interval_h0._reachable(gens, a) == expected


@hypothesis.given(generator_sets())
def test_completable_matches_bruteforce(case):
    # every suffix, every target and every admissible (p, q), the edges
    # p = a, q = a and a negative shift j - p + q included
    a, gens = case
    gs = tuple(sorted(gens))
    suffix = interval_h0._suffix_states(gs, a)
    for i in range(len(gs) + 1):
        completions = set()
        for r in range(len(gs) - i + 1):
            for combo in itertools.combinations(gs[i:], r):
                pos = sum(z for z in combo if z > 0)
                neg = -sum(z for z in combo if z < 0)
                for p in range(a - pos + 1):
                    for q in range(a - neg + 1):
                        completions.add((p - q + pos - neg, p, q))
        for j in range(-a, a + 1):
            for p in range(a + 1):
                for q in range(a + 1):
                    expected = (j, p, q) in completions
                    assert interval_h0._completable(suffix[i], j, p, q, a) == expected


def realize(j, gens, a):
    """The greedy witness for j over the sorted generators, as generates
    takes it, or None."""
    gs = tuple(sorted(gens))
    return interval_h0._realize_greedy(j, gs, a, interval_h0._suffix_states(gs, a))


@hypothesis.given(generator_sets())
def test_realize_agrees_with_oracle(case):
    a, gens = case
    for j in range(-a, a + 1):
        witness = realize(j, gens, a)
        if oracle_realizable(j, gens, a):
            assert witness is not None
            assert sum(witness) == j
            assert oracle_admissible(witness, a)
            assert set(witness) <= set(gens)
            assert len(set(witness)) == len(witness)
        else:
            assert witness is None


def test_realize_prefers_leaving_early_generators_out():
    # 3 = 3 alone beats 1 + 2 in indicator order over sorted generators
    assert realize(3, [1, 2, 3], 3) == (3,)
    assert realize(0, [-1, 1], 1) == ()


@hypothesis.given(generator_sets())
def test_generates_certificate_complete_and_valid(case):
    a, gens = case
    cert = interval_h0.generates(gens, a)
    if oracle_covers(gens, a):
        assert cert is not None
        assert sorted(cert.witnesses) == list(range(-a, a + 1))
        for j, witness in cert.witnesses.items():
            assert sum(witness) == j
            assert oracle_admissible(witness, a)
        cert.validate()
    else:
        assert cert is None


def test_generator_validation():
    with pytest.raises(DomainError):
        interval_h0.covers([0, 1], 2)
    with pytest.raises(DomainError):
        interval_h0.covers([1, 1], 2)
    with pytest.raises(DomainError):
        interval_h0.covers([5], 2)


# ---------------------------------------------------------------------------
# the tabulated sets and minimality
# ---------------------------------------------------------------------------


def test_lower_bound_is_bit_length():
    for a in range(1, 200):
        assert interval_h0.lower_bound_size(a) == (2 * a).bit_length()


def test_tabulated_sets_are_golden():
    assert sorted(interval_h0.TABULATED_SETS) == list(range(1, 16))
    for a, gens in interval_h0.TABULATED_SETS.items():
        assert len(gens) == interval_h0.lower_bound_size(a)
        cert = interval_h0.generates(gens, a)
        assert cert is not None
        cert.validate()


def test_no_smaller_set_exists_tiny():
    # exhaustively: nothing below the counting bound generates
    for a in (1, 2, 3, 4):
        bound = interval_h0.lower_bound_size(a)
        universe = [z for z in range(-a, a + 1) if z != 0]
        for size in range(bound):
            for combo in itertools.combinations(universe, size):
                assert not interval_h0.covers(combo, a)


def test_min_search_small():
    for a in range(1, 9):
        result = interval_h0.min_generating_set(a)
        assert result.size == interval_h0.lower_bound_size(a)
        assert interval_h0.covers(result.witness, a)
        result.certificate.validate()


def test_min_search_anomalous_a2():
    result = interval_h0.min_generating_set(2)
    assert result.size == 3
    assert result.witness == (-2, -1, 2)


def test_min_search_all_minima_small():
    assert interval_h0.min_generating_set(1, report_all_minima=True).all_minima == ((-1, 1),)
    minima = interval_h0.min_generating_set(2, report_all_minima=True).all_minima
    assert minima == ((-2, -1, 2), (-2, 1, 2))
    for gens in minima:
        assert interval_h0.covers(gens, 2)


def test_min_search_budget_cap():
    # one fixed cap: a = 64 is refused before any search, with or without --all
    assert interval_h0.SEARCH_CAP == 63
    for report_all_minima in (False, True):
        with pytest.raises(SizeCapError, match="capped at a = 63"):
            interval_h0.min_generating_set(64, report_all_minima=report_all_minima)


def oracle_minima(a):
    """The search the DFS replaced: every combination of the sorted nonzero
    integers in [-a, a], level by level from the counting bound, in
    itertools order, kept when covers() accepts it."""
    universe = [v for v in range(-a, a + 1) if v != 0]
    for size in range(interval_h0.lower_bound_size(a), len(universe) + 1):
        hits = [c for c in itertools.combinations(universe, size) if interval_h0.covers(c, a)]
        if hits:
            return hits


def oracle_first_witness(a):
    universe = [v for v in range(-a, a + 1) if v != 0]
    for size in range(interval_h0.lower_bound_size(a), len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            if interval_h0.covers(combo, a):
                return combo


def test_min_search_first_witness_matches_combination_oracle():
    for a in range(1, 15):
        result = interval_h0.min_generating_set(a)
        assert result.witness == oracle_first_witness(a), a
        assert result.size == len(result.witness)


def test_min_search_all_minima_match_combination_oracle():
    for a in range(1, 9):
        expected = oracle_minima(a)
        minima = interval_h0.min_generating_set(a, report_all_minima=True).all_minima
        assert minima == tuple(expected), a


def test_package_import_leaves_the_process_pool_unloaded():
    # nothing in the package needs multiprocessing; euler and the other
    # commands should not carry it
    package_dir = Path(interval_h0.__file__).resolve().parent.parent
    probe = (
        "import sys, arakelov_rr.cli; "
        "sys.exit('concurrent.futures.process' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=str(package_dir))
    done = subprocess.run([sys.executable, "-c", probe], env=env, timeout=60)
    assert done.returncode == 0


def test_min_search_without_pruning_agrees():
    for a in (1, 2, 3, 4, 5):
        pruned = interval_h0.min_generating_set(a)
        plain = interval_h0.min_generating_set(a, prune=False)
        assert (pruned.size, pruned.witness) == (plain.size, plain.witness)


def test_min_search_without_pruning_agrees_on_all_minima():
    for a in range(1, 10):
        pruned, plain = (
            interval_h0.min_generating_set(a, report_all_minima=True, prune=prune).all_minima
            for prune in (True, False)
        )
        assert pruned == plain, a


# First witnesses for a = 16..31, computed once with the search as it stood
# before the positive-tail cut (only the r == 1 range rule).
PINNED_FIRST_WITNESSES = {
    16: (-16, -8, -4, -2, -1, 16),
    17: (-17, 1, 2, 3, 4, 7),
    18: (-18, 1, 2, 3, 4, 8),
    19: (-19, 1, 2, 3, 4, 9),
    20: (-20, 1, 2, 3, 4, 10),
    21: (-21, 1, 2, 3, 4, 11),
    22: (-22, 1, 2, 3, 5, 11),
    23: (-23, 1, 2, 3, 5, 12),
    24: (-24, 1, 2, 3, 6, 12),
    25: (-25, 1, 2, 3, 6, 13),
    26: (-26, 1, 2, 3, 7, 13),
    27: (-27, 1, 2, 3, 7, 14),
    28: (-28, 1, 2, 4, 7, 14),
    29: (-29, 1, 2, 4, 7, 15),
    30: (-30, 1, 2, 4, 8, 15),
    31: (-31, 1, 2, 4, 8, 16),
}


def test_min_search_first_witnesses_match_the_pinned_ones():
    for a, witness in PINNED_FIRST_WITNESSES.items():
        assert interval_h0.min_generating_set(a).witness == witness, a


def test_min_search_all_minima_counts_match_the_pinned_ones():
    for a, count in ((16, 460), (20, 266)):
        minima = interval_h0.min_generating_set(a, report_all_minima=True).all_minima
        assert len(minima) == count, a
        assert minima[0] == PINNED_FIRST_WITNESSES[a]


def test_min_search_work_at_a20_is_bounded(monkeypatch):
    # a count of load-DP steps, not a wall-clock bound: 694 with the
    # positive-tail cut, about 14,600 with only the last-pick range rule
    calls = 0
    extend = interval_h0._extend

    def counted(*args):
        nonlocal calls
        calls += 1
        return extend(*args)

    monkeypatch.setattr(interval_h0, "_extend", counted)
    assert interval_h0.min_generating_set(20).witness == PINNED_FIRST_WITNESSES[20]
    assert calls <= 2000


# ---------------------------------------------------------------------------
# the explicit construction for large a
# ---------------------------------------------------------------------------


def test_explicit_construction_spot_values():
    for a in (16, 17, 31, 32, 33, 100, 255, 256, 257, 1000, 4096):
        gens = interval_h0.explicit_generating_set(a)
        assert len(set(gens)) == len(gens)
        assert len(gens) == interval_h0.lower_bound_size(a)
        assert interval_h0.covers(gens, a)


@hypothesis.given(st.integers(16, 3000))
@hypothesis.settings(max_examples=60, deadline=None)
def test_explicit_construction_randomized(a):
    gens = interval_h0.explicit_generating_set(a)
    assert len(gens) == interval_h0.lower_bound_size(a)
    assert interval_h0.covers(gens, a)


def test_explicit_construction_matches_table_below_16():
    for a in range(1, 16):
        assert interval_h0.explicit_generating_set(a) == interval_h0.TABULATED_SETS[a]


# ---------------------------------------------------------------------------
# floor(2**x) and the dimension formula
# ---------------------------------------------------------------------------


nonneg_rationals = st.fractions(min_value=0, max_value=60, max_denominator=6)


@hypothesis.given(nonneg_rationals)
def test_floor_pow2_defining_inequality(q):
    t = floor_pow2_rational(q)
    n, d = q.numerator, q.denominator
    # t <= 2**(n/d) < t + 1, cleared of the root
    assert t ** d <= 2 ** n < (t + 1) ** d


def test_floor_pow2_uses_bracketing_when_roots_explode():
    assert floor_pow2_rational(Fraction(5) + Fraction(1, 2 ** 30)) == 32
    assert floor_pow2_rational(Fraction(7) - Fraction(1, 3 ** 40)) == 127


def test_floor_pow2_rejects_negative():
    with pytest.raises(DomainError):
        floor_pow2_rational(Fraction(-1, 2))


def test_dim_h0_spot_values():
    assert interval_h0.dim_h0(4) == 6
    assert interval_h0.dim_h0(Fraction(5, 2)) == 4
    assert interval_h0.dim_h0(0) == 2
    assert interval_h0.dim_h0(Fraction(-1, 2)) == 0
    assert interval_h0.dim_h0(-3) == 0


@hypothesis.given(st.fractions(min_value=-40, max_value=40, max_denominator=8))
def test_dim_h0_closed_form(q):
    expected = 0 if q < 0 else (q.numerator // q.denominator) + 2
    assert interval_h0.dim_h0(q) == expected


@hypothesis.given(nonneg_rationals)
def test_dim_h0_counts_via_generating_set(q):
    # the dimension is the bit length of twice the lattice point count bound
    a = floor_pow2_rational(q)
    assert interval_h0.dim_h0(q) == (2 * a).bit_length()


def test_dim_h0_rejects_floats():
    with pytest.raises((DomainError, TypeError, ValueError)):
        interval_h0.dim_h0(0.5)


def test_dim_h0_reads_a_string_degree_exactly_and_refuses_non_rationals():
    # as ceil_prime does: a string is an exact rational, None and 1j are not
    assert interval_h0.dim_h0("1/3") == 2
    assert interval_h0.dim_h0("-1/3") == 0
    for bad in (None, 1j):
        with pytest.raises(DomainError):
            interval_h0.dim_h0(bad)
