"""Mutants of the package that the test suite must catch.

Run from anywhere, with the test requirements installed:

    python tests/mutants.py [NAME...]

With names, only those mutants run, and an unknown name exits 2; without,
all of them run.

Each mutant names a module under ``src/arakelov_rr``, a source fragment
that occurs there exactly once, its replacement, and the test node ids
that must fail once it is applied.  Every run copies ``src/``, ``tests/``
and ``pyproject.toml`` into a temporary directory and runs tests there in
a subprocess with PYTHONPATH set to the copy; the checkout, its
hypothesis database included, is never written.  First the named tests
of the chosen mutants run once on an unmutated copy: they must pass within a
quarter of TIMEOUT_S, or no verdict could be trusted.  Then each mutant
gets its own copy with its one swap applied, and it is caught when its
tests fail (or hang past TIMEOUT_S).  The exit status is 1 unless every
mutant is caught, and 2 when a fragment does not occur exactly once or
the unmutated run does not pass in time.

This file is not collected by pytest.  ``tests/test_mutants.py`` checks
only that every fragment still occurs exactly once, so the list has to
follow the code; a change that deletes a mutant's code deletes the mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock bound on one mutant's test run; a run that hangs is caught.
TIMEOUT_S = 60

#: Runs pytest with hypothesis stopping at its first failing example:
#: shrinking and explaining it would only delay the verdict, by up to a
#: minute on the wide-int strategies.
RUNNER = """
import sys, hypothesis, pytest
phases = (hypothesis.Phase.explicit, hypothesis.Phase.reuse, hypothesis.Phase.generate)
hypothesis.settings.register_profile("mutants", phases=phases)
hypothesis.settings.load_profile("mutants")
sys.exit(pytest.main(sys.argv[1:]))
"""


class Mutant(NamedTuple):
    name: str
    module: str
    fragment: str
    replacement: str
    tests: tuple[str, ...]


EXACT_ROOTS = (
    "tests/test_exact.py::test_nth_root_floor_takes_one_isqrt_per_factor_of_two",
    "tests/test_exact.py::test_nth_root_floor_even_indices",
)

DIV_BRANCHES = "tests/test_exact.py::test_div2n1n_takes_the_shortcut_and_the_double_correction"

NEWTON_LANDS = "tests/test_exact.py::test_nth_root_floor_newton_lands_on_the_root_or_one_above"

SCAN_ROWS = "tests/test_divisor.py::test_rr_scan_rows_are_the_walked_points_with_their_closed_forms"

MUTANTS = (
    Mutant(
        "isqrt-halves-once-too-often",
        "exact.py",
        "_sqrt_rem(n)[0]\n        k //= 2\n",
        "_sqrt_rem(n)[0]\n        k //= 2\n    n = math.isqrt(n)\n",
        EXACT_ROOTS,
    ),
    Mutant(
        "sqrt-drops-its-correction",
        "exact.py",
        "        if r < 0:\n            s, r = s - 1, r + 2 * s - 1\n",
        "",
        ("tests/test_exact.py::test_sqrt_rem_agrees_with_isqrt",),
    ),
    Mutant(
        # Every root stays right: only a faulty base root leaves 2s + 1.
        "sqrt-certificate-accepts-one-past",
        "exact.py",
        "if not 0 <= r <= 2 * s:",
        "if not 0 <= r <= 2 * s + 1:",
        ("tests/test_exact.py::test_sqrt_rem_refuses_a_root_its_remainder_does_not_certify",),
    ),
    Mutant(
        # Every root stays right: the last halving becomes a Newton step.
        "isqrt-halves-once-too-few",
        "exact.py",
        "while k % 2 == 0:",
        "while k % 4 == 0:",
        EXACT_ROOTS,
    ),
    Mutant(
        "div-corrects-only-once",
        "exact.py",
        "while r < 0:",
        "if r < 0:",
        (DIV_BRANCHES, "tests/test_exact.py::test_div2n1n_agrees_with_divmod"),
    ),
    Mutant(
        "div-drops-the-pad-shift",
        "exact.py",
        "a, b, n = a << 1, b << 1, n + 1",
        "a, b, n = a, b, n + 1",
        (
            "tests/test_exact.py::test_div2n1n_pads_an_odd_width",
            "tests/test_exact.py::test_div2n1n_agrees_with_divmod",
        ),
    ),
    Mutant(
        "div-shortcut-quotient-one-low",
        "exact.py",
        "q, r = (1 << n) - 1, a12",
        "q, r = (1 << n) - 2, a12",
        (DIV_BRANCHES,),
    ),
    Mutant(
        # Every quotient stays right: only a faulty base divmod leaves r = b.
        "div-certificate-accepts-r-equal-b",
        "exact.py",
        "if not 0 <= r < b:",
        "if not 0 <= r <= b:",
        ("tests/test_exact.py::test_div2n1n_refuses_a_quotient_its_remainder_does_not_certify",),
    ),
    Mutant(
        "closing-loop-steps-down-on-equality",
        "exact.py",
        "while (p := x ** k) > n:",
        "while (p := x ** k) >= n:",
        (NEWTON_LANDS,),
    ),
    Mutant(
        "wide-step-rounds-a-quarter-low",
        "exact.py",
        "x -= (q + 4) >> 2",
        "x -= (q + 5) >> 2",
        (NEWTON_LANDS,),
    ),
    Mutant(
        # The divisor rounded down lets q reach 4c; only a correction a
        # hair below an integer, as at base 2**bits - 1, then lands low.
        "wide-step-truncates-the-divisor-down",
        "exact.py",
        "d = (divisor >> t) + 1",
        "d = divisor >> t",
        (NEWTON_LANDS,),
    ),
    Mutant(
        # Every root stays right, as (x + 1)**k exceeds the bound for k >= 2,
        # but the rule certifies only from a bound above n.
        "wide-bound-decides-on-equality",
        "exact.py",
        "<< s * (k - 1)) <= n:",
        "<< s * (k - 1)) < n:",
        ("tests/test_exact.py::test_nth_root_floor_certifies_a_root_without_its_successor_power",),
    ),
    Mutant(
        "bisection-misses-exact-powers",
        "exact.py",
        "if mid ** k <= n:",
        "if mid ** k < n:",
        ("tests/test_exact.py::test_nth_root_floor_exact_powers",),
    ),
    Mutant(
        "rational-root-of-half-the-power",
        "exact.py",
        "return nth_root_floor(1 << a, b)",
        "return nth_root_floor(1 << (a - 1), b)",
        ("tests/test_exact.py::test_floor_pow2_rational_under_the_cap_takes_the_root_from_ints",),
    ),
    Mutant(
        "negative-multiplicity-takes-the-lower-log2-bound",
        "divisor.py",
        "plo, phi = phi, plo",
        "plo, phi = plo, phi",
        (
            "tests/test_divisor.py::test_integer_enclosure_agrees_with_the_fraction_oracle",
            "tests/test_divisor.py::test_bounds_enclose_reference_value",
        ),
    ),
    Mutant(
        "floor-read-from-the-lower-end-alone",
        "divisor.py",
        "return k if k == hi // d else None",
        "return k",
        (
            "tests/test_divisor.py::test_integer_enclosure_agrees_with_the_fraction_oracle",
            "tests/test_divisor.py::test_oracle_cases_reach_deep_refinement_and_exhaustion",
        ),
    ),
    Mutant(
        "compare-crosses-the-denominators",
        "divisor.py",
        "if lo * e > c * d:\n                return 1\n            return -1 if hi * e < c * d else None",
        "if lo * d > c * e:\n                return 1\n            return -1 if hi * d < c * e else None",
        (
            "tests/test_divisor.py::test_integer_enclosure_agrees_with_the_fraction_oracle",
            "tests/test_divisor.py::test_compare_frozen_logs",
        ),
    ),
    Mutant(
        "root-multiplies-by-a-negative-multiplicity",
        "exact.py",
        "den *= p ** (-m * beta)",
        "num *= p ** (-m * beta)",
        (
            "tests/test_divisor.py::test_floor_pow2_spot_values",
            "tests/test_divisor.py::test_floor_pow2_defining_inequality",
        ),
    ),
    Mutant(
        "bracket-ignores-the-k-guard",
        "exact.py",
        "if beta > 1 and k <= cap // 2:",
        "if beta > 1:",
        (
            "tests/test_divisor.py::test_floor_pow2_brackets_a_wide_denominator_only_below_half_the_precision",
        ),
    ),
    Mutant(
        "bracket-without-the-root-fallback",
        "exact.py",
        "except PrecisionError:\n                    pass",
        "except ZeroDivisionError:\n                    pass",
        ("tests/test_divisor.py::test_floor_pow2_takes_the_root_when_bracketing_runs_out",),
    ),
    Mutant(
        "bracket-past-the-cap",
        "exact.py",
        "if k > cap:\n",
        "if False:\n",
        ("tests/test_divisor.py::test_floor_pow2_refuses_to_bracket_past_the_precision_cap",),
    ),
    Mutant(
        "bracket-one-past-the-cap",
        "exact.py",
        "if k > cap:\n",
        "if k > cap + 1:\n",
        ("tests/test_divisor.py::test_floor_pow2_refuses_to_bracket_past_the_precision_cap",),
    ),
    Mutant(
        "min-search-cut-one-short",
        "interval_h0.py",
        "stop = min(stop, bisect_right(universe, high))",
        "stop = min(stop, bisect_right(universe, high - 1))",
        (
            "tests/test_interval_h0.py::test_min_search_first_witnesses_match_the_pinned_ones",
            "tests/test_interval_h0.py::test_min_search_first_witness_matches_combination_oracle",
        ),
    ),
    Mutant(
        # Every first witness stays right; only the lists of all minima lose some.
        "min-search-cut-while-negatives-remain",
        "interval_h0.py",
        "if missing and (r == 1 or universe[start] > 0):",
        "if missing:",
        (
            "tests/test_interval_h0.py::test_min_search_all_minima_match_combination_oracle",
            "tests/test_interval_h0.py::test_min_search_all_minima_counts_match_the_pinned_ones",
        ),
    ),
    Mutant(
        # Every witness still generates at the least size; only which of the
        # minima is met first changes.
        "min-search-visits-in-reverse",
        "interval_h0.py",
        "for i in range(start, stop):",
        "for i in reversed(range(start, stop)):",
        (
            "tests/test_interval_h0.py::test_min_search_first_witnesses_match_the_pinned_ones",
            "tests/test_interval_h0.py::test_min_search_first_witness_matches_combination_oracle",
        ),
    ),
    Mutant(
        # Every answer stays right: only subtrees without a witness are cut.
        "min-search-drops-the-positive-tail-cut",
        "interval_h0.py",
        "if missing and (r == 1 or universe[start] > 0):",
        "if missing and r == 1:",
        ("tests/test_interval_h0.py::test_min_search_work_at_a20_is_bounded",),
    ),
    Mutant(
        "realize-takes-a-generator-it-could-skip",
        "interval_h0.py",
        "if _completable(suffix[i + 1], j, p, q, a):\n            continue",
        "if _completable(suffix[i + 1], j, p, q, a):\n            pass",
        (
            "tests/test_interval_h0.py::test_realize_agrees_with_oracle",
            "tests/test_interval_h0.py::test_realize_prefers_leaving_early_generators_out",
        ),
    ),
    Mutant(
        "completable-mask-one-short",
        "interval_h0.py",
        "(2 << (a - p)) - 1",
        "(1 << (a - p)) - 1",
        (
            "tests/test_interval_h0.py::test_completable_matches_bruteforce",
            "tests/test_interval_h0.py::test_realize_agrees_with_oracle",
        ),
    ),
    Mutant(
        "extend-drops-the-admissibility-mask",
        "interval_h0.py",
        "ps | ((ps << g) & full)",
        "ps | (ps << g)",
        (
            "tests/test_interval_h0.py::test_reachable_is_two_masked_subset_sum_bitsets",
            "tests/test_interval_h0.py::test_covers_matches_bruteforce",
        ),
    ),
    Mutant(
        "negative-balance-bound-on-equality",
        "interval_h0.py",
        "k * (k - 1) // 2 < a:",
        "k * (k - 1) // 2 <= a:",
        (
            "tests/test_interval_h0.py::test_min_search_small",
            "tests/test_interval_h0.py::test_min_search_first_witness_matches_combination_oracle",
        ),
    ),
    Mutant(
        "search-window-one-short",
        "interval_h0.py",
        "stop = n - r + 1",
        "stop = n - r",
        (
            "tests/test_interval_h0.py::test_min_search_first_witness_matches_combination_oracle",
            "tests/test_interval_h0.py::test_min_search_all_minima_match_combination_oracle",
        ),
    ),
    Mutant(
        "membership-scales-numerators-by-the-whole-lcm",
        "gamma.py",
        "e.numerator * (scale // e.denominator)",
        "e.numerator * scale",
        (
            "tests/test_gamma.py::test_member_subfunctor_exhaustive_small",
            # its first line checks that the unmutated suite passes
            "tests/test_gamma.py::test_verify_pointed_maps_catches_a_pushforward_that_drops_an_entry",
        ),
    ),
    Mutant(
        "scaled-test-ignores-its-scale",
        "gamma.py",
        "limit = math.floor(self.bound * scale)",
        "limit = math.floor(self.bound)",
        (
            "tests/test_gamma.py::test_member_subfunctor_exhaustive_small",
            # its first line checks that the unmutated suite passes
            "tests/test_gamma.py::test_verify_pointed_maps_catches_a_pushforward_that_drops_an_entry",
        ),
    ),
    Mutant(
        "covering-radius-doubled",
        "circle_h1.py",
        "covering=Fraction(_widest_gap(d, sorted(sums)), 2 * d),",
        "covering=Fraction(_widest_gap(d, sorted(sums)), d),",
        ("tests/test_circle_h1.py::test_certify_family_small",),
    ),
    Mutant(
        # F(m) is on the grid, so only a family off it tells the tests apart.
        "grid-test-trusts-the-sum-count",
        "circle_h1.py",
        "on_grid = all((s << m) % d == 0 for s in sums)",
        "on_grid = all((s << m) % d == 0 for s in sums) or len(sums) == 2 ** m",
        ("tests/test_circle_h1.py::test_certify_family_refuses_sums_off_the_dyadic_grid",),
    ),
    Mutant(
        "bijection-counts-one-value-too-many",
        "negabinary.py",
        "distinct = bits.bit_count()",
        "distinct = bits.bit_count() + 1",
        ("tests/test_negabinary.py::test_verify_bijection_reports",),
    ),
    Mutant(
        "lo-witness-takes-the-positive-weights",
        "negabinary.py",
        "lo_witness=tuple(int(w < 0) for w in weights),",
        "lo_witness=tuple(int(w > 0) for w in weights),",
        ("tests/test_negabinary.py::test_verify_bijection_reports",),
    ),
    Mutant(
        # An encode with one digit too many keeps the value it decodes to.
        "negabinary-roundtrip-skips-the-width-check",
        "verify.py",
        "if len(word.digits) != n or negabinary.decode(word) != q:",
        "if negabinary.decode(word) != q:",
        ("tests/test_negabinary.py::test_verify_negabinary_catches_an_encode_of_the_wrong_width",),
    ),
    Mutant(
        "dim-h0-one-too-many",
        "interval_h0.py",
        "return k + 2 if k >= 0 else 0",
        "return k + 3 if k >= 0 else 0",
        (
            "tests/test_interval_h0.py::test_dim_h0_spot_values",
            "tests/test_interval_h0.py::test_dim_h0_closed_form",
        ),
    ),
    Mutant(
        "euler-drops-its-witness-comparison",
        "divisor.py",
        "if (a.bit_length() + 1 if a else 0) != h0:",
        "if False:",
        ("tests/test_cli.py::test_euler_exits_1_when_its_witness_is_off_by_one",),
    ),
    Mutant(
        "scan-skips-its-witness",
        "divisor.py",
        "if y >= 0 and not floor_pow2_has_bits(y, d, h0 - 1):",
        "if False:",
        ("tests/test_divisor.py::test_rr_scan_reports_where_the_witness_disagrees",),
    ),
    Mutant(
        "power-comparison-admits-its-upper-bound",
        "divisor.py",
        "return (bits - 1) * beta <= alpha < bits * beta",
        "return (bits - 1) * beta <= alpha <= bits * beta",
        ("tests/test_divisor.py::test_floor_pow2_has_bits_is_the_bit_length_of_the_exact_root",),
    ),
    Mutant(
        "scan-never-refreshes-its-cell",
        "divisor.py",
        "if k != cell:",
        "if cell is None:",
        ("tests/test_divisor.py::test_rr_scan_h0_is_the_bit_length_of_the_exact_root",),
    ),
    Mutant(
        "scan-rows-read-the-cell-below",
        "divisor.py",
        "x, k = Fraction(y, d), y // d",
        "x, k = Fraction(y, d), y // d - 1",
        (SCAN_ROWS,),
    ),
    Mutant(
        "scan-counts-one-point-short",
        "divisor.py",
        "ScanReport(lo, hi, step, len(ys), tuple(violations))",
        "ScanReport(lo, hi, step, len(ys) - 1, tuple(violations))",
        ("tests/test_cli.py::test_every_admitted_scan_answers", SCAN_ROWS),
    ),
    Mutant(
        # The golden table stops at a = 15, so only the construction suite,
        # which compares the bound with every a, sees it.
        "lower-bound-one-short-from-16",
        "interval_h0.py",
        "return (2 * _checked_bound(a)).bit_length()",
        "return (2 * _checked_bound(a)).bit_length() - (a >= 16)",
        ("tests/test_cli.py::test_verify_lemma33",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's fragment occurs in its module."""
    return (ROOT / "src" / "arakelov_rr" / mutant.module).read_text().count(mutant.fragment)


def run(tests: list[str], mutant: Mutant | None = None) -> tuple[int | None, float, str]:
    """Run the tests in a fresh copy of the tree, with the mutant's swap
    applied if one is given: (pytest's exit status, or None when the run
    passed TIMEOUT_S; seconds; the tail of its output)."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, copy / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant is not None:
            path = copy / "src" / "arakelov_rr" / mutant.module
            path.write_text(path.read_text().replace(mutant.fragment, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-c", RUNNER, "-q", "-x", "-p", "no:cacheprovider", *tests]
        t0 = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, time.perf_counter() - t0, ""
        output = done.stdout.decode()[-2000:] + "\n" + done.stderr.decode()[-2000:]
        return done.returncode, time.perf_counter() - t0, output


def main(names: list[str]) -> int:
    """Run the named mutants, or all of them when no name is given."""
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in names if name not in by_name]
    if unknown:
        print(f"unknown mutants: {unknown}")
        return 2
    chosen = [by_name[name] for name in dict.fromkeys(names)] or list(MUTANTS)
    misplaced = [m.name for m in chosen if occurrences(m) != 1]
    if misplaced:
        print(f"fragments not found exactly once: {misplaced}")
        return 2
    t0 = time.perf_counter()
    tests = list(dict.fromkeys(node for m in chosen for node in m.tests))
    status, seconds, output = run(tests)
    if status != 0 or seconds > TIMEOUT_S / 4:
        print(output)
        print(f"the named tests must pass unmutated within {TIMEOUT_S / 4:.0f}s: "
              f"exit status {status} after {seconds:.1f}s")
        return 2
    print(f"{'passed':8}  {seconds:6.1f}s  {len(tests)} named tests, unmutated", flush=True)
    caught = 0
    for mutant in chosen:
        status, seconds, output = run(list(mutant.tests), mutant)
        # Only failing tests (exit status 1) or a hang catch a mutant; a
        # pytest usage or collection error is an ERROR.
        verdict = {None: "caught", 0: "SURVIVED", 1: "caught"}.get(status, "ERROR")
        if verdict == "ERROR":
            print(output)
        caught += verdict == "caught"
        print(f"{verdict:8}  {seconds:6.1f}s  {mutant.name}", flush=True)
    print(f"{caught} of {len(chosen)} caught in {time.perf_counter() - t0:.1f}s")
    return 0 if caught == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
