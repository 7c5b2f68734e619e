"""Command line surface: parsing, formats, exit codes, fault injection."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import hypothesis
import hypothesis.strategies as st
import jsonschema
import pytest

import arakelov_rr
from arakelov_rr import cli, divisor, exact, interval_h0, negabinary, verify
from arakelov_rr.exact import log2_bounds
from test_divisor import walked_scan_points


def run(argv, capsys):
    try:
        code = cli.main(argv)
    except SystemExit as e:  # argparse usage failures
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def run_fresh(argv, timeout=10):
    """The command line in a fresh interpreter, killed after timeout seconds."""
    src = Path(arakelov_rr.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", "arakelov_rr.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env,
    )


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------


def test_dim_h0_text(capsys):
    code, out, _ = run(["dim-h0", "4"], capsys)
    assert code == cli.EXIT_OK
    assert "dim_S H0 = 6" in out
    assert "a = 16" in out


def test_dim_h0_negative_fraction(capsys):
    code, out, _ = run(["dim-h0", "-1/2"], capsys)
    assert code == cli.EXIT_OK
    assert "dim_S H0 = 0" in out


def test_dim_h0_decimal_string_is_exact(capsys):
    code, out, _ = run(["dim-h0", "2.5"], capsys)
    assert code == cli.EXIT_OK
    assert "dim_S H0 = 4" in out


def test_dim_h1_json(capsys):
    code, out, _ = run(["--format", "json", "dim-h1", "-7/2"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["dim_h1"] == 3
    assert payload["deg2"] == "-7/2"
    assert payload["family_certified"] is True


def test_dim_h1_nonnegative_degree(capsys):
    code, out, _ = run(["dim-h1", "3"], capsys)
    assert code == cli.EXIT_OK
    assert "0" in out


def test_dim_h1_past_the_enumeration_cap(capsys):
    # m = 25 > SUBSET_SUM_CAP: the dimension, but no certificate
    code, out, _ = run(["dim-h1", "-26"], capsys)
    assert code == cli.EXIT_OK
    assert out == (
        "dim_S H1 = 25\n"
        "window: deg2 in [-26, -25)\n"
        "family certification skipped (enumeration cap)\n"
    )
    code, out, _ = run(["--format", "json", "dim-h1", "-26"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["dim_h1"] == 25
    assert payload["family_certified"] is None
    assert '"family_certified": null' in out


def test_degree_magnitude_guard(capsys):
    code, _, err = run(["dim-h0", "2000000"], capsys)
    assert code == cli.EXIT_USAGE
    assert "magnitude" in err


def test_dim_h0_refuses_bounds_too_long_to_print(capsys):
    # floor(2**15000) has 4516 digits, more than str() converts
    code, out, err = run(["dim-h0", "15000"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: integer part of 2**15000 is too long to print in full\n"


def test_dim_h0_refuses_huge_degrees_before_bracketing(capsys):
    # floor(2**(1999999/2)) took more than 20 s to bracket before the
    # length check saw it; 2**14285 > 10**4300 already rules it out
    t0 = time.perf_counter()
    code, out, err = run(["dim-h0", "1999999/2"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == "error: integer part of 2**1999999/2 is too long to print in full\n"
    code, _, err = run(["dim-h0", "14285"], capsys)
    assert code == cli.EXIT_USAGE
    assert err == "error: integer part of 2**14285 is too long to print in full\n"
    code, out, _ = run(["dim-h0", "28569/2"], capsys)  # 14284.5, past 10**4300
    assert code == cli.EXIT_USAGE


def test_dim_h0_takes_one_root_per_command(monkeypatch, capsys):
    # the closed form gives the dimension; the one root prints a and is its witness
    calls = []

    def counted(q, root=exact.floor_pow2_rational):
        calls.append(q)
        return root(q)

    for module in (exact, interval_h0):
        monkeypatch.setattr(module, "floor_pow2_rational", counted, raising=False)
    for deg, dim in (("5/2", 4), ("0", 2), ("17", 19)):
        calls.clear()
        code, out, _ = run(["dim-h0", deg], capsys)
        assert code == cli.EXIT_OK
        assert out.startswith(f"dim_S H0 = {dim}\n")
        assert len(calls) == 1, deg
    calls.clear()
    assert run(["dim-h0", "-5/2"], capsys)[0] == cli.EXIT_OK
    assert calls == []


def test_dim_h0_exits_1_when_its_witness_disagrees(monkeypatch, capsys):
    root = exact.floor_pow2_rational
    monkeypatch.setattr(exact, "floor_pow2_rational", lambda q: root(q) - 1)
    code, out, err = run(["dim-h0", "3"], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILED
    assert out == ""
    assert err == "verification failure: dim H0 = 5 but floor(2**3) has 3 bits\n"


def test_malformed_degree(capsys):
    code, _, err = run(["dim-h0", "seven"], capsys)
    assert code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# euler
# ---------------------------------------------------------------------------


def test_euler_zero_divisor(capsys):
    code, out, _ = run(["euler"], capsys)
    assert code == cli.EXIT_OK
    assert "chi = 2" in out
    assert "identity verified" in out


def test_euler_places_and_formats(capsys):
    code, out, _ = run(["--format", "csv", "euler", "--place", "3:1"], capsys)
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    cells = dict(line.split(",", 1) for line in lines[1:])
    assert cells["h0"] == "3"
    assert cells["h1"] == "0"
    assert cells["chi"] == "3"


def test_euler_canonical_flag_or_places(capsys):
    code, out, _ = run(["euler", "--place", "2:-2"], capsys)
    assert code == cli.EXIT_OK
    assert "chi = -1" in out


def test_euler_negative_arch_fraction(capsys):
    code, out, _ = run(["euler", "--arch", "-5/2"], capsys)
    assert code == cli.EXIT_OK
    assert "chi = -2" in out


def test_euler_bad_place_syntax(capsys):
    code, _, err = run(["euler", "--place", "four:1"], capsys)
    assert code == cli.EXIT_USAGE


def test_euler_rejects_psi12_and_uncheckable_places(capsys):
    # psi12 = 399165290221 * 798330580441 fools Miller-Rabin at bases 2..37
    for place in ("318665857834031151167461:1", "3317044064679887385961981:1"):
        code, out, err = run(["euler", "--place", place], capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")


def test_euler_precision_exhaustion_exit_code(capsys):
    lo, _ = log2_bounds(3, 400)
    code, _, err = run(["euler", "--place", "3:1", "--arch", f"-{lo}"], capsys)
    assert code == cli.EXIT_PRECISION
    assert "precision" in err.lower()


def test_euler_precision_exhaustion_on_a_huge_place(capsys):
    # the bracketing would compare against log2(t) for 633,986-bit t, which
    # the message gives by its width rather than let str() fail on it
    code, out, err = run(["euler", "--arch", "1/3", "--place", "3:400000"], capsys)
    assert code == cli.EXIT_PRECISION
    assert out == ""
    assert err.startswith("precision exhausted: cannot separate 1/3 + 400000*log2(3) from")
    assert "log2(t) for t of 633986 bits" in err


@pytest.mark.parametrize("argv", [["euler", "--arch", "1999999/2"]], ids=["euler"])
def test_bracketing_past_the_cap_exits_3_at_once(argv):
    # 2**x for x near 10**6 is too wide to materialize, and bisecting
    # [2**k, 2**(k+1)) cannot separate x from log2(t) once k passes the
    # comparison cap, so euler's witness must exit 3 without bisecting
    done = run_fresh(argv)
    assert done.returncode == cli.EXIT_PRECISION
    assert done.stdout == ""
    assert re.fullmatch(
        r"precision exhausted: cannot separate \S+ from log2\(t\)"
        r" for t of 1000000 bits within 4096 bits\n",
        done.stderr,
    ), done.stderr


@pytest.mark.parametrize(
    "arch, chi, enclosures",
    # degrees about 0.35 and -9.65, each decided at the first precision: the
    # sign, the floor of the root (only at the positive one), one floor for
    # h1 and the primed ceiling, and the approximation
    [("-19/2", 2, 4), ("-39/2", -9, 3)],
)
def test_one_euler_builds_one_enclosure_per_decision(
    arch, chi, enclosures, capsys, monkeypatch
):
    # a count of the enclosures built, three log2 lookups each, not a wall clock
    real = divisor.log2_bounds
    lookups = []

    def counted(p, bits):
        lookups.append(p)
        return real(p, bits)

    monkeypatch.setattr(divisor, "log2_bounds", counted)
    code, out, _ = run(
        ["euler", "--arch", arch, "--place", "13:2", "--place", "3:-2", "--place", "7:2"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert f"chi = {chi}\n" in out
    assert len(lookups) <= 3 * enclosures


def test_euler_narrow_root_of_huge_index(capsys):
    # 2**(1/32768) * 3**13 is the 32768-th root of a 675,000-bit number
    t0 = time.perf_counter()
    code, out, _ = run(["euler", "--arch", "1/32768", "--place", "3:13"], capsys)
    elapsed = time.perf_counter() - t0
    assert code == cli.EXIT_OK
    assert "dim_S H0 = 22" in out
    assert elapsed < 5.0  # about 0.5 s; the Newton loop it replaced ran for minutes


def test_euler_refuses_huge_archimedean_and_log_parts(capsys):
    # this arch built 1 << k for k near 3.3e19 and died of MemoryError
    code, out, err = run(["euler", "--arch", "100000000000000000001/3"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "magnitude" in err
    code, _, err = run(["euler", "--arch", "-100000000000000000001/3"], capsys)
    assert code == cli.EXIT_USAGE
    # 700000 * bit_length(3) = 1400000 > 10**6
    code, _, err = run(["euler", "--place", "3:700000"], capsys)
    assert code == cli.EXIT_USAGE
    assert "(got 1400000)" in err
    # cancelling places count as merged: 3:-700000 and 3:700000 is zero
    code, out, _ = run(["euler", "--place", "3:700000", "--place", "3:-700000"], capsys)
    assert code == cli.EXIT_OK
    assert "chi = 2" in out


@pytest.mark.parametrize(
    "argv",
    [["--arch", "3"], ["--arch", "0"], ["--arch", "-1/2", "--place", "3:1"]],
)
def test_euler_exits_1_when_its_witness_is_off_by_one(monkeypatch, capsys, argv):
    # floor(2**deg) is 8, 1 and 2 here, so one less has one bit fewer
    witness = divisor.DegreeValue.floor_pow2
    monkeypatch.setattr(divisor.DegreeValue, "floor_pow2", lambda self: witness(self) - 1)
    code, out, err = run(["euler", *argv], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILED
    assert out == ""
    assert err.startswith("verification failure: dim H0 = ")


def test_euler_high_precision_resolves(capsys):
    lo, _ = log2_bounds(3, 400)
    code, out, _ = run(
        ["--precision", "512", "euler", "--place", "3:1", "--arch", f"-{lo}"],
        capsys,
    )
    assert code == cli.EXIT_OK
    assert "dim_S H0 = 2" in out


# ---------------------------------------------------------------------------
# scan and figure
# ---------------------------------------------------------------------------


def test_scan_clean_sweep(capsys):
    code, out, _ = run(["scan", "-6", "6", "--step", "1/4"], capsys)
    assert code == cli.EXIT_OK
    assert "identity holds everywhere" in out


def test_scan_json_row_count(capsys):
    code, out, _ = run(["--format", "json", "scan", "-1", "1", "--step", "1"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["violations"] == []
    assert payload["passed"] is True
    # grid -1, 0, 1 plus probes -1+p, 0-p, 0+p, 1-p
    assert payload["points"] == 7


@pytest.mark.parametrize(
    "lo, hi, step, points",
    [("16000", "16400", "1/4", 2401), ("999999", "1000000", "1/2", 5)],
    ids=["probes-of-denominator-64", "past-the-materialize-cap"],
)
def test_scan_answers_at_once_in_a_fresh_process(lo, hi, step, points):
    # near degree 16,000 each probe at step 1/4 has denominator 64, whose
    # floor(2**x) is an index-64 root of a 1,024,000-bit power, and near
    # 10**6 that power is past the materialize cap; the witness needs
    # only the comparison of 2**x with powers of two
    done = run_fresh(["--format", "json", "scan", lo, hi, "--step", step])
    assert done.returncode == cli.EXIT_OK, done.stderr
    payload = json.loads(done.stdout)
    assert payload["points"] == points
    assert payload["passed"] is True


def test_scan_builds_no_rows_and_takes_each_closed_form_once_per_cell(monkeypatch):
    # the command prints the point count and the violations, never a row
    built = []
    row = divisor.ScanRow
    monkeypatch.setattr(divisor, "ScanRow", lambda *fields: built.append(fields) or row(*fields))
    calls = {name: [] for name in ("dim_h0", "dim_h1", "ceil_prime")}
    for name, seen in calls.items():
        form = getattr(divisor, name)
        monkeypatch.setattr(divisor, name, lambda k, form=form, seen=seen: seen.append(k) or form(k))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", "scan", "-89/4", "87/4", "--step", "1/8"])
    assert code == cli.EXIT_OK
    points = walked_scan_points(Fraction(-89, 4), Fraction(87, 4), Fraction(1, 8))
    assert json.loads(out.getvalue())["points"] == len(points) == 441
    assert built == []
    cells = sorted({x.numerator // x.denominator for x in points})
    assert calls["dim_h0"] == cells
    for seen in calls.values():
        assert seen == sorted(set(seen)) and set(seen) <= set(cells)


@st.composite
def scan_arguments(draw):
    """lo within the degree magnitude cap, hi above lo (at times past the
    cap), and a step whose grid lands on either side of the point cap."""
    lo = draw(st.fractions(-(10 ** 6), 10 ** 6, max_denominator=64))
    width = draw(st.one_of(
        st.fractions(0, 8, max_denominator=16), st.fractions(0, 4000, max_denominator=4)
    ))
    cells = draw(st.integers(1, 2 * divisor.MAX_SCAN_POINTS))
    step = draw(st.one_of(
        st.just((width or 1) / cells), st.fractions(Fraction(1, 1000), 10, max_denominator=1000)
    ))
    return lo, lo + width, step


@hypothesis.settings(max_examples=60, deadline=None)
@hypothesis.given(scan_arguments())
@hypothesis.example((Fraction(16000), Fraction(16400), Fraction(1, 4)))
@hypothesis.example((Fraction(997501), Fraction(1000000), Fraction(1)))
@hypothesis.example((Fraction(-1000000), Fraction(-997501), Fraction(1)))
@hypothesis.example((Fraction(999999), Fraction(1000001), Fraction(1, 2)))
def test_every_admitted_scan_answers(arguments):
    lo, hi, step = arguments
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--format", "json", "scan", str(lo), str(hi), "--step", str(step)])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE), err.getvalue()
    assert "internal error:" not in err.getvalue()
    if code == cli.EXIT_OK:
        payload = json.loads(out.getvalue())
        assert payload["passed"] is True
        assert payload["points"] == len(walked_scan_points(lo, hi, step))


def test_scan_and_figure_are_capped(capsys):
    for argv in (
        ["scan", "-100000", "100000", "--step", "1/100"],
        ["scan", "-2000000", "0"],
        ["figure", "-100000", "100000", "--samples-per-unit", "1000"],
    ):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error:")


def test_figure_csv(capsys):
    code, out, _ = run(
        ["--format", "csv", "figure", "-1", "1", "--samples-per-unit", "2"], capsys
    )
    assert code == cli.EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "deg2,chi_minus_1,is_jump"
    assert "0,1,true" in lines


def test_figure_json_validates_schema(capsys):
    import importlib.resources as resources

    schema = json.loads(
        resources.files("arakelov_rr").joinpath("figure_schema.json").read_text()
    )
    code, out, _ = run(
        ["--format", "json", "figure", "-2", "2", "--samples-per-unit", "4"], capsys
    )
    assert code == cli.EXIT_OK
    jsonschema.validate(json.loads(out), schema)


def test_figure_svg_file(tmp_path, capsys):
    target = tmp_path / "steps.svg"
    code, out, _ = run(
        ["figure", "-2", "2", "--samples-per-unit", "4", "--svg", str(target)],
        capsys,
    )
    assert code == cli.EXIT_OK
    text = target.read_text()
    assert text.startswith("<svg")
    assert text.rstrip().endswith("</svg>")


def test_figure_empty_range_rejected(capsys):
    code, _, err = run(["figure", "1", "1"], capsys)
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize("svg", [False, True])
def test_figure_refuses_ends_past_the_degree_cap(svg, tmp_path, capsys):
    # as scan does: with --svg these ends overflowed a float (exit 4), and
    # without it figure printed a table for them
    lo = 10 ** 400
    target = tmp_path / "steps.svg"
    argv = ["figure", str(lo), str(lo + 1)] + (["--svg", str(target)] if svg else [])
    code, out, err = run(argv, capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: degree magnitude capped at {cli.MAX_DEGREE_MAGNITUDE} (got {lo})\n"
    assert not target.exists()
    cap = cli.MAX_DEGREE_MAGNITUDE
    argv = ["figure", str(-cap), str(1 - cap), "--samples-per-unit", "1"]
    assert run(argv + (["--svg", str(target)] if svg else []), capsys)[0] == cli.EXIT_OK


# ---------------------------------------------------------------------------
# negabinary
# ---------------------------------------------------------------------------


def test_negabinary_encode(capsys):
    code, out, _ = run(["negabinary", "encode", "-42", "7"], capsys)
    assert code == cli.EXIT_OK
    assert "0101010" in out


def test_negabinary_decode(capsys):
    code, out, _ = run(["negabinary", "decode", "0101010"], capsys)
    assert code == cli.EXIT_OK
    assert "-42" in out


def test_negabinary_roundtrip_json(capsys):
    code, out, _ = run(["--format", "json", "negabinary", "encode", "5", "4"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    digit_string = "".join(str(d) for d in payload["digits"])
    code2, out2, _ = run(
        ["--format", "json", "negabinary", "decode", digit_string], capsys
    )
    assert code2 == cli.EXIT_OK
    assert json.loads(out2)["value"] == 5


def test_negabinary_verify(capsys):
    code, out, _ = run(["negabinary", "verify", "8"], capsys)
    assert code == cli.EXIT_OK
    assert "bijective onto window: yes" in out


def test_negabinary_encode_width_cap(capsys):
    cap = negabinary.ENCODE_CAP
    code, out, err = run(["--format", "json", "negabinary", "encode", "5", str(cap)], capsys)
    assert code == cli.EXIT_OK and err == ""
    assert json.loads(out)["digits"] == [1, 0, 1] + [0] * (cap - 3)
    code, out, err = run(["negabinary", "encode", "5", str(cap + 1)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err == f"error: encode builds at most {cap} digits (got width {cap + 1})\n"


def test_negabinary_decode_of_a_value_too_long_to_print(capsys):
    # 14,285 digits print the value's 4,300 decimal digits; one more is refused
    for width, value_digits in ((14285, 4300), (14286, None)):
        code, out, err = run(["negabinary", "decode", "0" * (width - 1) + "1"], capsys)
        if value_digits is None:
            assert code == cli.EXIT_USAGE and out == ""
            assert err == (
                f"error: the value of this width-{width} word is too long to print in full\n"
            )
        else:
            assert code == cli.EXIT_OK and err == ""
            assert len(out) == len("value: ") + value_digits + 1


def test_negabinary_out_of_window(capsys):
    code, _, err = run(["negabinary", "encode", "6", "4"], capsys)
    assert code == cli.EXIT_USAGE
    assert "-10" in err and "5" in err  # names the valid window


# ---------------------------------------------------------------------------
# min-gen
# ---------------------------------------------------------------------------


def test_min_gen(capsys):
    code, out, _ = run(["min-gen", "5"], capsys)
    assert code == cli.EXIT_OK
    assert "size for [-5, 5]: 4" in out
    assert "{-5, 1, 2, 3}" in out


def test_min_gen_all_minima(capsys):
    code, out, _ = run(["--format", "json", "min-gen", "2", "--all"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    assert payload["size"] == 3
    assert [[-2, -1, 2], [-2, 1, 2]] == payload["all_minima"]


def test_min_gen_at_the_default_budget_is_fast(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(["min-gen", "31"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == cli.EXIT_OK
    assert "{-31, 1, 2, 4, 8, 16}" in out
    t0 = time.perf_counter()
    code, out, _ = run(["min-gen", "--all", "12"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == cli.EXIT_OK
    assert "all minima (22):" in out


def test_min_gen_budget_guard(capsys):
    # the one search cap holds with or without --all
    for argv in (["min-gen", "64"], ["min-gen", "--all", "65"]):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err == (
            "error: exhaustive search capped at a = 63; "
            "use explicit_generating_set for larger bounds\n"
        )


def test_min_gen_answers_up_to_the_budget_cap(capsys):
    code, out, _ = run(["min-gen", "63"], capsys)
    assert code == cli.EXIT_OK
    assert "{-63, 1, 2, 4, 8, 16, 32}" in out
    code, out, _ = run(["min-gen", "33"], capsys)
    assert code == cli.EXIT_OK
    assert "{-33, 1, 2, 3, 4, 6, 17}" in out
    code, _, err = run(["min-gen", "64"], capsys)
    assert code == cli.EXIT_USAGE
    assert "capped at a = 63" in err


def test_removed_search_flags_are_usage_errors(capsys):
    # --budget and min-gen --max-size are gone; the search has one fixed cap
    for argv in (
        ["--budget", "63", "min-gen", "5"],
        ["--budget", "8", "verify-all"],
        ["min-gen", "5", "--max-size", "4"],
    ):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert "error: " in err


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def test_verify_h1(capsys):
    code, out, _ = run(["verify-h1", "--max-m", "6"], capsys)
    assert code == cli.EXIT_OK
    assert "PASS circle-families" in out


def test_verify_lemma33(capsys):
    code, out, _ = run(["verify-lemma33", "--construction-max", "64"], capsys)
    assert code == cli.EXIT_OK
    assert "PASS interval-golden-table" in out
    assert "PASS interval-construction" in out


@pytest.mark.parametrize(
    "command, flag, cap",
    [
        ("verify-lemma33", "--construction-max", verify.CONSTRUCTION_CAP),
        ("verify-h1", "--max-m", verify.CIRCLE_M_CAP),
    ],
    ids=["verify-lemma33", "verify-h1"],
)
def test_verify_flags_are_bounded(command, flag, cap, capsys):
    # -5 and 0 passed on 0 or 2 checks; far past the cap ran for minutes
    for value in (-5, 0, cap + 1):
        t0 = time.perf_counter()
        code, out, err = run([command, flag, str(value)], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == cli.EXIT_USAGE
        assert out == ""
        assert err.startswith("error: ")
        assert f"1..{cap} (got {value})" in err
    code, out, _ = run([command, flag, "1"], capsys)
    assert code == cli.EXIT_OK
    assert "FAIL" not in out


def test_verify_all_passes(capsys):
    code, out, _ = run(["verify-all"], capsys)
    assert code == cli.EXIT_OK
    assert out.count("PASS") == 6
    assert "FAIL" not in out


def test_verify_all_default_check_counts(capsys):
    # a kernel rewrite must not drop a check unnoticed
    code, out, _ = run(["--format", "json", "verify-all"], capsys)
    assert code == cli.EXIT_OK
    suites = json.loads(out)["suites"]
    assert [s["checks"] for s in suites] == [4391, 90, 76, 512, 61, 79]
    assert all(s["passed"] and not s["skipped"] for s in suites)


def test_verify_all_json_matches_schema(capsys):
    import importlib.resources as resources

    schema = json.loads(
        resources.files("arakelov_rr").joinpath("report_schema.json").read_text()
    )
    code, out, _ = run(["--format", "json", "verify-all"], capsys)
    assert code == cli.EXIT_OK
    payload = json.loads(out)
    jsonschema.validate(payload, schema)
    assert payload["passed"] is True
    assert len(payload["suites"]) == 6


def test_verify_all_fault_injection_fails(capsys):
    code, out, _ = run(["verify-all", "--inject-fault"], capsys)
    assert code == cli.EXIT_VERIFICATION_FAILED
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# global flags
# ---------------------------------------------------------------------------


def test_precision_floor_enforced(capsys):
    code, _, err = run(["--precision", "16", "euler"], capsys)
    assert code == cli.EXIT_USAGE


def test_precision_cap_enforced(capsys):
    # one ceiling for rational and log-term comparisons; refinement cost
    # grows fast past it (log2_bounds(3, 16384) takes seconds)
    assert exact.COMPARE_BITS_CAP == 4096
    code, out, err = run(["--precision", "4097", "euler", "--place", "3:1"], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "--precision must be at most 4096 bits" in err
    code, out, _ = run(["--precision", "4096", "euler", "--place", "3:1"], capsys)
    assert code == cli.EXIT_OK
    assert "dim_S H0 = 3" in out


def test_unknown_subcommand(capsys):
    code, _, err = run(["frobnicate"], capsys)
    assert code == cli.EXIT_USAGE


def test_global_flag_after_subcommand_is_an_error(capsys):
    # global options are declared on the root parser and must precede the
    # subcommand; document that with a test
    code, _, err = run(["euler", "--format", "json"], capsys)
    assert code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# repeated calls in one process (the parser is built once and reused)
# ---------------------------------------------------------------------------


def test_repeated_calls_json_then_text(capsys):
    code, out, _ = run(["--format", "json", "euler", "--place", "3:1"], capsys)
    assert code == cli.EXIT_OK
    assert json.loads(out)["h0"] == 3
    code, out, _ = run(["euler", "--place", "3:1"], capsys)
    assert code == cli.EXIT_OK
    assert out.startswith("deg2 = 0 + log2(3)")
    assert "dim_S H0 = 3" in out


def test_repeated_calls_usage_error_then_valid(capsys):
    code, _, err = run(["--precision", "16", "min-gen", "3"], capsys)
    assert code == cli.EXIT_USAGE
    assert "--precision" in err
    code, out, err = run(["min-gen", "3"], capsys)
    assert code == cli.EXIT_OK
    assert "{-3, 1, 2}" in out
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["dim-h0", "4"],
        ["dim-h1", "-7/2"],
        ["euler", "--place", "3:1"],
        ["min-gen", "5"],
        ["negabinary", "encode", "-42", "7"],
        ["negabinary", "decode", "0101010"],
        ["negabinary", "verify", "8"],
        ["scan", "-1", "1", "--step", "1"],
        ["figure", "-1", "1", "--samples-per-unit", "2"],
        ["verify-lemma33", "--construction-max", "64"],
        ["verify-h1", "--max-m", "6"],
        ["verify-all"],
    ],
    ids=lambda argv: "-".join(a for a in argv if a[0].isalpha()),
)
def test_repeated_calls_out_file_then_stdout(argv, tmp_path, capsys):
    target = tmp_path / "out.txt"
    code, out, _ = run(argv + ["--out", str(target)], capsys)
    assert code == cli.EXIT_OK
    assert out == ""
    written = target.read_bytes()
    code, out, _ = run(argv, capsys)
    assert code == cli.EXIT_OK
    assert out.encode() == written


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_out_exits_2_without_a_traceback(where, tmp_path, capsys):
    target = tmp_path / "missing" / "x.txt" if where == "missing-dir" else tmp_path
    code, out, err = run(["euler", "--arch", "1", "--out", str(target)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
def test_unwritable_svg_exits_2_without_a_traceback(where, tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg" if where == "missing-dir" else tmp_path
    code, out, err = run(["figure", "0", "1", "--svg", str(target)], capsys)
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1


def test_unexpected_exception_exits_4_in_one_line(monkeypatch, capsys):
    # exit 1 is kept for a verification that found a failure; a bug in a
    # handler is reported as an internal error, on one line, with no traceback
    def broken(*args, **kwargs):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "euler_characteristic", broken)
    code, out, err = run(["euler", "--arch", "1"], capsys)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom second line\n"
    assert "Traceback" not in err
