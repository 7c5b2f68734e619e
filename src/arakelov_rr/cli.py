"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage error or an input
past a size cap, 3 precision exhausted, 4 internal error (a bug, reported
in one line).  All numeric input is parsed
exactly: integers, fractions like -5/2, and decimal strings like 2.5
(never binary floats).

Each command handler returns (payload, text lines, passed); main renders
them once in the chosen format and maps passed to exit 0 or 1.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from . import circle_h1, exact, interval_h0, negabinary, verify
from .divisor import (
    DEFAULT_PRECISION_BITS,
    ArakelovDivisor,
    euler_characteristic,
    figure_data,
    rr_scan,
    series_to_csv,
    series_to_json_obj,
    series_to_svg,
)
from .errors import DomainError, FormulaViolation, PrecisionError, SizeCapError

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3
EXIT_INTERNAL = 4

#: Degree magnitudes beyond this are refused at the door, by every command:
#: euler's witness floor(2**deg2) would be astronomically wide there (for
#: euler, the archimedean part and a bound on the places' log part).
MAX_DEGREE_MAGNITUDE = 10 ** 6


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from exc


def parse_place(text: str) -> tuple[int, int]:
    try:
        prime_text, _, mult_text = text.partition(":")
        return int(prime_text), int(mult_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"places are written PRIME:MULTIPLICITY, got {text!r}"
        ) from exc


def parse_digits(text: str) -> tuple[int, ...]:
    cleaned = text.replace(",", "").replace(" ", "")
    if not cleaned or set(cleaned) - {"0", "1"}:
        raise argparse.ArgumentTypeError(
            f"digit words are strings over 0/1 (little-endian), got {text!r}"
        )
    return tuple(int(c) for c in cleaned)


def _check_degree_magnitude(deg: Fraction) -> Fraction:
    if abs(deg) > MAX_DEGREE_MAGNITUDE:
        raise DomainError(
            f"degree magnitude capped at {MAX_DEGREE_MAGNITUDE} (got {deg})"
        )
    return deg


def cmd_dim_h0(args):
    deg = _check_degree_magnitude(args.deg2)
    if math.floor(deg) >= exact.STR_LIMIT.bit_length():
        # a >= 2**floor(deg) > STR_LIMIT: refuse before bracketing a.
        raise SizeCapError(f"integer part of 2**{deg} is too long to print in full")
    dim = interval_h0.dim_h0(deg)
    obj: dict = {"deg2": str(deg), "dim_h0": dim}
    lines = [f"dim_S H0 = {dim}"]
    covered = True
    if deg < 0:
        lines.append("degree is negative: the module is the base point alone")
    else:
        # The one root: a >= 1 is the witness of dim, and bounds the interval.
        a = exact.floor_pow2_rational(deg)
        if a >= exact.STR_LIMIT:
            raise SizeCapError(f"integer part of 2**{deg} is too long to print in full")
        n = a.bit_length()
        if dim != n + 1:
            raise FormulaViolation(f"dim H0 = {dim} but floor(2**{deg}) has {n} bits")
        obj["interval_bound"] = str(a)
        lines.append(f"integer part of 2^deg2: a = {a}")
        gens = interval_h0.explicit_generating_set(a)
        obj["n"] = n
        obj["generating_set"] = list(gens)
        lines.append(f"bracketing: 2^{n - 1} <= a < 2^{n}, so the dimension is n + 1 = {n + 1}")
        lines.append(f"generating set (size {len(gens)}): {{{', '.join(map(str, gens))}}}")
        if a <= 1 << 20:
            covered = interval_h0.covers(gens, a)
            obj["certified"] = covered
            lines.append(
                f"certificate: all {2 * a + 1} targets admissibly realized"
                if covered
                else "certificate: FAILED"
            )
        else:
            obj["certified"] = None
            lines.append("certificate: skipped (bound above built-in check cap)")
    return obj, lines, covered


def cmd_dim_h1(args):
    deg = _check_degree_magnitude(args.deg2)
    m = circle_h1.dim_h1(deg)
    obj: dict = {"deg2": str(deg), "dim_h1": m}
    lines = [f"dim_S H1 = {m}"]
    passed = True
    if m == 0:
        lines.append("degree at least -1: no coarsening is needed, the module is trivial")
    else:
        lines.append(f"window: deg2 in [-{m + 1}, -{m})")
        if m <= circle_h1.SUBSET_SUM_CAP:
            cert = circle_h1.certify_family(m)
            passed = cert.passed
            obj["family_certified"] = passed
            obj["lambda"] = str(cert.lam)
            lines.append(
                f"family of {m} dyadic points generates at lambda = {cert.lam}: "
                f"{'yes' if passed else 'NO'}"
            )
            lines.append(f"counting bound: no family smaller than {cert.cardinality_bound} covers")
        else:
            obj["family_certified"] = None
            lines.append("family certification skipped (enumeration cap)")
    return obj, lines, passed


def cmd_euler(args):
    divisor = ArakelovDivisor.from_places(
        tuple(args.place or ()), arch=args.arch if args.arch is not None else 0
    )
    # p.bit_length() > log2(p) bounds the log part without refining it.
    log_part = sum(abs(m) * p.bit_length() for p, m in divisor.finite_part)
    _check_degree_magnitude(max(abs(divisor.archimedean_log2), log_part))
    result = euler_characteristic(divisor, precision_bits=args.precision)
    deg = result.deg2
    approx = deg.approx()
    obj = {
        "divisor": {
            "places": {str(p): m for p, m in divisor.finite_part},
            "arch": str(divisor.archimedean_log2),
        },
        "deg2": str(deg),
        "deg2_approx": approx,
        "h0": result.h0,
        "h1": result.h1,
        "chi": result.chi,
        "step_value": result.step_value,
    }
    lines = [
        f"deg2 = {deg} (~{approx:.6f})",
        f"dim_S H0 = {result.h0}",
        f"dim_S H1 = {result.h1}",
        f"chi = {result.chi}",
        f"step formula: primed-ceiling(deg2) + 1 = {result.step_value}",
        "identity verified: chi == step formula",
    ]
    return obj, lines, True


def cmd_min_gen(args):
    found = interval_h0.min_generating_set(args.bound, report_all_minima=args.all)
    obj: dict = {
        "a": args.bound,
        "size": found.size,
        "lower_bound": interval_h0.lower_bound_size(args.bound),
        "witness": list(found.witness),
        "certified": found.certificate.validate(),
    }
    lines = [
        f"minimal generating set size for [-{args.bound}, {args.bound}]: {found.size}",
        f"counting lower bound: {obj['lower_bound']}",
        f"first witness (combination order): {{{', '.join(map(str, found.witness))}}}",
        f"certificate recheck: {'ok' if obj['certified'] else 'FAILED'}",
    ]
    if found.all_minima is not None:
        obj["all_minima"] = [list(w) for w in found.all_minima]
        lines.append(f"all minima ({len(found.all_minima)}):")
        lines.extend(f"  {{{', '.join(map(str, w))}}}" for w in found.all_minima)
    return obj, lines, obj["certified"]


def cmd_negabinary(args):
    if args.mode == "encode":
        word = negabinary.encode(args.value, args.width)
        obj = {
            "value": args.value,
            "width": args.width,
            "digits": list(word.digits),
        }
        lines = [
            f"{args.value} at width {args.width}: "
            + "".join(str(d) for d in word.digits)
            + "  (little-endian, digit i weighs (-2)^i)"
        ]
        return obj, lines, True
    if args.mode == "decode":
        word = negabinary.NegabinaryWord(args.digits)
        value = negabinary.decode(word)
        if abs(value) >= exact.STR_LIMIT:
            raise SizeCapError(
                f"the value of this width-{word.width} word is too long to print in full"
            )
        obj = {"digits": list(word.digits), "width": word.width, "value": value}
        return obj, [f"value: {value}"], True
    report = negabinary.verify_bijection(args.width)
    window = report.interval
    obj = {
        "width": report.n,
        "window": [window.lo, window.hi],
        "distinct_values": report.distinct_values,
        "injective": report.injective,
        "onto_interval": report.onto_interval,
        "passed": report.passed,
    }
    lines = [
        f"width {report.n}: window [{window.lo}, {window.hi}] "
        f"({window.width} integers)",
        f"distinct decoded values: {report.distinct_values}",
        f"bijective onto window: {'yes' if report.passed else 'NO'}",
    ]
    return obj, lines, report.passed


def cmd_scan(args):
    report = rr_scan(
        _check_degree_magnitude(args.lo), _check_degree_magnitude(args.hi), args.step
    )
    obj = {
        "lo": str(args.lo),
        "hi": str(args.hi),
        "step": str(args.step),
        "points": report.points,
        "passed": report.passed,
        "violations": [str(v) for v in report.violations],
    }
    lines = [f"checked {report.points} grid points on [{args.lo}, {args.hi}]"]
    lines.append(
        "identity holds everywhere" if report.passed
        else f"identity FAILS at {', '.join(map(str, report.violations))}"
    )
    return obj, lines, report.passed


def cmd_figure(args):
    series = figure_data(
        _check_degree_magnitude(args.lo),
        _check_degree_magnitude(args.hi),
        samples_per_unit=args.samples_per_unit,
    )
    if args.svg:
        _write_text(args.svg, series_to_svg(series))
    if args.output_format == "csv":
        # A real table, not the key,value rows of a payload.
        return None, series_to_csv(series).splitlines(), True
    lines = [f"chi - 1 on [{series.lo}, {series.hi}]"]
    lines.append(f"jump points: {', '.join(map(str, series.jump_points)) or 'none'}")
    lines.append(f"{'deg2':>10}  {'chi-1':>6}  jump")
    jumps = set(series.jump_points)
    for x, value in series.samples:
        mark = "*" if x in jumps else ""
        lines.append(f"{str(x):>10}  {value:>6}  {mark}")
    return series_to_json_obj(series), lines, True


def cmd_verify(args):
    suites = args.suites(args)
    lines = []
    for suite in suites:
        lines.append(f"{'PASS' if suite.passed else 'FAIL'} {suite.name} ({suite.checks} checks)")
        for failure in suite.failures[:5]:
            lines.append(f"     counterexample: {failure}")
    passed = all(suite.passed for suite in suites)
    return {"passed": passed, "suites": [s.to_json_obj() for s in suites]}, lines, passed


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _render(output_format: str, payload, lines) -> str:
    """The output of a command in the chosen format.

    A payload of None means the lines are already the output (the CSV
    table of figure)."""
    if payload is None or output_format == "text":
        return "\n".join(lines) + "\n"
    if output_format == "json":
        return json.dumps(payload, indent=2) + "\n"
    # Flat two-column CSV of the JSON payload.
    rows = ["key,value"]
    for key, value in payload.items():
        rows.append(f"{key},{json.dumps(value) if isinstance(value, (dict, list)) else value}")
    return "\n".join(rows) + "\n"


def _accept_negative_rationals(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Let bare negative rationals like -5/2 be positional arguments."""
    parser._negative_number_matcher = re.compile(r"^-\d+(\.\d+)?(/\d+)?$")
    return parser


def _finish(parser: argparse.ArgumentParser, handler, **defaults) -> None:
    """Give a command its handler and its --out option.

    --out comes after the command's own arguments, so it closes every
    usage line.
    """
    parser.add_argument("--out", metavar="FILE", help="write output to FILE instead of stdout")
    parser.set_defaults(handler=handler, **defaults)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arakelov-rr",
        description=(
            "Exact dimensions and Euler characteristics of Arakelov divisors "
            "on the compactified arithmetic line (degrees in log2 units)."
        ),
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=DEFAULT_PRECISION_BITS,
        metavar="BITS",
        help="interval-refinement cap for odd-prime logarithms (default 256, at most 4096)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "csv"),
        default="text",
        dest="output_format",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = _accept_negative_rationals(sub.add_parser("dim-h0", help="dimension of H0 at a rational degree"))
    p.add_argument("deg2", type=parse_rational, help="degree in log2 units (e.g. 4, -5/2, 2.5)")
    _finish(p, cmd_dim_h0)

    p = _accept_negative_rationals(sub.add_parser("dim-h1", help="dimension of H1 at a rational degree"))
    p.add_argument("deg2", type=parse_rational)
    _finish(p, cmd_dim_h1)

    p = _accept_negative_rationals(
        sub.add_parser("euler", help="both dimensions and chi for a divisor")
    )
    p.add_argument(
        "--place",
        action="append",
        type=parse_place,
        metavar="P:M",
        help="finite place with multiplicity, repeatable (e.g. --place 3:-1)",
    )
    p.add_argument(
        "--arch",
        type=parse_rational,
        metavar="Q",
        help="archimedean coefficient in log2 units (exact rational)",
    )
    _finish(p, cmd_euler)

    p = sub.add_parser("min-gen", help="exhaustive minimal generating set of [-a, a]")
    p.add_argument("bound", type=int, metavar="A")
    p.add_argument("--all", action="store_true", help="report every minimum, not just the first")
    _finish(p, cmd_min_gen)

    p = sub.add_parser("negabinary", help="base -2 encode/decode/verify")
    mode = p.add_subparsers(dest="mode", required=True, metavar="MODE")
    enc = mode.add_parser("encode", help="encode an integer at a given width")
    enc.add_argument("value", type=int)
    enc.add_argument("width", type=int)
    _finish(enc, cmd_negabinary)
    dec = mode.add_parser("decode", help="decode a little-endian 0/1 word")
    dec.add_argument("digits", type=parse_digits, help="e.g. 111 or 1,1,1")
    _finish(dec, cmd_negabinary)
    ver = mode.add_parser("verify", help="exhaustively verify one width")
    ver.add_argument("width", type=int)
    _finish(ver, cmd_negabinary)

    p = _accept_negative_rationals(sub.add_parser("scan", help="check the chi identity on a rational grid"))
    p.add_argument("lo", type=parse_rational)
    p.add_argument("hi", type=parse_rational)
    p.add_argument("--step", type=parse_rational, default=Fraction(1, 4))
    _finish(p, cmd_scan)

    p = _accept_negative_rationals(sub.add_parser("figure", help="step-function data for chi - 1"))
    p.add_argument("lo", type=parse_rational)
    p.add_argument("hi", type=parse_rational)
    p.add_argument("--samples-per-unit", type=int, default=16)
    p.add_argument("--svg", metavar="FILE", help="also render an SVG to FILE")
    _finish(p, cmd_figure)

    p = sub.add_parser(
        "verify-lemma33",
        help="verify the tabulated minimal sets and the general construction",
    )
    p.add_argument("--construction-max", type=int, default=verify.CONSTRUCTION_MAX, metavar="A")
    _finish(p, cmd_verify, suites=lambda args: [
        verify.verify_golden_table(),
        verify.verify_construction(a_max=args.construction_max),
    ])

    p = sub.add_parser("verify-h1", help="verify the dyadic circle families")
    p.add_argument("--max-m", type=int, default=verify.CIRCLE_M_MAX)
    _finish(p, cmd_verify, suites=lambda args: [verify.verify_circle(m_max=args.max_m)])

    p = sub.add_parser("verify-all", help="run every built-in verification suite")
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="self-test: corrupt one tabulated value and confirm detection",
    )
    _finish(p, cmd_verify, suites=lambda args: verify.run_all(inject_fault=args.inject_fault))

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser main() uses, built on first use and kept for the process.

    Parsing reads the parser and writes only the fresh namespace, so one
    instance serves any number of calls.
    """
    return build_parser()


def main(argv=None) -> int:
    parser = _shared_parser()
    args = parser.parse_args(argv)
    if args.precision < 32:
        parser.error("--precision must be at least 32 bits")
    if args.precision > exact.COMPARE_BITS_CAP:
        parser.error(f"--precision must be at most {exact.COMPARE_BITS_CAP} bits")
    try:
        payload, lines, passed = args.handler(args)
        text = _render(args.output_format, payload, lines)
        if args.out:
            _write_text(args.out, text)
        else:
            sys.stdout.write(text)
    except PrecisionError as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except FormulaViolation as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION_FAILED
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        # Exit 1 means a verification failed; anything else is a bug.
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    return EXIT_OK if passed else EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
