"""Arakelov divisors on the compactified arithmetic line.

A divisor is a finite-support integer combination of prime places plus a
real coefficient at the archimedean place.  Degrees are carried in log2
units throughout: the prime p contributes multiplicity * log2(p), the
archimedean coefficient contributes itself.  The multiple-of-log2(2)
part stays an exact Fraction; odd primes contribute symbolic log terms
compared via rigorous interval refinement.

The headline identity: h0 - h1 equals the primed ceiling of the degree
plus one, where the primed ceiling is floor(x) + 1 for x >= 0 and
floor(x) for x < 0.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from ._record import record
from .circle_h1 import dim_h1
from .errors import DomainError, FormulaViolation, SizeCapError
from .exact import (
    REFINE_START_BITS,
    _checked_rational,
    degree_floor,
    floor_pow2_rational,
    is_prime,
    log2_bounds,
    materialize_or_bracket,
    refine,
)
from .interval_h0 import dim_h0

#: Default cap (in bits) for interval refinement of odd-prime logs.
DEFAULT_PRECISION_BITS = 256

#: Most grid points and integer probes one rr_scan evaluates.
MAX_SCAN_POINTS = 10_000

#: Most samples one figure_data series holds.
MAX_FIGURE_SAMPLES = 100_000

Rational = int | Fraction


@record
class DegreeValue:
    """Exact degree in log2 units: a rational plus odd-prime log2 terms.

    ``log_terms`` maps each odd prime p (sorted, nonzero multiplicities
    only) to its integer multiplicity; the represented number is
    rational_part + sum(m * log2(p)).  Such a number is rational only
    when every log term vanishes (unique factorization), so equality and
    order against rationals are decidable: symbolically when rational,
    else by interval refinement that doubles precision up to the cap.
    Refinement runs on one integer enclosure (lo, hi, d), lo/d <= degree
    <= hi/d, summed from the log2_bounds numerators over one common
    denominator; ``bounds`` is its Fraction view.
    """

    rational_part: Fraction
    log_terms: tuple[tuple[int, int], ...] = ()
    precision_bits: int = DEFAULT_PRECISION_BITS

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rational_part", _checked_rational(self.rational_part, "degree")
        )
        merged: dict[int, int] = {}
        for p, m in self.log_terms:
            if p < 3 or p % 2 == 0 or not is_prime(p):
                raise DomainError(f"log term base {p} is not an odd prime")
            if isinstance(m, bool) or not isinstance(m, int):
                raise DomainError(f"log term multiplicity {m!r} is not an int")
            merged[p] = merged.get(p, 0) + m
        object.__setattr__(
            self,
            "log_terms",
            tuple(sorted((p, m) for p, m in merged.items() if m != 0)),
        )
        if self.precision_bits < REFINE_START_BITS:
            raise DomainError("precision cap too small")

    @property
    def is_rational(self) -> bool:
        return not self.log_terms

    def _enclosure(self, bits: int) -> tuple[int, int, int]:
        """(lo, hi, d) with lo/d <= degree <= hi/d, about 2**-bits wide.

        Every log2_bounds denominator is a power of two at most 2**bits,
        so d = denominator(rational_part) * 2**bits is a common one.
        """
        r = self.rational_part
        lo = hi = 0
        for p, m in self.log_terms:
            plo, phi = log2_bounds(p, bits)
            if m < 0:
                plo, phi = phi, plo
            lo += (m * plo.numerator) << (bits + 1 - plo.denominator.bit_length())
            hi += (m * phi.numerator) << (bits + 1 - phi.denominator.bit_length())
        b = r.denominator
        a = r.numerator << bits
        return a + b * lo, a + b * hi, b << bits

    def bounds(self, bits: int) -> tuple[Fraction, Fraction]:
        """Honest enclosure of the degree at roughly 2**-bits width: the
        Fraction view of the integer enclosure the refinement runs on."""
        lo, hi, d = self._enclosure(bits)
        return Fraction(lo, d), Fraction(hi, d)

    def compare(self, other: Rational) -> int:
        """Sign of self - other for rational other (-1, 0, or +1).

        A degree with log terms is irrational, so refinement either
        separates it from ``other`` or exhausts the precision cap.
        """
        other = _checked_rational(other, "comparand")
        if self.is_rational:
            diff = self.rational_part - other
            return (diff > 0) - (diff < 0)
        c, e = other.numerator, other.denominator

        def step(bits: int) -> int | None:
            lo, hi, d = self._enclosure(bits)
            if lo * e > c * d:
                return 1
            return -1 if hi * e < c * d else None

        return refine(step, self.precision_bits, lambda: f"cannot separate {self} from {other}")

    def sign(self) -> int:
        return self.compare(0)

    def floor(self) -> int:
        """Largest integer at most the degree."""
        if self.is_rational:
            return math.floor(self.rational_part)

        def step(bits: int) -> int | None:
            lo, hi, d = self._enclosure(bits)
            k = lo // d
            return k if k == hi // d else None

        return refine(step, self.precision_bits, lambda: f"floor of {self} undecided")

    def floor_pow2(self) -> int:
        """Integer part of 2**degree, decided exactly.

        With degree = alpha/beta + sum m_p log2(p), the power 2**degree
        is the beta-th root of the integer ratio 2**alpha * prod
        p**(m_p * beta): an integer root computation, not an
        approximation.  When that ratio is too wide to build, the answer
        is bracketed by rigorous log2 comparisons instead.
        """
        if self.sign() < 0:
            return 0
        if self.is_rational:
            return floor_pow2_rational(self.rational_part)
        return materialize_or_bracket(
            self.floor(), self.rational_part, self.log_terms, self.bounds, self.precision_bits, self
        )

    def approx(self) -> float:
        lo, hi, d = self._enclosure(64)
        return (lo + hi) / (2 * d)

    def __str__(self) -> str:
        parts = [str(self.rational_part)]
        for p, m in self.log_terms:
            sign = "+" if m >= 0 else "-"
            coeff = abs(m)
            prefix = "" if coeff == 1 else f"{coeff}*"
            parts.append(f"{sign} {prefix}log2({p})")
        return " ".join(parts)


def ceil_prime(x) -> int:
    """The primed ceiling: floor(x) + 1 for x >= 0, floor(x) for x < 0.

    Agrees with the usual ceiling on non-integer positives and with
    -ceiling(-x) on non-integer negatives; at integers it steps to n + 1
    for n >= 0 (right-continuous, with a jump of two at zero).
    """
    # x >= 0 exactly when floor(x) >= 0, so one floor decides both.
    k = degree_floor(x, "argument")
    return k + 1 if k >= 0 else k


@record
class ArakelovDivisor:
    """Finite places with integer multiplicities plus an archimedean
    coefficient, the latter already in log2 units."""

    finite_part: tuple[tuple[int, int], ...] = ()
    archimedean_log2: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        merged: dict[int, int] = {}
        for p, m in self.finite_part:
            if isinstance(p, bool) or not isinstance(p, int) or not is_prime(p):
                raise DomainError(f"finite place {p!r} is not prime")
            if isinstance(m, bool) or not isinstance(m, int):
                raise DomainError(f"multiplicity {m!r} at place {p} is not an int")
            merged[p] = merged.get(p, 0) + m
        object.__setattr__(
            self,
            "finite_part",
            tuple(sorted((p, m) for p, m in merged.items() if m != 0)),
        )
        object.__setattr__(
            self,
            "archimedean_log2",
            _checked_rational(self.archimedean_log2, "archimedean coefficient"),
        )

    @classmethod
    def from_places(
        cls, places: Mapping[int, int] | Iterable[tuple[int, int]], arch: Rational = 0
    ) -> "ArakelovDivisor":
        items = places.items() if isinstance(places, Mapping) else places
        return cls(finite_part=tuple(items), archimedean_log2=arch)

    @classmethod
    def zero(cls) -> "ArakelovDivisor":
        return cls()

    @classmethod
    def canonical(cls) -> "ArakelovDivisor":
        """The divisor -2*(2), of degree -2 in log2 units."""
        return cls(finite_part=((2, -2),))

    def deg2(self, precision_bits: int = DEFAULT_PRECISION_BITS) -> DegreeValue:
        """Degree in log2 units: arch + sum of m * log2(p) over places."""
        rational = self.archimedean_log2
        terms = []
        for p, m in self.finite_part:
            if p == 2:
                rational += m
            else:
                terms.append((p, m))
        return DegreeValue(rational, tuple(terms), precision_bits)


@record
class EulerCharacteristic:
    """The two dimensions and both sides of the identity at one divisor."""

    h0: int
    h1: int
    chi: int
    step_value: int
    deg2: DegreeValue


def euler_characteristic(
    divisor: ArakelovDivisor, precision_bits: int = DEFAULT_PRECISION_BITS
) -> EulerCharacteristic:
    """Compute h0, h1, chi = h0 - h1 and the step value ceil_prime(deg2) + 1,
    all closed forms of floor(deg2), so chi equals the step value.

    Takes the witness floor(2**deg2) first, and raises FormulaViolation
    unless its bit length gives h0 -- which would mean a bug in one of the
    dimension computations, never a property of the divisor.
    """
    deg = divisor.deg2(precision_bits)
    # Before the floor, so that a degree within 2**-cap of 0 runs out of
    # precision in sign(), with that message.
    a = deg.floor_pow2()
    k = deg.floor()
    h0, h1 = dim_h0(k), dim_h1(k)
    # floor(2**deg2) has h0 - 1 bits from degree 0 on, and is 0 below it.
    if (a.bit_length() + 1 if a else 0) != h0:
        raise FormulaViolation(
            f"dim H0 = {h0} from floor(deg2) = {k}, but floor(2**deg2) has "
            f"{a.bit_length()} bits at degree {deg}"
        )
    return EulerCharacteristic(h0=h0, h1=h1, chi=h0 - h1, step_value=ceil_prime(k) + 1, deg2=deg)


def _times(x: Fraction, d: int) -> int:
    """x * d, for d a multiple of x's denominator."""
    return x.numerator * (d // x.denominator)


def floor_pow2_has_bits(alpha: int, beta: int, bits: int) -> bool:
    """Whether floor(2**(alpha/beta)) has exactly ``bits`` bits, for ints
    alpha >= 0 and beta >= 1: whether 2**(bits-1) <= 2**(alpha/beta) < 2**bits,
    that is (bits - 1) * beta <= alpha < bits * beta, without building 2**alpha."""
    return (bits - 1) * beta <= alpha < bits * beta


@record
class ScanRow:
    deg2: Fraction
    h0: int
    h1: int
    chi: int
    step_value: int


@record
class ScanReport:
    """rr_scan's arguments, its point count and where its witness disagrees."""

    lo: Fraction
    hi: Fraction
    step: Fraction
    points: int
    violations: tuple[Fraction, ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def rows(self) -> tuple[ScanRow, ...]:
        """Each point with its closed forms, sorted, rebuilt at each read."""
        d, ys = _scan_points(self.lo, self.hi, self.step)
        rows = []
        for y in ys:
            x, k = Fraction(y, d), y // d
            h0, h1 = dim_h0(k), dim_h1(k)
            rows.append(ScanRow(x, h0, h1, h0 - h1, ceil_prime(k) + 1))
        return tuple(rows)


def _scan_points(lo: Fraction, hi: Fraction, step: Fraction) -> tuple[int, list[int]]:
    """(d, ys): the scan's points are y/d for the sorted ints ys."""
    probe = min(step, Fraction(1)) / 16
    d = math.lcm(lo.denominator, hi.denominator, step.denominator, probe.denominator)
    low, high, stride, offset = (_times(v, d) for v in (lo, hi, step, probe))
    # The integers n in range and their probes n +- offset in range.
    first = math.ceil(lo) * d
    left = first - offset if first - offset >= low else first - offset + d
    ys = set(range(low, high + 1, stride))
    ys.update(range(first, high + 1, d), range(first + offset, high + 1, d),
              range(left, high - offset + 1, d))
    return d, sorted(ys)


def rr_scan(lo, hi, step) -> ScanReport:
    """Check the identity on the rational grid lo, lo+step, ..., plus every
    integer in range and probes just left and right of each integer
    (the function is a step function; jumps happen exactly at integers).
    Raises SizeCapError when that is more than MAX_SCAN_POINTS points.
    Builds no row: ``ScanReport.rows`` builds them when read.
    """
    lo = _checked_rational(lo, "lo")
    hi = _checked_rational(hi, "hi")
    step = _checked_rational(step, "step")
    if hi < lo:
        raise DomainError("scan range is empty")
    if step <= 0:
        raise DomainError("step must be positive")
    integers = max(0, math.floor(hi) - math.ceil(lo) + 1)
    if math.floor((hi - lo) / step) + 1 + 3 * integers > MAX_SCAN_POINTS:
        raise SizeCapError(f"scan capped at {MAX_SCAN_POINTS} grid points and integer probes")
    d, ys = _scan_points(lo, hi, step)
    violations = []
    cell = None
    for y in ys:
        k = y // d
        # h0 is a closed form, constant on each cell [k, k + 1).
        if k != cell:
            cell, h0 = k, dim_h0(k)
        # The witness, as in euler_characteristic; below 0 both sides are 0.
        if y >= 0 and not floor_pow2_has_bits(y, d, h0 - 1):
            violations.append(Fraction(y, d))
    return ScanReport(lo, hi, step, len(ys), tuple(violations))


@record
class StepFunctionSeries:
    """Sampled graph of chi - 1 (the primed ceiling) against the degree."""

    lo: Fraction
    hi: Fraction
    samples: tuple[tuple[Fraction, int], ...]
    jump_points: tuple[Fraction, ...]


def figure_data(lo, hi, samples_per_unit: int = 16) -> StepFunctionSeries:
    """Sample chi - 1 on [lo, hi] and list the jump points (the integers
    strictly above lo and at most hi, since the step is right-closed).
    Raises SizeCapError when that is more than MAX_FIGURE_SAMPLES samples."""
    lo = _checked_rational(lo, "lo")
    hi = _checked_rational(hi, "hi")
    if not lo < hi:
        raise DomainError("figure range needs lo < hi")
    if not isinstance(samples_per_unit, int) or samples_per_unit < 1:
        raise DomainError("samples_per_unit must be a positive int")
    if math.floor((hi - lo) * samples_per_unit) + 1 > MAX_FIGURE_SAMPLES:
        raise SizeCapError(f"figure capped at {MAX_FIGURE_SAMPLES} samples")
    d = math.lcm(lo.denominator, hi.denominator, samples_per_unit)
    xs = (Fraction(y, d) for y in range(_times(lo, d), _times(hi, d) + 1, d // samples_per_unit))
    samples = [(x, ceil_prime(x)) for x in xs]
    jumps = tuple(
        Fraction(n) for n in range(math.floor(lo) + 1, math.floor(hi) + 1)
    )
    return StepFunctionSeries(lo=lo, hi=hi, samples=tuple(samples), jump_points=jumps)


def series_to_csv(series: StepFunctionSeries) -> str:
    """CSV with header deg2,chi_minus_1,is_jump (exact rationals as p/q)."""
    jumps = set(series.jump_points)
    lines = ["deg2,chi_minus_1,is_jump"]
    for x, value in series.samples:
        lines.append(f"{x},{value},{'true' if x in jumps else 'false'}")
    return "\n".join(lines) + "\n"


def series_to_json_obj(series: StepFunctionSeries) -> dict:
    jumps = set(series.jump_points)
    return {
        "lo": str(series.lo),
        "hi": str(series.hi),
        "samples": [
            {"deg2": str(x), "chi_minus_1": value, "is_jump": x in jumps}
            for x, value in series.samples
        ],
        "jump_points": [str(x) for x in series.jump_points],
    }


def series_to_svg(series: StepFunctionSeries) -> str:
    """Self-contained SVG of the step function: closed dot at each jump,
    open dot at the abandoned level."""
    width, height, margin = 640, 400, 48
    xs = [float(Fraction(x)) for x, _ in series.samples]
    values = [v for _, v in series.samples]
    x_lo, x_hi = float(series.lo), float(series.hi)
    v_lo, v_hi = min(values) - 1, max(values) + 1

    def sx(x: float) -> float:
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def sy(v: float) -> float:
        return height - margin - (v - v_lo) / (v_hi - v_lo) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    # Axes with integer ticks.
    parts.append(
        f'<line x1="{margin}" y1="{sy(0)}" x2="{width - margin}" y2="{sy(0)}" '
        'stroke="#888" stroke-width="1"/>'
    )
    if x_lo <= 0 <= x_hi:
        parts.append(
            f'<line x1="{sx(0)}" y1="{margin}" x2="{sx(0)}" y2="{height - margin}" '
            'stroke="#888" stroke-width="1"/>'
        )
    for n in range(math.ceil(x_lo), math.floor(x_hi) + 1):
        parts.append(
            f'<text x="{sx(n)}" y="{height - margin + 16}" font-size="11" '
            f'text-anchor="middle" fill="#444">{n}</text>'
        )
    for v in range(math.ceil(v_lo), math.floor(v_hi) + 1):
        parts.append(
            f'<text x="{margin - 8}" y="{sy(v) + 4}" font-size="11" '
            f'text-anchor="end" fill="#444">{v}</text>'
        )
    # Horizontal segments between consecutive jump points.
    boundaries = [series.lo] + list(series.jump_points) + [series.hi]
    for left, right in zip(boundaries, boundaries[1:]):
        if right <= left:
            continue
        level = ceil_prime(left)
        parts.append(
            f'<line x1="{sx(float(left))}" y1="{sy(level)}" '
            f'x2="{sx(float(right))}" y2="{sy(level)}" '
            'stroke="#1b6ca8" stroke-width="2"/>'
        )
    for j in series.jump_points:
        after = ceil_prime(j)
        before = ceil_prime(j - Fraction(1, 2))
        parts.append(
            f'<circle cx="{sx(float(j))}" cy="{sy(after)}" r="3.5" fill="#1b6ca8"/>'
        )
        parts.append(
            f'<circle cx="{sx(float(j))}" cy="{sy(before)}" r="3.5" fill="white" '
            'stroke="#1b6ca8" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
