"""Seeded operation streams for the benchmark workloads.

An operation is a CLI argv (always with ``--format json``) plus the
answer the benchmark expects.  The expected answers are derived here,
without calling the package under test, from the paper's closed forms:
``h0 = floor(deg) + 2`` for ``deg >= 0``, ``h1 = max(0, -floor(deg) - 1)``,
the negabinary window endpoints, and the minimal sizes ``a.bit_length() + 1``.

Each workload is a stream of *cycles*.  A cycle has a fixed composition
(which commands, and which size class each one draws from); the seed
chooses the concrete inputs inside each size class and the order of the
cycle.  The runner measures whole cycles, so every run executes the same
mix whatever its seed, and the run-to-run spread comes from the inputs
and the machine rather than from an uneven mix.

Where the cost of a command swings widely inside its size class, the
cycle draws its input from the cycle's *phase* instead of the seeded
generator: a point of a Kronecker sequence, which fills the unit cube
evenly cycle after cycle from a seeded start.  A run of many cycles then
covers each size class evenly, and its total cost hardly depends on the
seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, Optional

JSON = ["--format", "json"]

#: Marker written into an expected field by the planted-wrong-answer self-test.
PLANTED = "planted-wrong-answer"

#: Steps of the phase sequence; 1 and these three are rationally
#: independent, so the phases of successive cycles fill the unit cube.
PHASE_STEPS = ((math.sqrt(5) - 1) / 2, math.sqrt(2) - 1, math.sqrt(3) - 1)

#: A cycle's phase: three numbers in [0, 1).
Phase = tuple[float, float, float]


def _shifted(phase: Phase, n: int) -> list[Phase]:
    """n copies of the phase, the i-th shifted by i/n: each copy still
    fills the cube over the cycles, at a different point in each cycle."""
    return [tuple((x + i / n) % 1 for x in phase) for i in range(n)]


def _pick(lo: int, hi: int, u: float) -> int:
    """The integer of [lo, hi] that the uniform ``u`` selects."""
    return lo + int(u * (hi - lo + 1))


@dataclass(frozen=True)
class Op:
    """One CLI command and the answer it must produce."""

    kind: str
    argv: tuple[str, ...]
    exit_code: int = 0
    fields: dict = field(default_factory=dict)
    extra: Optional[Callable[[dict], Optional[str]]] = None

    def check(self, code: int, payload: dict) -> Optional[str]:
        """None when the answer is right, else why it is wrong."""
        if code != self.exit_code:
            return f"exit code {code}, expected {self.exit_code}"
        for key, want in self.fields.items():
            got = payload.get(key)
            if got != want:
                return f"{key} = {_short(got)}, expected {_short(want)}"
        return self.extra(payload) if self.extra else None

    def planted(self) -> "Op":
        """The same command with one expected field deliberately wrong."""
        key = next(iter(self.fields))
        return replace(self, fields={**self.fields, key: PLANTED})


def _short(value, limit: int = 80) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[: limit - 3] + "..."


# ---------------------------------------------------------------- euler_stream

#: Places come mostly from these small odd primes, so log2 enclosures repeat.
SMALL_PRIMES = (3, 5, 7, 11, 13)

#: Known primes far from the small ones (2**31 - 1, 2**61 - 1, ...).
LARGE_PRIMES = (
    1000003,
    998244353,
    1000000007,
    2147483647,
    4294967291,
    2305843009213693951,
)

#: Degree magnitudes are log-uniform on [2**-4, 10**5].
LOG2_MIN_DEGREE = -4.0
LOG2_MAX_DEGREE = math.log2(10**5)

#: The library materializes floor(2**deg) as an integer root while
#: (floor(deg) + 2) * denominator <= 2**20, and bisects with log2
#: comparisons (floor_pow2_bracketed) above that.  A denominator of 2**18
#: puts every degree of at least 3 on the bisection path.
BRACKETED_DENOMINATOR = 1 << 18

#: Positive-degree operations materialize floor(2**deg) as the
#: denominator-th root of 2**numerator, an integer of about deg *
#: denominator bits, at a cost that grows faster than linearly in it.
#: Denominators run from 2 to 12 but keep deg * denominator under
#: ROOT_BITS_CAP (at least 2, so the top degrees still take a real root):
#: the costliest operation then takes a few hundred milliseconds.
ROOT_BITS_CAP = 150_000
MAX_DENOMINATOR = 12

#: Degree range of the one costliest positive operation of each cycle.
TOP_DEGREE = (90_000.0, 100_000.0)

EULER_POSITIVE_OPS = 27
EULER_NEGATIVE_OPS = 9
EULER_BRACKETED_OPS = 4

_LOG2_CACHE: dict[int, Decimal] = {}
_DECIMAL_DIGITS = 60
_DECIMAL_MARGIN = Decimal(10) ** -40


def _log2_decimal(p: int) -> Decimal:
    """log2(p) to 60 significant digits (Decimal.ln is correctly rounded)."""
    if p not in _LOG2_CACHE:
        with localcontext() as ctx:
            ctx.prec = _DECIMAL_DIGITS
            _LOG2_CACHE[p] = Decimal(p).ln() / Decimal(2).ln()
    return _LOG2_CACHE[p]


def _at_most_degree(n: int, rational: Fraction, places: dict[int, int]) -> bool:
    """Exactly whether n <= rational + sum(m * log2(p)).

    With rational = a/b, P the product of p**m over m > 0 and Q over
    m < 0, this is 2**(n*b - a) * Q**b <= P**b in integers.
    """
    a, b = rational.numerator, rational.denominator
    num = den = 1
    for p, m in places.items():
        if m > 0:
            num *= p**m
        else:
            den *= p ** (-m)
    lhs, rhs = den**b, num**b
    e = n * b - a
    if e >= 0:
        lhs <<= e
    else:
        rhs <<= -e
    return lhs <= rhs


def floor_degree(arch: Fraction, places: dict[int, int]) -> int:
    """floor(arch + sum(m * log2(p))) decided exactly.

    A 60-digit Decimal estimate settles it unless the degree lies within
    1e-40 of an integer; then exact integer comparison decides.
    """
    rational = arch + sum(m for p, m in places.items() if p == 2)
    odd = {p: m for p, m in places.items() if p != 2 and m != 0}
    if not odd:
        return math.floor(rational)
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        x = Decimal(rational.numerator) / Decimal(rational.denominator)
        for p, m in odd.items():
            x += m * _log2_decimal(p)
        n = int(x.to_integral_value(rounding="ROUND_FLOOR"))
        if _DECIMAL_MARGIN < x - n < 1 - _DECIMAL_MARGIN:
            return n
    while not _at_most_degree(n, rational, odd):
        n -= 1
    while _at_most_degree(n + 1, rational, odd):
        n += 1
    return n


def euler_op(arch: Fraction, places: list[tuple[int, int]], kind: str = "euler") -> Op:
    merged: dict[int, int] = {}
    for p, m in places:
        merged[p] = merged.get(p, 0) + m
    fl = floor_degree(arch, merged)
    h0 = fl + 2 if fl >= 0 else 0
    h1 = max(0, -fl - 1)
    argv = JSON + ["euler", f"--arch={arch}"] + [f"--place={p}:{m}" for p, m in places]
    return Op(
        kind=kind,
        argv=tuple(argv),
        fields={"h0": h0, "h1": h1, "chi": h0 - h1, "step_value": h0 - h1},
    )


#: Number of places of an euler command, indexed by a uniform draw:
#: 0, 1, 2 or 3 places with weights 6, 6, 5 and 3.
PLACE_COUNTS = (0,) * 6 + (1,) * 6 + (2,) * 5 + (3,) * 3


def _random_places(rng: random.Random, u: float) -> list[tuple[int, int]]:
    """Places whose number comes from the uniform ``u``."""
    count = PLACE_COUNTS[int(u * len(PLACE_COUNTS))]
    places = []
    for i in range(count):
        if i == 0 and rng.random() < 0.08:
            p = rng.choice(LARGE_PRIMES)
        else:
            p = rng.choice(SMALL_PRIMES)
        places.append((p, rng.choice((-3, -2, -1, 1, 2, 3))))
    return places


def _arch_for(target: float, places, denominator: int) -> Fraction:
    """The archimedean part, in lowest terms over ``denominator``, that
    brings the degree to about ``target``.

    The denominator must not shrink: with places, a degree whose rational
    part is an integer takes the cheap integer path of floor(2**deg)
    instead of the root or the bisection.
    """
    logs = sum(m * math.log2(p) for p, m in places)
    numerator = round((target - logs) * denominator)
    while math.gcd(numerator, denominator) != 1:
        numerator += 1
    return Fraction(numerator, denominator)


def _log_uniform_magnitudes(rng: random.Random, count: int) -> list[float]:
    """One magnitude from each of ``count`` equal log2 strata of
    [2**LOG2_MIN_DEGREE, 2**LOG2_MAX_DEGREE]."""
    width = (LOG2_MAX_DEGREE - LOG2_MIN_DEGREE) / count
    return [2 ** (LOG2_MIN_DEGREE + width * (i + rng.random())) for i in range(count)]


def euler_cycle(rng: random.Random, phase: Phase) -> list[Op]:
    """27 positive and 9 negative degrees with small denominators, plus 4
    with denominators large enough for the bracketed floor of 2**deg.

    The negative magnitudes are stratified log-uniformly over the whole
    range.  The positive ones are stratified over [2**-4, TOP_DEGREE[0]],
    with one more in TOP_DEGREE at denominator 2, so the costliest
    commands of every cycle cost about the same and the latency tail does
    not hinge on a few draws.

    A positive command without places is cheap; with places it costs
    about the square of deg * denominator, which varies 40-fold inside one
    stratum.  So its place in the stratum, its denominator and its number
    of places come from the phase, shifted by the stratum's index.
    """
    ops = []
    strata = EULER_POSITIVE_OPS - 1
    shifted = _shifted(phase, strata + 1)
    width = (math.log2(TOP_DEGREE[0]) - LOG2_MIN_DEGREE) / strata
    positive = [2 ** (LOG2_MIN_DEGREE + width * (i + u[0])) for i, u in enumerate(shifted)]
    positive[-1] = TOP_DEGREE[0] + (TOP_DEGREE[1] - TOP_DEGREE[0]) * shifted[-1][0]
    for magnitude, (_, v, w) in zip(positive, shifted):
        largest = max(2, min(MAX_DENOMINATOR, int(ROOT_BITS_CAP / magnitude)))
        places = _random_places(rng, w)
        arch = _arch_for(magnitude, places, _pick(2, largest, v))
        ops.append(euler_op(arch, places))
    for magnitude in _log_uniform_magnitudes(rng, EULER_NEGATIVE_OPS):
        places = _random_places(rng, rng.random())
        arch = _arch_for(-magnitude, places, rng.randint(1, MAX_DENOMINATOR))
        ops.append(euler_op(arch, places))
    for _ in range(EULER_BRACKETED_OPS):
        target = 2 ** rng.uniform(2.0, 6.0)
        places = _random_places(rng, rng.random())
        arch = _arch_for(target, places, BRACKETED_DENOMINATOR)
        ops.append(euler_op(arch, places, kind="euler-bracketed"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------- certificate_stream

#: First minimal witness (combination order) reported by ``min-gen A``.
MIN_GEN_FIRST_WITNESS = {
    1: (-1, 1),
    2: (-2, -1, 2),
    3: (-3, 1, 2),
    4: (-4, -2, -1, 4),
    5: (-5, 1, 2, 3),
    6: (-6, 1, 2, 3),
    7: (-7, 1, 2, 4),
    8: (-8, -4, -2, -1, 8),
    9: (-9, 1, 2, 3, 4),
    10: (-10, 1, 2, 3, 4),
    11: (-11, 1, 2, 3, 5),
    12: (-12, 1, 2, 3, 6),
    13: (-13, 1, 2, 3, 7),
    14: (-14, 1, 2, 4, 7),
    15: (-15, 1, 2, 4, 8),
    16: (-16, -8, -4, -2, -1, 16),
    17: (-17, 1, 2, 3, 4, 7),
    18: (-18, 1, 2, 3, 4, 8),
    19: (-19, 1, 2, 3, 4, 9),
    20: (-20, 1, 2, 3, 4, 10),
}


def floor_pow2(deg: Fraction) -> int:
    """floor(2**deg) for rational deg >= 0 by bisection on t**b <= 2**a."""
    a, b = deg.numerator, deg.denominator
    lo, hi = 1 << (a // b), 1 << (a // b + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**b <= 1 << a:
            lo = mid
        else:
            hi = mid
    return lo


def dim_h0_op(deg: Fraction) -> Op:
    fl = math.floor(deg)
    bound = floor_pow2(deg)
    size = fl + 2

    def generating_set_size(payload: dict) -> Optional[str]:
        gens = payload.get("generating_set")
        if not isinstance(gens, list) or len(gens) != size:
            return f"generating set {_short(gens)} does not have {size} elements"
        return None

    return Op(
        kind="dim-h0",
        argv=tuple(JSON + ["dim-h0", str(deg)]),
        fields={
            "dim_h0": size,
            "n": fl + 1,
            "interval_bound": str(bound),
            "certified": True,
        },
        extra=generating_set_size,
    )


def dim_h1_op(deg: Fraction) -> Op:
    m = max(0, -math.floor(deg) - 1)
    return Op(
        kind="dim-h1",
        argv=tuple(JSON + ["dim-h1", str(deg)]),
        fields={
            "dim_h1": m,
            "family_certified": True,
            "lambda": str(Fraction(1, 2 ** (m + 1))),
        },
    )


def negabinary_window(n: int) -> list[int]:
    """Most negative and most positive width-n values: signed weight sums."""
    weights = [(-2) ** i for i in range(n)]
    return [sum(w for w in weights if w < 0), sum(w for w in weights if w > 0)]


def negabinary_op(width: int) -> Op:
    return Op(
        kind="negabinary-verify",
        argv=tuple(JSON + ["negabinary", "verify", str(width)]),
        fields={
            "passed": True,
            "width": width,
            "window": negabinary_window(width),
            "distinct_values": 2**width,
            "injective": True,
            "onto_interval": True,
        },
    )


def min_gen_op(a: int) -> Op:
    size = a.bit_length() + 1
    return Op(
        kind="min-gen",
        argv=tuple(JSON + ["min-gen", str(a)]),
        fields={
            "certified": True,
            "size": size,
            "lower_bound": size,
            "witness": list(MIN_GEN_FIRST_WITNESS[a]),
        },
    )


def _rational_in(rng: random.Random, lo: int, hi: int, max_den: int = 8) -> Fraction:
    """A rational in [lo, hi) with a small denominator."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randrange(lo * den, hi * den), den)


def certificate_cycle(rng: random.Random, phase: Phase) -> list[Op]:
    """Light commands with seeded sizes, plus the heaviest sizes of each
    certificate command at a fixed count per cycle.

    The sizes of dim-h1, negabinary verify and min-gen below the heaviest
    come from the phase, because their cost grows exponentially with the
    size and a run holds only 7 to 9 cycles.

    The latency tail is the 11th-largest latency of a run.  One command
    per cycle (min-gen 20) costs more than dim-h1 at m = 13 and width 18,
    which cost about the same; for any run of 4 to 10 cycles the tail
    therefore falls among those two, whose cost does not depend on the
    seed.  Seventeen dim-h0 commands keep the median on the cheap
    commands rather than on the edge between cheap and costly ones.
    """
    ops = [dim_h0_op(_rational_in(rng, 5 * i // 4, 5 * (i + 1) // 4)) for i in range(16)]
    ops.append(dim_h0_op(Fraction(20)))
    u = iter(p[0] for p in _shifted(phase, 7))
    ops += [dim_h1_op(_rational_in(rng, -m - 1, -m))
            for m in (_pick(1, 5, next(u)), _pick(6, 10, next(u)), 12, 13)]
    ops += [negabinary_op(w) for w in (_pick(1, 9, next(u)), _pick(10, 15, next(u)), 17, 18)]
    ops += [min_gen_op(a)
            for a in (_pick(1, 7, next(u)), _pick(8, 12, next(u)), _pick(13, 15, next(u)), 20)]
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------ self_audit

SUITES_ALL = [
    "pointed-maps",
    "negabinary",
    "interval-golden-table",
    "interval-construction",
    "circle-families",
    "euler-identity",
]


def _suites_pass(names: list[str]) -> Callable[[dict], Optional[str]]:
    def check(payload: dict) -> Optional[str]:
        suites = payload.get("suites") or []
        got = [s.get("name") for s in suites]
        if got != names:
            return f"suites {got}, expected {names}"
        for s in suites:
            if not s.get("passed") or s.get("checks", 0) < 1:
                return f"suite {s.get('name')} did not pass with checks"
        return None

    return check


def verify_op(kind: str, argv: list[str], suites: list[str]) -> Op:
    return Op(
        kind=kind,
        argv=tuple(JSON + argv),
        fields={"passed": True},
        extra=_suites_pass(suites),
    )


def _fault_detected(payload: dict) -> Optional[str]:
    failing = [s for s in payload.get("suites") or [] if not s.get("passed")]
    if [s.get("name") for s in failing] != ["interval-golden-table"]:
        return f"failing suites {[s.get('name') for s in failing]}, expected the golden table only"
    if not any(f.startswith("a=7:") for f in failing[0].get("failures", [])):
        return "the injected fault at a=7 is not reported"
    return None


def inject_fault_op() -> Op:
    return Op(
        kind="verify-all-inject-fault",
        argv=tuple(JSON + ["verify-all", "--inject-fault"]),
        exit_code=1,
        fields={"passed": False},
        extra=_fault_detected,
    )


def scan_points(lo: Fraction, hi: Fraction, step: Fraction) -> int:
    """Grid lo, lo + step, ... <= hi, plus each integer in range and the
    probes min(step, 1)/16 to either side of it that stay in range."""
    points = {lo + i * step for i in range(int((hi - lo) / step) + 1)}
    probe = min(step, Fraction(1)) / 16
    for n in range(math.ceil(lo), math.floor(hi) + 1):
        points.add(Fraction(n))
        points.update(x for x in (n - probe, n + probe) if lo <= x <= hi)
    return len(points)


def scan_op(lo: Fraction, hi: Fraction, step: Fraction) -> Op:
    return Op(
        kind="scan",
        argv=tuple(JSON + ["scan", str(lo), str(hi), f"--step={step}"]),
        fields={"passed": True, "points": scan_points(lo, hi, step), "violations": []},
    )


def _scan(rng: random.Random, half_width: int, steps: tuple[int, ...]) -> Op:
    """A scan of the given half-width, centred near 0: positive degrees
    cost more than negative ones, so off-centre scans of one width would
    not cost the same."""
    lo = Fraction(rng.randint(-4 * half_width - 8, -4 * half_width + 8), 4)
    return scan_op(lo, lo + 2 * half_width, Fraction(1, rng.choice(steps)))


def audit_cycle(rng: random.Random, phase: Phase) -> list[Op]:
    """verify-all and its fault-injection self-test once each, the
    golden-table audit twice, the circle audit at three seeded sizes and
    at full size, and ten grid scans: 3 small, 6 medium, 1 large.

    The medium scans share one width, cost about the same and take the
    middle ranks of a cycle's latencies, so the median falls on them.  The
    two verify-all runs and the golden-table audits take the top ranks, so
    for runs of 3 to 5 cycles the latency tail falls on the golden-table
    audits.

    The golden-table and circle audits below full size and the large scan
    take their sizes from the phase, because their cost grows steeply with
    the size and a run holds only 3 to 5 cycles.
    """
    u = iter(p[0] for p in _shifted(phase, 6))
    ops = [
        verify_op("verify-all", ["verify-all"], SUITES_ALL),
        inject_fault_op(),
    ]
    lemma = ["interval-golden-table", "interval-construction"]
    for a_max in (_pick(16, 256, next(u)), _pick(257, 1024, next(u))):
        ops.append(
            verify_op("verify-lemma33", ["verify-lemma33", f"--construction-max={a_max}"], lemma)
        )
    for m_max in (_pick(1, 5, next(u)), _pick(6, 8, next(u)), _pick(9, 10, next(u)), 12):
        ops.append(verify_op("verify-h1", ["verify-h1", f"--max-m={m_max}"], ["circle-families"]))
    ops += [_scan(rng, rng.randint(2, 6), (1, 2)) for _ in range(3)]
    ops += [_scan(rng, 22, (8,)) for _ in range(6)]
    ops.append(_scan(rng, _pick(30, 36, next(u)), (8,)))
    rng.shuffle(ops)
    return ops


# ------------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: Callable[[random.Random, Phase], list[Op]]
    #: Kind of the operation that the planted-wrong-answer self-test uses.
    selftest_kind: str
    #: Layers that must see calls in a traced run, or the workload missed
    #: what it exists to measure.
    intended_layers: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "euler_stream",
            euler_cycle,
            "euler",
            (
                "cli.main",
                "divisor.euler_characteristic",
                "divisor.DegreeValue.floor",
                "divisor.DegreeValue.compare",
                "divisor.DegreeValue.floor_pow2",
                "exact.log2_bounds",
                "exact.nth_root_floor_fraction",
                "exact.floor_pow2_rational",
                "exact.floor_pow2_bracketed",
                "exact.is_prime",
                "interval_h0.dim_h0",
            ),
        ),
        Workload(
            "certificate_stream",
            certificate_cycle,
            "dim-h0",
            (
                "cli.main",
                "interval_h0.covers",
                "interval_h0.generates",
                "interval_h0.dim_h0",
                "interval_h0.min_generating_set",
                "circle_h1.subset_sums",
                "circle_h1.is_generating",
                "circle_h1.certify_family",
                "circle_h1.covering_radius",
                "negabinary.verify_bijection",
            ),
        ),
        Workload(
            "self_audit",
            audit_cycle,
            "scan",
            (
                "cli.main",
                "interval_h0.covers",
                "interval_h0.generates",
                "interval_h0.min_generating_set",
                "negabinary.encode",
                "negabinary.delta_interval",
                "gamma.member_subfunctor",
                "gamma.pushforward",
                "gamma.smash_action",
                "gamma.PointedVector.__post_init__",
                "verify.verify_pointed_maps",
                "verify.verify_negabinary",
                "verify.verify_golden_table",
                "verify.verify_construction",
                "verify.verify_circle",
                "verify.verify_identity",
            ),
        ),
    )
}


def cycles(workload: Workload, seed: int) -> Iterator[list[Op]]:
    """The workload's endless stream of cycles for one seed."""
    rng = random.Random(f"{workload.name}/{seed}")
    start = [rng.random() for _ in PHASE_STEPS]
    for k in count():
        phase = tuple((u + k * step) % 1 for u, step in zip(start, PHASE_STEPS))
        yield workload.cycle(rng, phase)


#: Warm-up command of the set-up measurement: deg = 1/3 + log2(3).
WARM_UP = euler_op(Fraction(1, 3), [(3, 1)], kind="warm-up")
