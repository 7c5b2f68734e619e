"""The package's records against frozen dataclass twins, and the import cost.

Every record is built by ``arakelov_rr._record.record``.  Each one is
checked here against a frozen ``dataclasses.make_dataclass`` twin with
the record's field order and defaults: the same repr bytes, ``==`` and
hash on seeded values (a dict field makes both sides unhashable),
``FrozenInstanceError`` on assignment and deletion, and no ``__dict__``.
"""

import dataclasses
import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import arakelov_rr
from arakelov_rr import _record, circle_h1, divisor, gamma, interval_h0, negabinary

# (fields in order, defaults) as the frozen dataclasses declared them
SPECS = {
    circle_h1.CircleCertificate: (
        "m lam family sum_count sums_are_dyadic_grid covering separation"
        " cardinality_bound generating", {}),
    divisor.DegreeValue: (
        "rational_part log_terms precision_bits",
        {"log_terms": (), "precision_bits": 256}),
    divisor.ArakelovDivisor: (
        "finite_part archimedean_log2", {"finite_part": (), "archimedean_log2": Fraction(0)}),
    divisor.EulerCharacteristic: ("h0 h1 chi step_value deg2", {}),
    divisor.ScanRow: ("deg2 h0 h1 chi step_value", {}),
    divisor.ScanReport: ("lo hi step points violations", {}),
    divisor.StepFunctionSeries: ("lo hi samples jump_points", {}),
    gamma.PointedMap: ("source_size target_size image", {}),
    gamma.PointedVector: ("entries", {}),
    gamma.SubsetSpec: ("kind bound members", {"bound": None, "members": None}),
    interval_h0.GeneratingCertificate: ("a generators witnesses", {}),
    interval_h0.MinSearchResult: ("size witness certificate all_minima", {"all_minima": None}),
    negabinary.DeltaInterval: ("n lo hi", {}),
    negabinary.NegabinaryWord: ("digits", {}),
    negabinary.BijectionReport: (
        "n interval distinct_values injective onto_interval lo_witness hi_witness", {}),
}


def twin(cls):
    names, defaults = SPECS[cls]
    fields = []
    for name in names.split():
        kwargs = {"default": defaults[name]} if name in defaults else {}
        fields.append((name, object, dataclasses.field(**kwargs)))
    return dataclasses.make_dataclass(cls.__name__, fields, frozen=True)


def hashed(x):
    """hash(x), or the message of the TypeError it raises."""
    try:
        return hash(x)
    except TypeError as error:
        return str(error)


def samples(cls, rng):
    """Seeded instances of cls, built the way the package builds them; the
    first two are equal but distinct objects."""
    def pair_then(make, n=4):
        seeds = [rng.randrange(10 ** 6) for _ in range(n)]
        seeds.insert(1, seeds[0])
        return [make(random.Random(s)) for s in seeds]

    def degree(r):
        return divisor.DegreeValue(
            Fraction(r.randint(-40, 40), r.randint(1, 6)),
            tuple((r.choice((3, 5, 7)), r.randint(-2, 2)) for _ in range(r.randint(0, 2))),
            r.choice((64, 256)),
        )

    def arakelov(r):
        return divisor.ArakelovDivisor.from_places(
            {r.choice((2, 3, 5)): r.randint(-2, 2)}, Fraction(r.randint(-9, 9), r.randint(1, 4))
        )

    def scan(r):
        lo = Fraction(r.randint(-8, 4), r.randint(1, 3))
        return divisor.rr_scan(lo, lo + r.randint(0, 3), Fraction(1, r.randint(1, 4)))

    def pointed_map(r):
        k, m = r.randint(0, 3), r.randint(0, 3)
        return gamma.PointedMap(k, m, tuple(r.randint(0, m) for _ in range(k)))

    def subset(r):
        kind = r.choice(("symmetric", "integers", "explicit"))
        if kind == "symmetric":
            return gamma.SubsetSpec.symmetric(Fraction(r.randint(0, 9), r.randint(1, 3)))
        if kind == "integers":
            return gamma.SubsetSpec.integers(r.randint(0, 9))
        return gamma.SubsetSpec.explicit({0, r.randint(-3, 3), Fraction(1, r.randint(1, 3))})

    def generating(a):
        return interval_h0.generates(interval_h0.explicit_generating_set(a), a)

    def word(r):
        n = r.randint(1, 8)
        interval = negabinary.delta_interval(n)
        return negabinary.encode(r.randint(interval.lo, interval.hi), n)

    makers = {
        circle_h1.CircleCertificate: lambda r: circle_h1.certify_family(r.randint(1, 4)),
        divisor.DegreeValue: degree,
        divisor.ArakelovDivisor: arakelov,
        divisor.EulerCharacteristic: lambda r: divisor.euler_characteristic(arakelov(r)),
        divisor.ScanRow: lambda r: r.choice(scan(r).rows),
        divisor.ScanReport: scan,
        divisor.StepFunctionSeries: lambda r: divisor.figure_data(
            Fraction(r.randint(-4, 0), 2), Fraction(r.randint(1, 4), 3), r.randint(1, 4)),
        gamma.PointedMap: pointed_map,
        gamma.PointedVector: lambda r: gamma.vector(
            *(Fraction(r.randint(-5, 5), r.randint(1, 3)) for _ in range(r.randint(0, 3)))),
        gamma.SubsetSpec: subset,
        interval_h0.GeneratingCertificate: lambda r: generating(r.randint(1, 20)),
        interval_h0.MinSearchResult: lambda r: interval_h0.min_generating_set(
            r.randint(1, 9), report_all_minima=r.random() < 0.5),
        negabinary.DeltaInterval: lambda r: negabinary.delta_interval(r.randint(1, 9)),
        negabinary.NegabinaryWord: word,
        negabinary.BijectionReport: lambda r: negabinary.verify_bijection(r.randint(1, 8)),
    }
    return pair_then(makers[cls])


def record_classes():
    modules = (circle_h1, divisor, gamma, interval_h0, negabinary)
    return {
        value for module in modules for value in vars(module).values()
        if isinstance(value, type) and value.__setattr__ is _record._setattr
    }


def test_every_record_has_a_twin():
    assert record_classes() == set(SPECS)


@pytest.mark.parametrize("cls", list(SPECS), ids=lambda cls: cls.__name__)
def test_record_matches_its_dataclass_twin(cls):
    Twin = twin(cls)
    names = [f.name for f in dataclasses.fields(Twin)]
    assert cls.__slots__ == tuple(names)
    records = samples(cls, random.Random(f"{cls.__name__}-20261019"))
    twins = [Twin(*(getattr(x, name) for name in names)) for x in records]
    assert records[0] == records[1] and records[0] is not records[1]
    for x, t in zip(records, twins):
        assert repr(x) == repr(t)
        assert hashed(x) == hashed(t)
        assert x != t and t != x
        assert not hasattr(x, "__dict__")
        for name in names:
            frozen = dataclasses.FrozenInstanceError
            with pytest.raises(frozen, match=f"cannot assign to field '{name}'"):
                setattr(x, name, 0)
            with pytest.raises(frozen, match=f"cannot delete field '{name}'"):
                delattr(x, name)
    for (x, s), (y, u) in itertools.product(zip(records, twins), repeat=2):
        assert (x == y) == (s == u)
        assert (x != y) == (s != u)


@pytest.mark.parametrize("cls", [divisor.ScanRow, gamma.SubsetSpec, divisor.ArakelovDivisor],
                         ids=lambda cls: cls.__name__)
def test_records_bind_arguments_as_their_twins_do(cls):
    Twin = twin(cls)
    names = [f.name for f in dataclasses.fields(Twin)]
    values = {
        divisor.ScanRow: (Fraction(1, 2), 3, 0, 3, 3),
        gamma.SubsetSpec: ("symmetric", 2, None),
        divisor.ArakelovDivisor: (((3, 1),), Fraction(1, 3)),
    }[cls]
    defaults = SPECS[cls][1]
    by_name = dict(zip(names, values))
    calls = [
        (values, {}),
        ((), by_name),
        ((), dict(reversed(by_name.items()))),
        (values[:1], dict(zip(names[1:], values[1:]))),
    ]
    # positional prefixes that leave the rest to the defaults
    calls += [(values[:k], {}) for k in range(len(values)) if names[k] in defaults]
    for args, kwargs in calls:
        assert repr(cls(*args, **kwargs)) == repr(Twin(*args, **kwargs)), (args, kwargs)
    bad_calls = [
        (values + (0,), {}),  # too many positional arguments
        (values, {names[0]: values[0]}),  # one field twice
        ((), {"nope": 1, **by_name}),  # an unknown field
    ]
    if names[0] not in defaults:
        bad_calls.append(((), {}))  # a required field missing
    for args, kwargs in bad_calls:
        with pytest.raises(TypeError):
            Twin(*args, **kwargs)
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_post_init_is_looked_up_on_the_instance(monkeypatch):
    # bench/tracer.py wraps PointedVector.__post_init__ on its class
    calls = []
    original = gamma.PointedVector.__dict__["__post_init__"]

    def counted(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(gamma.PointedVector, "__post_init__", counted)
    x = gamma.vector(1, Fraction(1, 2))
    assert calls == [x]


def test_a_default_before_a_required_field_is_refused():
    with pytest.raises(TypeError):
        @_record.record
        class Bad:
            a: int = 0
            b: int


def test_importing_the_cli_loads_no_dataclasses_inspect_or_typing():
    # A fresh process, without site: these three modules used to be loaded
    # only to build the records, and with them came most of the import time.
    src = Path(arakelov_rr.__file__).resolve().parent.parent
    code = (
        "import sys, arakelov_rr.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}, check=True,
    ).stdout
    assert out == "[]\n"
