"""Pointed maps and subset-sum modules against a brute-force oracle."""

import itertools
from fractions import Fraction

import hypothesis
import hypothesis.strategies as st
import pytest

from arakelov_rr import gamma, verify
from arakelov_rr.errors import DomainError, LevelMismatchError, SizeCapError


# ---------------------------------------------------------------------------
# independent oracle: enumerate every index subset with itertools
# ---------------------------------------------------------------------------


def all_subset_sums(entries):
    sums = []
    for r in range(len(entries) + 1):
        for combo in itertools.combinations(range(len(entries)), r):
            sums.append(sum((entries[i] for i in combo), 0))
    return sums


def oracle_member(entries, spec):
    return all(spec.contains(s) for s in all_subset_sums(entries))


scalars = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-12, max_value=12, max_denominator=4),
)

small_vectors = st.lists(scalars, min_size=0, max_size=8).map(
    lambda es: gamma.vector(*es)
)

specs = st.one_of(
    st.integers(0, 6).map(gamma.SubsetSpec.integers),
    st.fractions(min_value=0, max_value=8, max_denominator=4).map(
        gamma.SubsetSpec.symmetric
    ),
    st.lists(scalars, max_size=6).map(
        lambda vs: gamma.SubsetSpec.explicit([0, *vs])
    ),
)


def pointed_maps(max_size=4):
    def build(sizes):
        k, m = sizes
        return st.tuples(*([st.integers(0, m)] * k)).map(
            lambda image: gamma.PointedMap(k, m, image)
        )

    return st.tuples(
        st.integers(0, max_size), st.integers(0, max_size)
    ).flatmap(build)


def vectors_of_level(k):
    return st.tuples(*([scalars] * k)).map(lambda es: gamma.vector(*es))


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


@hypothesis.given(small_vectors, specs)
def test_member_subfunctor_matches_bruteforce(x, spec):
    assert gamma.member_subfunctor(x, spec) == oracle_member(x.entries, spec)


def test_member_subfunctor_exhaustive_small():
    spec_int = gamma.SubsetSpec.integers(2)
    spec_sym = gamma.SubsetSpec.symmetric(Fraction(3, 2))
    # the second grid mixes denominators, so the test scales by their lcm
    grids = ([-2, -1, 0, 1, 2], [Fraction(-3, 2), Fraction(-1, 4), 0, Fraction(1, 2), 1])
    for grid in grids:
        for k in range(5):
            for entries in itertools.product(grid, repeat=k):
                x = gamma.vector(*entries)
                for spec in (spec_int, spec_sym):
                    assert gamma.member_subfunctor(x, spec) == oracle_member(
                        entries, spec
                    )


def test_member_known_cases():
    # the subset {2, 1} of (2, -2, 1) sums to 3, outside [-2, 2]
    x = gamma.vector(2, -2, 1)
    assert gamma.member_subfunctor(x, gamma.SubsetSpec.integers(2)) is False
    assert gamma.member_subfunctor(x, gamma.SubsetSpec.integers(3)) is True
    assert gamma.member_subfunctor(x, gamma.SubsetSpec.symmetric(2)) is False
    assert gamma.member_subfunctor(x, gamma.SubsetSpec.symmetric(3)) is True


def test_member_integer_spec_rejects_fractional_sums():
    x = gamma.vector(Fraction(1, 2))
    assert not gamma.member_subfunctor(x, gamma.SubsetSpec.integers(2))
    assert gamma.member_subfunctor(x, gamma.SubsetSpec.symmetric(Fraction(1, 2)))


def test_member_empty_vector_needs_only_zero():
    empty = gamma.vector()
    assert gamma.member_subfunctor(empty, gamma.SubsetSpec.explicit([0]))
    assert gamma.member_subfunctor(empty, gamma.SubsetSpec.integers(0))


def test_explicit_spec_must_contain_zero():
    with pytest.raises(DomainError):
        gamma.SubsetSpec.explicit([1, 2])


def test_member_cap():
    big = gamma.vector(*([0] * (gamma.SUBSET_ENUM_CAP + 1)))
    with pytest.raises(SizeCapError):
        gamma.member_subfunctor(big, gamma.SubsetSpec.integers(1))


@hypothesis.given(small_vectors, st.fractions(min_value=0, max_value=10, max_denominator=4))
def test_fast_symmetric_agrees_with_reference(x, bound):
    # the extreme subset sums are the positive part and the negative part
    expected = gamma.member_subfunctor(x, gamma.SubsetSpec.symmetric(bound))
    assert gamma.member_fast_symmetric(x, bound) == expected


@hypothesis.given(small_vectors, st.fractions(min_value=0, max_value=10, max_denominator=4))
def test_member_norm_is_l1(x, bound):
    assert gamma.member_norm(x, bound) == (
        sum(abs(e) for e in x.entries) <= bound
    )


@hypothesis.given(small_vectors, st.fractions(min_value=0, max_value=10, max_denominator=4))
def test_norm_module_inside_symmetric_module(x, bound):
    if gamma.member_norm(x, bound):
        assert gamma.member_fast_symmetric(x, bound)


# ---------------------------------------------------------------------------
# pushforward: functor laws
# ---------------------------------------------------------------------------


@hypothesis.given(st.integers(0, 6).flatmap(lambda k: vectors_of_level(k)))
def test_pushforward_identity(x):
    # F(id) = id
    assert gamma.pushforward(gamma.PointedMap.identity(x.level), x) == x


@hypothesis.given(st.data())
def test_pushforward_composition(data):
    # F(phi . psi) = F(phi) . F(psi)
    k = data.draw(st.integers(0, 4))
    m = data.draw(st.integers(0, 4))
    p = data.draw(st.integers(0, 4))
    psi = gamma.PointedMap(k, m, data.draw(st.tuples(*([st.integers(0, m)] * k))))
    phi = gamma.PointedMap(m, p, data.draw(st.tuples(*([st.integers(0, p)] * m))))
    x = data.draw(vectors_of_level(k))
    lhs = gamma.pushforward(phi.compose(psi), x)
    rhs = gamma.pushforward(phi, gamma.pushforward(psi, x))
    assert lhs == rhs


@hypothesis.given(pointed_maps(), st.data())
def test_pushforward_additive_in_the_vector(phi, data):
    x = data.draw(vectors_of_level(phi.source_size))
    y = data.draw(vectors_of_level(phi.source_size))
    total = gamma.vector(*(a + b for a, b in zip(x.entries, y.entries)))
    pushed = gamma.pushforward(phi, total)
    px = gamma.pushforward(phi, x)
    py = gamma.pushforward(phi, y)
    assert pushed.entries == tuple(a + b for a, b in zip(px.entries, py.entries))


def test_collapse_and_select():
    x = gamma.vector(3, Fraction(-1, 2), 4)
    # the fold 3+ -> 1+ sums every entry
    collapse = gamma.PointedMap(3, 1, (1, 1, 1))
    assert gamma.pushforward(collapse, x).entries == (sum(x.entries),)
    for j in (1, 2, 3):
        # keep element j, send the rest to the base point
        select = gamma.PointedMap(3, 1, tuple(int(i == j) for i in (1, 2, 3)))
        assert gamma.pushforward(select, x).entries == (x.entries[j - 1],)


def test_pushforward_drops_basepoint_entries():
    phi = gamma.PointedMap(3, 2, (2, 0, 2))
    x = gamma.vector(1, 100, Fraction(1, 4))
    assert gamma.pushforward(phi, x).entries == (0, Fraction(5, 4))


@hypothesis.given(pointed_maps(), st.data())
def test_subfunctor_closed_under_pushforward(phi, data):
    # every subset sum of the image is already a subset sum of the source,
    # so membership survives any pointed map
    x = data.draw(vectors_of_level(phi.source_size))
    spec = data.draw(specs)
    if gamma.member_subfunctor(x, spec):
        assert gamma.member_subfunctor(gamma.pushforward(phi, x), spec)


def test_closure_exhaustive_small():
    spec = gamma.SubsetSpec.integers(2)
    grid = [-2, 0, 1, 2]
    for k in range(4):
        for m in range(4):
            images = itertools.product(range(m + 1), repeat=k)
            maps = [gamma.PointedMap(k, m, img) for img in images]
            for entries in itertools.product(grid, repeat=k):
                x = gamma.vector(*entries)
                if not gamma.member_subfunctor(x, spec):
                    continue
                for phi in maps:
                    assert gamma.member_subfunctor(gamma.pushforward(phi, x), spec)


# ---------------------------------------------------------------------------
# smash action
# ---------------------------------------------------------------------------


def test_smash_row_major_order():
    alpha = gamma.vector(Fraction(1, 2), Fraction(1, 2))
    a = gamma.vector(3, 4)
    assert gamma.smash_action(alpha, a).entries == (
        Fraction(3, 2),
        2,
        Fraction(3, 2),
        2,
    )


def test_smash_rejects_heavy_actor():
    with pytest.raises(DomainError):
        gamma.smash_action(gamma.vector(1, 1), gamma.vector(1))


unit_mass = st.lists(
    st.fractions(min_value=-1, max_value=1, max_denominator=6), max_size=4
).filter(lambda es: sum(abs(e) for e in es) <= 1)


@hypothesis.given(unit_mass, small_vectors, st.fractions(min_value=0, max_value=8, max_denominator=4))
@hypothesis.example([Fraction(0)] * 4, gamma.vector(0, 0, 0, 0), Fraction(4))
@hypothesis.example([Fraction(1, 6)] * 4, gamma.vector(1, -1, 2, -2), Fraction(3))
def test_smash_preserves_symmetric_membership(alpha_entries, a, bound):
    # acting by a unit-l1-mass tuple keeps every subset sum inside [-b, b]
    alpha = gamma.vector(*alpha_entries)
    hypothesis.assume(gamma.member_fast_symmetric(a, bound))
    product = gamma.smash_action(alpha, a)
    assert gamma.member_fast_symmetric(product, bound)
    assert gamma.member_subfunctor(product, gamma.SubsetSpec.symmetric(bound))


@hypothesis.given(unit_mass, small_vectors, st.fractions(min_value=0, max_value=8, max_denominator=4))
def test_smash_contracts_l1_norm(alpha_entries, a, bound):
    alpha = gamma.vector(*alpha_entries)
    hypothesis.assume(gamma.member_norm(a, bound))
    assert gamma.member_norm(gamma.smash_action(alpha, a), bound)


def test_smash_basepoint_collapses():
    alpha = gamma.vector(Fraction(1, 2))
    assert gamma.smash_action(alpha, gamma.vector(0, 0)).entries == (0, 0)
    assert gamma.smash_action(gamma.vector(0), gamma.vector(5, 6)).entries == (0, 0)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_vector_rejects_floats_and_bools():
    with pytest.raises(DomainError):
        gamma.vector(0.5)
    with pytest.raises(DomainError):
        gamma.vector(True)


def test_map_validation():
    with pytest.raises(LevelMismatchError):
        gamma.PointedMap(2, 2, (1,))
    with pytest.raises(DomainError):
        gamma.PointedMap(1, 2, (3,))
    with pytest.raises(DomainError):
        gamma.PointedMap(1, 2, (-1,))


def test_compose_level_mismatch():
    with pytest.raises(LevelMismatchError):
        gamma.PointedMap.identity(2).compose(gamma.PointedMap.identity(3))


def test_compose_equals_the_validated_constructor():
    # compose builds its map without __post_init__; on every composable pair
    # of level <= 2 it must be the checked map of the composed functions
    maps = [
        gamma.PointedMap(k, m, image)
        for k in range(3) for m in range(3)
        for image in itertools.product(range(m + 1), repeat=k)
    ]
    pairs = 0
    for phi, psi in itertools.product(maps, repeat=2):
        if psi.target_size != phi.source_size:
            continue
        outer = {0: 0, **dict(enumerate(phi.image, 1))}
        expected = gamma.PointedMap(
            psi.source_size, phi.target_size, tuple(outer[v] for v in psi.image)
        )
        composed = phi.compose(psi)
        assert composed == expected and hash(composed) == hash(expected)
        assert repr(composed) == repr(expected)
        pairs += 1
    assert pairs == 233


def test_pushforward_level_mismatch():
    with pytest.raises(LevelMismatchError):
        gamma.pushforward(gamma.PointedMap.identity(2), gamma.vector(1))


def test_computed_vectors_equal_checked_ones():
    # pushforward and smash_action skip re-validation of their results
    phi = gamma.PointedMap(3, 2, (2, 0, 2))
    x = gamma.vector(Fraction(1, 2), 7, Fraction(-3, 4))
    pushed = gamma.pushforward(phi, x)
    assert pushed == gamma.PointedVector((0, Fraction(-1, 4)))
    assert gamma.PointedVector(pushed.entries) == pushed
    product = gamma.smash_action(gamma.vector(Fraction(1, 2), Fraction(-1, 4)), x)
    assert product == gamma.PointedVector(
        (Fraction(1, 4), Fraction(7, 2), Fraction(-3, 8),
         Fraction(-1, 8), Fraction(-7, 4), Fraction(3, 16))
    )


def test_verify_pointed_maps_catches_a_pushforward_that_drops_an_entry(monkeypatch):
    assert verify.verify_pointed_maps().passed
    real = gamma.pushforward

    def drop_last(phi, x):
        if x.level:
            x = gamma.PointedVector(x.entries[:-1] + (0,))
        return real(phi, x)

    monkeypatch.setattr(gamma, "pushforward", drop_last)
    result = verify.verify_pointed_maps()
    assert not result.passed
    assert result.checks == 4391
    assert result.failures[0] == "identity law failed at level 1"


def test_verify_pointed_maps_catches_a_scaled_test_that_ignores_the_scale(monkeypatch):
    real = gamma.SubsetSpec.scaled_test
    monkeypatch.setattr(gamma.SubsetSpec, "scaled_test", lambda self, scale: real(self, 1))
    result = verify.verify_pointed_maps()
    assert not result.passed
    assert result.checks == 4391
    assert result.failures[0].startswith("membership tests disagree on")
