"""Abelian group arithmetic and canonical forms."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gradedlts.errors import InputError
from gradedlts.groups import AbelianGroup


def test_compose_mod_5():
    z5 = AbelianGroup((5,))
    assert z5.element([3]).compose(z5.element([4])) == z5.element([2])


def test_inverse_of_identity():
    z = AbelianGroup((0, 2))
    assert z.identity().inverse() == z.identity()


def test_inverse_reduces_finite_coordinates():
    g = AbelianGroup((0, 2))
    # (-3, -1) reduces to (-3, 1) because the second factor is 2-torsion
    assert g.element([3, 1]).inverse() == g.element([-3, 1])
    assert g.element([3, 1]).inverse().coords == (-3, 1)


def test_canonicalization_idempotent():
    g = AbelianGroup((4,))
    e = g.element([7])
    assert e.coords == (3,)
    assert g.element(e.coords) == e


def test_lexicographic_order():
    g = AbelianGroup((0, 0))
    elems = [g.element(c) for c in ([1, 0], [-1, 0], [0, 1], [0, -1])]
    assert [e.coords for e in sorted(elems)] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_format_and_parse_round_trip():
    g = AbelianGroup((0, 3))
    e = g.element([-2, 5])
    assert e.format() == "[-2,2]"
    # the report's form of a degree is the input's coordinate list
    assert g.element(json.loads(e.format())) == e


def test_moduli_validation():
    with pytest.raises(InputError):
        AbelianGroup((1,))
    with pytest.raises(InputError):
        AbelianGroup((-2,))


@pytest.mark.parametrize("value", [1.7, 2.0, "1", True, Fraction(1)])
def test_moduli_and_coordinates_must_be_ints(value):
    with pytest.raises(InputError, match="moduli must be integers"):
        AbelianGroup((0, value))
    with pytest.raises(InputError, match="coordinates must be integers"):
        AbelianGroup((0, 3)).element([0, value])


def test_mixed_group_operations_rejected():
    a = AbelianGroup((0,))
    b = AbelianGroup((2,))
    with pytest.raises(InputError):
        a.element([1]).compose(b.element([1]))


groups = st.lists(st.sampled_from([0, 2, 3, 4]), min_size=1, max_size=3).map(
    lambda m: AbelianGroup(tuple(m))
)


@st.composite
def group_and_elements(draw, count):
    group = draw(groups)
    elems = [
        group.element([draw(st.integers(min_value=-8, max_value=8)) for _ in range(group.rank)])
        for _ in range(count)
    ]
    return group, elems


@given(group_and_elements(3))
@settings(max_examples=80, deadline=None)
def test_group_laws(data):
    group, (a, b, c) = data
    ident = group.identity()
    assert a.compose(b).compose(c) == a.compose(b.compose(c))
    assert a.compose(b) == b.compose(a)
    assert a.compose(ident) == a
    assert a.compose(a.inverse()) == ident


@given(group_and_elements(1))
@settings(max_examples=50, deadline=None)
def test_canonical_form_is_stable(data):
    group, (a,) = data
    assert group.element(a.coords) == a
    for coord, modulus in zip(a.coords, group.moduli):
        if modulus:
            assert 0 <= coord < modulus
