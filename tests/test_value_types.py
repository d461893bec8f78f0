"""The value classes: construction, defaults, equality, hash, order and immutability.

`typing.NamedTuple` holds the plain records; `__slots__` classes hold the
ones that canonicalise their fields (`AbelianGroup`, `GroupElement`),
compare on part of their fields (`SupportData`) or are filled in after
construction (`LemmaCheck`).  Each keeps its field order, so positional and
keyword construction give the same object.
"""

from __future__ import annotations

import pytest

import gradedlts as g
from gradedlts.errors import InputError

Q = g.RationalField()
Z = g.AbelianGroup((0,))
Z4 = g.AbelianGroup((4,))


def field_values() -> dict[type, dict[str, object]]:
    """Class -> its fields in order, with a value for each."""
    line = g.Subspace(Q, 2, [[1, 0]])
    cls = g.ConnectionClass(Z.element([1]), (Z.element([1]), Z.element([-1])))
    sup = g.SupportData.from_parts([Z.element([1])], [Z.element([2])])
    return {
        g.AbelianGroup: {"moduli": (0, 3)},
        g.GroupElement: {"group": Z4, "coords": (3,)},
        g.SupportData: {
            "odd": sup.odd, "even": sup.even, "pm_odd": sup.pm_odd,
            "pm_even": sup.pm_even, "closures": sup.closures,
        },
        g.ConnectionClass: {"representative": cls.representative, "members": cls.members},
        g.ClassIdeal: {"cls": cls, "core": line, "vertex": line, "total": line},
        g.Obstruction: {"kind": "zero_product", "detail": "none", "witness": {"dim": 1}},
        g.LemmaCheck: {"name": "law", "instances": 3, "nonvacuous": 2, "failures": [{"pair": 1}]},
        g.DecompositionReport: {
            "supports": sup, "u": line, "span_products": line, "ideals": [],
            "orthogonality": [], "all_orthogonal": True, "tight": False,
            "annihilator_dim": 0, "pairwise_disjoint": None, "direct_sum": None,
            "obstructions": [],
        },
        g.GradedLeibnizAlgebra: {
            "field": Q, "group": Z, "degrees": (Z.element([0]),), "brackets": (),
        },
        g.Violation: {"identity": "six_term", "indices": (0, 1), "residual": (1,)},
    }


# with `DecompositionReport`, which `decompose` builds once from finished results
FORMERLY_FROZEN = (
    g.AbelianGroup, g.GroupElement, g.SupportData, g.ConnectionClass, g.ClassIdeal,
    g.GradedLeibnizAlgebra, g.Violation, g.DecompositionReport,
)


@pytest.mark.parametrize("kind", list(field_values()), ids=lambda c: c.__name__)
def test_positional_and_keyword_construction_keep_the_field_order(kind):
    fields = field_values()[kind]
    by_position = kind(*fields.values())
    by_keyword = kind(**fields)
    for obj in (by_position, by_keyword):
        assert {name: getattr(obj, name) for name in fields} == fields


def test_defaults():
    assert g.Obstruction("kind", "detail").witness is None
    check = g.LemmaCheck("law")
    assert (check.instances, check.nonvacuous, check.failures, check.holds) == (0, 0, [], True)
    other = g.LemmaCheck("law")
    check.failures.append({"pair": 1})
    assert other.failures == [] and not check.holds


@pytest.mark.parametrize("kind", FORMERLY_FROZEN, ids=lambda c: c.__name__)
def test_formerly_frozen_classes_reject_assignment(kind):
    fields = field_values()[kind]
    obj = kind(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(obj, name, fields[name])
    with pytest.raises(AttributeError):
        obj.extra = 1
    with pytest.raises(AttributeError):
        delattr(obj, name)


def test_mutable_records_take_assignment():
    check = g.LemmaCheck("law")
    check.instances += 1
    check.failures = [{"pair": 1}]
    assert (check.instances, check.holds) == (1, False)
    with pytest.raises(AttributeError):
        check.extra = 1


def test_support_data_equality_and_hash_ignore_closures():
    fields = field_values()[g.SupportData]
    a = g.SupportData(**fields)
    b = g.SupportData(**{**fields, "closures": {}})
    assert a == b and hash(a) == hash(b)
    # the connected sets are derived from the closures, and ignored with them
    one = Z.element([1])
    forged = g.SupportData(**{**fields, "closures": {one: {}}})
    assert a.connected == {one: frozenset([one])} and b.connected == {}
    assert forged.connected == {one: frozenset()}
    assert a == forged and hash(a) == hash(forged)
    c = g.SupportData(**{**fields, "even": ()})
    assert a != c


def test_group_element_reduces_its_coordinates_and_orders_them():
    a, b = g.GroupElement(Z4, (7,)), Z4.element([3])
    assert a.coords == (3,) and a == b and hash(a) == hash(b)
    assert a != Z.element([3]) and Z4.element([3]) != g.GroupElement(g.AbelianGroup((5,)), (3,))
    low, high = Z4.element([1]), Z4.element([6])
    assert high.coords == (2,)
    assert low < high and low <= high and low <= Z4.element([5])
    assert high > low and high >= low and high >= Z4.element([-2])
    assert not (high < low or high <= low or low > high or low >= high)
    assert sorted([high, Z4.element([0]), low]) == [Z4.element([0]), low, high]


def test_abelian_group_canonicalises_and_hashes_by_moduli():
    assert g.AbelianGroup([0, 3]).moduli == (0, 3)
    assert g.AbelianGroup((0, 3)) == g.AbelianGroup([0, 3])
    assert hash(g.AbelianGroup((0, 3))) == hash(g.AbelianGroup([0, 3]))
    assert g.AbelianGroup((0,)) != g.AbelianGroup((2,))


@pytest.mark.parametrize("moduli", [(1,), (-2,), (0, 1)])
def test_abelian_group_rejects_bad_moduli(moduli):
    with pytest.raises(InputError):
        g.AbelianGroup(moduli)
    with pytest.raises(InputError):
        g.AbelianGroup(moduli=moduli)
