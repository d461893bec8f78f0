"""Connection relation: closures, classes, witnesses, partition certificates."""

from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

import gradedlts as g
from gradedlts import connections
from gradedlts.cli import main
from gradedlts.connections import validate_sequence
from gradedlts.errors import EquivalenceFailure, InputError

from conftest import (
    coordinate_sum,
    oracle_classes,
    oracle_closures,
    random_variant,
    reference_closures,
    sl2_power,
    sl_root,
)


def supports_for(name):
    system = g.builtin(name)
    emb = g.build_embedding(system)
    return system, g.SupportData.from_system(system, emb)


@pytest.fixture(scope="module")
def sl2_sup():
    return supports_for("sl2_Z")[1]


@pytest.fixture(scope="module")
def disjoint_sup():
    return supports_for("disjoint_sum")[1]


def test_element_reaches_itself(sl2_sup):
    for grp in sl2_sup.odd:
        assert grp in g.connection_closure(sl2_sup, grp)


def test_closure_stays_in_inverse_closed_support(disjoint_sup):
    for grp in disjoint_sup.odd:
        assert g.connection_closure(disjoint_sup, grp) <= disjoint_sup.pm_odd


def test_sl2_opposite_degrees_connected(sl2_sup):
    group = g.AbelianGroup((0,))
    one = group.element([1])
    minus = group.element([-1])
    # the singleton sequence (g) ends at g, and -1 = inverse(1) is caught by
    # the final {h, h^-1} clause
    assert g.are_connected(sl2_sup, one, minus)
    assert g.are_connected(sl2_sup, minus, one)


def test_disjoint_blocks_not_connected(disjoint_sup):
    group = g.AbelianGroup((0, 0))
    a = group.element([1, 0])
    b = group.element([0, 1])
    assert not g.are_connected(disjoint_sup, a, b)
    assert not g.are_connected(disjoint_sup, b, a)


def test_reflexivity(disjoint_sup):
    for grp in disjoint_sup.odd:
        assert g.are_connected(disjoint_sup, grp, grp)


def test_class_counts():
    assert len(g.connection_classes(supports_for("sl2_Z")[1])) == 1
    assert len(g.connection_classes(supports_for("disjoint_sum")[1])) == 2
    assert g.connection_classes(supports_for("zero_3")[1]) == []


def test_sl2_single_class_content(sl2_sup):
    (cls,) = g.connection_classes(sl2_sup)
    assert [m.format() for m in cls.members] == ["[-1]", "[1]"]
    assert cls.representative.format() == "[-1]"


def test_disjoint_classes_split_by_block(disjoint_sup):
    classes = g.connection_classes(disjoint_sup)
    assert [[m.format() for m in c.members] for c in classes] == [
        ["[-1,0]", "[1,0]"],
        ["[0,-1]", "[0,1]"],
    ]


def test_classes_partition_support(disjoint_sup):
    classes = g.connection_classes(disjoint_sup)
    seen = [m for c in classes for m in c.members]
    assert sorted(seen) == sorted(disjoint_sup.odd)
    assert len(set(seen)) == len(seen)


def test_nonlie_chain_connects_through_even_support():
    system, sup = supports_for("nonlie_J")
    classes = g.connection_classes(sup)
    assert len(classes) == 1
    assert [m.format() for m in classes[0].members] == ["[1]", "[2]", "[3]"]


def test_witness_sequences_validate():
    for name in ("sl2_Z", "disjoint_sum", "nonlie_J"):
        _, sup = supports_for(name)
        for cls in g.connection_classes(sup):
            for member in cls.members:
                seq = g.witness_sequence(sup, cls.representative, member)
                assert validate_sequence(sup, seq, cls.representative, member), (
                    name,
                    member.format(),
                )


def test_witness_sequence_for_unconnected_pair_raises(disjoint_sup):
    group = g.AbelianGroup((0, 0))
    with pytest.raises(InputError):
        g.witness_sequence(disjoint_sup, group.element([1, 0]), group.element([0, 1]))


def test_witness_sequence_with_a_step_outside_the_supports_raises(disjoint_sup):
    # a forged closure: [0, 1] reached from [1, 0] by the step ([-1, 1], 1),
    # whose first element lies in neither support
    group = g.AbelianGroup((0, 0))
    start, end, identity = group.element([1, 0]), group.element([0, 1]), group.identity()
    closures = dict(disjoint_sup.closures)
    closures[start] = {start: None, end: (start, group.element([-1, 1]), identity)}
    sup = g.SupportData(
        disjoint_sup.odd, disjoint_sup.even, disjoint_sup.pm_odd, disjoint_sup.pm_even, closures
    )
    with pytest.raises(EquivalenceFailure) as info:
        g.witness_sequence(sup, start, end)
    assert info.value.witness == {"pair": ("[1,0]", "[0,1]")}


# (odd support, even support, sequence, g, h) on Z: each sequence breaks
# exactly one rule of a connection from g to h and passes every other
REJECTED_SEQUENCES = {
    # 1 + 1 = 2 lies in both supports and in {h, h^-1}, but the length is even
    "even_length": ((1, 2), (2,), (1, 1), 1, 2),
    # the steps (1, 1) lead from 1 through the even 2 to 3, but the sequence starts at 3
    "wrong_start": ((1, 3), (2,), (3, 1, 1), 1, 3),
    # 1 + 1 = 2 is not in the (empty) even support
    "even_partial_outside": ((1, 3), (), (1, 1, 1), 1, 3),
    # 1 + 1 + 1 = 3 is not in the odd support
    "odd_partial_outside": ((1, 4), (2, 4), (1, 1, 1, 1, 0), 1, 4),
}


@pytest.mark.parametrize("case", sorted(REJECTED_SEQUENCES))
def test_validate_sequence_rejects_each_broken_rule(case):
    odd, even, seq, start, end = REJECTED_SEQUENCES[case]
    z = g.AbelianGroup((0,))
    sup = g.SupportData.from_parts([z.element([c]) for c in odd], [z.element([c]) for c in even])
    seq = tuple(z.element([c]) for c in seq)
    assert validate_sequence(sup, seq, z.element([start]), z.element([end])) is False


def test_arguments_must_lie_in_support(sl2_sup):
    group = g.AbelianGroup((0,))
    outside = group.element([7])
    with pytest.raises(InputError):
        g.connection_closure(sl2_sup, outside)
    with pytest.raises(InputError):
        g.are_connected(sl2_sup, group.element([1]), outside)


def test_closure_monotone_and_idempotent(disjoint_sup):
    # rerunning the closure from any reached element stays inside the
    # class's reachable set united with its inverses
    for grp in disjoint_sup.odd:
        reach = g.connection_closure(disjoint_sup, grp)
        for other in reach:
            if other in disjoint_sup.odd:
                again = g.connection_closure(disjoint_sup, other)
                combined = reach | {x.inverse() for x in reach}
                assert again <= combined


def test_pair_product_in_even_support_implies_connected():
    # whenever g h lies in the inverse-closed even support (or is the
    # identity), the two must be connected
    for name in ("sl2_Z", "disjoint_sum", "nonlie_J"):
        _, sup = supports_for(name)
        for a in sup.odd:
            for b in sup.odd:
                ab = a.compose(b)
                if ab in sup.pm_even or ab.is_identity():
                    assert g.are_connected(sup, a, b), (name, a.format(), b.format())


# -- the relation against a Warshall oracle ----------------------------------------


def assert_relation_matches_oracle(sup):
    closures = oracle_closures(sup)
    assert {x: g.connection_closure(sup, x) for x in sup.odd} == closures
    for x in sup.odd:
        for y in sup.odd:
            expected = y in closures[x] or y.inverse() in closures[x]
            assert g.are_connected(sup, x, y) == expected, (x.format(), y.format())
            if expected:
                seq = g.witness_sequence(sup, x, y)
                assert validate_sequence(sup, seq, x, y), (x.format(), y.format())
            else:
                with pytest.raises(InputError):
                    g.witness_sequence(sup, x, y)
    classes = g.connection_classes(sup)
    assert [c.members for c in classes] == oracle_classes(sup)
    assert all(c.representative == min(c.members) for c in classes)


def oracle_systems():
    systems = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    for k in (2, 3):
        for tag, field in (("Q", g.RationalField()), ("F7", g.PrimeField(7))):
            power = sl2_power(k, field)
            systems[f"sl2x{k}_{tag}"] = power
            systems[f"sl2x{k}_{tag}_Z2"] = coordinate_sum(power, 2)
    for seed in range(12):
        systems[f"variant_{seed}"] = random_variant(seed)
    return systems


@pytest.mark.parametrize("name", sorted(oracle_systems()))
def test_relation_matches_warshall_oracle(name):
    system = oracle_systems()[name]
    assert_relation_matches_oracle(g.SupportData.from_system(system, g.build_embedding(system)))


def reference_systems():
    """name -> a function that builds the system, so that collection builds none."""
    systems = {name: partial(g.builtin, name) for name in g.BUILTIN_NAMES}
    for tag, field in (("Q", g.RationalField()), ("F7", g.PrimeField(7))):
        builds = {f"sl2x{k}": partial(sl2_power, k, field) for k in (2, 3)}
        builds.update({f"sl{N}_root": partial(sl_root, N, field) for N in (3, 4, 5)})
        for name, build in builds.items():
            systems[f"{name}_{tag}"] = build
            systems[f"{name}_{tag}_Z3"] = lambda build=build: coordinate_sum(build(), 3)
    for seed in range(20):
        systems[f"variant_{seed}"] = partial(random_variant, seed)
    return systems


@pytest.mark.parametrize("name", sorted(reference_systems()))
def test_tabled_steps_keep_the_reference_parents(name):
    # the parent pointers, and so every witness sequence, are those of the
    # search that composes each step afresh, item order included
    system = reference_systems()[name]()
    sup = g.SupportData.from_system(system, g.build_embedding(system))
    reference = reference_closures(sup)
    assert list(sup.closures) == list(reference)
    for x, parents in reference.items():
        assert list(sup.closures[x].items()) == list(parents.items()), x.format()


@st.composite
def small_supports(draw):
    moduli = draw(st.sampled_from([(2,), (3,), (4,), (5,), (6,), (0, 0)]))
    group = g.AbelianGroup(moduli)
    if moduli == (0, 0):
        elements = [group.element([a, b]) for a in range(-2, 3) for b in range(-2, 3)]
    else:
        elements = [group.element([a]) for a in range(moduli[0])]
    nonidentity = [x for x in elements if not x.is_identity()]
    odd = draw(st.lists(st.sampled_from(nonidentity), unique=True, max_size=7))
    even = draw(st.lists(st.sampled_from(nonidentity), unique=True, max_size=7))
    return g.SupportData.from_parts(odd, even)


@given(small_supports())
@settings(max_examples=150, deadline=None)
def test_drawn_supports_match_warshall_oracle(sup):
    assert_relation_matches_oracle(sup)


@pytest.mark.parametrize("command", ["analyze", "decompose"])
def test_closure_search_runs_once_per_support_element(command, monkeypatch, tmp_path):
    system = sl2_power(3, g.RationalField())
    path = tmp_path / "sl2x3.json"
    path.write_text(g.dumps_system(system), encoding="utf-8")
    starts = []
    search = connections._closure_with_parents

    def counted(*args):
        starts.append(args[-1])
        return search(*args)

    monkeypatch.setattr(connections, "_closure_with_parents", counted)
    assert main([command, str(path)]) == 0
    assert len(system.support()) == 6
    assert sorted(starts) == list(system.support())


# -- the class recheck on tampered closures ---------------------------------------


def tampered(odd, reach):
    """Supports on Z with the given odd degrees, whose closures are replaced
    by the given reach sets (the parent pointers are left empty)."""
    group = g.AbelianGroup((0,))
    sup = g.SupportData.from_parts([group.element([c]) for c in odd], [])
    closures = {
        group.element([c]): {group.element([x]): None for x in reached}
        for c, reached in reach.items()
    }
    return g.SupportData(sup.odd, sup.even, sup.pm_odd, sup.pm_even, closures)


@pytest.mark.parametrize(
    "odd, reach, message",
    [
        ((1, 2), {1: {1}, 2: {1, 2}}, "already assigned to another class"),
        ((1, 2), {1: {2}, 2: {2}}, "do not cover the support"),
        ((1, 2), {1: {1, 2}, 2: {2}}, "pairwise connectivity recheck failed"),
        ((-1, 1), {-1: {-1}, 1: {-1, 1}}, "not inverse-closed"),
        ((1, 2, 3), {1: {1}, 2: {2, 3}, 3: {1, 2, 3}}, "distinct classes are connected"),
    ],
    ids=["assigned_twice", "uncovered", "asymmetric", "inverse_closure", "cross_class"],
)
def test_tampered_closures_fail_the_class_recheck(odd, reach, message):
    with pytest.raises(EquivalenceFailure, match=message):
        g.connection_classes(tampered(odd, reach))
