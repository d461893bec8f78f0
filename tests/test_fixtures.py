"""Fixture constructors: double-bracket systems, direct sums, the search that found nonlie_J."""

import tracemalloc

import pytest

import gradedlts as g
from gradedlts.errors import InputError

from conftest import coordinate_sum, nonlie_algebra, search_nonlie_example, sl2_power

Q = g.RationalField()


def test_every_builtin_passes_all_verifications(builtins):
    for name, system in builtins.items():
        assert system.verify_axioms() == [], name
        assert system.verify_grading() == [], name
        assert system.verify_fundamental_identity() == [], name


def test_abelian_algebra_gives_zero_triple_system():
    group = g.AbelianGroup((0,))
    algebra = g.GradedLeibnizAlgebra.build(
        Q, group, [group.element([0])] * 2, {}
    )
    system = g.from_leibniz_algebra(algebra)
    assert list(system.nonzero_triples()) == []


def test_square_nilpotent_algebra_gives_zero_triple_system():
    # [x, x] = y with all other brackets zero: every double bracket lands in
    # the line killed by right multiplication, so all 8 basis triples vanish
    group = g.AbelianGroup((0,))
    algebra = g.GradedLeibnizAlgebra.build(
        Q,
        group,
        [group.element([1]), group.element([2])],
        {(0, 0): {1: 1}},
    )
    assert algebra.verify() == []
    system = g.from_leibniz_algebra(algebra)
    assert list(system.nonzero_triples()) == []


def test_sl2_construction_matches_frozen_fixture(builtins):
    constructed = g.from_leibniz_algebra(g.sl2_algebra())
    frozen = builtins["sl2_Z"]
    assert list(constructed.nonzero_triples()) == list(frozen.nonzero_triples())
    assert constructed.degrees == frozen.degrees
    assert constructed.group == frozen.group


def test_disjoint_sum_matches_relabel_and_sum(builtins):
    target = g.AbelianGroup((0, 0))
    sl2 = g.from_leibniz_algebra(g.sl2_algebra())
    first = g.relabel_degrees(sl2, target, [[1, 0]])
    second = g.relabel_degrees(sl2, target, [[0, 1]])
    combined = g.direct_sum([first, second])
    frozen = builtins["disjoint_sum"]
    assert list(combined.nonzero_triples()) == list(frozen.nonzero_triples())
    assert combined.degrees == frozen.degrees


def test_from_leibniz_rejects_broken_algebra():
    group = g.AbelianGroup((0,))
    # [x, y] = x with [y, x] = 0 fails the right Leibniz identity
    algebra = g.GradedLeibnizAlgebra.build(
        Q,
        group,
        [group.element([0]), group.element([0])],
        {(0, 1): {0: 1}, (1, 1): {1: 1}},
    )
    assert algebra.verify() != []
    with pytest.raises(InputError):
        g.from_leibniz_algebra(algebra)


def test_double_bracket_grading_compatible(builtins):
    system = g.from_leibniz_algebra(nonlie_algebra())
    assert system.verify_grading() == []


def test_search_finds_the_frozen_nonlie_fixture(builtins):
    algebra, system = search_nonlie_example()
    assert algebra.brackets == nonlie_algebra().brackets
    assert list(system.nonzero_triples()) == list(builtins["nonlie_J"].nonzero_triples())
    assert not system.lie_defect_ideal().is_zero()
    assert system.verify_axioms() == []


def test_zero_n_synthesis():
    from gradedlts.fixtures import fixture_text
    from gradedlts.systemfile import loads_system

    z5 = g.builtin("zero_5")
    assert z5.dim == 5
    assert z5.support() == ()
    assert list(z5.nonzero_triples()) == []
    # zero_3 is the packaged file; zero_<n> takes ASCII digits only
    z3, parsed = g.builtin("zero_3"), loads_system(fixture_text("zero_3"))
    assert (z3.field, z3.group, z3.degrees) == (parsed.field, parsed.group, parsed.degrees)
    assert list(z3.nonzero_triples()) == list(parsed.nonzero_triples())
    for name in ("zero_\u0663", "zero_\uff13", "zero_3\n", "zero_+3", "zero_"):
        with pytest.raises(InputError, match="unknown builtin fixture"):
            g.builtin(name)
    # past the interpreter's 4,300-digit int/str limit, an index-sized int or
    # the cap of 10**4, rejected before anything is built
    for digits in (5000, 30, 18, 12, 10):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match=f"zero_<n> with {digits} digits is too large"):
                g.builtin("zero_" + "9" * digits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, digits
    with pytest.raises(InputError, match="past the limit 10000"):
        g.zero_system(10**4 + 1)
    assert g.zero_system(10**4).dim == 10**4
    with pytest.raises(InputError, match="negative dimension -1"):
        g.zero_system(-1)
    assert g.builtin("zero_0010000").dim == 10**4


def test_unknown_builtin_rejected():
    with pytest.raises(InputError):
        g.builtin("does_not_exist")


def test_builtin_loads_from_data_file(builtins):
    # the packaged files double as format conformance tests
    from gradedlts.fixtures import fixture_text
    from gradedlts.systemfile import loads_system

    for name in g.BUILTIN_NAMES:
        parsed = loads_system(fixture_text(name))
        assert list(parsed.nonzero_triples()) == list(builtins[name].nonzero_triples())


def test_direct_sum_requires_common_group():
    a = g.zero_system(1)
    b = g.relabel_degrees(g.zero_system(1), g.AbelianGroup((2,)), [[1]])
    with pytest.raises(InputError):
        g.direct_sum([a, b])


def test_relabel_preserves_validity():
    sl2 = g.from_leibniz_algebra(g.sl2_algebra())
    relabeled = g.relabel_degrees(sl2, g.AbelianGroup((5,)), [[2]])
    assert relabeled.verify_grading() == []
    assert relabeled.verify_axioms() == []
    assert [d.coords for d in relabeled.degrees] == [(2,), (0,), (3,)]


def test_relabel_rejects_a_matrix_that_is_not_a_homomorphism():
    sl2_z2 = g.relabel_degrees(g.builtin("sl2_Z"), g.AbelianGroup((2,)), [[1]])
    z, z4 = g.AbelianGroup((0,)), g.AbelianGroup((4,))
    # a Z_2 generator must go to an element of order dividing 2
    for target, image in ((z, [[1]]), (z4, [[1]])):
        with pytest.raises(InputError, match="2 times row .* is not the identity"):
            g.relabel_degrees(sl2_z2, target, image)
    pushed = g.relabel_degrees(sl2_z2, z4, [[2]])
    assert [d.coords for d in pushed.degrees] == [(2,), (0,), (2,)]
    assert pushed.verify_grading() == []


@pytest.mark.parametrize("entry", [2.9, "3", True], ids=["float", "str", "bool"])
def test_relabel_rejects_a_matrix_entry_that_is_not_an_int(entry):
    # int() made [[2.9]] the degrees (2, 0, -2) and [["3"]] (3, 0, -3)
    with pytest.raises(InputError, match="entries must be integers"):
        g.relabel_degrees(g.builtin("sl2_Z"), g.AbelianGroup((0,)), [[entry]])


def test_relabel_takes_the_int_matrices_in_use():
    sl2 = g.builtin("sl2_Z")
    for image, coords in (([[1]], [(1,), (0,), (-1,)]), ([[2]], [(2,), (0,), (-2,)])):
        pushed = g.relabel_degrees(sl2, g.AbelianGroup((0,)), image)
        assert [d.coords for d in pushed.degrees] == coords
    # the Z^3 -> Z_2 push of sl2^3 by coordinate sums
    pushed = coordinate_sum(sl2_power(3, Q), 2)
    assert pushed.group == g.AbelianGroup((2,))
    assert [d.coords for d in pushed.degrees] == [(1,), (0,), (1,)] * 3
    assert pushed.verify_grading() == []
