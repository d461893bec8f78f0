"""Core triple system operations against frozen hand-computed values."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import gradedlts as g
from gradedlts.errors import CertificateFailure, InputError
from conftest import dense_table, exact_triple, mutate_constant, oracle_is_lie, oracle_triple

Q = g.RationalField()


def unit(n, i):
    return tuple(Fraction(1) if t == i else Fraction(0) for t in range(n))


@pytest.fixture(scope="module")
def sl2():
    return g.builtin("sl2_Z")


@pytest.fixture(scope="module")
def nonlie():
    return g.builtin("nonlie_J")


def test_triple_product_vanishes_on_zero_argument(sl2):
    zero_vec = (Fraction(0),) * 3
    e = unit(3, 0)
    assert exact_triple(sl2, zero_vec, e, e) == zero_vec
    assert exact_triple(sl2, e, zero_vec, e) == zero_vec
    assert exact_triple(sl2, e, e, zero_vec) == zero_vec


def test_triple_product_matches_hand_evaluation(sl2):
    e, h, f = unit(3, 0), unit(3, 1), unit(3, 2)
    # {e,f,f} = [[e,f],f] = [h,f] = -2f
    assert exact_triple(sl2, e, f, f) == (0, 0, Fraction(-2))
    # {e,h,f} = [[e,h],f] = [-2e,f] = -2h
    assert exact_triple(sl2, e, h, f) == (0, Fraction(-2), 0)


def test_axioms_hold_on_zero_system():
    assert g.builtin("zero_3").verify_axioms() == []


def test_axioms_hold_on_sl2(sl2):
    assert sl2.verify_axioms() == []


def test_axioms_detect_single_corruption(sl2):
    from conftest import mutate_constant

    # +1 on {e,f,e}
    corrupt = mutate_constant(sl2, 0, 2, 0, 0, Fraction(1))
    assert corrupt.verify_axioms() != []


def test_fundamental_identity_empty_whenever_axioms_pass(builtins):
    for name, system in builtins.items():
        assert system.verify_axioms() == [], name
        assert system.verify_fundamental_identity() == [], name


def test_support_of_trivially_graded_system():
    assert g.builtin("zero_3").support() == ()
    assert g.builtin("trivial_grading_sl2").support() == ()


def test_support_of_sl2(sl2):
    assert [x.format() for x in sl2.support()] == ["[-1]", "[1]"]


def test_support_of_disjoint_sum():
    s = g.builtin("disjoint_sum")
    assert [x.format() for x in s.support()] == ["[-1,0]", "[0,-1]", "[0,1]", "[1,0]"]


def test_homogeneous_components_sum_to_whole(sl2):
    total = sl2.identity_component()
    for d, block in sl2.components().items():
        if not d.is_identity():
            total = total.sum(g.Subspace(Q, 3, [{i: 1} for i in block]))
    assert total == g.Subspace.full(Q, 3)


def test_homogeneous_decomposition_is_direct(builtins):
    for name, system in builtins.items():
        blocks = system.components()
        assert list(blocks) == sorted(set(system.degrees)), name
        total = g.Subspace(system.field, system.dim)
        dims = 0
        for degree, block in blocks.items():
            assert block and block == tuple(sorted(block)), name
            component = g.Subspace(system.field, system.dim, [{i: 1} for i in block])
            if degree.is_identity():
                assert component == system.identity_component(), name
            for row in component.basis:
                support = [i for i, x in enumerate(row) if x != system.field.zero]
                assert all(system.degrees[i] == degree for i in support), name
            total = total.sum(component)
            dims += component.dim
        assert dims == system.dim, name
        assert total == g.Subspace.full(system.field, system.dim), name


def test_grading_violation_reported(sl2):
    from conftest import mutate_constant

    # a nonzero constant whose output degree cannot match: {e,e,e} -> e has
    # degree sum 3 but output degree 1
    corrupt = mutate_constant(sl2, 0, 0, 0, 0, Fraction(1))
    violations = corrupt.verify_grading()
    assert violations and violations[0].identity == "grading"


def test_ideal_closure_of_zero_and_whole(sl2):
    zero = g.Subspace(Q, 3)
    full = g.Subspace.full(Q, 3)
    assert sl2.ideal_closure(zero) == zero
    assert sl2.ideal_closure(full) == full


def test_ideal_closure_of_line_reaches_whole_sl2(sl2):
    # the closure is checked against a test-local fixed point computation
    line = g.Subspace(Q, 3, [unit(3, 0)])
    closure = sl2.ideal_closure(line)
    assert closure == g.Subspace.full(Q, 3)

    vectors = [list(unit(3, 0))]
    changed = True
    while changed:
        changed = False
        current = g.Subspace(Q, 3, vectors)
        for v in list(vectors):
            for j in range(3):
                for k in range(3):
                    for args in (
                        (v, unit(3, j), unit(3, k)),
                        (unit(3, j), v, unit(3, k)),
                        (unit(3, j), unit(3, k), v),
                    ):
                        w = oracle_triple(sl2, *args)
                        if any(x != 0 for x in w) and not current.contains(w):
                            vectors.append(w)
                            current = g.Subspace(Q, 3, vectors)
                            changed = True
    assert g.Subspace(Q, 3, vectors) == closure


def test_is_ideal_trivial_cases(sl2):
    assert sl2.ideal_witness(g.Subspace(Q, 3)) is None
    assert sl2.ideal_witness(g.Subspace.full(Q, 3)) is None


def test_cartan_line_is_not_an_ideal(sl2):
    # test-local predicate evaluation: {h, e, f} = 2h stays inside, but
    # {e, f, e} = 2e escapes span{h} via the third-slot action {E, E, I}
    h_line = g.Subspace(Q, 3, [unit(3, 1)])
    escaped = False
    for j in range(3):
        for k in range(3):
            for args in (
                (unit(3, 1), unit(3, j), unit(3, k)),
                (unit(3, j), unit(3, 1), unit(3, k)),
                (unit(3, j), unit(3, k), unit(3, 1)),
            ):
                if not h_line.contains(oracle_triple(sl2, *args)):
                    escaped = True
    assert escaped
    assert sl2.ideal_witness(h_line) is not None


# span(e, h) given in K^2 and in K^5, and the GF(7) line of e + 6f, which
# must not be read as the rational e + 6f: none lies in the space of sl2 / Q
FOREIGN = {
    "K2": g.Subspace(Q, 2, [unit(2, 0), unit(2, 1)]),
    "K5": g.Subspace(Q, 5, [unit(5, 0), unit(5, 1)]),
    "GF7": g.Subspace(g.PrimeField(7), 3, [[1, 0, 6]]),
}


@pytest.mark.parametrize("predicate", ["ideal_closure", "ideal_witness"])
def test_subspace_of_another_space_is_rejected(sl2, predicate):
    for sub in FOREIGN.values():
        with pytest.raises(InputError, match="not in the system's space"):
            getattr(sl2, predicate)(sub)


def test_every_subspace_is_ideal_in_zero_system():
    z = g.builtin("zero_3")
    assert z.ideal_witness(g.Subspace(Q, 3, [[1, 2, 3]])) is None


def test_defect_ideal_zero_for_lie_derived_systems(sl2):
    assert sl2.lie_defect_ideal().is_zero()
    assert g.builtin("zero_3").lie_defect_ideal().is_zero()


def test_defect_ideal_of_nonlie_fixture(nonlie):
    # brute-force generator span: the only nonzero skew combination is
    # {a,a,a} - {a,a,a} + {a,a,a} = {a,a,a} = c
    generators = []
    for i in range(3):
        for j in range(3):
            for k in range(3):
                u = oracle_triple(nonlie, unit(3, i), unit(3, j), unit(3, k))
                v = oracle_triple(nonlie, unit(3, i), unit(3, k), unit(3, j))
                w = oracle_triple(nonlie, unit(3, j), unit(3, k), unit(3, i))
                generators.append([a - b + c for a, b, c in zip(u, v, w)])
    assert g.Subspace(Q, 3, generators) == g.Subspace(Q, 3, [[0, 0, 1]])

    defect = nonlie.lie_defect_ideal()
    assert defect == g.Subspace(Q, 3, [[0, 0, 1]])
    assert defect.dim == 1


def test_defect_ideal_vanishing_certificates(builtins):
    # the certificates are enforced inside lie_defect_ideal; recheck directly
    for name, system in builtins.items():
        defect = system.lie_defect_ideal()
        n = system.dim
        for row in defect.basis:
            for j in range(n):
                for k in range(n):
                    assert all(
                        x == 0
                        for x in oracle_triple(system, unit(n, j), unit(n, k), row)
                    ), name
                    assert all(
                        x == 0
                        for x in oracle_triple(system, unit(n, j), row, unit(n, k))
                    ), name


def lie_mutants():
    """Seeded one-constant mutants of the builtins, and skew pairs
    {b_i, b_j, b_k} = -{b_j, b_i, b_k} = b_l added to zero_3 and sl2_Z."""
    import random

    rng = random.Random(11)
    out = []
    for name in g.BUILTIN_NAMES:
        system = g.builtin(name)
        n = system.dim
        for _ in range(4):
            cell = [rng.randrange(n) for _ in range(4)]
            out.append(mutate_constant(system, *cell, system.field.element(rng.choice([1, -1]))))
    for name in ("zero_3", "sl2_Z"):
        for i, j, k, l in ((0, 1, 0, 2), (1, 2, 2, 0), (0, 2, 1, 1)):
            system = mutate_constant(g.builtin(name), i, j, k, l, Q.one)
            out.append(mutate_constant(system, j, i, k, l, -Q.one))
    return out


def test_lie_test_agrees_with_direct_oracle(builtins):
    # the Lie test is a zero defect ideal
    for name, system in builtins.items():
        assert system.lie_defect_ideal().is_zero() == oracle_is_lie(system), name
    # the defect-ideal certificate may reject a corrupt mutant; the test
    # must agree with the oracle wherever it does not
    decided = []
    for mutant in lie_mutants():
        expected = oracle_is_lie(mutant)
        try:
            assert mutant.lie_defect_ideal().is_zero() == expected
        except CertificateFailure:
            continue
        decided.append(expected)
    assert decided.count(True) >= 2 and decided.count(False) >= 2


def test_defect_ideal_matches_closure_of_dense_generators(builtins):
    # generators {a,b,c} - {a,c,b} + {b,c,a} at all n^3 basis triples
    for system in list(builtins.values()) + lie_mutants():
        n = system.dim
        table = dense_table(system)
        generators = []
        for i, j, k in product(range(n), repeat=3):
            u, v, w = table[i][j][k], table[i][k][j], table[j][k][i]
            generators.append([a - b + c for a, b, c in zip(u, v, w)])
        expected = system.ideal_closure(g.Subspace(system.field, n, generators))
        try:
            assert system.lie_defect_ideal() == expected
        except CertificateFailure:
            # then some {E,E,I} or {E,I,E} product of the oracle ideal is nonzero
            units = [unit(n, t) for t in range(n)]
            assert any(
                any(oracle_triple(system, units[j], units[k], row, table))
                or any(oracle_triple(system, units[j], row, units[k], table))
                for row in expected.basis
                for j, k in product(range(n), repeat=2)
            )


def test_nonlie_fixture_is_not_lie(nonlie):
    assert nonlie.lie_defect_ideal().is_zero() is False
    assert oracle_is_lie(nonlie) is False


def test_annihilator_of_zero_system_is_everything():
    z = g.builtin("zero_3")
    assert z.annihilator() == g.Subspace.full(Q, 3)


def test_annihilator_of_sl2_is_zero(sl2):
    assert sl2.annihilator().is_zero()


def test_annihilator_of_padded_sl2_is_the_padding(sl2):
    padded = g.direct_sum([sl2, g.zero_system(1)])
    ann = padded.annihilator()
    assert ann == g.Subspace(Q, 4, [[0, 0, 0, 1]])


def test_nonlie_annihilator(nonlie):
    # only multiples of the generator act: {x,y,z} depends on the first
    # coordinates only, so the annihilator is span{b, c}
    assert nonlie.annihilator() == g.Subspace(Q, 3, [[0, 1, 0], [0, 0, 1]])


# -- property tests -------------------------------------------------------------

coeff = st.integers(min_value=-3, max_value=3).map(Fraction)
vec3 = st.lists(coeff, min_size=3, max_size=3)


@given(vec3, vec3, vec3, vec3, coeff)
@settings(max_examples=50, deadline=None)
def test_trilinearity(x, xp, y, z, alpha):
    sl2 = g.builtin("sl2_Z")
    lhs = exact_triple(sl2, [alpha * a + b for a, b in zip(x, xp)], y, z)
    base = exact_triple(sl2, x, y, z)
    shift = exact_triple(sl2, xp, y, z)
    assert list(lhs) == [alpha * a + b for a, b in zip(base, shift)]
    lhs = exact_triple(sl2, y, [alpha * a + b for a, b in zip(x, xp)], z)
    base = exact_triple(sl2, y, x, z)
    shift = exact_triple(sl2, y, xp, z)
    assert list(lhs) == [alpha * a + b for a, b in zip(base, shift)]
    lhs = exact_triple(sl2, y, z, [alpha * a + b for a, b in zip(x, xp)])
    base = exact_triple(sl2, y, z, x)
    shift = exact_triple(sl2, y, z, xp)
    assert list(lhs) == [alpha * a + b for a, b in zip(base, shift)]


def test_products_of_homogeneous_vectors_stay_homogeneous(builtins):
    for name, system in builtins.items():
        n = system.dim
        for (i, j, k), entry in system.nonzero_triples():
            target = (
                system.degrees[i].compose(system.degrees[j]).compose(system.degrees[k])
            )
            block = system.components().get(target, ())
            component = g.Subspace(system.field, n, [{t: 1} for t in block])
            vec = [system.field.zero] * n
            for l, c in entry.items():
                vec[l] = c
            assert component.contains(vec), name


def test_ideal_closure_outputs_pass_is_ideal(builtins):
    for name, system in builtins.items():
        n = system.dim
        for i in range(n):
            closure = system.ideal_closure(g.Subspace(system.field, n, [unit(n, i)]))
            assert system.ideal_witness(closure) is None, name


def test_ideal_closure_follows_products_of_new_vectors():
    # {b0,b0,b0} = b1 and {b1,b1,b1} = b2: b2 appears only as a product of
    # b1, which is itself new in the closure of the line b0
    group = g.AbelianGroup((0,))
    chain = g.GradedTripleSystem(
        Q, group, [group.identity()] * 3, {(0, 0, 0): {1: 1}, (1, 1, 1): {2: 1}}
    )
    assert chain.ideal_closure(g.Subspace(Q, 3, [unit(3, 0)])) == g.Subspace.full(Q, 3)
    assert chain.ideal_closure(g.Subspace(Q, 3, [unit(3, 1)])) == g.Subspace(
        Q, 3, [unit(3, 1), unit(3, 2)]
    )


def test_library_product_matches_oracle_on_random_vectors(builtins):
    import random

    rng = random.Random(7)
    for name, system in builtins.items():
        if system.field.kind != "rational":
            continue
        n = system.dim
        for _ in range(5):
            x = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            y = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            z = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
            assert list(exact_triple(system, x, y, z)) == oracle_triple(
                system, x, y, z
            ), name


@pytest.mark.parametrize(
    ("constant", "family", "pair"),
    [
        # {b0, b0, b0} = b0: at the pair (0, 0) both {E,E,I} and {E,I,E} fail
        ((0, 0, 0, 0), "{E,E,I}", (0, 0)),
        # {b0, b0, b1} = b0: only {b0, b0, b1}, an {E,I,E} product, fails
        ((0, 0, 1, 0), "{E,I,E}", (0, 1)),
    ],
)
def test_defect_ideal_certificate_reports_first_failing_pair(constant, family, pair):
    bad = mutate_constant(g.builtin("zero_3"), *constant, Q.one)
    with pytest.raises(CertificateFailure) as info:
        bad.lie_defect_ideal()
    assert str(info.value) == f"products {family} of the defect ideal do not vanish"
    assert info.value.witness == {"vector": (1, 0, 0), "j": pair[0], "k": pair[1]}
