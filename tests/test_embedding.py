"""Standard embedding: null space, quotient brackets, even-part grading."""

import random
from fractions import Fraction

import pytest

import gradedlts as g
from gradedlts.embedding import _ActionMatrix
from gradedlts.linalg import complete_complement

from conftest import sl2_square

Q = g.RationalField()


def unit(n, i):
    return tuple(Fraction(1) if t == i else Fraction(0) for t in range(n))


@pytest.fixture(scope="module")
def sl2_emb():
    system = g.builtin("sl2_Z")
    return system, g.build_embedding(system)


def test_zero_system_embeds_to_zero():
    system = g.builtin("zero_3")
    emb = g.build_embedding(system)
    assert emb.null_space == g.Subspace.full(Q, 9)
    assert emb.dim_even == 0
    assert emb.support() == ()


def test_square_of_nilpotent_direction_is_null(sl2_emb):
    system, emb = sl2_emb
    # phi(e (x) e)(w) = {e, e, w} = [[e,e], w] = 0 and psi(e (x) e) = 0,
    # so e (x) e falls into the null space
    e = unit(3, 0)
    assert emb.null_space.contains(emb.tensor_of_pair(e, e))
    assert all(x == 0 for x in emb.bracket_odd_odd(e, e))


def test_mixed_tensor_survives_the_quotient(sl2_emb):
    system, emb = sl2_emb
    e, f = unit(3, 0), unit(3, 2)
    # phi(e (x) f)(e) = {e, f, e} = 2e is nonzero, so e (x) f is not null
    assert list(emb.phi_apply(emb.tensor_of_pair(e, f), e)) == [Fraction(2), 0, 0]
    image = emb.bracket_odd_odd(e, f)
    assert any(x != 0 for x in image)


def test_sl2_even_part_dimensions(sl2_emb):
    system, emb = sl2_emb
    # the two actions both factor through the Lie bracket, which is
    # surjective onto the 3-dimensional algebra, so the null space has
    # dimension 9 - 3
    assert emb.null_space.dim == 6
    assert emb.dim_even == 3


def test_sl2_even_support(sl2_emb):
    system, emb = sl2_emb
    assert [x.format() for x in emb.support()] == ["[-1]", "[1]"]
    comps = emb.components()
    ident = system.group.identity()
    assert comps[ident].dim == 1
    # degree-2 tensors e (x) e all act trivially, so no such component
    assert system.group.element([2]) not in comps


def test_disjoint_sum_even_support_has_no_mixed_degrees():
    system = g.builtin("disjoint_sum")
    emb = g.build_embedding(system)
    for degree in emb.support():
        a, b = degree.coords
        assert a == 0 or b == 0


def test_even_grading_violations_empty(builtins):
    for name, system in builtins.items():
        emb = g.build_embedding(system)
        assert emb.verify_even_grading() == [], name


def test_reduction_is_representative_independent(sl2_emb):
    system, emb = sl2_emb
    rng = random.Random(11)
    null_rows = emb.null_space.basis.rows
    for _ in range(25):
        t = [Fraction(rng.randint(-3, 3)) for _ in range(emb.tensor_dim)]
        shift = list(t)
        for row in null_rows:
            c = Fraction(rng.randint(-2, 2))
            shift = [a + c * b for a, b in zip(shift, row)]
        assert emb.reduce_tensor(t) == emb.reduce_tensor(shift)


def test_even_bracket_is_representative_independent(sl2_emb):
    system, emb = sl2_emb
    rng = random.Random(13)
    for _ in range(10):
        t = [Fraction(rng.randint(-2, 2)) for _ in range(emb.tensor_dim)]
        u = [Fraction(rng.randint(-2, 2)) for _ in range(emb.tensor_dim)]
        shift = list(t)
        for row in emb.null_space.basis.rows:
            c = Fraction(rng.randint(-1, 1))
            shift = [a + c * b for a, b in zip(shift, row)]
        raw = emb.reduce_tensor(emb.tensor_bracket(t, u))
        shifted = emb.reduce_tensor(emb.tensor_bracket(shift, u))
        assert raw == shifted
        raw = emb.reduce_tensor(emb.tensor_bracket(u, t))
        shifted = emb.reduce_tensor(emb.tensor_bracket(u, shift))
        assert raw == shifted


def test_lift_then_reduce_is_identity(sl2_emb):
    system, emb = sl2_emb
    for i in range(emb.dim_even):
        coords = unit(emb.dim_even, i)
        assert emb.reduce_tensor(emb.lift(coords)) == coords


def test_homogeneous_tensor_images_stay_homogeneous(builtins):
    # the image of E_g (x) E_h lands in the even component of degree gh
    for name, system in builtins.items():
        emb = g.build_embedding(system)
        n = system.dim
        for i in range(n):
            for j in range(n):
                image = emb.bracket_odd_odd(unit(n, i), unit(n, j))
                if all(x == system.field.zero for x in image):
                    continue
                degree = system.degrees[i].compose(system.degrees[j])
                assert emb.component(degree).contains(image), name


def test_build_embedding_accepts_all_builtins(builtins):
    # the well-definedness certificate and the Leibniz-identity sweep run
    # inside build_embedding and raise on failure
    for name, system in builtins.items():
        emb = g.build_embedding(system)
        assert emb.dim_even >= 0, name


def test_prime_field_embedding():
    system = g.from_leibniz_algebra(g.sl2_algebra(field=g.PrimeField(7)))
    emb = g.build_embedding(system)
    assert emb.dim_even == 3
    assert emb.verify_even_grading() == []


def test_descent_failure_names_the_escaping_coordinate():
    base = g.builtin("zero_3")
    products = {(0, 0, 1): {2: Fraction(1)}, (2, 1, 2): {0: Fraction(-1)}}
    system = g.GradedTripleSystem(base.field, base.group, base.degrees, products)
    with pytest.raises(g.NotWellDefined) as info:
        g.build_embedding(system)
    assert str(info.value) == "bracket of the tensor square into the null space escapes it"
    assert info.value.witness["coordinate"] == 7


def test_leibniz_failure_names_the_witness_triple():
    base = g.builtin("sl2_Z")
    products = {key: dict(entry) for key, entry in base.nonzero_triples()}
    assert products[(1, 2, 0)] == {1: Fraction(2)}
    products[(1, 2, 0)] = {1: Fraction(4)}
    system = g.GradedTripleSystem(base.field, base.group, base.degrees, products)
    with pytest.raises(g.LeibnizIdentityFailure) as info:
        g.build_embedding(system)
    assert str(info.value) == "quotient algebra fails the right Leibniz identity"
    assert info.value.witness == {"triple": (0, 1, 6)}


def oracle_cases():
    cases = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    cases["sl2x2_Q"] = sl2_square(g.RationalField())
    cases["sl2x2_F7"] = sl2_square(g.PrimeField(7))
    return cases


@pytest.mark.parametrize("name", sorted(oracle_cases()))
def test_one_rref_construction_matches_independent_oracles(name):
    system = oracle_cases()[name]
    emb = g.build_embedding(system)
    field, nn = system.field, emb.tensor_dim
    zero, one = field.zero, field.one
    null = emb.null_space
    # the cosets are the greedy standard-tensor completion of N
    greedy = complete_complement(null, g.Subspace.full(field, nn))
    assert emb.coset_indices == greedy.pivots
    # the reduction kills N and is a projection along N onto the coset tensors
    for nu in null.basis.rows:
        assert not any(emb.reduce_tensor(nu))
    for c in range(nn):
        unit_c = [one if t == c else zero for t in range(nn)]
        lifted = emb.lift(emb.reduce_tensor(unit_c))
        assert null.contains([a - b for a, b in zip(unit_c, lifted)]), c
    # A x = 0 agrees with membership in the stored N basis and with both
    # actions applied directly to every basis vector
    action = _ActionMatrix(system)
    basis = [[one if t == w else zero for t in range(system.dim)] for w in range(system.dim)]
    rng = random.Random(17)
    outcomes = set()
    for trial in range(40):
        x = [zero] * nn
        for row in null.basis.rows:
            coef = field.element(rng.randint(-2, 2))
            x = [a + coef * b for a, b in zip(x, row)]
        if trial % 2:
            x[rng.randrange(nn)] += field.element(rng.randint(1, 3))
        in_null = action.failing_action(dict(enumerate(x))) is None
        acts_trivially = not any(
            any(emb.phi_apply(x, w)) or any(emb.psi_apply(x, w)) for w in basis
        )
        assert in_null == null.contains(x) == acts_trivially, trial
        outcomes.add(in_null)
    assert outcomes == {True, False} or null.dim == nn
