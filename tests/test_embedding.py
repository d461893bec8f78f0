"""Standard embedding: null space, quotient brackets, even-part grading."""

import random
import re
from itertools import product
from fractions import Fraction

import pytest

import gradedlts as g
from gradedlts.embedding import _ActionMatrix
from gradedlts.linalg import complete_complement

from conftest import (
    coordinate_sum,
    even_grading_violations,
    exact_bracket,
    exact_lift,
    exact_reduce,
    library_vector,
    oracle_actions,
    oracle_bracket_table,
    oracle_components,
    oracle_even_grading,
    oracle_triple,
    random_variant,
    sl2_power,
    sl2_square,
    sl_root,
)

Q = g.RationalField()
F7 = g.PrimeField(7)


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
    s = emb.dim_even  # e is basis element s of L
    assert emb.null_space.contains({0: 1})  # e (x) e is tensor coordinate 0
    assert emb.int_bracket({s: 1}, {s: 1}) == {}
    assert (s, s) not in emb.table


def test_mixed_tensor_survives_the_quotient(sl2_emb):
    system, emb = sl2_emb
    # phi(e (x) f)(e) = {e, f, e} = 2e is nonzero, so e (x) f (tensor
    # coordinate 2) is not null; it is a coset tensor, and the table's
    # [e (x) f, e] is the stored constant (here D = D_R = 1)
    phi, _ = oracle_actions(system, unit(9, 2))
    assert phi[0] == [2, 0, 0]
    assert not emb.null_space.contains({2: 1})
    s, r = emb.dim_even, emb.coset_indices.index(2)
    assert emb.table[r, s] == {s: 2}
    assert emb.int_bracket({s: 1}, {s + 2: 1}) == emb.table[s, s + 2] != {}


def test_sl2_even_part_dimensions(sl2_emb):
    system, emb = sl2_emb
    # the two actions both factor through the Lie bracket, which is
    # surjective onto the 3-dimensional algebra, so the null space has
    # dimension 9 - 3
    assert emb.null_space.dim == 6
    assert emb.dim_even == 3


@pytest.mark.parametrize("name", g.BUILTIN_NAMES)
def test_null_space_is_built_on_first_read_with_the_rank_nullity_dimension(name):
    emb = g.build_embedding(g.builtin(name))
    assert emb._null_space is None
    assert f"null_dim={emb.tensor_dim - emb.dim_even}," in repr(emb)
    assert emb.null_space.dim == emb.tensor_dim - emb.dim_even
    assert emb.null_space is emb.null_space


def test_sl2_even_support(sl2_emb):
    system, emb = sl2_emb
    assert [x.format() for x in emb.support()] == ["[-1]", "[1]"]
    comps = emb.components()
    ident = system.group.identity()
    assert len(comps[ident]) == 1
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
        assert even_grading_violations(emb) == [], name


def test_reduction_is_representative_independent(sl2_emb):
    system, emb = sl2_emb
    rng = random.Random(11)
    null_rows = emb.null_space.basis
    for _ in range(25):
        t = [Fraction(rng.randint(-3, 3)) for _ in range(emb.tensor_dim)]
        shift = list(t)
        for row in null_rows:
            c = Fraction(rng.randint(-2, 2))
            shift = [a + c * b for a, b in zip(shift, row)]
        assert exact_reduce(emb, t) == exact_reduce(emb, shift)


def test_even_bracket_is_representative_independent(sl2_emb):
    system, emb = sl2_emb
    rng = random.Random(13)
    for _ in range(10):
        t = [Fraction(rng.randint(-2, 2)) for _ in range(emb.tensor_dim)]
        u = [Fraction(rng.randint(-2, 2)) for _ in range(emb.tensor_dim)]
        shift = list(t)
        for row in emb.null_space.basis:
            c = Fraction(rng.randint(-1, 1))
            shift = [a + c * b for a, b in zip(shift, row)]
        raw = exact_reduce(emb, exact_bracket(emb, t, u))
        shifted = exact_reduce(emb, exact_bracket(emb, shift, u))
        assert raw == shifted
        raw = exact_reduce(emb, exact_bracket(emb, u, t))
        shifted = exact_reduce(emb, exact_bracket(emb, u, shift))
        assert raw == shifted


def test_lift_then_reduce_is_identity(sl2_emb):
    system, emb = sl2_emb
    for i in range(emb.dim_even):
        coords = unit(emb.dim_even, i)
        assert exact_reduce(emb, exact_lift(emb, coords)) == coords


def test_homogeneous_tensor_images_stay_homogeneous(builtins):
    # the image of E_g (x) E_h lands in the even component of degree gh
    for name, system in builtins.items():
        emb = g.build_embedding(system)
        n, s = system.dim, emb.dim_even
        for i in range(n):
            for j in range(n):
                image = emb.int_bracket({s + i: 1}, {s + j: 1})
                if not image:
                    continue
                degree = system.degrees[i].compose(system.degrees[j])
                assert set(image) <= set(emb.component(degree)), name


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
    assert even_grading_violations(emb) == []


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
    for nu in null.basis:
        assert not any(exact_reduce(emb, nu))
    for c in range(nn):
        unit_c = [one if t == c else zero for t in range(nn)]
        lifted = exact_lift(emb, exact_reduce(emb, unit_c))
        assert null.contains([a - b for a, b in zip(unit_c, lifted)]), c
    # A x = 0 agrees with membership in the stored N basis and with both
    # actions applied directly to every basis vector
    action = _ActionMatrix(system)
    rng = random.Random(17)
    outcomes = set()
    for trial in range(40):
        x = [zero] * nn
        for row in null.basis:
            coef = field.element(rng.randint(-2, 2))
            x = [a + coef * b for a, b in zip(x, row)]
        if trial % 2:
            x[rng.randrange(nn)] += field.element(rng.randint(1, 3))
        in_null = action.failing_action(dict(enumerate(x))) is None
        phi, psi = oracle_actions(system, x)
        acts_trivially = not any(map(any, phi + psi))
        assert in_null == null.contains(x) == acts_trivially, trial
        outcomes.add(in_null)
    assert outcomes == {True, False} or null.dim == nn


# -- the even grading, implied by the system's -----------------------------------
#
# [L0_g, L0_h] lies in L0_gh whenever the system passes `verify_grading`, by
# the homogeneity certificate of `components`, so the library does not check
# it.  `even_grading_violations` is that check, kept here: its witnesses
# against the dense oracle, and the implication on graded and misgraded
# systems.


def misgraded(base, degrees, basis=None):
    """`base` graded by Z with the given `degrees`, optionally in the basis
    b'_i = sum_t basis[i][t] b_t (lower triangular): a valid system whose even
    part is usually mis-graded."""
    field, n = base.field, base.dim
    products = dict(base.nonzero_triples())
    if basis is not None:
        products = {}
        for i, j, k in product(range(n), repeat=3):
            y = oracle_triple(base, basis[i], basis[j], basis[k])
            # solve y = sum_l x_l basis[l] from the last coordinate up
            x = [field.zero] * n
            for l in reversed(range(n)):
                rest = y[l] - sum(x[m] * basis[m][l] for m in range(l + 1, n))
                x[l] = rest / basis[l][l]
            products[(i, j, k)] = dict(enumerate(x))
    group = g.AbelianGroup((0,))
    return g.GradedTripleSystem(field, group, [group.element([d]) for d in degrees], products)


def sl2(field):
    return g.from_leibniz_algebra(g.sl2_algebra(field))


@pytest.mark.parametrize("field", [Q, g.PrimeField(7)], ids=["Q", "F7"])
def test_even_grading_witnesses_match_the_dense_oracle(field):
    flagged = 0
    for degrees in product(range(-2, 3), repeat=3):
        system = misgraded(sl2(field), degrees)
        emb = g.build_embedding(system)
        violations = even_grading_violations(emb)
        assert violations == oracle_even_grading(system, emb), degrees
        assert bool(violations) == bool(system.verify_grading()), degrees
        flagged += bool(violations)
    assert flagged == 120


# a rational triangular basis of sl2: constants with D > 1
RESCALED_BASIS = [[Fraction(2, 3), 0, 0], [1, Fraction(5), 0], [0, Fraction(-1, 2), Fraction(3, 7)]]


def test_even_grading_witnesses_in_a_rescaled_basis():
    flagged = 0
    for degrees in product(range(-2, 3), repeat=3):
        system = misgraded(sl2(Q), degrees, RESCALED_BASIS)
        assert system.scale > 1
        emb = g.build_embedding(system)
        violations = even_grading_violations(emb)
        assert violations == oracle_even_grading(system, emb), degrees
        assert bool(violations) == bool(system.verify_grading()), degrees
        flagged += bool(violations)
    assert flagged == 124


def shifted(system, shift):
    """`system` with every degree multiplied by `shift`: for a Lie algebra's
    system each tensor's image keeps to the block of its degree, but the
    bracket of degrees g and h lands in degree g h shift^-2, not g h."""
    shift = system.group.element(shift)
    degrees = [d.compose(shift) for d in system.degrees]
    return g.GradedTripleSystem(system.field, system.group, degrees, dict(system.nonzero_triples()))


def test_even_grading_witnesses_divide_by_the_reduction_scale():
    # sl3 graded by its root lattice has D_R = 2 and a graded even part
    system = sl_root(3, Q)
    emb = g.build_embedding(system)
    assert emb._reduction_scale == 2 and even_grading_violations(emb) == []
    system = shifted(system, [1, 0])
    assert system.verify_grading()
    emb = g.build_embedding(system)
    violations = even_grading_violations(emb)
    assert emb._reduction_scale == 2 and len(violations) == 42
    assert violations == oracle_even_grading(system, emb)


def graded_inputs():
    """Every golden input, `random_variant` 0-19 and sl2 in the rescaled
    basis above, graded trivially so that the basis is homogeneous."""
    cases = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    for label, field in (("Q", Q), ("F7", F7)):
        cases[f"sl2x2_{label}"] = sl2_square(field)
    cases["sl2x3_Q"] = sl2_power(3, Q)
    cases["sl2x3_F7_Z2"] = coordinate_sum(sl2_power(3, F7), 2)
    cases["sl3_root_Q"], cases["sl4_root_Q"] = sl_root(3, Q), sl_root(4, Q)
    for seed in range(20):
        cases[f"variant{seed}"] = random_variant(seed)
    cases["sl2_rescaled"] = misgraded(sl2(Q), (0, 0, 0), RESCALED_BASIS)
    return cases


GRADED = graded_inputs()


@pytest.mark.parametrize("name", sorted(GRADED))
def test_a_graded_system_has_a_graded_even_part(name):
    system = GRADED[name]
    assert system.verify_grading() == []
    assert even_grading_violations(g.build_embedding(system)) == []


# -- the even components as coordinate blocks ----------------------------------


def misgraded_sl3(seed):
    """sl3 with seeded random degrees in [-2, 2]^2: a valid system whose
    tensor images mostly leave the blocks of their degrees."""
    base, rng = sl_root(3, Q), random.Random(seed)
    group = base.group
    degrees = [group.element([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(base.dim)]
    return g.GradedTripleSystem(Q, group, degrees, dict(base.nonzero_triples()))


# family -> (systems, how many fail the direct-sum certificate)
COMPONENT_CASES = {
    "builtins": (lambda: [g.builtin(name) for name in g.BUILTIN_NAMES], 0),
    "sl2_powers": (
        lambda: [sl2_power(k, f) for k in (2, 3, 6) for f in (Q, F7)]
        + [coordinate_sum(sl2_power(3, F7), 2)],
        0,
    ),
    "sl_root": (lambda: [sl_root(3, Q), sl_root(4, Q), shifted(sl_root(3, Q), [1, 0])], 0),
    "variants": (lambda: [random_variant(seed) for seed in range(20)], 0),
    "misgraded_sl2": (
        lambda: [misgraded(sl2(f), d) for f in (Q, F7) for d in product(range(-2, 3), repeat=3)],
        0,
    ),
    "misgraded_sl3": (lambda: [misgraded_sl3(seed) for seed in range(40)], 40),
}


@pytest.mark.parametrize("family", sorted(COMPONENT_CASES))
def test_blocks_span_exactly_the_eliminated_components(family):
    systems, expected_failures = COMPONENT_CASES[family]
    failures = 0
    for system in systems():
        emb = g.build_embedding(system)
        n, degrees = system.dim, system.degrees

        def degree(c):
            return degrees[c // n].compose(degrees[c % n])

        try:
            oracle = oracle_components(emb)
        except g.DecompositionFailure as exc:
            failures += 1
            with pytest.raises(g.DecompositionFailure, match=re.escape(str(exc))) as info:
                emb.components()
            # the witness: tensor c has a nonzero coordinate r whose coset
            # tensor has another degree
            c, r = info.value.witness["tensor"], info.value.witness["coordinate"]
            assert exact_reduce(emb, {c: 1})[r]
            assert degree(c) != degree(emb.coset_indices[r])
            continue
        comps = emb.components()
        assert list(comps) == list(oracle)
        for d, block in comps.items():
            assert block == tuple(sorted(block))
            assert g.Subspace(system.field, emb.dim_even, [{r: 1} for r in block]) == oracle[d]
    assert failures == expected_failures


# -- the bracket table of L ----------------------------------------------------


TABLE_CASES = {
    **{name: (lambda name=name: g.builtin(name)) for name in g.BUILTIN_NAMES},
    **{
        f"sl2x{k}_{f.kind}": (lambda k=k, f=f: sl2_power(k, f))
        for k in (2, 3)
        for f in (Q, F7)
    },
    "sl3_root": lambda: sl_root(3, Q),
    "sl2_rescaled": lambda: misgraded(sl2(Q), (1, 0, -1), RESCALED_BASIS),
    "sl3_root_shifted": lambda: shifted(sl_root(3, Q), [1, 0]),
    **{f"variant{seed}": (lambda seed=seed: random_variant(seed)) for seed in range(10)},
}


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_bracket_table_matches_the_dense_oracle(name):
    system = TABLE_CASES[name]()
    emb = g.build_embedding(system)
    field, scale = system.field, system.scale * emb._reduction_scale
    if name == "sl2_rescaled":
        assert system.scale > 1
    if name == "sl3_root_shifted":
        assert emb._reduction_scale == 2
    m = emb.dim_even + system.dim
    oracle = oracle_bracket_table(system, emb.null_space, emb.coset_indices)
    # every stored entry is D D_R times the oracle bracket (residues over
    # GF(p)) without zero coordinates, and every nonzero bracket is stored
    for a, b in product(range(m), repeat=2):
        expected = field.clean(dict(enumerate(library_vector([x * scale for x in oracle[a][b]]))))
        assert emb.table.get((a, b), {}) == expected, (a, b)
        assert (a, b) not in emb.table or emb.table[a, b]
    # int_bracket is the bilinear extension of the table
    rng = random.Random(5)
    for _ in range(10):
        x = {a: rng.randint(-3, 3) for a in rng.sample(range(m), min(m, 3))}
        y = {b: rng.randint(-3, 3) for b in rng.sample(range(m), min(m, 3))}
        total = [0] * m
        for (a, u), (b, v) in product(x.items(), y.items()):
            for c, w in enumerate(library_vector([t * scale for t in oracle[a][b]])):
                total[c] += u * v * w
        assert emb.int_bracket(x, y) == field.clean(dict(enumerate(total)))
