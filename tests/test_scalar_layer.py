"""The scalar layer: residues as plain ints, integer images over Q, no floats.

Over GF(p) every stored scalar is an int in [0, p); over Q it is an int or
a Fraction.  The checks that only test for zero or for span membership run
on integer images (D times the constants, primitive integer multiples of
vectors), which is exact because scaling moves no zero.  The hypothesis
test scales every constant by a common nonzero c and checks that nothing
a zero test decides moves: violation lists (residuals scale by c^2 or c),
the embedding's certificates and counts, closures, class ideals, ideal
predicates and the lemma counts.  A Q system with non-integer constants
(D = 21) is compared entry by entry with the Fraction oracles.
"""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gradedlts as g
from conftest import (
    exact_bracket,
    exact_triple,
    library_vector,
    mutate_constant,
    oracle_actions,
    oracle_slot_products,
    oracle_sweep,
    oracle_tensor_bracket,
    oracle_triple,
    random_variant,
    sl2_square,
)

Q, F7 = g.RationalField(), g.PrimeField(7)
SRC = Path(g.__file__).parent


# -- no floats ---------------------------------------------------------------------


def test_true_division_only_inside_the_field_classes():
    # `1 / x` on an int pivot is a float, so `/` may only appear where the
    # operands are known: in the field classes of linalg.py
    allowed = {("linalg.py", "RationalField"), ("linalg.py", "PrimeField")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for node in ast.walk(cls):
                    owners.setdefault(id(node), cls.name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                if (path.name, owners.get(id(node))) not in allowed:
                    found.append(f"{path.name}:{node.lineno}")
    assert not found, f"true division outside the field classes: {found}"


def scalar_ok(field, x) -> bool:
    if field.kind == "prime":
        return type(x) is int and 0 <= x < field.p
    return type(x) in (int, Fraction)


def stored_rows(sub):
    return [*sub.int_rows.values(), *(dict(enumerate(r)) for r in sub.basis)]


def non_integer_sl2_square():
    """sl2 + sl2 over Q, the first copy's constants times 2/3 and the second's
    times 5/7: a valid system (each summand is scaled alike) with D = 21."""
    system = sl2_square(Q)
    table = {
        key: {l: x * (Fraction(2, 3) if key[0] < 3 else Fraction(5, 7)) for l, x in entry.items()}
        for key, entry in system.nonzero_triples()
    }
    return g.GradedTripleSystem(Q, system.group, system.degrees, table)


@pytest.mark.parametrize(
    "system",
    [sl2_square(F7), sl2_square(Q), non_integer_sl2_square(), random_variant(5)],
    ids=["sl2x2_F7", "sl2x2_Q", "sl2x2_Q_D21", "variant5"],
)
def test_every_stored_scalar_is_an_int_residue_or_a_rational(system):
    field = system.field
    values = [x for _, entry in system.nonzero_triples() for x in entry.values()]
    values += [x for entry in system._index[0].values() for x in entry.values()]
    emb = g.build_embedding(system)
    subspaces = [emb.null_space]
    values += [x for column in emb._columns for x in column.values()]
    try:
        report = g.decompose(system, emb)
    except g.CertificateFailure:
        report = None
    if report is not None:
        subspaces += [report.u, report.span_products]
        subspaces += [s for i in report.ideals for s in (i.core, i.vertex, i.total)]
    subspaces.append(system.ideal_closure(g.span(field, system.dim, [[field.one] * system.dim])))
    for sub in subspaces:
        values += [x for row in stored_rows(sub) for x in row.values()]
    first = [field.element(3), field.element(-1)] + [field.zero] * (system.dim - 2)
    grown = g.Subspace(field, system.dim, [first])
    values += [x for row in stored_rows(grown) for x in row.values()]
    bad = [x for x in values if not scalar_ok(field, x)]
    assert values and not bad, bad[:5]


# -- integer images against the Fraction oracles -------------------------------------


def test_non_integer_constants_match_the_oracles_exactly():
    system = non_integer_sl2_square()
    assert system.scale == 21
    rng = random.Random(3)
    mutants = [system]
    while len(mutants) < 4:
        i, j, k, l = (rng.randrange(system.dim) for _ in range(4))
        delta = Fraction(rng.choice([1, -2, 5]), rng.choice([3, 7, 11]))
        mutant = mutate_constant(system, i, j, k, l, delta)
        if oracle_sweep(mutant, "axioms"):
            mutants.append(mutant)
    for mutant in mutants:
        assert mutant.verify_axioms() == oracle_sweep(mutant, "axioms")
        assert mutant.verify_fundamental_identity() == oracle_sweep(mutant, "six_term")
    assert all(m.verify_axioms() for m in mutants[1:])
    residuals = [x for m in mutants[1:] for v in m.verify_axioms() for x in v.residual]
    assert any(x.denominator > 1 for x in residuals)
    n = system.dim
    def entry():
        return Fraction(rng.choice([0, 1, -3]), rng.choice([1, 2, 5]))

    vectors = [[entry() for _ in range(n)] for _ in range(6)]
    for x, y, z in zip(vectors, vectors[1:], vectors[2:]):
        assert list(exact_triple(system, x, y, z)) == oracle_triple(system, x, y, z)
    for v in vectors:
        assert system.slot_products(v) == oracle_slot_products(system, v)


def test_embedding_brackets_divide_the_integer_image_back():
    # the kernels read D = 21 times the constants; divided back they are exact
    system = non_integer_sl2_square()
    emb = g.build_embedding(system)
    n, nn = system.dim, emb.tensor_dim
    rng = random.Random(11)

    def vector(size, numerators, denominators):
        return [Fraction(rng.choice(numerators), rng.choice(denominators)) for _ in range(size)]

    for _ in range(6):
        a, b = vector(nn, [0, 0, 1, -2], [1, 3]), vector(nn, [0, 0, 1, -2], [1, 3])
        assert list(exact_bracket(emb, a, b)) == oracle_tensor_bracket(system, a, b)
    # the table's mixed entries, D D_R times both actions of a coset tensor
    s, scale = emb.dim_even, system.scale * emb._reduction_scale
    for r, p in enumerate(emb.coset_indices):
        phi, psi = oracle_actions(system, [int(c == p) for c in range(nn)])
        for w in range(n):
            assert list(emb._exact(emb.table.get((r, s + w), {}), s + n, scale)[s:]) == phi[w]
            assert list(emb._exact(emb.table.get((s + w, r), {}), s + n, scale)[s:]) == psi[w]


@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_is_subsystem_matches_dense_oracle(field):
    system = sl2_square(field) if field.kind == "prime" else non_integer_sl2_square()
    n = system.dim
    rng = random.Random(17)
    # span(e + 2f, h) of the first sl2 is a subsystem whose basis is not 0/1
    cases = [[[1, 0, 2, 0, 0, 0], [0, 1, 0, 0, 0, 0]]]
    for _ in range(25):
        count = rng.randint(1, 3)
        cases.append([[rng.choice([0, 0, 0, 1, -1, 2]) for _ in range(n)] for _ in range(count)])
    outcomes = set()
    for vectors in cases:
        sub = g.span(field, n, [[field.element(x) for x in v] for v in vectors])
        rows = sub.basis
        expected = all(
            sub.contains(library_vector(oracle_triple(system, x, y, z)))
            for x in rows
            for y in rows
            for z in rows
        )
        assert system.is_subsystem(sub) == expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_cross_products_reduce_mod_p_before_the_zero_test():
    # {b0, b1, b2} = 3 b0 and {b0, b1, b3} = 4 b0 over GF(7): {b0, b1, b2 + b3} = 7 b0 = 0
    from gradedlts.decomposition import _cross_products_vanish

    group = g.AbelianGroup((0,))
    system = g.GradedTripleSystem(
        F7, group, [group.identity()] * 4, {(0, 1, 2): {0: 3}, (0, 1, 3): {0: 4}}
    )
    left, right = g.span(F7, 4, [[1, 0, 0, 0]]), g.span(F7, 4, [[0, 0, 1, 1]])
    checks = _cross_products_vanish(system, left, right)
    assert checks == {"left_middle": True, "left_right": True, "middle_right": True}
    assert not _cross_products_vanish(system, left, g.span(F7, 4, [[0, 0, 1, 0]]))["left_right"]


# -- scaling every constant by c --------------------------------------------------------


def scaled(system, c):
    table = {key: {l: c * x for l, x in entry.items()} for key, entry in system.nonzero_triples()}
    return g.GradedTripleSystem(system.field, system.group, system.degrees, table)


def outcome(call):
    try:
        return call()
    except g.CertificateFailure as exc:
        return type(exc), str(exc)


def embedding_outcome(system):
    try:
        emb = g.build_embedding(system)
    except (g.NotWellDefined, g.LeibnizIdentityFailure) as exc:
        witness = {k: v for k, v in exc.witness.items() if k != "bracket"}
        return type(exc), str(exc), witness
    return emb, (emb.null_space, emb.coset_indices, emb.descent_instances, emb.leibniz_instances)


def decomposition_outcome(system, emb):
    try:
        report = g.decompose(system, emb, seed=2)
    except g.CertificateFailure as exc:
        return type(exc), str(exc)
    classes = g.connection_classes(g.SupportData.from_system(system, emb))
    lemmas = g.verify_structure_lemmas(system, emb, classes)
    return (
        report.u,
        [(i.core, i.vertex, i.total) for i in report.ideals],
        report.orthogonality,
        (report.tight, report.annihilator_dim, report.pairwise_disjoint, report.direct_sum),
        [(o.kind, o.witness) for o in report.obstructions],
        [(c.name, c.instances, c.nonvacuous, c.failures) for c in lemmas],
    )


def scaling_cases():
    out = {"sl2x2_Q": sl2_square(Q), "sl2x2_F7": sl2_square(F7), "nonlie_J": g.builtin("nonlie_J")}
    out["variant3"] = random_variant(3)
    base = g.builtin("disjoint_sum")
    out["disjoint_sum_m"] = mutate_constant(base, 0, 1, 2, 1, Q.one)
    out["sl2x2_F7_m"] = mutate_constant(sl2_square(F7), 1, 0, 2, 2, F7.element(3))
    return out


CASES = scaling_cases()
# odd denominators: every constant of the cases is an integer times a power of 2
RATIONAL_SCALES = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([3, 5, 9, 11])
).filter(lambda c: c.denominator > 1)


@given(name=st.sampled_from(sorted(CASES)), data=st.data())
@settings(max_examples=30, deadline=None)
def test_scaling_the_constants_moves_no_zero_test(name, data):
    system = CASES[name]
    field = system.field
    if field.kind == "prime":
        c = data.draw(st.integers(1, field.p - 1))
    else:
        c = data.draw(RATIONAL_SCALES)
    other = scaled(system, c)
    if field.kind == "rational":
        assert other.scale > 1
    c = field.element(c) if field.kind == "prime" else c

    def residuals(violations, power):
        return [
            (v.identity, v.indices, tuple(x * c**power for x in v.residual)) for v in violations
        ]

    for sweep in ("verify_axioms", "verify_fundamental_identity"):
        expected = residuals(getattr(system, sweep)(), 2)
        got = [(v.identity, v.indices, v.residual) for v in getattr(other, sweep)()]
        if field.kind == "prime":
            expected = [(a, b, tuple(field.element(x) for x in r)) for a, b, r in expected]
        assert got == expected
    grading = [v.indices for v in system.verify_grading()]
    assert [v.indices for v in other.verify_grading()] == grading

    rng = random.Random(len(name))
    lines = [[field.element(rng.choice([0, 1, -2])) for _ in range(system.dim)] for _ in range(3)]
    for v in lines:
        line = g.span(field, system.dim, [v])
        assert other.ideal_closure(line) == system.ideal_closure(line)
        assert other.is_ideal(line) == system.is_ideal(line)
        assert other.is_subsystem(line) == system.is_subsystem(line)
    for method in ("lie_defect_ideal", "is_lie_triple", "annihilator"):
        assert outcome(getattr(other, method)) == outcome(getattr(system, method))

    if other.verify_axioms():
        return
    ours, theirs = embedding_outcome(system), embedding_outcome(other)
    assert ours[1:] == theirs[1:]
    if isinstance(ours[0], g.StandardEmbedding):
        assert decomposition_outcome(other, theirs[0]) == decomposition_outcome(system, ours[0])
