"""The term-driven identity join against the dense n^5 sweep it replaced.

`verify_axioms`, `verify_fundamental_identity` and
`GradedLeibnizAlgebra.verify` join stored constants instead of visiting
every basis tuple.  Here their full violation lists (identity names,
tuples, residual vectors and order) are compared with the dense sweeps in
conftest (`oracle_sweep`, `oracle_algebra_verify`) on valid systems and on
seeded one-constant mutants that violate the identities, and the exactness
argument is tested directly: every tuple where a single term is nonzero is
reached by the join.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product

import pytest

import gradedlts as g
from gradedlts.identities import (
    AXIOM_TERMS,
    RIGHT_LEIBNIZ,
    SIX_TERM,
    index_constants,
    join_residuals,
)
from conftest import (
    coordinate_sum,
    dense_table,
    mutate_constant,
    nonlie_algebra,
    oracle_algebra_verify,
    oracle_axioms_ok,
    oracle_bracket,
    oracle_identities,
    oracle_nonzero_terms,
    oracle_scalar,
    oracle_sweep,
    oracle_tensor_bracket,
    oracle_triple,
    oracle_zero_one,
    pivot_pair_verdict,
    random_variant,
    sl2_power,
    sl_root,
    sl_root_algebra,
)

Q, F7 = g.RationalField(), g.PrimeField(7)
SWEEPS = {"axioms": AXIOM_TERMS, "six_term": SIX_TERM}


def valid_systems():
    out = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    for k, (label, field) in product((2, 3), (("Q", Q), ("F7", F7))):
        power = sl2_power(k, field)
        out[f"sl2x{k}_{label}"] = power
        out[f"sl2x{k}_{label}_Z2"] = coordinate_sum(power, 2)
    for seed in range(10):
        out[f"variant{seed}"] = random_variant(seed)
    out["sl3_root_Q"] = sl_root(3, Q)
    return out


def violating_mutants(system, seed, count):
    """`count` seeded one-constant mutants that fail the dense axiom oracle."""
    rng = random.Random(seed)
    n = system.dim
    out = []
    while len(out) < count:
        cell = [rng.randrange(n) for _ in range(4)]
        delta = system.field.element(rng.choice([1, -1, 2]))
        mutant = mutate_constant(system, *cell, delta)
        if not oracle_axioms_ok(mutant):
            out.append(mutant)
    return out


def mutant_systems():
    out = {}
    for name in ("sl2_Z", "disjoint_sum", "nonlie_J", "trivial_grading_sl2"):
        for t, mutant in enumerate(violating_mutants(g.builtin(name), name, 3)):
            out[f"{name}_m{t}"] = mutant
    for label, system in (("sl2x2_Q", sl2_power(2, Q)), ("sl2x2_F7", sl2_power(2, F7))):
        for t, mutant in enumerate(violating_mutants(system, label, 3)):
            out[f"{label}_m{t}"] = mutant
    for seed in (3, 4):
        for t, mutant in enumerate(violating_mutants(random_variant(seed), seed, 2)):
            out[f"variant{seed}_m{t}"] = mutant
    # dense, with multi-output constants: one added term in {b_i, b_j, b_k}
    sl3 = sl_root(3, F7)
    for t, cell in enumerate([(0, 2, 2, 5), (5, 4, 5, 7), (4, 0, 7, 1)]):
        out[f"sl3_root_F7_m{t}"] = mutate_constant(sl3, *cell, F7.one)
    return out


VALID = valid_systems()
MUTANTS = mutant_systems()


@pytest.mark.parametrize("name", sorted(VALID))
def test_sweeps_match_dense_oracle_on_valid_systems(name):
    system = VALID[name]
    assert system.verify_axioms() == oracle_sweep(system, "axioms") == []
    assert system.verify_fundamental_identity() == oracle_sweep(system, "six_term") == []


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_sweeps_match_dense_oracle_on_mutants(name):
    system = MUTANTS[name]
    expected = oracle_sweep(system, "axioms")
    assert expected
    assert system.verify_axioms() == expected
    assert system.verify_fundamental_identity() == oracle_sweep(system, "six_term")


@pytest.mark.parametrize("which", sorted(SWEEPS))
@pytest.mark.parametrize(
    "name", [name for name in sorted(MUTANTS) if not name.startswith("sl3")] + ["sl3_root_F7_m0"]
)
def test_join_reaches_every_tuple_with_a_nonzero_term(name, which):
    # a tuple the join does not reach must have every single term zero;
    # the join keeps cancelled residuals, so these are all the reached keys
    system = MUTANTS[name]
    reached = [key for key, _ in join_residuals(system._index, SWEEPS[which])]
    assert reached == sorted(set(reached))
    needed = oracle_nonzero_terms(system, which)
    assert needed and needed <= set(reached)


def random_dense_system(field, seed, n=3):
    """Every one of the n^3 products a seeded random vector, all of degree 0."""
    rng = random.Random(seed)

    def draw():
        if field.kind == "prime":
            return rng.randrange(field.p)
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    group = g.AbelianGroup((0,))
    table = {key: {l: draw() for l in range(n)} for key in product(range(n), repeat=3)}
    return g.GradedTripleSystem(field, group, [group.identity()] * n, table)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_the_three_identities_are_linearly_related(field, seed):
    # for every trilinear product, middle(x, b, c, d, e) + six(b, c, x, d, e)
    # + right(x, d, b, c, e) = 0: each nested product of one residual
    # cancels against one of another
    system = random_dense_system(field, seed)
    (_, middle), (_, right) = oracle_identities(system, "axioms")
    ((_, six),) = oracle_identities(system, "six_term")

    def residual(terms, indices, acc):
        for term in terms:
            term(*indices, acc)
        return acc

    nonzero_middle = 0
    for x, b, c, d, e in product(range(system.dim), repeat=5):
        acc = residual(middle, (x, b, c, d, e), {})
        nonzero_middle += any(acc.values())
        residual(six, (b, c, x, d, e), acc)
        residual(right, (x, d, b, c, e), acc)
        assert not any(acc.values()), (x, b, c, d, e)
    assert nonzero_middle > 3**5 // 2


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("field", [Q, F7], ids=["Q", "F7"])
def test_the_descent_relations_hold_for_every_trilinear_product(field, seed):
    # with p = x (x) y, L = {x, y, -}, P = {-, x, y} - {-, y, x} and the
    # actions phi(nu)(w) = sum nu_kl {k, l, w}, psi(nu)(z) = sum nu_kl
    # ({z, k, l} - {z, l, k}) of a tensor nu, for every product and every nu
    #   phi([p, nu])(w) = L(phi(nu)(w)) + psi(nu)(Lw) - sum nu_kl Phi(L)(k, l, w)
    #   psi([p, nu])(z) = psi(nu)(Pz) - P(psi(nu)(z)) - sum nu_kl (Psi(z, k, l) - Psi(z, l, k))
    # (ROADMAP items 5 and 11): A nu = 0 and Phi = Psi = 0 at p give
    # A [p, nu] = 0, which is descent at p
    system = random_dense_system(field, seed)
    n, table = system.dim, dense_table(system)
    zero, one = oracle_zero_one(field)
    units = [[one if t == i else zero for t in range(n)] for i in range(n)]
    pairs = [(k * n + l, units[k], units[l]) for k in range(n) for l in range(n)]
    rng = random.Random(100 + seed)

    def draw(size):
        if field.kind == "prime":
            return [oracle_scalar(field, rng.randrange(field.p)) for _ in range(size)]
        return [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(size)]

    def total(*terms):
        """The sum of c * v over the pairs (c, v) of `terms`."""
        out = [zero] * n
        for c, v in terms:
            out = [s + c * t for s, t in zip(out, v)]
        return out

    def triple(a, b, c):
        return oracle_triple(system, a, b, c, table)

    def twisted(a, b, c):
        return total((one, triple(a, b, c)), (-one, triple(a, c, b)))

    def left(v):
        return triple(x, y, v)

    def right(v):
        return twisted(v, x, y)

    def phi(tensor, v):
        return total(*((tensor[c], triple(k, l, v)) for c, k, l in pairs))

    def psi(tensor, v):
        return total(*((tensor[c], twisted(v, k, l)) for c, k, l in pairs))

    def big_phi(c, d, e):
        return total((one, left(triple(c, d, e))), (-one, triple(left(c), d, e)),
                     (one, triple(left(d), c, e)), (one, twisted(left(e), c, d)))

    def big_psi(c, d, e):
        return total((-one, right(triple(c, d, e))), (one, triple(right(c), d, e)),
                     (-one, triple(c, left(d), e)), (-one, triple(c, d, left(e))))

    # four draws of x, y, w, z and nu, which the closures above read late
    nonzero = set()
    for _ in range(4):
        x, y, w, z, nu = draw(n), draw(n), draw(n), draw(n), draw(n * n)
        bracket = oracle_tensor_bracket(system, [a * b for a in x for b in y], nu, table)
        phi_defect = total(*((nu[c], big_phi(k, l, w)) for c, k, l in pairs))
        psi_defect = total(*((nu[c], total((one, big_psi(z, k, l)), (-one, big_psi(z, l, k))))
                             for c, k, l in pairs))
        assert phi(bracket, w) == total((one, left(phi(nu, w))), (one, psi(nu, left(w))),
                                        (-one, phi_defect))
        assert psi(bracket, z) == total((one, psi(nu, right(z))), (-one, right(psi(nu, z))),
                                        (-one, psi_defect))
        terms = (phi_defect, psi_defect, phi(bracket, w), psi(bracket, z))
        nonzero.update(t for t, v in enumerate(terms) if any(v))
    # a random product fails both identities, so no term is zero in every draw
    assert nonzero == {0, 1, 2, 3}


def test_join_keeps_residuals_that_cancel():
    # sl2: many tuples are reached by nonzero terms that sum to zero
    sl2 = g.builtin("sl2_Z")
    residuals = [r for _, r in join_residuals(sl2._index, AXIOM_TERMS)]
    assert residuals and not any(any(r.values()) for r in residuals)


def test_index_lists_each_constant_under_every_slot_and_output():
    system = VALID["sl3_root_Q"]
    table, by_slot, by_output = system._index
    stored = dict(system.nonzero_triples())
    assert table == stored
    for s, i in product(range(3), range(system.dim)):
        assert by_slot[s][i] == sorted(k for k in stored if k[s] == i)
    for l in range(system.dim):
        assert by_output[l] == sorted(k for k, e in stored.items() if l in e)


# -- the verdict at the pivot pairs of the action matrix ------------------------


def over_f7(system):
    """A rational system with integer-coded constants read over GF(7)."""
    constants = {
        key: {l: F7.element(str(x)) for l, x in entry.items()}
        for key, entry in system.nonzero_triples()
    }
    return g.GradedTripleSystem(F7, system.group, system.degrees, constants)


def pivot_pair_cases():
    """Valid systems over Q and GF(7), four seeded one-constant mutants of
    each, and {b0, b1, b2} = b0 on zero_3, which fails middle_slot and
    right_slot but not six_term."""
    bases = {}
    for name in g.BUILTIN_NAMES:
        bases[f"{name}_Q"] = g.builtin(name)
        bases[f"{name}_F7"] = over_f7(g.builtin(name))
    for label, field in (("Q", Q), ("F7", F7)):
        bases[f"sl2x2_{label}"] = sl2_power(2, field)
        bases[f"sl2x3_{label}"] = sl2_power(3, field)
        bases[f"sl3_root_{label}"] = sl_root(3, field)
    for seed in range(10):
        bases[f"variant{seed}"] = random_variant(seed)
    cases = {}
    for name, system in bases.items():
        rng = random.Random(name)
        cases[name] = [system]
        for _ in range(4):
            cell = [rng.randrange(system.dim) for _ in range(4)]
            delta = system.field.element(rng.choice([1, -1, 2]))
            cases[name].append(mutate_constant(system, *cell, delta))
    cases["zero_3_Q"].append(mutate_constant(g.builtin("zero_3"), 0, 1, 2, 0, Q.one))
    return cases


PIVOT_PAIR_CASES = pivot_pair_cases()


def failing_identities(system):
    """The names of the identities the joins find violated."""
    names = {v.identity for v in system.verify_axioms()}
    return names | ({"six_term"} if system.verify_fundamental_identity() else set())


@pytest.mark.parametrize("name", sorted(PIVOT_PAIR_CASES))
def test_pivot_pair_verdict_equals_the_joins_verdict(name):
    for system in PIVOT_PAIR_CASES[name]:
        joins = (not system.verify_axioms(), not system.verify_fundamental_identity())
        assert pivot_pair_verdict(system) == joins


def test_pivot_pair_cases_pass_fail_all_three_and_fail_exactly_two():
    outcomes = {
        frozenset(failing_identities(system))
        for systems in PIVOT_PAIR_CASES.values()
        for system in systems[1:]
    }
    assert frozenset() in outcomes
    assert frozenset({"middle_slot", "right_slot", "six_term"}) in outcomes
    two = {o for o in outcomes if len(o) == 2}
    assert frozenset({"middle_slot", "right_slot"}) in two and len(two) >= 2


# -- GradedLeibnizAlgebra.verify -------------------------------------------------


def nonlie_candidates():
    """All 27 algebras `conftest.search_nonlie_example` scans, in its order."""
    group = g.AbelianGroup((0,))
    degrees = [group.element([1]), group.element([2]), group.element([3])]
    out = []
    for alpha, beta, gamma in product((0, 1, -1), repeat=3):
        brackets = {(0, 0): {1: alpha}, (0, 1): {2: beta}, (1, 0): {2: gamma}}
        out.append(g.GradedLeibnizAlgebra.build(Q, group, degrees, brackets))
    return out


def bracket_mutants(algebra, seed, count):
    """Seeded copies with one bracket cell changed."""
    rng = random.Random(seed)
    n = algebra.dim
    out = []
    for _ in range(count):
        table = algebra.bracket_table()
        i, j, l = (rng.randrange(n) for _ in range(3))
        entry = table.setdefault((i, j), {})
        entry[l] = entry.get(l, algebra.field.zero) + algebra.field.element(rng.choice([1, -1, 3]))
        out.append(g.GradedLeibnizAlgebra.build(algebra.field, algebra.group, algebra.degrees, table))
    return out


def algebras():
    out = {
        "sl2_Q": g.sl2_algebra(Q),
        "sl2_F7": g.sl2_algebra(F7),
        "nonlie": nonlie_algebra(),
        "sl3_root": sl_root_algebra(3, Q),
    }
    for t, algebra in enumerate(nonlie_candidates()):
        out[f"candidate{t:02d}"] = algebra
    for name in ("sl2_Q", "sl2_F7", "nonlie"):
        for t, mutant in enumerate(bracket_mutants(out[name], name, 6)):
            out[f"{name}_m{t}"] = mutant
    for t, mutant in enumerate(bracket_mutants(out["sl3_root"], "sl3", 3)):
        out[f"sl3_root_m{t}"] = mutant
    out.update(fractional_mutants())
    return out


def fractional_mutants():
    """sl2 with [e, f] = h/2 and the off-degree bracket [e, e] = -2/3 f, over
    Q and GF(7).  The other algebras have integer brackets, so only these
    make the grading check divide a violation back by a scale D > 1 (6 over Q)."""
    out = {}
    for label, field in (("Q", Q), ("F7", F7)):
        algebra = g.sl2_algebra(field)
        table = algebra.bracket_table()
        table[(0, 2)] = {1: field.element("1/2")}
        table[(0, 0)] = {2: field.element("-2/3")}
        out[f"sl2_{label}_frac"] = g.GradedLeibnizAlgebra.build(
            field, algebra.group, algebra.degrees, table
        )
    return out


ALGEBRAS = algebras()


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_algebra_verify_matches_dense_loop(name):
    algebra = ALGEBRAS[name]
    assert algebra.verify() == oracle_algebra_verify(algebra)


def test_fractional_grading_violation_is_divided_back():
    # the algebra's check and the system's are one function on integer images
    for label, field in (("Q", Q), ("F7", F7)):
        zero, value = field.zero, field.element("-2/3")
        violations = ALGEBRAS[f"sl2_{label}_frac"].verify()
        assert violations[0] == g.Violation("grading", (0, 0, 2), (zero, zero, value))
        assert [v.identity for v in violations].count("grading") == 1
        system = mutate_constant(sl2_power(1, field), 0, 0, 0, 2, value)
        assert system.scale == (3 if field is Q else 1)
        grading = system.verify_grading()
        assert grading == [g.Violation("grading", (0, 0, 0, 2), (zero, zero, value))]


def test_algebra_cases_cover_both_outcomes_and_both_kinds():
    results = [oracle_algebra_verify(a) for a in ALGEBRAS.values()]
    kinds = {v.identity for violations in results for v in violations}
    assert kinds == {"grading", "right_leibniz"}
    assert sum(1 for r in results if not r) >= 10
    assert sum(1 for r in results if r) >= 20


def test_algebra_join_reaches_every_triple_with_a_nonzero_term():
    for name in ("sl2_Q_m0", "nonlie_m1", "sl3_root_m2"):
        algebra = ALGEBRAS[name]
        n = algebra.dim
        index = index_constants(algebra.bracket_table(), n, 2)
        reached = {q for (q, _), _ in join_residuals(index, RIGHT_LEIBNIZ)}
        zero, one = algebra.field.zero, algebra.field.one
        units = [[one if t == i else zero for t in range(n)] for i in range(n)]

        def bracket(x, y):
            return oracle_bracket(algebra, x, y)

        for y, z, x in product(range(n), repeat=3):
            terms = (
                bracket(bracket(units[y], units[z]), units[x]),
                bracket(bracket(units[y], units[x]), units[z]),
                bracket(units[y], bracket(units[z], units[x])),
            )
            if any(any(term) for term in terms):
                assert (y, z, x) in reached, name
