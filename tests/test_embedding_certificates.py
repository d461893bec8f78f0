"""Sparse embedding kernels and certificates against the dense oracles.

`StandardEmbedding` carries every bracket on sparse kernels read off the
stored constants, and `build_embedding` runs the span certificate of the
action matrix and the right Leibniz join on its bracket table, the one
certificate of descent and of the identities.  Here both are compared with
`oracle_tensor_bracket`, `oracle_triple`, `oracle_reduce` and
`oracle_certify` in conftest, which work on dense vectors and share no code
with the kernels: on the builtins, on sl2^2 over Q and GF(7), on sl3 graded
by its root lattice over GF(7), and on seeded one-constant mutants, which
reach the failure paths.
"""

from __future__ import annotations

import json
import random
from collections import Counter

import pytest

import gradedlts as g
from gradedlts.embedding import StandardEmbedding, _ActionMatrix
from gradedlts.identities import RIGHT_LEIBNIZ, index_constants, term_violations

from conftest import (
    dense_table,
    pivot_pair_cases,
    exact_bracket,
    mutate_constant,
    oracle_certify,
    oracle_reduce,
    oracle_reduction,
    oracle_tensor_bracket,
    oracle_triple,
    sl2_square,
    sl_root,
)


def outcome(run):
    """None when `run()` passes, else (type, message, witness) of what it
    raised; every witness survives `json.dumps`."""
    try:
        run()
    except (g.NotWellDefined, g.LeibnizIdentityFailure) as exc:
        json.dumps(exc.witness)
        return type(exc), str(exc), exc.witness
    return None


def library_outcome(system):
    """The embedding of the system's action matrix, built whether or not it
    passes, and the outcome of `build_embedding`."""
    emb, _ = system._action_matrix().embedding()
    return emb, outcome(lambda: g.build_embedding(system))


def verdict(result):
    """An outcome's exception type and message, without the witness."""
    return result and result[:2]


def assert_oracle_agrees(system, emb, got):
    """`got` is the dense oracle's Leibniz outcome on the embedding's table,
    witness included, and the dense descent loop over all (coordinate
    tensor, basis vector of N) pairs finds no failure that the table misses;
    returns the oracle's outcome with that loop."""
    every_pair = oracle_certify(system, emb.null_space, emb.coset_indices)
    leibniz = oracle_certify(system, emb.null_space, emb.coset_indices, vectors=[])
    assert got == leibniz
    # a bracket escaping N shows in the table as a Leibniz failure
    if every_pair is None or every_pair[0] is not g.NotWellDefined:
        assert every_pair == leibniz
    else:
        assert verdict(leibniz) == (
            g.LeibnizIdentityFailure, "quotient algebra fails the right Leibniz identity"
        )
    return every_pair


def assert_matches_oracle(system):
    emb, got = library_outcome(system)
    assert_oracle_agrees(system, emb, got)
    return got


def certificate_cases():
    cases = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    cases["sl2x2_Q"] = sl2_square(g.RationalField())
    cases["sl2x2_F7"] = sl2_square(g.PrimeField(7))
    cases["sl3_root_F7"] = sl_root(3, g.PrimeField(7))
    return cases


@pytest.mark.parametrize("name", sorted(certificate_cases()))
def test_certificates_match_dense_oracle(name):
    assert assert_matches_oracle(certificate_cases()[name]) is None


def random_mutants(count, seed):
    """Seeded one-constant mutants of the builtins of dimension 3."""
    rng = random.Random(seed)
    names = ("sl2_Z", "nonlie_J", "trivial_grading_sl2", "zero_3")
    bases = [g.builtin(name) for name in names]
    for _ in range(count):
        base = rng.choice(bases)
        n = base.dim
        cell = [rng.randrange(n) for _ in range(4)]
        delta = base.field.element(rng.choice([-2, -1, 1, 2, 3]))
        yield mutate_constant(base, *cell, delta)


def failure_path(result):
    if result is None:
        return "pass"
    kind, message, _ = result
    return f"{kind.__name__}: {message}"


def test_mutant_certificates_match_dense_oracle():
    paths, dense_paths = Counter(), Counter()
    for mutant in random_mutants(60, 5):
        emb, got = library_outcome(mutant)
        paths[failure_path(got)] += 1
        dense_paths[failure_path(assert_oracle_agrees(mutant, emb, got))] += 1
    # The dense loop finds four brackets escaping N; the table fails the
    # Leibniz identity on each of them, as on every mutant that fails.  The
    # shape and the action check of the free-column vectors are unreachable
    # once the elimination is right.
    leibniz = "LeibnizIdentityFailure: quotient algebra fails the right Leibniz identity"
    escape = "NotWellDefined: bracket of the tensor square into the null space escapes it"
    assert paths == {"pass": 5, leibniz: 55}
    assert dense_paths == {"pass": 5, escape: 4, leibniz: 51}


def first_leibniz_violation(emb):
    """The first triple of the full right Leibniz join on the table, as
    `build_embedding` named it when it collected every violation, or None."""
    m = emb.dim_even + emb.system.dim
    scale = emb.system.scale * emb._reduction_scale
    index = index_constants(emb.table, m, 2)
    violations = term_violations(emb.system.field, index, RIGHT_LEIBNIZ, scale**2)
    return violations[0].indices if violations else None


IDENTITY_CASES = pivot_pair_cases()


@pytest.mark.parametrize("name", sorted(IDENTITY_CASES))
def test_build_embedding_raises_exactly_when_the_identities_fail(name):
    # NotWellDefined only for a span failure, which a correct eliminator
    # never produces; a system that fails its identities fails the table's
    # Leibniz identity, at the first triple of the full join
    for system in IDENTITY_CASES[name]:
        fails = bool(system.verify_axioms() or system.verify_fundamental_identity())
        got = outcome(lambda: g.build_embedding(system))
        emb, failing = system._action_matrix().embedding()
        assert failing == first_leibniz_violation(emb)
        if fails:
            assert got == (g.LeibnizIdentityFailure,
                           "quotient algebra fails the right Leibniz identity",
                           {"triple": failing})
        else:
            assert got is None and failing is None


def test_identity_cases_reach_both_outcomes():
    paths = Counter(
        failure_path(outcome(lambda: g.build_embedding(system)))
        for systems in IDENTITY_CASES.values()
        for system in systems
    )
    assert set(paths) == {
        "pass",
        "LeibnizIdentityFailure: quotient algebra fails the right Leibniz identity",
    }


def test_certificate_instance_counters():
    system = sl2_square(g.RationalField())
    emb = g.build_embedding(system)
    n, null_dim = system.dim, emb.null_space.dim
    assert (n, null_dim, emb.dim_even) == (6, 30, 6)
    # one free-column vector per null dimension: its shape and actions, then
    # [p, nu] for the dim_even pivot coordinates p, certified by the table's
    # (even, odd, odd) block without forming a bracket with nu
    assert emb.descent_instances == null_dim * (1 + emb.dim_even) == 210
    # every basis triple of L0 + L1
    assert emb.leibniz_instances == (emb.dim_even + n) ** 3 == 1728
    # the embedding is built once per system
    assert g.build_embedding(system) is emb


def forged_free_vectors(free, columns):
    """The free-column vectors forged four ways, each with the column the
    shape check names: two free coordinates, one missing, one extra, and
    a free coordinate moved to the wrong vector's column."""
    merged = [{**free[0], **{c: x for c, x in free[1].items() if c not in free[0]}}, *free[1:]]
    swapped = [free[1], free[0], *free[2:]]
    return {
        "two_free_coordinates": (merged, columns[0]),
        "missing": (free[:-1], columns[-1]),
        "extra": ([*free, free[0]], None),
        "out_of_order": (swapped, columns[0]),
    }


def forge(system, forgery):
    """The system's action matrix re-certified with forged free vectors,
    and the column the shape check names."""
    action = system._action_matrix()
    columns = [c for c in range(action.ncols) if c not in action.echelon.pivots]
    vectors, column = forged_free_vectors(action.free, columns)[forgery]
    # every forged vector lies in ker A: only the shape check can reject them
    assert all(action.failing_action(nu) is None for nu in vectors)
    action.certify(vectors)
    return action, column


@pytest.mark.parametrize("forgery", ["two_free_coordinates", "missing", "extra", "out_of_order"])
def test_shape_check_rejects_forged_free_vectors(forgery):
    system = sl2_square(g.RationalField())
    action, column = forge(system, forgery)
    assert not action.identities_hold
    with pytest.raises(g.NotWellDefined) as info:
        g.build_embedding(system)
    assert str(info.value) == "null vectors do not match the free columns of the action matrix"
    assert info.value.witness == {"column": column}


@pytest.mark.parametrize("forgery", ["two_free_coordinates", "missing", "extra", "out_of_order"])
def test_span_failure_is_raised_before_the_table_is_built(forgery, monkeypatch):
    # a mutant that fails the Leibniz identity: re-certified with forged
    # free vectors, the span failure is raised and no table is built
    system = mutate_constant(g.builtin("sl2_Z"), 1, 2, 0, 1, g.RationalField().one)
    assert _ActionMatrix(system).embedding()[1] is not None
    _, column = forge(system, forgery)

    def no_table(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(StandardEmbedding, "__init__", no_table)
    assert not system._action_matrix().identities_hold
    with pytest.raises(g.NotWellDefined) as info:
        g.build_embedding(system)
    assert str(info.value) == "null vectors do not match the free columns of the action matrix"
    assert info.value.witness == {"column": column}


def test_free_vector_outside_the_kernel_is_rejected():
    # the right shape, but column c of A is not the combination it claims
    system = sl2_square(g.RationalField())
    action = system._action_matrix()
    free = action.free
    t, nu = next((t, nu) for t, nu in enumerate(free) if len(nu) > 1)
    c = min(set(nu) - set(action.echelon.pivots))
    action.certify([*free[:t], {**nu, c: 2 * nu[c]}, *free[t + 1:]])
    with pytest.raises(g.NotWellDefined) as info:
        g.build_embedding(system)
    assert str(info.value) == "left action of a null tensor does not vanish"
    assert info.value.witness["tensor"][c] == "1"


# -- the sparse kernels ----------------------------------------------------------


def dense(emb, sparse, size):
    zero = emb.system.field.zero
    out = [zero] * size
    for t, x in sparse.items():
        out[t] = x
    return out


def random_sparse(rng, field, size, nonzeros):
    values = [-3, -2, -1, 1, 2, 5]
    return {t: field.element(rng.choice(values)) for t in rng.sample(range(size), nonzeros)}


@pytest.mark.parametrize("field", [g.RationalField(), g.PrimeField(7)], ids=["Q", "F7"])
def test_sparse_kernels_match_oracles(field):
    system = sl2_square(field)
    emb = g.build_embedding(system)
    table = dense_table(system)
    reduction = oracle_reduction(emb.null_space, emb.coset_indices)
    n, nn = system.dim, emb.tensor_dim
    rng = random.Random(23)
    units = [[field.one if t == i else field.zero for t in range(n)] for i in range(n)]
    # every coordinate tensor against the zero tensor and two random ones
    for p in range(nn):
        dp = dense(emb, {p: field.one}, nn)
        for size in (0, rng.randint(1, 6), rng.randint(1, 6)):
            b = random_sparse(rng, field, nn, size)
            bracket = emb._bracket(p, b)
            assert all(bracket.values())
            expected = oracle_tensor_bracket(system, dp, dense(emb, b, nn), table)
            assert dense(emb, bracket, nn) == expected, p
    for trial in range(40):
        # zero tensors on either side, then growing random supports
        a = random_sparse(rng, field, nn, 0 if trial < 3 else rng.randint(1, 6))
        b = random_sparse(rng, field, nn, 0 if trial % 20 == 1 else rng.randint(1, 6))
        da, db = dense(emb, a, nn), dense(emb, b, nn)
        assert list(exact_bracket(emb, da, db)) == oracle_tensor_bracket(system, da, db, table)
        reduced = emb._reduce(a)
        assert all(reduced.values())
        assert dense(emb, reduced, emb.dim_even) == oracle_reduce(field, reduction, da)
    # [b_i (x) b_j, b_k (x) b_k] cancels term by term even where {b_i, b_j, b_k} != 0
    cancelling = 0
    for (i, j, k), _ in system.nonzero_triples():
        assert any(oracle_triple(system, units[i], units[j], units[k], table))
        assert emb._bracket(i * n + j, {k * n + k: field.element(3)}) == {}
        cancelling += 1
    assert cancelling == 24
    # null vectors reduce to the empty mapping: their columns cancel in every row
    for nu in emb.null_space.basis:
        assert emb._reduce({c: x for c, x in enumerate(nu) if x}) == {}
