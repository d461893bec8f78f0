"""Sparse embedding kernels and certificates against the dense oracles.

`StandardEmbedding` carries every bracket on sparse kernels read off the
stored constants, and `build_embedding` runs the descent and Leibniz
certificates on them.  Here both are compared with `oracle_tensor_bracket`,
`oracle_triple`, `oracle_reduce` and `oracle_certify` in conftest, which
work on dense vectors and share no code with the kernels: on the builtins,
on sl2^2 over Q and GF(7), and on seeded one-constant mutants, which reach
the failure paths.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import gradedlts as g
from gradedlts.embedding import (
    StandardEmbedding,
    _ActionMatrix,
    _certify_descent,
    _certify_leibniz_identity,
)
from gradedlts.linalg import Echelon

from conftest import (
    dense_table,
    exact_bracket,
    exact_phi,
    exact_psi,
    mutate_constant,
    oracle_actions,
    oracle_certify,
    oracle_reduce,
    oracle_reduction,
    oracle_tensor_bracket,
    oracle_triple,
    sl2_square,
)


def uncertified(system):
    """The embedding as `build_embedding` constructs it, before either certificate."""
    action = _ActionMatrix(system)
    reduced = Echelon(system.field, action.ncols, (row for _, row in action.rows))
    rows = tuple(reduced.int_rows[p] for p in reduced.pivots)
    emb = StandardEmbedding(system, action.ncols, reduced.kernel(), reduced.pivots, rows)
    return emb, action


def outcome(run):
    """None when `run()` passes, else (type, message, witness) of what it raised."""
    try:
        run()
    except (g.NotWellDefined, g.LeibnizIdentityFailure) as exc:
        return type(exc), str(exc), exc.witness
    return None


def library_outcome(system):
    emb, action = uncertified(system)

    def certify():
        _certify_descent(emb, action)
        _certify_leibniz_identity(emb)

    return emb, outcome(certify)


def assert_matches_oracle(system):
    emb, got = library_outcome(system)
    expected = oracle_certify(system, emb.null_space, emb.coset_indices)
    assert got == expected
    # build_embedding reaches the same outcome through its own construction
    assert outcome(lambda: g.build_embedding(system)) == expected
    return got


def certificate_cases():
    cases = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    cases["sl2x2_Q"] = sl2_square(g.RationalField())
    cases["sl2x2_F7"] = sl2_square(g.PrimeField(7))
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
    paths = Counter(failure_path(assert_matches_oracle(m)) for m in random_mutants(60, 5))
    # Two paths are unreachable once N = ker A is exact: the action check on
    # the N basis, and the inward bracket, since
    # [nu, b_k (x) b_l] = phi(nu)(b_k) (x) b_l - phi(nu)(b_l) (x) b_k = 0.
    assert paths == {
        "pass": 5,
        "NotWellDefined: bracket of the tensor square into the null space escapes it": 4,
        "LeibnizIdentityFailure: quotient algebra fails the right Leibniz identity": 51,
    }


def test_certificate_instance_counters():
    system = sl2_square(g.RationalField())
    emb = g.build_embedding(system)
    n, null_dim = system.dim, emb.null_space.dim
    assert (n, null_dim, emb.dim_even) == (6, 30, 6)
    # every null vector: its actions, then [t, nu] and [nu, t] for all n^2 coordinates
    assert emb.descent_instances == null_dim * (1 + 2 * n * n) == 2190
    # every basis triple of L0 + L1
    assert emb.leibniz_instances == (emb.dim_even + n) ** 3 == 1728


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
    for trial in range(40):
        # zero tensors on either side, then growing random supports
        a = random_sparse(rng, field, nn, 0 if trial < 3 else rng.randint(1, 6))
        b = random_sparse(rng, field, nn, 0 if trial % 20 == 1 else rng.randint(1, 6))
        w = random_sparse(rng, field, n, 0 if trial == 2 else rng.randint(1, n))
        da, db = dense(emb, a, nn), dense(emb, b, nn)
        bracket = emb._bracket(a, b)
        assert all(bracket.values())
        assert dense(emb, bracket, nn) == oracle_tensor_bracket(system, da, db, table)
        assert list(exact_bracket(emb, da, db)) == oracle_tensor_bracket(system, da, db, table)
        reduced = emb._reduce(a)
        assert all(reduced.values())
        assert dense(emb, reduced, emb.dim_even) == oracle_reduce(field, reduction, da)
        phi, psi = oracle_actions(system, da, table)
        dw = dense(emb, w, n)
        expect_phi, expect_psi = [field.zero] * n, [field.zero] * n
        for k, coef in w.items():
            expect_phi = [x + coef * y for x, y in zip(expect_phi, phi[k])]
            expect_psi = [x + coef * y for x, y in zip(expect_psi, psi[k])]
        assert dense(emb, emb._phi(a, w), n) == expect_phi
        assert dense(emb, emb._psi(a, w), n) == expect_psi
        assert list(exact_phi(emb, da, dw)) == expect_phi
        assert list(exact_psi(emb, da, dw)) == expect_psi
    # [b_i (x) b_j, b_k (x) b_k] cancels term by term even where {b_i, b_j, b_k} != 0
    cancelling = 0
    for (i, j, k), _ in system.nonzero_triples():
        assert any(oracle_triple(system, units[i], units[j], units[k], table))
        assert emb._bracket({i * n + j: field.one}, {k * n + k: field.element(3)}) == {}
        cancelling += 1
    assert cancelling == 24
    # null vectors reduce to the empty mapping: their columns cancel in every row
    for nu in emb.null_space.basis:
        assert emb._reduce({c: x for c, x in enumerate(nu) if x}) == {}
    assert emb._bracket(a, {}) == emb._bracket({}, a) == {}
