"""Sparse embedding kernels and certificates against the dense oracles.

`StandardEmbedding` carries every bracket on sparse kernels read off the
stored constants, and `build_embedding` runs the descent and Leibniz
certificates on them.  Here both are compared with `oracle_tensor_bracket`,
`oracle_triple`, `oracle_reduce` and `oracle_certify` in conftest, which
work on dense vectors and share no code with the kernels: on the builtins,
on sl2^2 over Q and GF(7), on sl3 graded by its root lattice over GF(7),
and on seeded one-constant mutants, which reach the failure paths.
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
from gradedlts.linalg import Subspace

from conftest import (
    dense_table,
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


def uncertified(system):
    """The embedding as `build_embedding` constructs it, before either
    certificate, with the action matrix and the kernel's free-column vectors."""
    action = _ActionMatrix(system)
    reduced = Subspace(system.field, action.ncols, (row for _, row in action.rows))
    rows = tuple(reduced.integral_rows())
    free = reduced.free_vectors()
    emb = StandardEmbedding(system, action.ncols, free, reduced.pivots, rows)
    return emb, action, free


def outcome(run):
    """None when `run()` passes, else (type, message, witness) of what it raised."""
    try:
        run()
    except (g.NotWellDefined, g.LeibnizIdentityFailure) as exc:
        return type(exc), str(exc), exc.witness
    return None


def library_outcome(system):
    emb, action, free = uncertified(system)

    def certify():
        _certify_descent(emb, action, free)
        _certify_leibniz_identity(emb)

    return emb, free, outcome(certify)


def exact_rows(emb, free):
    """The free-column vectors as exact dense rows, 1 at their free column."""
    pivots = set(emb.coset_indices)
    return [emb._exact(nu, emb.tensor_dim, nu[min(set(nu) - pivots)]) for nu in free]


def verdict(result):
    """An outcome's exception type and message, without the witness."""
    return result and result[:2]


def assert_oracle_agrees(system, emb, free, got):
    """`got` has the verdict of the dense oracle over all (coordinate tensor,
    basis vector of N) pairs, and equals its outcome over the pivot
    coordinates and the free-column vectors, witness included; returns the
    outcome over all pairs."""
    every_pair = oracle_certify(system, emb.null_space, emb.coset_indices)
    assert verdict(got) == verdict(every_pair)
    # the second run checks a subset of the brackets of the same span: only
    # a descent failure can differ
    if every_pair is None or every_pair[0] is not g.NotWellDefined:
        assert got == every_pair
    else:
        cosets = emb.coset_indices
        vectors = exact_rows(emb, free)
        assert got == oracle_certify(system, emb.null_space, cosets, cosets, vectors)
    return every_pair


def assert_matches_oracle(system):
    emb, free, got = library_outcome(system)
    assert_oracle_agrees(system, emb, free, got)
    # build_embedding reaches the same outcome through its own construction
    assert outcome(lambda: g.build_embedding(system)) == got
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
    paths = Counter(failure_path(assert_matches_oracle(m)) for m in random_mutants(60, 5))
    # Two paths are unreachable once the elimination is right: the shape and
    # the action check of the free-column vectors.  The inward bracket is not
    # formed at all: [nu, b_k (x) b_l] = L(nu) b_k (x) b_l - L(nu) b_l (x) b_k,
    # and the action check says L(nu) = 0.
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
    # one free-column vector per null dimension: its shape and actions, then
    # [p, nu] for the dim_even pivot coordinates p
    assert emb.descent_instances == null_dim * (1 + emb.dim_even) == 210
    # every basis triple of L0 + L1
    assert emb.leibniz_instances == (emb.dim_even + n) ** 3 == 1728


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


@pytest.mark.parametrize("forgery", ["two_free_coordinates", "missing", "extra", "out_of_order"])
def test_shape_check_rejects_forged_free_vectors(forgery):
    system = sl2_square(g.RationalField())
    emb, action, free = uncertified(system)
    columns = [c for c in range(emb.tensor_dim) if c not in emb.coset_indices]
    vectors, column = forged_free_vectors(free, columns)[forgery]
    # every forged vector lies in ker A: only the shape check can reject them
    assert all(action.failing_action(nu) is None for nu in vectors)
    with pytest.raises(g.NotWellDefined) as info:
        _certify_descent(emb, action, vectors)
    assert str(info.value) == "null vectors do not match the free columns of the action matrix"
    assert info.value.witness == {"column": column}


def test_free_vector_outside_the_kernel_is_rejected():
    # the right shape, but column c of A is not the combination it claims
    system = sl2_square(g.RationalField())
    emb, action, free = uncertified(system)
    t, nu = next((t, nu) for t, nu in enumerate(free) if len(nu) > 1)
    c = min(set(nu) - set(emb.coset_indices))
    forged = [*free[:t], {**nu, c: 2 * nu[c]}, *free[t + 1:]]
    with pytest.raises(g.NotWellDefined) as info:
        _certify_descent(emb, action, forged)
    assert str(info.value) == "left action of a null tensor does not vanish"
    assert info.value.witness["tensor"][c] == "1"


def embedding_eliminating_last(system, last):
    """The embedding on another complement of N, before its certificates: the
    greedy one when column `last` of A is eliminated after all the others.
    Its free-column vectors may use later pivots, which those of
    `build_embedding` never do: there a free column is a combination of
    earlier pivot columns, so the first escaping coordinate is a pivot."""
    action = _ActionMatrix(system)
    nn = action.ncols
    order = [c for c in range(nn) if c != last] + [last]
    position = {c: t for t, c in enumerate(order)}

    def back(vec):
        return {order[t]: x for t, x in vec.items()}

    moved = ({position[c]: x for c, x in row.items()} for _, row in action.rows)
    reduced = Subspace(system.field, nn, moved)
    pivots = tuple(sorted(order[q] for q in reduced.pivots))
    rows = tuple(back(reduced.int_rows[position[p]]) for p in pivots)
    free = sorted(map(back, reduced.free_vectors()), key=lambda v: min(set(v) - set(pivots)))
    emb = StandardEmbedding(system, nn, free, pivots, rows)
    return emb, action, free


def test_escape_at_a_free_column_is_witnessed_at_a_pivot():
    # {b_0, b_3, b_3} gains b_4: in the order of all coordinates the first
    # escape is [b_0 (x) b_1, nu], at column 1, free on this complement
    system = mutate_constant(sl2_square(g.RationalField()), 0, 3, 3, 4, g.RationalField().one)
    emb, action, free = embedding_eliminating_last(system, 1)
    assert 1 not in emb.coset_indices and 6 in emb.coset_indices
    got = outcome(lambda: _certify_descent(emb, action, free))
    every_pair = assert_oracle_agrees(system, emb, free, got)
    assert (every_pair[2]["coordinate"], got[2]["coordinate"]) == (1, 6)


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
