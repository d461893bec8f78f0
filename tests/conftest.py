"""Shared test helpers: independent brute-force oracles and fixture builders.

The oracles reimplement the checked mathematics directly (dense tables,
straight-line identity evaluation) so that library results are confirmed by
a second, structurally different computation.  They intentionally do not
reuse the library's sweep code.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import gradedlts as g


# -- independent oracles -----------------------------------------------------


def dense_table(system):
    """Dense n^3 table of product vectors, built from the public constants."""
    n = system.dim
    zero = system.field.zero
    table = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table[i][j][k] = [zero] * n
    for (i, j, k), entry in system.nonzero_triples():
        for l, c in entry.items():
            table[i][j][k][l] = c
    return table


def oracle_triple(system, x, y, z):
    """Direct trilinear evaluation from the dense table."""
    n = system.dim
    zero = system.field.zero
    table = dense_table(system)
    out = [zero] * n
    for i in range(n):
        if x[i] == zero:
            continue
        for j in range(n):
            if y[j] == zero:
                continue
            for k in range(n):
                c = x[i] * y[j] * z[k]
                if c != zero:
                    for l in range(n):
                        out[l] = out[l] + c * table[i][j][k][l]
    return out


def oracle_rref(m):
    """Dense Gauss-Jordan elimination, column by column: (rows, pivots).

    The row loop the library ran before its sparse eliminator, kept as the
    reference the eliminator is compared against.
    """
    field = m.field
    zero, one = field.zero, field.one
    rows = [list(r) for r in m.rows]
    nrows, ncols = m.nrows, m.ncols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c] != zero:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = one / rows[r][c]
        if inv != one:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != zero:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows[: len(pivots)]], tuple(pivots)


def oracle_grading_ok(system) -> bool:
    for (i, j, k), entry in system.nonzero_triples():
        expect = (
            system.degrees[i].compose(system.degrees[j]).compose(system.degrees[k])
        )
        for l in entry:
            if system.degrees[l] != expect:
                return False
    return True


def oracle_axioms_ok(system) -> bool:
    """Direct evaluation of the two defining identities on basis quintuples."""
    n = system.dim
    zero = system.field.zero
    T = dense_table(system)

    def tv(vec, d, e):
        # {vec, b_d, b_e} for a coefficient vector over the basis
        out = [zero] * n
        for l in range(n):
            if vec[l] != zero:
                row = T[l][d][e]
                for m in range(n):
                    out[m] = out[m] + vec[l] * row[m]
        return out

    def tm(a, vec, e):
        out = [zero] * n
        for l in range(n):
            if vec[l] != zero:
                row = T[a][l][e]
                for m in range(n):
                    out[m] = out[m] + vec[l] * row[m]
        return out

    def tr(a, b, vec):
        out = [zero] * n
        for l in range(n):
            if vec[l] != zero:
                row = T[a][b][l]
                for m in range(n):
                    out[m] = out[m] + vec[l] * row[m]
        return out

    for a, b, c, d, e in product(range(n), repeat=5):
        lhs = tm(a, T[b][c][d], e)
        t1 = tv(T[a][b][c], d, e)
        t2 = tv(T[a][c][b], d, e)
        t3 = tv(T[a][d][b], c, e)
        t4 = tv(T[a][d][c], b, e)
        if any(lhs[m] != t1[m] - t2[m] - t3[m] + t4[m] for m in range(n)):
            return False
        lhs = tr(a, b, T[c][d][e])
        t1 = tv(T[a][b][c], d, e)
        t2 = tv(T[a][b][d], c, e)
        t3 = tv(T[a][b][e], c, d)
        t4 = tv(T[a][b][e], d, c)
        if any(lhs[m] != t1[m] - t2[m] - t3[m] + t4[m] for m in range(n)):
            return False
    return True


def oracle_is_valid(system) -> bool:
    """Grading first (cheap), then the defining identities."""
    return oracle_grading_ok(system) and oracle_axioms_ok(system)


def oracle_is_lie(system) -> bool:
    """Direct Lie-triple axiom test: {x,x,z} = 0 and the ternary Jacobi sum."""
    n = system.dim
    zero = system.field.zero
    T = dense_table(system)
    for i in range(n):
        for k in range(n):
            if any(v != zero for v in T[i][i][k]):
                return False
    for i, j, k in product(range(n), repeat=3):
        if any(a + b != zero for a, b in zip(T[i][j][k], T[j][i][k])):
            return False
        if any(
            a + b + c != zero for a, b, c in zip(T[i][j][k], T[j][k][i], T[k][i][j])
        ):
            return False
    return True


def mutate_constant(system, i, j, k, l, delta):
    """Return a copy of the system with delta added to one structure cell."""
    prods = {key: dict(entry) for key, entry in system.nonzero_triples()}
    entry = prods.setdefault((i, j, k), {})
    entry[l] = entry.get(l, system.field.zero) + delta
    return g.GradedTripleSystem(system.field, system.group, system.degrees, prods)


def sl2_square(field) -> g.GradedTripleSystem:
    """sl2 + sl2 graded by Z^2: copy i has degrees (e_i, 0, -e_i), so n = 6."""
    copy = g.from_leibniz_algebra(g.sl2_algebra(field))
    target = g.AbelianGroup((0, 0))
    parts = [
        g.relabel_degrees(copy, target, [[1 if t == i else 0 for t in range(2)]])
        for i in range(2)
    ]
    return g.direct_sum(parts)


# -- randomized graded variants ------------------------------------------------


_VARIANT_GROUPS = [(0,), (0, 0), (5,), (7,), (0, 3)]


def random_variant(seed: int) -> g.GradedTripleSystem:
    """Deterministic random direct sum of relabeled building blocks.

    Blocks are drawn from the simple Lie fixture, the non-Lie fixture, and
    one-dimensional zero systems; each block's integer grading is pushed
    through a random homomorphism into a random target group.  Any such
    variant is a valid graded system, so the class ideals must pass the
    ideal predicate on all of them.
    """
    rng = random.Random(seed)
    field = rng.choice([g.RationalField(), g.PrimeField(5), g.PrimeField(7)])
    target = g.AbelianGroup(rng.choice(_VARIANT_GROUPS))
    n_blocks = rng.randint(1, 2)
    blocks = []
    for _ in range(n_blocks):
        kind = rng.choice(["sl2", "nonlie", "zero"])
        if kind == "sl2":
            block = g.from_leibniz_algebra(g.sl2_algebra(field=field))
        elif kind == "nonlie":
            block = g.from_leibniz_algebra(g.nonlie_algebra(field=field))
        else:
            block = g.GradedTripleSystem(
                field, g.AbelianGroup((0,)), [g.AbelianGroup((0,)).element([1])], {}
            )
        image = [[rng.randint(-2, 2) for _ in range(target.rank)]]
        blocks.append(g.relabel_degrees(block, target, image))
    return g.direct_sum(blocks)


@pytest.fixture(scope="session")
def builtins():
    return {name: g.builtin(name) for name in g.BUILTIN_NAMES}
