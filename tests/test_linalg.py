"""Exact linear algebra: canonical forms, the subspace lattice, complements."""

import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import oracle_rref
from gradedlts import linalg
from gradedlts.linalg import (
    PrimeField,
    Subspace,
    complete_complement,
)
from gradedlts.rational import RationalField

Q = RationalField()
F5 = PrimeField(5)


# `Subspace.basis` is the reduced row echelon form of the spanning rows.


def test_rref_identity_is_fixed():
    identity = tuple(tuple(Fraction(int(t == i)) for t in range(3)) for i in range(3))
    sub = Subspace(Q, 3, identity)
    assert sub.basis == identity
    assert sub.pivots == (0, 1, 2)


def test_rref_collapses_proportional_rows():
    sub = Subspace(Q, 2, [[2, 4], [1, 2]])
    assert sub.basis == ((Fraction(1), Fraction(2)),)
    assert sub.pivots == (0,)


def test_rref_scales_by_field_inverse_mod_5():
    # 2^-1 = 3 in the 5-element field, so the row (2, 4) normalizes to (1, 2)
    sub = Subspace(F5, 2, [[F5.element(2), F5.element(4)]])
    assert sub.basis == ((F5.element(1), F5.element(2)),)
    assert sub.pivots == (0,)


def test_intersection_of_coordinate_planes():
    xy = Subspace(Q, 3, [[1, 0, 0], [0, 1, 0]])
    yz = Subspace(Q, 3, [[0, 1, 0], [0, 0, 1]])
    assert xy.intersect(yz) == Subspace(Q, 3, [[0, 1, 0]])


def test_sum_with_zero_is_identity():
    v = Subspace(Q, 3, [[1, 2, 3], [0, 1, 1]])
    assert Subspace(Q, 3).sum(v) == v


def test_kernel_of_difference_row():
    k = Subspace(Q, 2, [[1, -1]]).kernel()
    assert k == Subspace(Q, 2, [[1, 1]])


def test_complement_of_zero_is_whole_carrier():
    v = Subspace(Q, 3, [[1, 0, 2], [0, 1, 0]])
    assert complete_complement(Subspace(Q, 3), v) == v


def test_complement_of_whole_carrier_is_zero():
    v = Subspace(Q, 3, [[1, 0, 2], [0, 1, 0]])
    assert complete_complement(v, v) == Subspace(Q, 3)


def test_complement_takes_first_standard_vector():
    # Oracle: enumerate standard vectors in index order, keep those that
    # enlarge the span.  For span{e0 + e1} inside the plane, e0 already
    # enlarges, so the greedy complement is span{e0}, not span{e1}.
    sub = Subspace(Q, 2, [[1, 1]])
    w = complete_complement(sub, Subspace.full(Q, 2))
    assert w == Subspace(Q, 2, [[1, 0]])


def test_complement_requires_containment():
    with pytest.raises(ValueError):
        complete_complement(Subspace(Q, 2, [[1, 0]]), Subspace(Q, 2, [[0, 1]]))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        Subspace(Q, 2, [[1, 0]]).sum(Subspace(Q, 3, [[1, 0, 0]]))
    for within in (Subspace(Q, 3, []), Subspace(F5, 2, [])):
        with pytest.raises(ValueError, match="different ambient spaces"):
            complete_complement(Subspace(Q, 2, []), within)


# A sparse vector with a column outside [0, ambient) gets the error of a
# dense vector of the wrong length.
@pytest.mark.parametrize("column", [3, 5, -1])
def test_subspace_rejects_sparse_column_outside_ambient(column):
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        Subspace(Q, 3, [[1, 0]])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        Subspace(Q, 3, [{0: 1}, {column: 1}])


@pytest.mark.parametrize("column", [3, 7, -1])
def test_contains_rejects_sparse_column_outside_ambient(column):
    sub = Subspace(Q, 3, [[1, 0, 0]])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        sub.contains([1, 0])
    with pytest.raises(ValueError, match="ambient dimension mismatch"):
        sub.contains({column: 1})


def test_zero_dimensional_ambient():
    z = Subspace(Q, 0)
    assert z.dim == 0
    assert z == Subspace.full(Q, 0)
    assert complete_complement(z, z).dim == 0


def test_prime_field_requires_prime_modulus():
    from gradedlts.errors import InputError

    with pytest.raises(InputError):
        PrimeField(6)


# psi_12 = 399165290221 * 798330580441 is a strong pseudoprime to the 12
# prime bases 2..37; the 13 bases 2..41 are exact below psi_13
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_prime_field_rejects_the_pseudoprime_psi_12():
    from gradedlts.errors import InputError

    assert PSI_12 == 399165290221 * 798330580441
    assert not linalg.is_prime(PSI_12)
    with pytest.raises(InputError, match="not a prime"):
        PrimeField(PSI_12)


def test_prime_field_accepts_a_large_prime_below_the_bound():
    assert linalg.is_prime(2**61 - 1)
    assert PrimeField(2**61 - 1).p == 2**61 - 1


@pytest.mark.parametrize("p", [PSI_13, PSI_13 + 2, 2**89 - 1])
def test_moduli_past_the_primality_bound_are_input_errors(p):
    from gradedlts.errors import InputError

    with pytest.raises(InputError, match="too large"):
        PrimeField(p)


# -- property tests -----------------------------------------------------------

small_fraction = st.builds(
    Fraction, st.integers(min_value=-4, max_value=4), st.integers(min_value=1, max_value=3)
)


def matrices(field_elems, max_dim=4):
    return st.integers(min_value=1, max_value=max_dim).flatmap(
        lambda nc: st.lists(
            st.lists(field_elems, min_size=nc, max_size=nc), min_size=1, max_size=max_dim
        ).map(lambda rows: (rows, nc))
    )


@given(matrices(small_fraction))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_and_row_space_preserved_rational(data):
    rows, nc = data
    r = Subspace(Q, nc, rows).basis
    assert Subspace(Q, nc, r).basis == r
    original = Subspace(Q, nc, rows)
    reduced = Subspace(Q, nc, r)
    assert original == reduced
    for row in rows:
        assert reduced.contains(row)
    for row in r:
        assert original.contains(row)


@given(matrices(st.integers(min_value=0, max_value=4).map(F5.element)))
@settings(max_examples=60, deadline=None)
def test_rref_idempotent_mod_5(data):
    rows, nc = data
    r = Subspace(F5, nc, rows).basis
    assert Subspace(F5, nc, r).basis == r
    assert Subspace(F5, nc, rows) == Subspace(F5, nc, r)


@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=["Q", "F7"])
def test_sum_dimension_decides_disjointness(field):
    # the rule class_ideal and decompose read independence by: a and b meet
    # in zero exactly when dim(a + b) = dim a + dim b; half the pairs share a
    # random combination of rows, so both outcomes occur
    rng = random.Random(23)
    outcomes = set()
    for _ in range(200):
        n = rng.randint(1, 6)

        def rows(count):
            return [[rng.randint(-2, 2) for _ in range(n)] for _ in range(count)]

        rows_a, rows_b = rows(rng.randint(0, 3)), rows(rng.randint(0, 3))
        if rows_a and rng.random() < 0.5:
            coefs = [rng.randint(-2, 2) for _ in rows_a]
            rows_b.append([sum(c * r[t] for c, r in zip(coefs, rows_a)) for t in range(n)])
        a, b = Subspace(field, n, rows_a), Subspace(field, n, rows_b)
        disjoint = a.intersect(b).is_zero()
        assert (a.sum(b).dim == a.dim + b.dim) == disjoint
        outcomes.add(disjoint)
    assert outcomes == {True, False}


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=0, max_size=3),
            st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=0, max_size=3),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_modular_dimension_identity(data):
    n, rows_a, rows_b = data
    a = Subspace(Q, n, rows_a)
    b = Subspace(Q, n, rows_b)
    assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=0, max_size=4),
            st.lists(st.lists(small_fraction, min_size=n, max_size=n), min_size=0, max_size=2),
        )
    )
)
@settings(max_examples=60, deadline=None)
def test_complement_properties(data):
    n, carrier_rows, extra_rows = data
    within = Subspace(Q, n, carrier_rows + extra_rows)
    sub = Subspace(Q, n, extra_rows)
    w = complete_complement(sub, within)
    assert sub.sum(w) == within
    assert sub.intersect(w).is_zero()


@given(matrices(small_fraction))
@settings(max_examples=40, deadline=None)
def test_kernel_annihilates(data):
    rows, nc = data
    k = Subspace(Q, nc, rows).kernel()
    for v in k.basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(k.basis) + len(Subspace(Q, nc, rows).basis) == nc


GROWTH_CASES = [
    (Q, 3, [[1, 2, 3], [2, 4, 6], [0, 1, 1]], [True, False, True]),
    (Q, 4, [{3: Fraction(1, 2)}, {0: 2, 3: 1}, [0, 3, 0, 0], {0: -4, 3: -2}, {1: 1, 2: 5}],
     [True, True, True, False, True]),
    (F5, 3, [[0, 0, 0], [3, 1, 0], [1, 2, 4], {0: 4, 1: 3, 2: 4}], [False, True, True, False]),
    (F5, 2, [[0, 1], [2, 4], [1, 1]], [True, True, False]),
]


def test_echelon_accumulator_matches_subspace():
    # a subspace grown one vector at a time reads as a fresh span of the same vectors
    for field, n, vectors, grows in GROWTH_CASES:
        acc = Subspace(field, n)
        for k, v in enumerate(vectors):
            assert acc.add(v) == grows[k]
            fresh = Subspace(field, n, vectors[: k + 1])
            assert (acc.dim, acc.pivots) == (fresh.dim, fresh.pivots)
            assert acc.integral_rows() == fresh.integral_rows()
            assert acc.basis == fresh.basis
            assert acc == fresh and hash(acc) == hash(fresh)


# -- the eliminator against the dense oracle ------------------------------------


@st.composite
def ragged_matrices(draw, field, elems):
    """Matrices with zero, duplicate and scaled rows, tall or wide, as (rows, ncols)."""
    nc = draw(st.integers(min_value=1, max_value=8))
    fresh = st.lists(elems, min_size=nc, max_size=nc)
    rows = draw(st.lists(fresh, min_size=0, max_size=7))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["zero", "duplicate", "scaled"]))
        if kind == "zero" or not rows:
            rows.append([field.zero] * nc)
        else:
            row = draw(st.sampled_from(rows))
            scale = field.one if kind == "duplicate" else draw(elems) or field.one
            rows.insert(draw(st.integers(0, len(rows))), [scale * x for x in row])
    return [list(map(field.element, row)) for row in rows], nc


def oracle_rank(field, nc, rows):
    return len(oracle_rref(field, rows, nc)[1])


def oracle_kernel(field, nc, rows):
    """Free-column vectors of the dense RREF."""
    reduced, pivots = oracle_rref(field, rows, nc)
    vectors = []
    for c in (c for c in range(nc) if c not in pivots):
        v = [field.zero] * nc
        v[c] = field.one
        for row, p in zip(reduced, pivots):
            v[p] = -row[c]
        vectors.append(v)
    return vectors


def oracle_intersection(field, nc, rows_a, rows_b):
    """The intersection by the kernel of the stacked (A | -B) transpose."""
    stacked = list(rows_a) + [[-x for x in row] for row in rows_b]
    transpose = [[row[c] for row in stacked] for c in range(nc)]
    vectors = []
    for combo in oracle_kernel(field, len(stacked), transpose):
        vec = [field.zero] * nc
        for coef, row in zip(combo, rows_a):
            vec = [v + coef * x for v, x in zip(vec, row)]
        vectors.append(vec)
    return vectors


def canonical(field, nc, rows):
    return oracle_rref(field, rows, nc)


small_rational = st.builds(
    Fraction, st.integers(min_value=-3, max_value=3), st.integers(min_value=1, max_value=2)
)
# numerators and denominators up to 10^12, either sign, so that integer rows
# carry large contents and negative leading entries
wide_rational = st.builds(
    Fraction, st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=1, max_value=10**12),
)
FIELDS = [
    (Q, st.one_of(st.just(Fraction(0)), small_rational, wide_rational)),
    (F5, st.integers(min_value=0, max_value=4).map(F5.element)),
]


def assert_canonical_rows(sub):
    """The stored row invariant: int entries, none zero, the pivot first;
    over Q primitive with a positive pivot entry, over GF(p) residues with
    pivot entry 1; and every pivot column zero in all other rows."""
    rows = sub.int_rows
    for q, row in rows.items():
        assert q == min(row) and all(type(x) is int and x for x in row.values())
        if sub.field.kind == "prime":
            assert row[q] == 1 and all(0 < x < sub.field.p for x in row.values())
        else:
            assert row[q] > 0 and gcd(*row.values()) == 1
        assert not any(c in rows for c in row if c != q)


@pytest.mark.parametrize("field, elems", FIELDS, ids=["Q", "F5"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_eliminator_matches_dense_oracle(field, elems, data):
    rows, nc = data.draw(ragged_matrices(field, elems))
    sub = Subspace(field, nc, rows)
    assert (list(sub.basis), sub.pivots) == canonical(field, nc, rows)
    kernel = sub.kernel()
    assert kernel.basis == tuple(canonical(field, nc, oracle_kernel(field, nc, rows))[0])

    acc = Subspace(field, nc)
    prefix = []
    for row in rows:
        grew = oracle_rank(field, nc, prefix + [row]) > oracle_rank(field, nc, prefix)
        assert acc.add(row) == grew
        assert_canonical_rows(acc)
        prefix.append(row)
    assert acc.basis == sub.basis
    assert_canonical_rows(kernel)

    # the same span from the rows in another order, each times a nonzero scalar
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(st.lists(elems.filter(bool), min_size=len(rows), max_size=len(rows)))
    scaled = [[field.element(c * x) for x in rows[i]] for i, c in zip(order, scales)]
    again = Subspace(field, nc, scaled)
    assert again == sub and hash(again) == hash(sub)
    assert again.int_rows == sub.int_rows
    probe = data.draw(st.lists(elems, min_size=nc, max_size=nc))
    probe = list(map(field.element, probe))
    inside = oracle_rank(field, nc, rows + [probe]) == oracle_rank(field, nc, rows)
    assert sub.contains(probe) == inside
    assert sub.contains(dict(enumerate(probe))) == inside


@pytest.mark.parametrize("field, elems", FIELDS, ids=["Q", "F5"])
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_intersection_and_complement_match_dense_oracle(field, elems, data):
    rows_a, nc = data.draw(ragged_matrices(field, elems))
    fresh = st.lists(st.lists(elems, min_size=nc, max_size=nc), max_size=5)
    rows_b = [list(map(field.element, row)) for row in data.draw(fresh)]
    # share some rows so that the intersection is often nonzero
    rows_b += rows_a[: data.draw(st.integers(0, len(rows_a)))]
    a, b = Subspace(field, nc, rows_a), Subspace(field, nc, rows_b)
    meet = oracle_intersection(field, nc, a.basis, b.basis)
    assert a.intersect(b).basis == tuple(canonical(field, nc, meet)[0])
    assert_canonical_rows(a.intersect(b))

    within = a.sum(b)
    kept = []
    for row in within.basis:
        if oracle_rank(field, nc, list(a.basis) + kept + [row]) > len(kept) + a.dim:
            kept.append(row)
    complement = complete_complement(a, within)
    assert complement.basis == tuple(canonical(field, nc, kept)[0])
    assert_canonical_rows(complement)


def test_no_two_code_objects_share_a_line_and_name():
    # the benchmark's call counter keys profiler entries by (file, line, name)
    paths = sorted(Path(linalg.__file__).parent.glob("*.py"))
    total = 0
    for path in paths:
        seen = {}

        def walk(code):
            key = (code.co_firstlineno, code.co_name)
            assert key not in seen, f"{path.name}:{key[0]} holds two code objects named {key[1]}"
            seen[key] = code
            for const in code.co_consts:
                if hasattr(const, "co_consts"):
                    walk(const)

        walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"))
        total += len(seen)
    assert len(paths) >= 12 and total > 250


# -- the scalar grammar "a" / "a/b" -------------------------------------------

# Up to 5,000 digits: past the interpreter's default 4,300-digit limit on
# int/str conversion, which parsing and formatting must not depend on.
big_int = st.integers(min_value=1, max_value=5000).flatmap(
    lambda digits: st.integers(min_value=-(10**digits), max_value=10**digits)
)


@given(st.builds(Fraction, big_int, big_int.filter(bool).map(abs)))
@settings(max_examples=200, deadline=None)
def test_rational_scalar_format_round_trip(x):
    assert Q.element(Q.format(x)) == x


@pytest.mark.parametrize("length", [1, 599, 600, 601, 1200, 1201, 4300, 4301, 5000])
def test_long_scalars_parse_and_format_exactly(length):
    # 10^L - 1 is L nines and 10^(L-1) is a one and L-1 zeros
    nines, power = 10**length - 1, 10 ** (length - 1)
    assert Q.element("9" * length) == nines
    assert Q.element("-1" + "0" * (length - 1)) == -power
    assert Q.format(Fraction(nines, 10 * power)) == "9" * length + "/1" + "0" * length
    assert Q.format(Fraction(-power)) == "-1" + "0" * (length - 1)


@given(
    st.sampled_from([2, 5, 7, 101, 2**61 - 1]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(min_value=0, max_value=p - 1), big_int)
    )
)
@settings(max_examples=200, deadline=None)
def test_prime_scalar_format_round_trip(data):
    p, value, big = data
    field = PrimeField(p)
    x = field.element(value)
    assert field.element(field.format(x)) == x
    assert field.element(Q.format(Fraction(big))) == field.element(big)
