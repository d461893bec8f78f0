"""Shared test helpers: independent brute-force oracles and fixture builders.

The oracles reimplement the checked mathematics directly (dense tables,
straight-line identity evaluation) so that library results are confirmed by
a second, structurally different computation.  They intentionally do not
reuse the library's sweep code.  Over GF(p) they compute with
`PrimeFieldElement`, a residue object that reduces on every operation,
where the library holds plain ints and its kernels reduce once.
"""

from __future__ import annotations

import os
import random
from itertools import product
from pathlib import Path

import pytest

import gradedlts as g
from gradedlts import linalg
from gradedlts.decomposition import PROBES, _random_vector
from gradedlts.linalg import sparse

SRC = Path(__file__).resolve().parents[1] / "src"


# -- the oracles' scalars ------------------------------------------------------


class PrimeFieldElement:
    """A residue modulo a prime, normalized to the range [0, p) after every operation."""

    __slots__ = ("value", "p")

    def __init__(self, value: int, p: int):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.p != self.p:
                raise ValueError("mixed prime field moduli")
            return other
        if isinstance(other, int):
            return PrimeFieldElement(other, self.p)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value + o.value, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value - o.value, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(o.value - self.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * o.value, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.value == 0:
            raise ZeroDivisionError("division by zero residue")
        return PrimeFieldElement(self.value * pow(o.value, self.p - 2, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.p)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __bool__(self):
        return self.value != 0

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


def oracle_scalar(field, x):
    """x as a scalar of the oracles: a `PrimeFieldElement` over GF(p), x itself over Q."""
    if field.kind == "prime" and not isinstance(x, PrimeFieldElement):
        return PrimeFieldElement(x, field.p)
    return x


def oracle_zero_one(field):
    return oracle_scalar(field, field.zero), oracle_scalar(field, field.one)


def child_env() -> dict:
    """This process's environment with the checkout's `src` first on
    PYTHONPATH, for a spawned `python -m gradedlts` child: pyproject's
    `pythonpath` reaches the pytest process only."""
    paths = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def library_vector(vec):
    """Oracle scalars as library scalars (residues as plain ints), to pass to the library."""
    return [x.value if isinstance(x, PrimeFieldElement) else x for x in vec]


# -- library kernels divided back -------------------------------------------
# The sparse kernels return D (`system.scale`) or D_R times the exact value
# over Q; these divide a result back to dense exact values.


def dense(system, vec):
    """Dense coordinate list of a sparse mapping l -> scalar, zero elsewhere."""
    return [vec.get(l, system.field.zero) for l in range(system.dim)]


def exact_slot_products(system, v):
    """`int_slot_products` of a dense or sparse exact vector, divided back."""
    w, c = system.field.integral(v)
    unscale, scale = system.field.unscale, c * system.scale
    return {key: unscale(out, scale) for key, out in system.int_slot_products(w).items()}


def exact_triple(system, x, y, z):
    """{x, y, z} of dense vectors as an exact tuple: the sum of y_j z_k
    times the `int_slot_products` entries (j, k, 0) of x, divided back."""
    (x, a), (y, b), (z, c) = map(system.field.integral, (x, y, z))
    acc = {}
    for (j, k, slot), out in system.int_slot_products(x).items():
        coef = y.get(j, 0) * z.get(k, 0)
        if slot == 0 and coef:
            for l, v in out.items():
                acc[l] = acc.get(l, 0) + coef * v
    product = system.field.clean(acc)
    return tuple(dense(system, system.field.unscale(product, a * b * c * system.scale)))


def exact_bracket(emb, a, b):
    """The tensor part of the bracket of two dense tensors, before reduction,
    summed over the coordinate brackets of a's nonzero entries."""
    acc, b = {}, sparse(b)
    for p, x in sparse(a).items():
        for c, y in emb._bracket(p, b).items():
            acc[c] = acc.get(c, 0) + x * y
    field = emb.system.field
    return linalg.dense(field, field.clean(acc), emb.tensor_dim, emb.system.scale)


def exact_reduce(emb, tensor):
    """The quotient coordinates of a dense tensor, along N."""
    coords = emb._reduce(sparse(tensor))
    return linalg.dense(emb.system.field, coords, emb.dim_even, emb._reduction_scale)


def exact_lift(emb, coords):
    """The canonical tensor representative of quotient coordinates."""
    tensor = {emb.coset_indices[r]: x for r, x in sparse(coords).items()}
    return linalg.dense(emb.system.field, tensor, emb.tensor_dim)


# -- independent oracles -----------------------------------------------------


def dense_table(system):
    """Dense n^3 table of product vectors, built from the public constants."""
    n = system.dim
    zero = oracle_scalar(system.field, system.field.zero)
    table = [[[None] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                table[i][j][k] = [zero] * n
    for (i, j, k), entry in system.nonzero_triples():
        for l, c in entry.items():
            table[i][j][k][l] = oracle_scalar(system.field, c)
    return table


def oracle_triple(system, x, y, z, table=None):
    """Direct trilinear evaluation from the dense table (built here unless given)."""
    n = system.dim
    zero = oracle_scalar(system.field, system.field.zero)
    table = table or dense_table(system)
    out = [zero] * n
    for i in range(n):
        if x[i] == zero:
            continue
        for j in range(n):
            if y[j] == zero:
                continue
            for k in range(n):
                if z[k] == zero:
                    continue
                c = x[i] * y[j] * z[k]
                if c != zero:
                    for l in range(n):
                        out[l] = out[l] + c * table[i][j][k][l]
    return out


def _units(system):
    zero, one = oracle_zero_one(system.field)
    return [[one if t == i else zero for t in range(system.dim)] for i in range(system.dim)]


def oracle_slot_product(system, v, j, k, slot, table=None):
    """{v, b_j, b_k} (slot 0), {b_j, v, b_k} (1) or {b_j, b_k, v} (2) by the dense table."""
    zero, one = system.field.zero, system.field.one
    units = [[one if t == i else zero for t in range(system.dim)] for i in (j, k)]
    units.insert(slot, v)
    return library_vector(oracle_triple(system, *units, table=table))


def naive_closure(system, vectors):
    """Least ideal by brute force: add the escaping oracle products of every
    basis row, pass after pass, until a pass adds none or the span is E
    (every added product lies in the least ideal, so a span of E is it)."""
    n = system.dim
    table = dense_table(system)
    current = g.Subspace(system.field, n, vectors)
    changed = True
    while changed and current.dim < n:
        changed = False
        for v, j, k, slot in product(current.basis, range(n), range(n), range(3)):
            w = oracle_slot_product(system, list(v), j, k, slot, table)
            if not current.contains(w):
                current = current.sum(g.Subspace(system.field, n, [w]))
                if current.dim == n:
                    break
                changed = True
    return current


def probe_lines(system, seed):
    """The lines whose closures `simplicity_obstructions` takes: the n unit
    vectors, then the `PROBES` seeded random ones."""
    rng = random.Random(seed)
    drawn = [_random_vector(system, rng) for _ in range(PROBES)]
    units = [[int(t == i) for t in range(system.dim)] for i in range(system.dim)]
    return units + [v for v in drawn if v]


def oracle_tensor_bracket(system, a, b, table=None):
    """[a, b] of two dense tensor-square vectors, evaluated with `oracle_triple`.

    [b_i (x) b_j, b_k (x) b_l] = {b_i, b_j, b_k} (x) b_l - {b_i, b_j, b_l} (x) b_k,
    summed as {A_j, b_j, B^l} (x) b_l - {A_j, b_j, B_k} (x) b_k, where A_j is
    column j of a, B^l column l of b and B_k row k of b (as n x n matrices).
    """
    n = system.dim
    zero = oracle_scalar(system.field, system.field.zero)
    table = table or dense_table(system)
    units = _units(system)
    out = [zero] * (n * n)
    for j in range(n):
        a_col = [a[i * n + j] for i in range(n)]
        if all(x == zero for x in a_col):
            continue
        for l in range(n):
            b_col = [b[k * n + l] for k in range(n)]
            if any(x != zero for x in b_col):
                for m, x in enumerate(oracle_triple(system, a_col, units[j], b_col, table)):
                    out[m * n + l] += x
        for k in range(n):
            b_row = [b[k * n + l] for l in range(n)]
            if any(x != zero for x in b_row):
                for m, x in enumerate(oracle_triple(system, a_col, units[j], b_row, table)):
                    out[m * n + k] -= x
    return out


def oracle_actions(system, x, table=None):
    """Both actions of a dense tensor x on every basis vector, via `oracle_triple`.

    phi[w] = sum x_ij {b_i, b_j, b_w} and psi[z] = sum x_ij ({b_z, b_i, b_j} - {b_z, b_j, b_i}).
    """
    n = system.dim
    zero = oracle_scalar(system.field, system.field.zero)
    table = table or dense_table(system)
    units = _units(system)
    terms = [(divmod(c, n), coef) for c, coef in enumerate(x) if coef != zero]
    phi, psi = [], []
    for w in range(n):
        out_phi, out_psi = [zero] * n, [zero] * n
        for (i, j), coef in terms:
            ui, uj, uw = units[i], units[j], units[w]
            for t, v in enumerate(oracle_triple(system, ui, uj, uw, table)):
                out_phi[t] += coef * v
            plus = oracle_triple(system, uw, ui, uj, table)
            minus = oracle_triple(system, uw, uj, ui, table)
            for t in range(n):
                out_psi[t] += coef * (plus[t] - minus[t])
        phi.append(out_phi)
        psi.append(out_psi)
    return phi, psi


def oracle_reduction(null_space, coset_indices):
    """The dense s x n^2 matrix sending a tensor to its quotient coordinates.

    The N basis rows and the coset unit tensors e_p together form a basis M
    of the tensor square, so t = M^T (alpha, c) has one solution, and its
    last s entries c are the coordinates of t: the rows of (M^T)^-1 after the
    first dim N, read off the Gauss-Jordan form of [M^T | I].
    """
    field = null_space.field
    zero, one = oracle_zero_one(field)
    nn = null_space.ambient
    basis = [list(row) for row in null_space.basis]
    basis += [[one if t == p else zero for t in range(nn)] for p in coset_indices]
    assert len(basis) == nn
    augmented = [
        [basis[r][q] for r in range(nn)] + [one if t == q else zero for t in range(nn)]
        for q in range(nn)
    ]
    rows, pivots = oracle_rref(field, augmented, 2 * nn)
    assert pivots == tuple(range(nn))
    return [list(row[nn:]) for row in rows[null_space.dim :]]


def oracle_reduce(field, reduction, tensor):
    """Apply `oracle_reduction` to a dense tensor."""
    zero = oracle_scalar(field, field.zero)
    return [sum((x * y for x, y in zip(row, tensor)), zero) for row in reduction]


def oracle_components(emb):
    """The even components by elimination, not as coordinate blocks: one
    `Subspace` per degree, spanned by the images of all tensors of that
    degree, the nonzero ones keyed by degree, sorted.

    Raises DecompositionFailure, with the message of the library's
    certificate, unless their dimensions add up to dim L0 and their sum is
    the whole even part.
    """
    field, n, degrees = emb.system.field, emb.system.dim, emb.system.degrees
    buckets = {}
    for c, image in enumerate(emb._columns):
        buckets.setdefault(degrees[c // n].compose(degrees[c % n]), []).append(image)
    comps = {}
    for d in sorted(buckets):
        sub = g.Subspace(field, emb.dim_even, buckets[d])
        if not sub.is_zero():
            comps[d] = sub
    total = g.Subspace(field, emb.dim_even, [row for sub in comps.values() for row in sub.basis])
    if sum(sub.dim for sub in comps.values()) != emb.dim_even or total.dim != emb.dim_even:
        raise g.DecompositionFailure(
            "homogeneous components of the even part do not decompose it directly"
        )
    return comps


def oracle_certify(system, null_space, coset_indices, coordinates=None, vectors=None):
    """The dense descent and Leibniz certificates, on the oracles above.

    Returns None when both pass, else (exception type, message, witness) of
    the first failure, checked in this order: for each vector nu of
    `vectors` (default the basis of N), both actions of nu, then for every
    coordinate tensor t in `coordinates` (default all n^2), [t, nu] and
    [nu, t] in N; then the right Leibniz identity
    [[y,z],x] = [[y,x],z] + [y,[z,x]] over all basis triples of L0 + L1.
    No argument of the library's certificate is assumed: every bracket in
    both orders is formed and tested densely.
    """
    field = system.field

    def fmt(x):
        return field.format(x.value if isinstance(x, PrimeFieldElement) else x)

    zero, one = oracle_zero_one(field)
    n = system.dim
    nn = n * n
    table = dense_table(system)

    def failing_action(x):
        phi, psi = oracle_actions(system, x, table)
        if any(v != zero for out in phi for v in out):
            return "phi"
        if any(v != zero for out in psi for v in out):
            return "psi"
        return None

    messages = {
        "phi": "left action of a null tensor does not vanish",
        "psi": "twisted right action of a null tensor does not vanish",
    }
    for nu in null_space.basis if vectors is None else vectors:
        failing = failing_action(nu)
        if failing:
            return g.NotWellDefined, messages[failing], {"tensor": [fmt(x) for x in nu]}
        for c in range(nn) if coordinates is None else coordinates:
            coord = [one if t == c else zero for t in range(nn)]
            outward = oracle_tensor_bracket(system, coord, nu, table)
            if failing_action(outward):
                return (
                    g.NotWellDefined,
                    "bracket of the tensor square into the null space escapes it",
                    {
                        "coordinate": c,
                        "null_vector": [fmt(x) for x in nu],
                        "bracket": [fmt(x) for x in outward],
                    },
                )
            if failing_action(oracle_tensor_bracket(system, nu, coord, table)):
                return (
                    g.NotWellDefined,
                    "bracket of the null space into the tensor square escapes it",
                    {"coordinate": c, "null_vector": [fmt(x) for x in nu]},
                )

    m = len(coset_indices) + n
    bracket = oracle_bracket_table(system, null_space, coset_indices, table)

    def combine(vec, rows):
        # sum over l of vec[l] * rows[l]
        out = [zero] * m
        for coef, row in zip(vec, rows):
            if coef != zero:
                for t, c in enumerate(row):
                    out[t] = out[t] + coef * c
        return out

    right = [[bracket[l][x] for l in range(m)] for x in range(m)]
    for y, z, x in product(range(m), repeat=3):
        lhs = combine(bracket[y][z], right[x])
        rhs_a = combine(bracket[y][x], right[z])
        rhs_b = combine(bracket[z][x], bracket[y])  # [y, [z, x]]
        if any(lhs[t] != rhs_a[t] + rhs_b[t] for t in range(m)):
            return (
                g.LeibnizIdentityFailure,
                "quotient algebra fails the right Leibniz identity",
                {"triple": (y, z, x)},
            )
    return None


def oracle_bracket_table(system, null_space, coset_indices, table=None):
    """The dense m x m table of brackets [a, b] of basis elements of L0 + L1,
    m = dim L0 + n, each a dense exact vector of length m: element a < dim L0
    is the even coordinate a, element dim L0 + i the system basis vector b_i.

    Even with even reduces the `oracle_tensor_bracket` of the coset tensors by
    `oracle_reduction`, odd with odd reduces b_i (x) b_j, and the mixed
    brackets are the two actions, by `oracle_triple`.
    """
    field, n, nn = system.field, system.dim, null_space.ambient
    zero, one = oracle_zero_one(field)
    table = table or dense_table(system)
    units = _units(system)
    s = len(coset_indices)
    m = s + n

    def lift(a):
        return [one if t == coset_indices[a] else zero for t in range(nn)]

    reduction = oracle_reduction(null_space, coset_indices)

    def reduce(tensor):
        return oracle_reduce(field, reduction, tensor)

    bracket = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if a < s and b < s:
                even = reduce(oracle_tensor_bracket(system, lift(a), lift(b), table))
                odd = [zero] * n
            elif a < s:
                i, j = divmod(coset_indices[a], n)
                even = [zero] * s
                odd = oracle_triple(system, units[i], units[j], units[b - s], table)
            elif b < s:
                i, j = divmod(coset_indices[b], n)
                z = units[a - s]
                plus = oracle_triple(system, z, units[i], units[j], table)
                minus = oracle_triple(system, z, units[j], units[i], table)
                even, odd = [zero] * s, [p - q for p, q in zip(plus, minus)]
            else:
                pair = [zero] * nn
                pair[(a - s) * n + b - s] = one
                even, odd = reduce(pair), [zero] * n
            bracket[a][b] = list(even) + list(odd)
    return bracket


def oracle_rref(field, rows, ncols):
    """Dense Gauss-Jordan elimination of `ncols`-column rows, column by
    column: (rows, pivots).

    The row loop the library ran before its sparse eliminator, kept as the
    reference the eliminator is compared against.
    """
    zero, one = oracle_zero_one(field)
    rows = [[oracle_scalar(field, x) for x in r] for r in rows]
    nrows = len(rows)
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


def oracle_nested_terms(system):
    """The dense table P and accumulators for nested products.

    left(F, d, e, acc, sign), middle(a, F, e, acc, sign) and
    right(a, b, F, acc, sign) add sign times {F, b_d, b_e},
    {b_a, F, b_e} and {b_a, b_b, F} into `acc`, where F is a stored
    entry of P (a sparse first-level product) or None.
    """
    n = system.dim
    rows = [[None] * n for _ in range(n * n)]
    P = [rows[i * n : (i + 1) * n] for i in range(n)]
    for (i, j, k), entry in system.nonzero_triples():
        P[i][j][k] = {l: oracle_scalar(system.field, c) for l, c in entry.items()}
    zero = oracle_scalar(system.field, system.field.zero)

    def left(first, d, e, acc, sign):
        if first:
            for l, coef in first.items():
                entry = P[l][d][e]
                if entry:
                    coef = sign * coef
                    for m, c in entry.items():
                        acc[m] = acc.get(m, zero) + coef * c

    def middle(a, inner, e, acc, sign):
        if inner:
            for l, coef in inner.items():
                entry = P[a][l][e]
                if entry:
                    coef = sign * coef
                    for m, c in entry.items():
                        acc[m] = acc.get(m, zero) + coef * c

    def right(a, b, inner, acc, sign):
        if inner:
            for l, coef in inner.items():
                entry = P[a][b][l]
                if entry:
                    coef = sign * coef
                    for m, c in entry.items():
                        acc[m] = acc.get(m, zero) + coef * c

    return P, left, middle, right


def oracle_identities(system, which):
    """The identities of `verify_axioms` ("axioms") or of
    `verify_fundamental_identity` ("six_term") as (name, terms) pairs, where
    each term(a, b, c, d, e, acc) adds one signed nested product into `acc`.
    """
    P, left, middle, right = oracle_nested_terms(system)
    _, one = oracle_zero_one(system.field)
    minus = -one
    if which == "axioms":
        return (
            # {a,{b,c,d},e} = {{a,b,c},d,e} - {{a,c,b},d,e}
            #                 - {{a,d,b},c,e} + {{a,d,c},b,e}
            ("middle_slot", (
                lambda a, b, c, d, e, acc: middle(a, P[b][c][d], e, acc, one),
                lambda a, b, c, d, e, acc: left(P[a][b][c], d, e, acc, minus),
                lambda a, b, c, d, e, acc: left(P[a][c][b], d, e, acc, one),
                lambda a, b, c, d, e, acc: left(P[a][d][b], c, e, acc, one),
                lambda a, b, c, d, e, acc: left(P[a][d][c], b, e, acc, minus),
            )),
            # {a,b,{c,d,e}} = {{a,b,c},d,e} - {{a,b,d},c,e}
            #                 - {{a,b,e},c,d} + {{a,b,e},d,c}
            ("right_slot", (
                lambda a, b, c, d, e, acc: right(a, b, P[c][d][e], acc, one),
                lambda a, b, c, d, e, acc: left(P[a][b][c], d, e, acc, minus),
                lambda a, b, c, d, e, acc: left(P[a][b][d], c, e, acc, one),
                lambda a, b, c, d, e, acc: left(P[a][b][e], c, d, acc, one),
                lambda a, b, c, d, e, acc: left(P[a][b][e], d, c, acc, minus),
            )),
        )
    assert which == "six_term"
    # {{c,d,e},b,a} - {{c,d,e},a,b} - {{c,b,a},d,e} + {{c,a,b},d,e}
    #   - {c,{a,b,d},e} - {c,d,{a,b,e}} = 0
    return (
        ("six_term", (
            lambda a, b, c, d, e, acc: left(P[c][d][e], b, a, acc, one),
            lambda a, b, c, d, e, acc: left(P[c][d][e], a, b, acc, minus),
            lambda a, b, c, d, e, acc: left(P[c][b][a], d, e, acc, minus),
            lambda a, b, c, d, e, acc: left(P[c][a][b], d, e, acc, one),
            lambda a, b, c, d, e, acc: middle(c, P[a][b][d], e, acc, minus),
            lambda a, b, c, d, e, acc: right(c, d, P[a][b][e], acc, minus),
        )),
    )


def oracle_sweep(system, which):
    """Evaluate the residuals of `oracle_identities` on all n^5 basis quintuples.

    The dense sweep the library ran before its term-driven join: nonzero
    residuals become violations, in tuple order and then in identity order.
    """
    identities = oracle_identities(system, which)
    violations = []
    for indices in product(range(system.dim), repeat=5):
        for name, terms in identities:
            acc = {}
            for term in terms:
                term(*indices, acc)
            if any(acc.values()):
                violations.append(g.Violation(name, indices, tuple(dense(system, acc))))
    return violations


def oracle_nonzero_terms(system, which):
    """Every (quintuple, identity index) at which some single term is nonzero."""
    identities = oracle_identities(system, which)
    found = set()
    for indices in product(range(system.dim), repeat=5):
        for ident, (_, terms) in enumerate(identities):
            for term in terms:
                acc = {}
                term(*indices, acc)
                if any(acc.values()):
                    found.add((indices, ident))
    return found


def pivot_pair_verdict(system):
    """(the axioms hold, the six-term identity holds), decided at the pivot
    pairs of the embedding's action matrix A instead of by the joins.

    Column a*n + b of A holds L = L(a, b), x -> {a, b, x}, in its phi rows
    and P = P(a, b), z -> {z, a, b} - {z, b, a}, in its psi rows.  right_slot
    at (a, b, c, d, e) is Phi(L)(c, d, e) = 0 and six_term is
    Psi(L, P)(c, d, e) = 0, where
        Phi(L)(c,d,e) = L{c,d,e} - {Lc,d,e} + {Ld,c,e} + {Le,c,d} - {Le,d,c},
        Psi(L,P)(c,d,e) = -P{c,d,e} + {Pc,d,e} - {c,Ld,e} - {c,d,Le},
    and middle_slot follows from the two, since middle(x,b,c,d,e) +
    six(b,c,x,d,e) + right(x,d,b,c,e) = 0.  Phi and Psi are linear in (L, P),
    so they vanish on every pair once they vanish on the pivot columns of A,
    which span its columns: that claim is certified first, as the descent
    certificate does, by the free-vector shape and A nu = 0.  Everything
    runs on the integer image, where each term scales by D^2.
    """
    from gradedlts.embedding import _ActionMatrix

    action = _ActionMatrix(system)
    echelon = g.Subspace(system.field, action.ncols, (row for _, row in action.rows))
    pivots = set(echelon.pivots)
    free = echelon.free_vectors()
    assert len(free) == action.ncols - len(pivots)
    for c, nu in zip((c for c in range(action.ncols) if c not in pivots), free):
        assert set(nu) - pivots == {c}
        assert action.failing_action(nu) is None
    n, table, clean = system.dim, system._table, system.field.clean

    def T(i, j, k):
        return table.get((i, j, k), {})

    def add(acc, sign, vec, op):
        # acc += sign * sum_m vec[m] op(m)
        for m, x in vec.items():
            for l, y in op(m).items():
                acc[l] = acc.get(l, 0) + sign * x * y
        return acc

    phi_zero = psi_zero = True
    for a, b in (divmod(p, n) for p in sorted(pivots)):
        L = [T(a, b, x) for x in range(n)]
        P = [add(dict(T(z, a, b)), -1, T(z, b, a), lambda l: {l: 1}) for z in range(n)]
        for c, d, e in product(range(n), repeat=3):
            phi, psi = {}, {}
            add(phi, 1, T(c, d, e), L.__getitem__)
            add(phi, -1, L[c], lambda m: T(m, d, e))
            add(phi, 1, L[d], lambda m: T(m, c, e))
            add(phi, 1, L[e], lambda m: T(m, c, d))
            add(phi, -1, L[e], lambda m: T(m, d, c))
            add(psi, -1, T(c, d, e), P.__getitem__)
            add(psi, 1, P[c], lambda m: T(m, d, e))
            add(psi, -1, L[d], lambda m: T(c, m, e))
            add(psi, -1, L[e], lambda m: T(c, d, m))
            phi_zero = phi_zero and not clean(phi)
            psi_zero = psi_zero and not clean(psi)
    return phi_zero and psi_zero, psi_zero


def oracle_slot_products(system, v):
    """Slot products without the slot index: one pass over every constant.

    Key (j, k, 0) is {v, b_j, b_k}, (j, k, 1) is {b_j, v, b_k} and
    (j, k, 2) is {b_j, b_k, v}; only nonzero products, keys in order.
    """
    if not isinstance(v, dict):
        v = dict(enumerate(v))
    field, get = system.field, v.get
    zero = oracle_scalar(field, field.zero)
    acc = {}
    for (a, b, c), entry in system.nonzero_triples():
        for key, coef in (((b, c, 0), get(a)), ((a, c, 1), get(b)), ((a, b, 2), get(c))):
            if coef:
                out = acc.setdefault(key, {})
                for l, x in entry.items():
                    out[l] = out.get(l, zero) + coef * oracle_scalar(field, x)
    products = {}
    for key in sorted(acc):
        out = {l: x for l, x in acc[key].items() if x}
        if out:
            products[key] = out
    return products


def oracle_bracket(algebra, x, y):
    """[x, y] of two dense vectors, from the algebra's bracket constants."""
    zero = oracle_scalar(algebra.field, algebra.field.zero)
    out = [zero] * algebra.dim
    for (i, j), entry in algebra.brackets:
        coef = x[i] * y[j]
        if coef:
            for l, c in entry:
                out[l] = out[l] + coef * oracle_scalar(algebra.field, c)
    return out


def oracle_algebra_verify(algebra):
    """`GradedLeibnizAlgebra.verify` as a dense loop: grading violations in
    bracket order, then the right Leibniz identity on all n^3 basis triples
    from `bracket` on unit vectors, in (y, z, x) order."""
    violations = []
    zero, one = oracle_zero_one(algebra.field)
    n = algebra.dim
    for (i, j), entry in algebra.bracket_table().items():
        expected = algebra.degrees[i].compose(algebra.degrees[j])
        for l in entry:
            if algebra.degrees[l] != expected:
                vec = [zero] * n
                vec[l] = entry[l]
                violations.append(g.Violation("grading", (i, j, l), tuple(vec)))
    units = [[one if t == i else zero for t in range(n)] for i in range(n)]

    def bracket(x, y):
        return oracle_bracket(algebra, x, y)

    for y, z, x in product(range(n), repeat=3):
        lhs = bracket(bracket(units[y], units[z]), units[x])
        rhs_a = bracket(bracket(units[y], units[x]), units[z])
        rhs_b = bracket(units[y], bracket(units[z], units[x]))
        residual = [a - b - c for a, b, c in zip(lhs, rhs_a, rhs_b)]
        if any(residual):
            violations.append(g.Violation("right_leibniz", (y, z, x), tuple(residual)))
    return violations


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
    zero = oracle_scalar(system.field, system.field.zero)
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
    zero = oracle_scalar(system.field, system.field.zero)
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


# -- connection relation ---------------------------------------------------------


def oracle_closures(sup) -> dict:
    """g -> closure of g, by Warshall's transitive closure of one steps.

    One step goes from q in the inverse-closed odd support to q a b, for a
    and b in it or the identity, when q a lies in the inverse-closed even
    support and q a b in the inverse-closed odd one.  The closure of g is g
    with everything its steps reach.
    """
    nodes = sorted(sup.pm_odd)
    letters = nodes + [nodes[0].group.identity()] if nodes else []
    reach = {
        q: {
            q.compose(a).compose(b)
            for a in letters
            for b in letters
            if q.compose(a) in sup.pm_even and q.compose(a).compose(b) in sup.pm_odd
        }
        for q in nodes
    }
    for k in nodes:
        for i in nodes:
            if k in reach[i]:
                reach[i] |= reach[k]
    return {x: frozenset(reach[x] | {x}) for x in sup.odd}


def reference_closures(sup) -> dict:
    """g -> parent pointers of the depth-first search from g that composes
    the steps q a and q a b afresh at every visit of q: the reference for
    the parents of `SupportData.closures` and their order, which the
    witness sequences follow."""
    steps = sorted(sup.pm_odd) + [sup.odd[0].group.identity()] if sup.odd else []
    closures = {}
    for g0 in sup.odd:
        parents = {g0: None}
        frontier = [g0]
        while frontier:
            q = frontier.pop()
            for a in steps:
                qa = q.compose(a)
                if qa not in sup.pm_even:
                    continue
                for b in steps:
                    qab = qa.compose(b)
                    if qab in sup.pm_odd and qab not in parents:
                        parents[qab] = (q, a, b)
                        frontier.append(qab)
        closures[g0] = parents
    return closures


def oracle_classes(sup) -> list[tuple]:
    """Connection classes as sorted member tuples: the components of the
    relation "h or h^-1 lies in the closure of g", merged pair by pair."""
    closures = oracle_closures(sup)
    component = {x: frozenset([x]) for x in sup.odd}
    for x in sup.odd:
        for y in sup.odd:
            if y in closures[x] or y.inverse() in closures[x]:
                merged = component[x] | component[y]
                for z in merged:
                    component[z] = merged
    return sorted(tuple(sorted(c)) for c in set(component.values()))


def mutate_constant(system, i, j, k, l, delta):
    """Return a copy of the system with delta added to one structure cell."""
    prods = {key: dict(entry) for key, entry in system.nonzero_triples()}
    entry = prods.setdefault((i, j, k), {})
    entry[l] = entry.get(l, system.field.zero) + delta
    return g.GradedTripleSystem(system.field, system.group, system.degrees, prods)


def sl2_power(k, field) -> g.GradedTripleSystem:
    """k copies of sl2 graded by Z^k: copy i has degrees (e_i, 0, -e_i), so n = 3k."""
    copy = g.from_leibniz_algebra(g.sl2_algebra(field))
    target = g.AbelianGroup((0,) * k)
    parts = [
        g.relabel_degrees(copy, target, [[1 if t == i else 0 for t in range(k)]])
        for i in range(k)
    ]
    return g.direct_sum(parts)


def sl2_square(field) -> g.GradedTripleSystem:
    """sl2 + sl2 graded by Z^2, n = 6."""
    return sl2_power(2, field)


def sl_root_algebra(N, field) -> g.GradedLeibnizAlgebra:
    """sl_N graded by its root lattice Z^(N-1): dense brackets with multi-term outputs.

    Basis E_ij (i != j, in row-major order) then H_t = E_tt - E_(t+1)(t+1)
    for t < N - 1.  E_ij has degree w(i) - w(j), where w(i) has 1 in the
    coordinates t >= i, so the simple roots are the unit vectors; brackets
    are matrix commutators.  N = 3 gives n = 8 and N = 4 gives n = 15.
    """
    offdiag = [(i, j) for i in range(N) for j in range(N) if i != j]
    basis = [{ij: 1} for ij in offdiag]
    basis += [{(t, t): 1, (t + 1, t + 1): -1} for t in range(N - 1)]

    def coordinates(mat):
        # a traceless diagonal d is the sum over t of (d_0 + ... + d_t) H_t
        out = {t: mat.get(ij, 0) for t, ij in enumerate(offdiag)}
        partial = 0
        for t in range(N - 1):
            partial += mat.get((t, t), 0)
            out[len(offdiag) + t] = partial
        return {t: c for t, c in out.items() if c}

    def matmul(x, y):
        out = {}
        for (i, k), a in x.items():
            for (k2, j), b in y.items():
                if k == k2:
                    out[(i, j)] = out.get((i, j), 0) + a * b
        return out

    def commutator(x, y):
        out = matmul(x, y)
        for ij, c in matmul(y, x).items():
            out[ij] = out.get(ij, 0) - c
        return out

    brackets = {}
    for p, x in enumerate(basis):
        for q, y in enumerate(basis):
            out = coordinates(commutator(x, y))
            if out:
                brackets[(p, q)] = out
    group = g.AbelianGroup((0,) * (N - 1))
    w = [[1 if t >= i else 0 for t in range(N - 1)] for i in range(N)]
    degrees = [group.element([a - b for a, b in zip(w[i], w[j])]) for i, j in offdiag]
    degrees += [group.identity()] * (N - 1)
    return g.GradedLeibnizAlgebra.build(field, group, degrees, brackets)


def sl_root(N, field) -> g.GradedTripleSystem:
    """The double-bracket system of `sl_root_algebra`: n = 8 with 216 stored
    constants for N = 3, n = 15 with 936 for N = 4."""
    return g.from_leibniz_algebra(sl_root_algebra(N, field))


def coordinate_sum(system, modulus) -> g.GradedTripleSystem:
    """Push a Z^k grading to Z_m by summing coordinates (merges degrees and classes)."""
    target = g.AbelianGroup((modulus,))
    return g.relabel_degrees(system, target, [[1]] * system.group.rank)


def nonlie_algebra(field=None) -> g.GradedLeibnizAlgebra:
    """The frozen non-Lie right Leibniz algebra found by `search_nonlie_example`.

    Basis (a, b, c) with [a, a] = b and [b, a] = c, degrees (1, 2, 3); its
    double-bracket triple system, the builtin `nonlie_J`, has the single
    product {a, a, a} = c, so the skew combination {a,a,a} - {a,a,a} +
    {a,a,a} = c generates a one-dimensional nonzero defect ideal.
    """
    field = field or g.RationalField()
    group = g.AbelianGroup((0,))
    degrees = [group.element([1]), group.element([2]), group.element([3])]
    brackets = {(0, 0): {1: 1}, (1, 0): {2: 1}}
    return g.GradedLeibnizAlgebra.build(field, group, degrees, brackets)


def search_nonlie_example(coefficients=(0, 1, -1)):
    """Exhaustive search for a graded right Leibniz algebra with nonzero defect,
    which found `nonlie_algebra`.

    Scans three-dimensional algebras with degrees (1, 2, 3) over the
    rationals.  The grading leaves three free structure cells:
    [a,a] -> b, [a,b] -> c, and [b,a] -> c.  Returns the first coefficient
    assignment (in the given deterministic order) whose algebra satisfies
    the right Leibniz identity and whose double-bracket triple system has a
    nonzero Lie-defect ideal.
    """
    field = g.RationalField()
    group = g.AbelianGroup((0,))
    degrees = [group.element([1]), group.element([2]), group.element([3])]
    for alpha, beta, gamma in product(coefficients, repeat=3):
        brackets = {}
        if alpha:
            brackets[(0, 0)] = {1: alpha}
        if beta:
            brackets[(0, 1)] = {2: beta}
        if gamma:
            brackets[(1, 0)] = {2: gamma}
        algebra = g.GradedLeibnizAlgebra.build(field, group, degrees, brackets)
        if algebra.verify():
            continue
        system = g.from_leibniz_algebra(algebra)
        if not system.lie_defect_ideal().is_zero():
            return algebra, system
    raise RuntimeError("search space exhausted without a non-Lie example")


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
            block = g.from_leibniz_algebra(nonlie_algebra(field=field))
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
