"""Standard embedding of a graded Leibniz triple system.

The embedding is the two-graded right Leibniz algebra L = L0 + L1 with odd
part L1 the system itself and even part L0 built from tensors x (x) y.  The
raw tensor square is too large to carry a well-defined algebra structure,
so L0 is realized concretely as the quotient of the tensor square by

    N = ker(phi) & ker(psi),

where phi(x(x)y) is left multiplication w -> {x, y, w} and psi(x(x)y) is
the twisted right action z -> {z, x, y} - {z, y, x}.  N is the largest
subspace acting trivially in both actions, so the bracket

    [(x(x)y, z), (u(x)v, w)] = ({x,y,u}(x)v - {x,y,v}(x)u + z(x)w,
                                {x,y,w} + {z,u,v} - {z,v,u})

has a chance to descend.  Descent is not assumed: `build_embedding`
certifies that bracketing the tensor square into N stays inside N and that
the quotient algebra satisfies the right Leibniz identity on every basis
triple, raising `NotWellDefined` or `LeibnizIdentityFailure` with a witness
otherwise; only pivot tensors with an identity residual are bracketed with N.

N is read off the sparse reduced row echelon form R of the stacked action
matrix A (the phi rows, then the psi rows, built sparse from the structure
constants): N is the kernel of R, the quotient coordinates are the pivot
columns of R, and R's sparse rows are the reduction, since R kills N and
sends the pivot tensor of each row to that row's coordinate; R is kept as
D_R R, D_R the lcm of its denominators.  The pivot tensors are exactly the
greedy standard-tensor complement of N, so the choice is deterministic, and
they are homogeneous, so each quotient coordinate has its tensor's degree
and the certified even components are blocks of coordinates.  Everything but
the even components and N as a `Subspace`, built on first read, is fixed
after build, the bracket table of L on its basis included: its even entries
are reduced brackets of coset tensors, and its mixed entries, the actions
phi and psi of a coset tensor on a basis vector, are A's coset columns: the
certified action matrix is the embedding's one source.
"""

from __future__ import annotations

from itertools import zip_longest
from math import lcm

from .errors import DecompositionFailure, LeibnizIdentityFailure, NotWellDefined
from .groups import GroupElement
from .identities import PAIR_TERMS, RIGHT_LEIBNIZ, index_constants, join_residuals, term_violations
from .linalg import Subspace, dense
from .triples import GradedTripleSystem


class StandardEmbedding:
    """The computed standard embedding; construct via `build_embedding`.

    It reads the system, N's free vectors and A's columns off `action`.
    Tensors, quotient coordinates and system vectors are mappings
    {index: nonzero scalar}, and products are read straight off the integer
    images of the constants and of the reduction, so `_bracket` returns
    D = `system.scale` times the value and `_reduce` D_R times it.  They
    run once per pair of even basis elements of L, at construction, to fill
    `table`; its mixed entries are A's coset columns.  Basis element
    a < dim_even of L is the even coordinate a and dim_even + i the system
    basis vector i, and table[a, b] = {c: int} is D D_R [a, b], stored for
    the nonzero brackets only.  Every later bracket is read off it by
    `int_bracket`, and `linalg.dense` divides a scaled result back to a
    dense exact tuple.
    """

    __slots__ = (
        "action",
        "system",
        "tensor_dim",
        "coset_indices",
        "dim_even",
        "table",
        "descent_instances",
        "leibniz_instances",
        "_columns",
        "_reduction_scale",
        "_components",
        "_null_space",
    )

    def __init__(self, action, coset_indices, reduction):
        self.action, self.system, self.tensor_dim = action, action.system, action.ncols
        self._null_space = None
        self.coset_indices = coset_indices
        self.dim_even = s = len(coset_indices)
        self.descent_instances = self.leibniz_instances = 0
        n = self.system.dim
        # `reduction` row r is a positive int multiple of the row of R with pivot
        # coset_indices[r]; column c = i*n + j of D_R R, {row: int}, is D_R times
        # the image of b_i (x) b_j
        pivots = [row[p] for p, row in zip(coset_indices, reduction)]
        self._reduction_scale = lcm(*pivots)
        self._columns = [{} for _ in range(self.tensor_dim)]
        for r, (row, a) in enumerate(zip(reduction, pivots)):
            for c, x in row.items():
                self._columns[c][r] = x * (self._reduction_scale // a)
        self._components = None
        # [b_i, b_j] is the image of b_i (x) b_j; at the coset column p of e_a,
        # the phi row (w, out) of D A holds D [e_a, b_w]_out and the psi row
        # (z, out) D [b_z, e_a]_out
        self.table = table = {}
        for c, image in enumerate(self._columns):
            if image:
                table[s + c // n, s + c % n] = {r: self.system.scale * x for r, x in image.items()}
        for a, p in enumerate(coset_indices):
            for b, q in enumerate(coset_indices):
                if even := self._reduce(self._bracket(p, {q: 1})):
                    table[a, b] = even
            for r, x in action._columns[p]:
                tag, u, out = action.rows[r][0]
                key = (a, s + u) if tag == "phi" else (s + u, a)
                table.setdefault(key, {})[s + out] = self._reduction_scale * x

    @property
    def null_space(self) -> Subspace:
        """N, spanned by the kernel's free-column vectors, built on first read;
        its dimension is tensor_dim - dim_even (rank-nullity)."""
        if self._null_space is None:
            self._null_space = Subspace(self.system.field, self.tensor_dim, self.action.free)
        return self._null_space

    # -- sparse kernels ---------------------------------------------------------

    def _reduce(self, tensor) -> dict:
        """D_R times the quotient coordinates of a sparse tensor, along N."""
        acc = {}
        for c, x in tensor.items():
            for r, y in self._columns[c].items():
                acc[r] = acc.get(r, 0) + x * y
        return self.system.field.clean(acc)

    def _bracket(self, p, tensor) -> dict:
        """D [b_i(x)b_j, tensor] of coordinate p = i*n + j and a sparse tensor:
        [b_i(x)b_j, b_k(x)b_l] = {i,j,k}(x)b_l - {i,j,l}(x)b_k."""
        n, constant, acc = self.system.dim, self.system._table.get, {}
        i, j = divmod(p, n)
        for c, y in tensor.items():
            k, l = divmod(c, n)
            if plus := constant((i, j, k)):
                for m, x in plus.items():
                    acc[m * n + l] = acc.get(m * n + l, 0) + y * x
            if minus := constant((i, j, l)):
                for m, x in minus.items():
                    acc[m * n + k] = acc.get(m * n + k, 0) - y * x
        return self.system.field.clean(acc)

    # -- the bracket of L -------------------------------------------------------

    def int_bracket(self, x, y) -> dict:
        """D D_R [x, y] of sparse integer vectors x, y of L, bilinear in `table`."""
        acc = {}
        for a, u in x.items():
            for b, v in y.items():
                for c, w in self.table.get((a, b), {}).items():
                    acc[c] = acc.get(c, 0) + u * v * w
        return self.system.field.clean(acc)

    # -- grading of the even part ------------------------------------------------

    def components(self) -> dict[GroupElement, tuple[int, ...]]:
        """Nonzero homogeneous components of the even part, keyed by degree,
        sorted: each is the span of the unit vectors of its block, the sorted
        coordinates r whose coset tensor coset_indices[r] has that degree.

        The component of degree g is the span of the images of the tensors
        b_i (x) b_j with deg(i) deg(j) = g.  On first read, a homogeneity
        certificate checks that every column c of the reduction (the image of
        tensor c) lies in the block of c's degree, else `DecompositionFailure`
        names the first offending (tensor, coordinate).  It is the direct-sum
        certificate: column coset_indices[r] is D_R e_r, so the component of
        degree g holds the k_g unit vectors of its block, and the k_g add up
        to dim L0.  So the dimensions add up to dim L0 and the components
        span L0 iff each is its block, iff each column stays in its block.
        """
        if self._components is None:
            n, degrees = self.system.dim, self.system.degrees
            tensor_degree = [degrees[c // n].compose(degrees[c % n]) for c in range(n * n)]
            coordinate_degree = [tensor_degree[c] for c in self.coset_indices]
            for c, image in enumerate(self._columns):
                for r in image:
                    if coordinate_degree[r] != tensor_degree[c]:
                        raise DecompositionFailure(
                            "homogeneous components of the even part do not decompose it directly",
                            witness={"tensor": c, "coordinate": r},
                        )
            blocks: dict[GroupElement, list[int]] = {}
            for r, degree in enumerate(coordinate_degree):
                blocks.setdefault(degree, []).append(r)
            self._components = {g: tuple(blocks[g]) for g in sorted(blocks)}
        return self._components

    def component(self, g: GroupElement) -> tuple[int, ...]:
        return self.components().get(g, ())

    def support(self) -> tuple[GroupElement, ...]:
        """Nonidentity degrees with a nonzero even component, sorted."""
        return tuple(g for g in self.components() if not g.is_identity())

    def __repr__(self):
        return (
            f"StandardEmbedding(dim_even={self.dim_even}, "
            f"null_dim={self.tensor_dim - self.dim_even}, system_dim={self.system.dim})"
        )


class _ActionMatrix:
    """The stacked phi/psi action matrix A as keyed sparse rows; N = ker(A).

    The phi row (w, out) holds the out-coordinate of {b_i, b_j, b_w} in
    column i*n + j, and the psi row (z, out) that of
    {b_z, b_i, b_j} - {b_z, b_j, b_i}; `rows` pairs each row with its key
    (tag, w, out).  All phi rows come first, then all psi rows, each in
    (w, out) order; zero rows are left out.  The rows hold D A, read off
    the integer image, which has the kernel and RREF of A (`echelon`); the
    complement of N that it picks is certified (`certify`).
    """

    def __init__(self, system: GradedTripleSystem):
        n = system.dim
        blocks = {"phi": {}, "psi": {}}
        for (i, j, k), entry in system.integer_triples():
            for l, c in entry.items():
                blocks["phi"].setdefault((k, l), {})[i * n + j] = c
                row = blocks["psi"].setdefault((i, l), {})
                row[j * n + k] = row.get(j * n + k, 0) + c
                row[k * n + j] = row.get(k * n + j, 0) - c
        self.system, self.field, self.ncols = system, system.field, n * n
        self.rows = []  # ((tag, w, out), {column: int})
        for tag, block in blocks.items():
            for key in sorted(block):
                if row := system.field.clean(block[key]):
                    self.rows.append(((tag, *key), row))
        self._columns = [[] for _ in range(self.ncols)]
        for r, (_, row) in enumerate(self.rows):
            for c, v in row.items():
                self._columns[c].append((r, v))
        self.echelon = Subspace(self.field, self.ncols, (row for _, row in self.rows))
        self.certify(self.echelon.pivots, self.echelon.free_vectors())

    def certify(self, pivots, free):
        """Certify the complement of N spanned by the tensors `pivots`, `free`
        holding one null vector per other column, in column order:
        `span_failure` is None when each vector is its column c plus pivot
        coordinates and lies in ker A, so the pivot columns span A's, else
        (message, witness) of the first failing vector.  The join started
        at a pivot (a, b) finds right_slot and six_term residuals Phi(L) and
        Psi(L, P) of column a*n + b = (L, P), linear in it: `residual_pivots`
        lists the pivots with one.  With neither list, all three identities
        hold (`identities_hold`), as middle(x,b,c,d,e) + six(b,c,x,d,e) +
        right(x,d,b,c,e) = 0.
        """
        n, chosen = self.system.dim, set(pivots)
        self.free, self.span_failure = free, None
        columns = (c for c in range(self.ncols) if c not in chosen)
        for c, nu in zip_longest(columns, free):
            if nu is None or set(nu) - chosen != {c}:
                message = "null vectors do not match the free columns of the action matrix"
                self.span_failure = message, {"column": c}
            elif failing := self.failing_action(nu):
                action = "left" if failing == "phi" else "twisted right"
                message = f"{action} action of a null tensor does not vanish"
                self.span_failure = message, {"tensor": self.format(nu, nu[c])}
            if self.span_failure:
                break
        leads = [divmod(p, n) for p in pivots]
        found = join_residuals(self.system._index, PAIR_TERMS, leads, self.field.clean)
        self.residual_pivots = list(dict.fromkeys(q[0] * n + q[1] for (q, _), _ in found))
        self.identities_hold = not (self.span_failure or self.residual_pivots)

    def failing_action(self, vec):
        """Tag of the first row r with (A vec)_r != 0, or None when A vec = 0 (vec sparse)."""
        acc = {}
        for c, x in vec.items():
            for r, v in self._columns[c]:
                acc[r] = acc.get(r, 0) + v * x
        failing = self.field.clean(acc)
        return self.rows[min(failing)][0][0] if failing else None

    def format(self, tensor, scale) -> list[str]:
        """The exact tensor of which the sparse `tensor` is `scale` times, formatted."""
        return [self.field.format(x) for x in dense(self.field, tensor, self.ncols, scale)]


def build_embedding(system: GradedTripleSystem) -> StandardEmbedding:
    """Construct and certify the standard embedding of a verified system.

    Raises:
        NotWellDefined: bracketing the tensor square into N escapes N, so
            the bracket does not descend to the quotient (witness attached).
        LeibnizIdentityFailure: the quotient algebra fails the right
            Leibniz identity on some basis triple (witness attached).
    """
    # One RREF gives everything: ker(R) = N, the pivot columns index the
    # greedy standard-tensor complement of N, and R kills N while sending
    # the pivot tensor of row r to the r-th quotient coordinate.
    action = system._action_matrix()
    reduced = action.echelon
    emb = StandardEmbedding(action, reduced.pivots, tuple(reduced.integral_rows()))
    _certify_descent(emb)
    _certify_leibniz_identity(emb)
    return emb


def _certify_descent(emb: StandardEmbedding):
    """Certify the bracket descends to the quotient by N, on the complement
    of `emb` that `emb.action` certified.  A span failure of that
    certificate is raised first, before any bracket is formed.

    Membership in N is tested by its definition, A x = 0, on the sparse rows
    of A, so a fault in the elimination cannot certify itself.  As the pivot
    columns span A's, the brackets [p, nu] with the pivot tensors p decide
    descent: [c, y] depends on c = b_i(x)b_j only through L(c) = {b_i, b_j, -},
    and [nu, c] = 0 as A nu = 0 says L(nu) = 0.  By the relations
    phi([p,nu])(w) = L(phi(nu)(w)) + psi(nu)(Lw) - sum nu_kl Phi(L)(k,l,w)
    and psi([p,nu])(z) = psi(nu)(Pz) - P(psi(nu)(z)) - sum nu_kl
    (Psi(z,k,l) - Psi(z,l,k)), A [p, nu] = 0 where p has no residual, so only
    `residual_pivots` are bracketed and the first failing (nu, p) is the full
    loop's.  `descent_instances` counts the instances certified.
    """
    action = emb.action
    if action.span_failure:
        message, witness = action.span_failure
        raise NotWellDefined(message, witness=witness)
    for nu in action.free:
        for p in action.residual_pivots:
            if action.failing_action(outward := emb._bracket(p, nu)):
                c = min(set(nu) - set(emb.coset_indices))
                witness = {"coordinate": p, "null_vector": action.format(nu, nu[c]),
                           "bracket": action.format(outward, emb.system.scale * nu[c])}
                message = "bracket of the tensor square into the null space escapes it"
                raise NotWellDefined(message, witness=witness)
    emb.descent_instances = len(action.free) * (1 + emb.dim_even)


def _certify_leibniz_identity(emb: StandardEmbedding):
    """Check the right Leibniz identity on all basis triples of L0 + L1.

    The identity runs through the exact term-driven join over the nonzero
    entries of the bracket table `emb.table`, at the common scale D D_R
    (residuals scale by (D D_R)^2), and the witness is the first failing
    (y, z, x) of basis elements of L.
    """
    m = emb.dim_even + emb.system.dim
    index = index_constants(emb.table, m, 2)
    scale = emb.system.scale * emb._reduction_scale
    violations = term_violations(emb.system.field, index, RIGHT_LEIBNIZ, scale**2)
    if violations:
        raise LeibnizIdentityFailure(
            "quotient algebra fails the right Leibniz identity",
            witness={"triple": violations[0].indices},
        )
    emb.leibniz_instances = m**3
