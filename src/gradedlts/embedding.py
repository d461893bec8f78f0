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

has a chance to descend.  Nothing is assumed: `build_embedding` raises
`NotWellDefined` unless the span certificate holds and
`LeibnizIdentityFailure` unless the bracket table satisfies the right
Leibniz identity on every basis triple, each with a witness.

N is read off the sparse reduced row echelon form R of the stacked action
matrix A (the phi rows, then the psi rows, built sparse from the structure
constants): N is the kernel of R, the quotient coordinates are the pivot
columns of R, and R's sparse rows are the reduction, since R kills N and
sends the pivot tensor of each row to that row's coordinate; R is kept as
D_R R, D_R the lcm of its denominators.  The pivot tensors are the greedy
standard-tensor complement of N, and they are homogeneous, so the even
components are blocks of coordinates.  Once the span certificate shows
A nu = 0 for the kernel's free-column vectors, the table's odd entries (the
reduction's columns) and mixed entries (A's coset columns) give
[[b_i, b_j], b_k] = {b_i, b_j, b_k}: the product is the double bracket of
L, so a passing table makes it satisfy both defining identities (Bremner
and Sanchez-Ortega 2014, "Leibniz triple systems", cited by name), and a
system that fails them fails the table.  The table's (even, odd, odd)
block at (e_a, b_k, b_l) says R [p_a, nu] = 0 for the pivot tensor p_a and
the null part nu of b_k (x) b_l: descent into ker R in ker A.  So one join
certifies the identities, descent and the Leibniz identity.  All but the
even components and N as a `Subspace`, built on first read, is fixed after
build: the certified action matrix is the embedding's one source.
"""

from __future__ import annotations

from itertools import zip_longest
from math import lcm

from .errors import DecompositionFailure, LeibnizIdentityFailure, NotWellDefined
from .groups import GroupElement
from .identities import RIGHT_LEIBNIZ, index_constants, join_residuals
from .linalg import Subspace, dense
from .triples import GradedTripleSystem


class StandardEmbedding:
    """The computed standard embedding; construct via `build_embedding`.

    It reads the system, N's free vectors, A's columns and the reduction
    (A's echelon) off `action`.  Tensors, quotient coordinates and system
    vectors are mappings {index: nonzero scalar}, and products are read
    straight off the integer images of the constants and of the reduction,
    so `_bracket` returns D = `system.scale` times the value and `_reduce`
    D_R times it.  They run once per pair of coset tensors that can bracket
    to nonzero, at construction, to fill `table`; its mixed entries are A's
    coset columns.  Basis element
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

    def __init__(self, action):
        self.action, self.system, self.tensor_dim = action, action.system, action.ncols
        self._null_space = None
        self.coset_indices = coset_indices = action.echelon.pivots
        self.dim_even = s = len(coset_indices)
        self.descent_instances = self.leibniz_instances = 0
        n = self.system.dim
        # reduction row r is a positive int multiple of the row of R with pivot
        # coset_indices[r]; column c = i*n + j of D_R R, {row: int}, is D_R times
        # the image of b_i (x) b_j
        reduction = action.echelon.integral_rows()
        pivots = [row[p] for p, row in zip(coset_indices, reduction)]
        self._reduction_scale = lcm(*pivots)
        self._columns = [{} for _ in range(self.tensor_dim)]
        for r, (row, a) in enumerate(zip(reduction, pivots)):
            for c, x in row.items():
                self._columns[c][r] = x * (self._reduction_scale // a)
        self._components = None
        # [b_i, b_j] is the image of b_i (x) b_j; at the coset column p of e_a,
        # the phi row (w, out) of D A holds D [e_a, b_w]_out and the psi row
        # (z, out) D [b_z, e_a]_out; [b_i(x)b_j, b_k(x)b_l] is formed only if
        # {b_i, b_j, b_k} or {b_i, b_j, b_l} is stored, else it is zero
        self.table = table = {}
        for c, image in enumerate(self._columns):
            if image:
                table[s + c // n, s + c % n] = {r: self.system.scale * x for r, x in image.items()}
        thirds, meeting = {}, [[] for _ in range(n)]
        for i, j, k in self.system._table:
            thirds.setdefault(i * n + j, []).append(k)
        for b, q in enumerate(coset_indices):
            meeting[q // n].append(b)
            meeting[q % n].append(b)
        for a, p in enumerate(coset_indices):
            for b in sorted({b for k in thirds.get(p, ()) for b in meeting[k]}):
                if even := self._reduce(self._bracket(p, {coset_indices[b]: 1})):
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
    complement of N that it picks is certified (`certify`), and the
    embedding on it and its Leibniz verdict are built on first request
    (`embedding`).
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
        self._embedding = None
        self.certify(self.echelon.free_vectors())

    def certify(self, free):
        """Certify the complement of N spanned by the echelon's pivot tensors,
        `free` holding one null vector per other column, in column order:
        `span_failure` is None when each vector is its column c plus pivot
        coordinates and lies in ker A, so the pivot columns span A's, else
        (message, witness) of the first failing vector."""
        chosen = set(self.echelon.pivots)
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

    def embedding(self):
        """(the standard embedding on the echelon's pivots, the first basis
        triple (y, z, x) of L failing the right Leibniz identity or None),
        built on first call: the exact join over the nonzero entries of
        `table`, at the common scale D D_R, stops at the first failing bucket."""
        if self._embedding is None:
            emb = StandardEmbedding(self)
            index = index_constants(emb.table, emb.dim_even + self.system.dim, 2)
            found = next(join_residuals(index, RIGHT_LEIBNIZ, clean=self.field.clean), None)
            self._embedding = emb, found and found[0][0]
        return self._embedding

    @property
    def identities_hold(self) -> bool:
        """The span certificate and the table's right Leibniz identity hold."""
        return self.span_failure is None and self.embedding()[1] is None

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
    """Certify and return the one standard embedding of `system`'s action
    matrix.  `descent_instances` counts the null_dim (1 + dim_even)
    instances it certifies (each free vector's shape and actions, then its
    bracket with each pivot tensor), `leibniz_instances` the (dim_even + n)^3
    basis triples of L.

    Raises:
        NotWellDefined: the null vectors fail the span certificate, which
            is checked first (witness attached).
        LeibnizIdentityFailure: the quotient algebra fails the right
            Leibniz identity on some basis triple, as every system that
            fails its identities does (witness attached).
    """
    action = system._action_matrix()
    if action.span_failure:
        message, witness = action.span_failure
        raise NotWellDefined(message, witness=witness)
    emb, failing = action.embedding()
    if failing:
        raise LeibnizIdentityFailure(
            "quotient algebra fails the right Leibniz identity", witness={"triple": failing}
        )
    emb.descent_instances = len(action.free) * (1 + emb.dim_even)
    emb.leibniz_instances = (emb.dim_even + system.dim) ** 3
    return emb
