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
otherwise; descent needs the brackets of N with the pivot tensors only.

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
phi and psi of a coset tensor on a basis vector, are read off the stored
constants.
"""

from __future__ import annotations

from itertools import product, zip_longest
from math import lcm

from .errors import DecompositionFailure, LeibnizIdentityFailure, NotWellDefined
from .groups import GroupElement
from .identities import RIGHT_LEIBNIZ, index_constants, term_violations
from .linalg import Subspace
from .triples import GradedTripleSystem


class StandardEmbedding:
    """The computed standard embedding; construct via `build_embedding`.

    Tensors, quotient coordinates and system vectors are mappings
    {index: nonzero scalar}, and products are read straight off the integer
    images of the constants and of the reduction, so `_bracket` returns
    D = `system.scale` times the value and `_reduce` D_R times it.  They
    run once per pair of even basis elements of L, at construction, to fill
    `table`; its mixed entries are stored constants of the system.  Basis
    element a < dim_even of L is the even coordinate a and dim_even + i the
    system basis vector i, and table[a, b] = {c: int} is D D_R [a, b],
    stored for the nonzero brackets only.  Every later bracket is read off
    it by `int_bracket`, and `_exact` divides a scaled result back to a
    dense exact tuple.
    """

    __slots__ = (
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
        "_free",
        "_null_space",
    )

    def __init__(self, system, tensor_dim, free, coset_indices, reduction):
        self.system = system
        self.tensor_dim = tensor_dim
        self._free = free
        self._null_space = None
        self.coset_indices = coset_indices
        self.dim_even = len(coset_indices)
        self.descent_instances = self.leibniz_instances = 0
        n = system.dim
        # `reduction` row r is a positive int multiple of the row of R with pivot
        # coset_indices[r]; column c = i*n + j of D_R R, {row: int}, is D_R times
        # the image of b_i (x) b_j
        pivots = [row[p] for p, row in zip(coset_indices, reduction)]
        self._reduction_scale = lcm(*pivots)
        self._columns = [{} for _ in range(tensor_dim)]
        for r, (row, a) in enumerate(zip(reduction, pivots)):
            for c, x in row.items():
                self._columns[c][r] = x * (self._reduction_scale // a)
        self._components = None
        m = self.dim_even + n
        self.table = {(a, b): e for a, b in product(range(m), repeat=2) if (e := self._entry(a, b))}

    @property
    def null_space(self) -> Subspace:
        """N, spanned by the kernel's free-column vectors, built on first read;
        its dimension is tensor_dim - dim_even (rank-nullity)."""
        if self._null_space is None:
            self._null_space = Subspace(self.system.field, self.tensor_dim, self._free)
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

    def _entry(self, a, b) -> dict:
        """D D_R [a, b] of basis elements a, b of L.  With b_i(x)b_j the coset
        tensor of the even coordinate, the mixed entries are stored constants:
        [e_a, b_w] = D {b_i, b_j, b_w}, [b_z, e_b] = D ({b_z, b_i, b_j} - {b_z, b_j, b_i})."""
        system, s, cosets = self.system, self.dim_even, self.coset_indices
        n = system.dim
        if a < s and b < s:
            return self._reduce(self._bracket(cosets[a], {cosets[b]: 1}))
        if a >= s and b >= s:
            return {r: system.scale * x for r, x in self._columns[(a - s) * n + b - s].items()}
        if a < s:
            i, j = divmod(cosets[a], n)
            odd = system._combination((i, j, b - s))
        else:
            i, j = divmod(cosets[b], n)
            odd = system._combination((a - s, i, j), minus=(a - s, j, i))
        return {s + l: self._reduction_scale * x for l, x in odd.items()}

    def _exact(self, kernel_result, size, scale) -> tuple:
        """Dense exact vector of a kernel result divided by `scale`."""
        out = [self.system.field.zero] * size
        for t, x in self.system.field.unscale(kernel_result, scale).items():
            out[t] = x
        return tuple(out)

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

    def verify_even_grading(self) -> list[dict]:
        """Check [L0_g, L0_h] lands in L0_{gh} for all component pairs: the
        stored bracket of each pair of block coordinates must be supported in
        the target block; a violation reports the exact bracket."""
        violations = []
        comps = self.components()
        scale = self.system.scale * self._reduction_scale
        for g, block_g in comps.items():
            for h, block_h in comps.items():
                target = set(self.component(g.compose(h)))
                for r in block_g:
                    for t in block_h:
                        w = self.table.get((r, t), {})
                        if not target.issuperset(w):
                            exact = self._exact(w, self.dim_even, scale)
                            bracket = [self.system.field.format(x) for x in exact]
                            degrees = (g.format(), h.format())
                            violations.append({"degrees": degrees, "bracket": bracket})
        return violations

    def __repr__(self):
        return (
            f"StandardEmbedding(dim_even={self.dim_even}, "
            f"null_dim={self.tensor_dim - self.dim_even}, system_dim={self.system.dim})"
        )


class _ActionMatrix:
    """The stacked phi/psi action matrix A as tagged sparse rows; N = ker(A).

    The phi row (w, out) holds the out-coordinate of {b_i, b_j, b_w} in
    column i*n + j, and the psi row (z, out) that of
    {b_z, b_i, b_j} - {b_z, b_j, b_i}.  All phi rows come first, then all
    psi rows, each in (w, out) order; zero rows are left out.  The rows hold
    D A, read off the integer image, which has the kernel and RREF of A.
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
        self.field = system.field
        self.ncols = n * n
        self.rows = []  # (tag, {column: int})
        for tag, block in blocks.items():
            for key in sorted(block):
                if row := system.field.clean(block[key]):
                    self.rows.append((tag, row))
        self._columns = [[] for _ in range(self.ncols)]
        for r, (_, row) in enumerate(self.rows):
            for c, v in row.items():
                self._columns[c].append((r, v))

    def failing_action(self, vec):
        """Tag of the first row r with (A vec)_r != 0, or None when A vec = 0 (vec sparse)."""
        acc = {}
        for c, x in vec.items():
            for r, v in self._columns[c]:
                acc[r] = acc.get(r, 0) + v * x
        failing = self.field.clean(acc)
        return self.rows[min(failing)][0] if failing else None


def build_embedding(system: GradedTripleSystem) -> StandardEmbedding:
    """Construct and certify the standard embedding of a verified system.

    Raises:
        NotWellDefined: bracketing the tensor square into N escapes N, so
            the bracket does not descend to the quotient (witness attached).
        LeibnizIdentityFailure: the quotient algebra fails the right
            Leibniz identity on some basis triple (witness attached).
    """
    action = _ActionMatrix(system)
    # One RREF gives everything: ker(R) = N, the pivot columns index the
    # greedy standard-tensor complement of N, and R kills N while sending
    # the pivot tensor of row r to the r-th quotient coordinate.
    reduced = Subspace(system.field, action.ncols, (row for _, row in action.rows))
    rows = tuple(reduced.integral_rows())
    free = reduced.free_vectors()
    emb = StandardEmbedding(system, action.ncols, free, reduced.pivots, rows)
    _certify_descent(emb, action, free)
    _certify_leibniz_identity(emb)
    return emb


def _certify_descent(emb: StandardEmbedding, action: _ActionMatrix, free: list[dict]):
    """Certify the bracket descends to the tensor-square quotient by N = span(free).

    Membership in N is tested by its definition, A x = 0, against the sparse
    rows of A, so a fault in the elimination cannot certify itself; the tag
    of the first nonzero row names the action that does not vanish.
    Bracketing N with the pivot tensors p (`emb.coset_indices`) suffices:
    * `free` has one vector nu per non-pivot column c, in column order, with
      no other non-pivot coordinate, so A nu = 0 puts column c of A, which
      holds L(c) = {b_i, b_j, -} for c = b_i(x)b_j, in the span of the pivots;
    * [c, y] depends on c only through L(c), so A [p, nu] = 0 at every pivot
      p gives A [c, nu] = 0 at every coordinate tensor c;
    * [nu, b_k(x)b_l] = L(nu)b_k (x) b_l - L(nu)b_l (x) b_k = 0, as the phi
      rows of A nu = 0 say L(nu) = 0.
    Tests run on sparse integer images, which move no zero; exact witnesses
    are built on failure.
    """
    field = emb.system.field
    pivots = set(emb.coset_indices)
    action_messages = {
        "phi": "left action of a null tensor does not vanish",
        "psi": "twisted right action of a null tensor does not vanish",
    }

    def dense(vec, scale):
        return [field.format(x) for x in emb._exact(vec, emb.tensor_dim, scale)]

    columns = (c for c in range(emb.tensor_dim) if c not in pivots)
    for c, nu in zip_longest(columns, free):
        emb.descent_instances += 1 + len(pivots)
        if nu is None or set(nu) - pivots != {c}:
            message = "null vectors do not match the free columns of the action matrix"
            raise NotWellDefined(message, witness={"column": c})
        if failing := action.failing_action(nu):
            raise NotWellDefined(action_messages[failing], witness={"tensor": dense(nu, nu[c])})
        for p in emb.coset_indices:
            if action.failing_action(outward := emb._bracket(p, nu)):
                raise NotWellDefined(
                    "bracket of the tensor square into the null space escapes it",
                    witness={
                        "coordinate": p,
                        "null_vector": dense(nu, nu[c]),
                        "bracket": dense(outward, emb.system.scale * nu[c]),
                    },
                )


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
