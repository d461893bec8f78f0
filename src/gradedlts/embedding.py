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
otherwise.

N is read off the sparse reduced row echelon form R of the stacked action
matrix A (the phi rows, then the psi rows, built sparse from the structure
constants): N is the kernel of R, the quotient coordinates are the pivot
columns of R, and R's sparse rows are the reduction, since R kills N and
sends the pivot tensor of each row to that row's coordinate.  The pivot tensors are
exactly the greedy standard-tensor complement of N, so the choice is
deterministic, and they are homogeneous, so the even part inherits the
grading.  Everything is immutable after build.
"""

from __future__ import annotations

from itertools import product

from .errors import DecompositionFailure, LeibnizIdentityFailure, NotWellDefined
from .groups import GroupElement
from .linalg import Echelon, Subspace
from .triples import GradedTripleSystem


class StandardEmbedding:
    """The computed standard embedding; construct via `build_embedding`."""

    __slots__ = (
        "system",
        "tensor_dim",
        "null_space",
        "coset_indices",
        "dim_even",
        "_reduction",
        "_components",
        "_support",
        "_tensor_degrees",
    )

    def __init__(self, system, tensor_dim, null_space, coset_indices, reduction):
        self.system = system
        self.tensor_dim = tensor_dim
        self.null_space = null_space
        self.coset_indices = coset_indices
        self.dim_even = len(coset_indices)
        self._reduction = reduction
        n = system.dim
        self._tensor_degrees = tuple(
            system.degrees[c // n].compose(system.degrees[c % n]) for c in range(tensor_dim)
        )
        self._components = None
        self._support = None

    # -- quotient coordinates -------------------------------------------------

    def reduce_tensor(self, tensor_vec) -> tuple:
        """Project a tensor-square vector to quotient coordinates along N."""
        zero = self.system.field.zero
        return tuple(
            sum((tensor_vec[c] * x for c, x in row.items() if tensor_vec[c]), zero)
            for row in self._reduction
        )

    def lift(self, coords) -> tuple:
        """Canonical tensor representative of a quotient coordinate vector."""
        zero = self.system.field.zero
        out = [zero] * self.tensor_dim
        for coef, c in zip(coords, self.coset_indices):
            out[c] = coef
        return tuple(out)

    def tensor_of_pair(self, x, y) -> tuple:
        """The tensor x (x) y of two system vectors, as a flat vector."""
        n = self.system.dim
        zero = self.system.field.zero
        out = [zero] * self.tensor_dim
        for i, xi in enumerate(x):
            if xi:
                for j, yj in enumerate(y):
                    if yj:
                        out[i * n + j] = xi * yj
        return tuple(out)

    # -- the two actions -------------------------------------------------------

    def phi_apply(self, tensor_vec, w) -> tuple:
        """Left multiplication by a tensor: sum {x_i, y_i, w}."""
        n = self.system.dim
        zero = self.system.field.zero
        out = [zero] * n
        for c, coef in enumerate(tensor_vec):
            if coef:
                i, j = divmod(c, n)
                for widx, wc in enumerate(w):
                    if wc:
                        entry = self.system.basis_product(i, j, widx)
                        for l, cc in entry.items():
                            out[l] = out[l] + coef * wc * cc
        return tuple(out)

    def psi_apply(self, tensor_vec, z) -> tuple:
        """Twisted right action of a tensor: sum {z, x_i, y_i} - {z, y_i, x_i}."""
        n = self.system.dim
        zero = self.system.field.zero
        out = [zero] * n
        for c, coef in enumerate(tensor_vec):
            if coef:
                i, j = divmod(c, n)
                for zidx, zc in enumerate(z):
                    if zc:
                        for l, cc in self.system.basis_product(zidx, i, j).items():
                            out[l] = out[l] + coef * zc * cc
                        for l, cc in self.system.basis_product(zidx, j, i).items():
                            out[l] = out[l] - coef * zc * cc
        return tuple(out)

    def tensor_bracket(self, tensor_a, tensor_b) -> tuple:
        """Tensor part of the bracket of two even elements (before reduction)."""
        n = self.system.dim
        zero = self.system.field.zero
        out = [zero] * self.tensor_dim
        for ca, coef_a in enumerate(tensor_a):
            if not coef_a:
                continue
            i, j = divmod(ca, n)
            for cb, coef_b in enumerate(tensor_b):
                if not coef_b:
                    continue
                k, l = divmod(cb, n)
                coef = coef_a * coef_b
                for m, cc in self.system.basis_product(i, j, k).items():
                    out[m * n + l] = out[m * n + l] + coef * cc
                for m, cc in self.system.basis_product(i, j, l).items():
                    out[m * n + k] = out[m * n + k] - coef * cc
        return tuple(out)

    # -- quotient brackets ------------------------------------------------------

    def bracket_even_even(self, u_coords, v_coords) -> tuple:
        return self.reduce_tensor(self.tensor_bracket(self.lift(u_coords), self.lift(v_coords)))

    def bracket_even_odd(self, u_coords, w) -> tuple:
        return self.phi_apply(self.lift(u_coords), w)

    def bracket_odd_even(self, z, v_coords) -> tuple:
        return self.psi_apply(self.lift(v_coords), z)

    def bracket_odd_odd(self, z, w) -> tuple:
        return self.reduce_tensor(self.tensor_of_pair(z, w))

    # -- grading of the even part ------------------------------------------------

    def components(self) -> dict[GroupElement, Subspace]:
        """Nonzero homogeneous components of the even part, keyed by degree.

        The component of degree g is the span of the images of all tensors
        b_i (x) b_j with deg(i) deg(j) = g, i.e. the sum over h of the
        bracket images of E_h with E_{h^-1 g}.
        """
        if self._components is None:
            # the image of b_i (x) b_j is column i*n + j of the reduction
            images = [{} for _ in range(self.tensor_dim)]
            for r, row in enumerate(self._reduction):
                for c, x in row.items():
                    images[c][r] = x
            buckets: dict[GroupElement, list] = {}
            for g, image in zip(self._tensor_degrees, images):
                buckets.setdefault(g, []).append(image)
            comps = {}
            for g in sorted(buckets):
                sub = Subspace(self.system.field, self.dim_even, buckets[g])
                if not sub.is_zero():
                    comps[g] = sub
            self._components = comps
            self._certify_direct_sum()
        return self._components

    def component(self, g: GroupElement) -> Subspace:
        return self.components().get(g, Subspace.zero(self.system.field, self.dim_even))

    def support(self) -> tuple[GroupElement, ...]:
        """Nonidentity degrees with a nonzero even component, sorted."""
        if self._support is None:
            self._support = tuple(
                g for g in sorted(self.components()) if not g.is_identity()
            )
        return self._support

    def _certify_direct_sum(self):
        comps = self._components
        total = Subspace.zero(self.system.field, self.dim_even)
        dims = 0
        for g, sub in comps.items():
            total = total.sum(sub)
            dims += sub.dim
        if dims != self.dim_even or total.dim != self.dim_even:
            raise DecompositionFailure(
                "homogeneous components of the even part do not decompose it directly",
                witness={
                    "component_dims": {g.format(): sub.dim for g, sub in comps.items()},
                    "even_dim": self.dim_even,
                },
            )

    def verify_even_grading(self) -> list[dict]:
        """Check [L0_g, L0_h] lands in L0_{gh} for all component pairs."""
        violations = []
        comps = self.components()
        for g, cg in comps.items():
            for h, ch in comps.items():
                target = self.component(g.compose(h))
                for u in cg.basis.rows:
                    for v in ch.basis.rows:
                        w = self.bracket_even_even(u, v)
                        if any(w) and not target.contains(w):
                            violations.append(
                                {
                                    "degrees": (g.format(), h.format()),
                                    "bracket": [self.system.field.format(x) for x in w],
                                }
                            )
        return violations

    def __repr__(self):
        return (
            f"StandardEmbedding(dim_even={self.dim_even}, "
            f"null_dim={self.null_space.dim}, system_dim={self.system.dim})"
        )


class _ActionMatrix:
    """The stacked phi/psi action matrix A as tagged sparse rows; N = ker(A).

    The phi row (w, out) holds the out-coordinate of {b_i, b_j, b_w} in
    column i*n + j, and the psi row (z, out) that of
    {b_z, b_i, b_j} - {b_z, b_j, b_i}.  All phi rows come first, then all
    psi rows, each in (w, out) order; zero rows are left out.
    """

    def __init__(self, system: GradedTripleSystem):
        n = system.dim
        zero = system.field.zero
        blocks = {"phi": {}, "psi": {}}
        for (i, j, k), entry in system.nonzero_triples():
            for l, c in entry.items():
                blocks["phi"].setdefault((k, l), {})[i * n + j] = c
                row = blocks["psi"].setdefault((i, l), {})
                row[j * n + k] = row.get(j * n + k, zero) + c
                row[k * n + j] = row.get(k * n + j, zero) - c
        self.ncols = n * n
        self.rows = []  # (tag, {column: scalar})
        for tag, block in blocks.items():
            for key in sorted(block):
                row = {c: v for c, v in block[key].items() if v}
                if row:
                    self.rows.append((tag, row))
        self._columns = [[] for _ in range(self.ncols)]
        for r, (_, row) in enumerate(self.rows):
            for c, v in row.items():
                self._columns[c].append((r, v))

    def failing_action(self, vec):
        """Tag of the first row r with (A vec)_r != 0, or None when A vec = 0."""
        acc = {}
        for c, x in enumerate(vec):
            if x:
                for r, v in self._columns[c]:
                    acc[r] = acc.get(r, 0) + v * x
        failing = [r for r, total in acc.items() if total]
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
    reduced = Echelon(system.field, action.ncols, (row for _, row in action.rows))
    rows = tuple(reduced.rows[p] for p in reduced.pivots)
    emb = StandardEmbedding(system, action.ncols, reduced.kernel(), reduced.pivots, rows)
    _certify_descent(emb, action)
    _certify_leibniz_identity(emb)
    return emb


def _certify_descent(emb: StandardEmbedding, action: _ActionMatrix):
    """Certify the bracket descends to the tensor-square quotient.

    Membership in N is tested by its definition, A x = 0, against the
    sparse rows of the action matrix rather than against the basis read off
    its RREF, so a fault in the elimination cannot certify itself.  For
    every null-space basis vector nu, A nu = 0 (both actions of nu vanish;
    the tag of the first nonzero row names the action that does not), and
    for every coordinate tensor t, A [t, nu] = 0 and A [nu, t] = 0.
    """
    system = emb.system
    fmt = system.field.format
    zero, one = system.field.zero, system.field.one
    action_messages = {
        "phi": "left action of a null tensor does not vanish",
        "psi": "twisted right action of a null tensor does not vanish",
    }
    coord_tensors = [
        tuple(one if t == c else zero for t in range(emb.tensor_dim))
        for c in range(emb.tensor_dim)
    ]
    for nu in emb.null_space.basis.rows:
        failing = action.failing_action(nu)
        if failing:
            raise NotWellDefined(
                action_messages[failing],
                witness={"tensor": [fmt(x) for x in nu]},
            )
        for c, coord_tensor in enumerate(coord_tensors):
            outward = emb.tensor_bracket(coord_tensor, nu)
            if action.failing_action(outward):
                raise NotWellDefined(
                    "bracket of the tensor square into the null space escapes it",
                    witness={
                        "coordinate": c,
                        "null_vector": [fmt(x) for x in nu],
                        "bracket": [fmt(x) for x in outward],
                    },
                )
            inward = emb.tensor_bracket(nu, coord_tensor)
            if action.failing_action(inward):
                raise NotWellDefined(
                    "bracket of the null space into the tensor square escapes it",
                    witness={
                        "coordinate": c,
                        "null_vector": [fmt(x) for x in nu],
                    },
                )


def _certify_leibniz_identity(emb: StandardEmbedding):
    """Sweep the right Leibniz identity over all basis triples of L0 + L1.

    Elements of L are coordinate vectors of length dim_even + dim; the
    bracket table on basis elements is precomputed once and the identity
    [[y,z],x] = [[y,x],z] + [y,[z,x]] is evaluated exactly.
    """
    system = emb.system
    field = system.field
    zero, one = field.zero, field.one
    s = emb.dim_even
    n = system.dim
    m = s + n

    def unit(k, size):
        return tuple(one if t == k else zero for t in range(size))

    table = [[None] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if a < s and b < s:
                even = emb.bracket_even_even(unit(a, s), unit(b, s))
                odd = (zero,) * n
            elif a < s:
                even = (zero,) * s
                odd = emb.bracket_even_odd(unit(a, s), unit(b - s, n))
            elif b < s:
                even = (zero,) * s
                odd = emb.bracket_odd_even(unit(a - s, n), unit(b, s))
            else:
                even = emb.bracket_odd_odd(unit(a - s, n), unit(b - s, n))
                odd = (zero,) * n
            table[a][b] = even + odd

    def combine(vec, rows):
        # sum over l of vec[l] * rows[l]
        out = [zero] * m
        for coef, row in zip(vec, rows):
            if coef:
                for t, c in enumerate(row):
                    if c:
                        out[t] = out[t] + coef * c
        return out

    # right multiplication by e_x sends e_l to table[l][x]
    right = [[table[l][x] for l in range(m)] for x in range(m)]
    for y, z, x in product(range(m), repeat=3):
        lhs = combine(table[y][z], right[x])
        rhs_a = combine(table[y][x], right[z])
        rhs_b = combine(table[z][x], table[y])  # [y, [z, x]]
        if any(lhs[t] != rhs_a[t] + rhs_b[t] for t in range(m)):
            raise LeibnizIdentityFailure(
                "quotient algebra fails the right Leibniz identity",
                witness={"triple": (y, z, x)},
            )
