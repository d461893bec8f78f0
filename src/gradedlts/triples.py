"""Group-graded Leibniz triple systems over an exact field.

A system is a finite-dimensional vector space with an ordered basis, a
degree map into an abelian group, and a trilinear product {.,.,.} given by
sparse structure constants.  The identities are checked by the join of
`identities`, the grading {E_g, E_h, E_k} in E_{ghk} constant by constant;
the basis is homogeneous, so each component E_g is a block of basis indices.
Products of a vector with every basis pair come from `int_slot_products`,
which reads only the constants the vector meets.  Zero and span tests run
on the integer image of the constants (`scale` = D times them; over GF(p)
the residues) and on primitive integer vectors: scaling moves no zero.

Systems are immutable after construction; verification sweeps are pure and
may be run concurrently on the same instance.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter
from typing import Sequence

from .errors import CertificateFailure, InputError, OracleDisagreement
from .groups import AbelianGroup, GroupElement
from .identities import AXIOM_TERMS, SIX_TERM, Violation, index_constants, term_violations
from .linalg import Subspace


class GradedTripleSystem:
    """A graded Leibniz triple system described by structure constants.

    `products` maps basis index triples (i, j, k) to the expansion of
    {b_i, b_j, b_k} as a mapping from output index l to a nonzero scalar.
    Unspecified triples are zero.  No symmetry of any kind is assumed; the
    product of a Leibniz triple system is not antisymmetric in general.
    One table is stored: the integer image of the constants, `scale` (D)
    times them (over GF(p) the residues, D = 1); exact values divide by D.
    """

    __slots__ = ("field", "group", "dim", "degrees", "scale", "_table", "_index")

    def __init__(
        self,
        field,
        group: AbelianGroup,
        degrees: Sequence[GroupElement],
        products: Mapping[tuple[int, int, int], Mapping[int, object]],
    ):
        degrees = tuple(degrees)
        n = len(degrees)
        for d in degrees:
            if d.group != group:
                raise InputError("degree from a different group")
        table: dict[tuple[int, int, int], dict[int, object]] = {}
        for key, out in products.items():
            i, j, k = key
            if not all(0 <= t < n for t in (i, j, k)):
                raise InputError(f"structure constant index {key} out of range")
            entry = {}
            for l, value in out.items():
                if not 0 <= l < n:
                    raise InputError(f"structure constant output index {l} out of range")
                value = field.element(value)
                if value:
                    entry[l] = value
            if entry:
                table[(i, j, k)] = entry
        self.field = field
        self.group = group
        self.dim = n
        self.degrees = degrees
        self._table, self.scale = field.integer_image(table)
        self._index = index_constants(self._table, n, 3)

    # -- product evaluation -------------------------------------------------

    def nonzero_triples(self):
        """Iterate ((i, j, k), {l: scalar}) over the structure constants."""
        unscale, scale = self.field.unscale, self.scale
        for key in sorted(self._table):
            yield key, unscale(self._table[key], scale)

    def integer_triples(self):
        """Sorted ((i, j, k), {l: int}) of the stored integer image; do not change the mappings."""
        return sorted(self._table.items())

    def int_triple_product(self, x: Mapping, y: Mapping, z: Mapping) -> dict:
        """`scale` {x, y, z} of sparse integer vectors, reduced, zeros dropped."""
        table, (by_first, _, _), _ = self._index
        acc: dict[int, object] = {}
        for i, a in x.items():
            for key in by_first[i]:
                coef = a * y.get(key[1], 0) * z.get(key[2], 0)
                if coef:
                    for l, c in table[key].items():
                        acc[l] = acc.get(l, 0) + coef * c
        return self.field.clean(acc)

    def vector(self, sparse: Mapping[int, object]) -> list:
        """Dense coordinate list of a sparse mapping l -> scalar, 0 <= l < n."""
        self._check_vector(sparse)
        out = [self.field.zero] * self.dim
        for l, c in sparse.items():
            out[l] = c
        return out

    def slot_products(self, v) -> dict[tuple[int, int, int], dict[int, object]]:
        """Products of `v` with every basis pair, from the constants v meets.

        `v` is a dense sequence or a sparse mapping l -> scalar, 0 <= l < n.  Key
        (j, k, 0) is {v, b_j, b_k}, (j, k, 1) is {b_j, v, b_k} and
        (j, k, 2) is {b_j, b_k, v}.  Only the nonzero products are returned,
        as sparse mappings l -> scalar, with keys in increasing order; a
        missing key means the product is zero.
        """
        self._check_vector(v)
        w, c = self.field.integral(v)
        unscale, scale = self.field.unscale, c * self.scale
        return {key: unscale(out, scale) for key, out in self.int_slot_products(w).items()}

    def _check_vector(self, v) -> None:
        """Reject a dense vector of the wrong length, or a sparse one with an
        index outside [0, n)."""
        if not isinstance(v, Mapping):
            if len(v) != self.dim:
                raise InputError("vector length does not match system dimension")
        elif v and (min(v) < 0 or max(v) >= self.dim):
            raise InputError("vector index outside the system dimension")

    def int_slot_products(self, w: Mapping) -> dict[tuple[int, int, int], dict[int, object]]:
        """`slot_products` of a sparse integer vector, each `scale` times, reduced."""
        table, by_slot, _ = self._index
        acc: dict[tuple[int, int, int], dict[int, object]] = {}
        for slot, by_index in enumerate(by_slot):
            others = itemgetter(*[t for t in range(3) if t != slot])
            for i, coef in w.items():
                for key in by_index[i]:
                    out = acc.setdefault((*others(key), slot), {})
                    for l, x in table[key].items():
                        out[l] = out.get(l, 0) + coef * x
        clean = self.field.clean
        return {key: out for key in sorted(acc) if (out := clean(acc[key]))}

    # -- identity sweeps ----------------------------------------------------

    def verify_axioms(self) -> list[Violation]:
        """Check both defining five-term identities on every basis quintuple.

        Exact by the term-driven join (`join_residuals`): a quintuple that no
        term reaches has every term zero.  Violations name the quintuple and
        its nonzero residual, in quintuple order, then middle_slot before
        right_slot; a valid system yields the empty list.
        """
        return term_violations(self.field, self._index, AXIOM_TERMS, self.scale**2)

    def verify_fundamental_identity(self) -> list[Violation]:
        """Check the derived six-term identity on every basis quintuple.

        The same exact join as `verify_axioms`.  The identity follows from
        the two defining ones, so it must come back empty whenever those
        pass; it is checked independently as a cross-validation.
        """
        return term_violations(self.field, self._index, SIX_TERM, self.scale**2)

    def verify_grading(self) -> list[Violation]:
        """Check degree compatibility of every stored structure constant, on
        the integer image; only a violating constant is divided back."""
        violations = []
        for (i, j, k), entry in self.integer_triples():
            expected = self.degrees[i].compose(self.degrees[j]).compose(self.degrees[k])
            for l in sorted(entry):
                if self.degrees[l] != expected:
                    vec = self.vector(self.field.unscale({l: entry[l]}, self.scale))
                    violations.append(Violation("grading", (i, j, k, l), tuple(vec)))
        return violations

    # -- grading data ---------------------------------------------------------

    def components(self) -> dict[GroupElement, tuple[int, ...]]:
        """Nonzero homogeneous components keyed by degree, sorted: the basis is
        homogeneous, so each is the sorted tuple of the basis indices of its
        degree, and their direct sum is the space."""
        blocks: dict[GroupElement, list[int]] = {}
        for i, d in enumerate(self.degrees):
            blocks.setdefault(d, []).append(i)
        return {d: tuple(blocks[d]) for d in sorted(blocks)}

    def homogeneous_component(self, g: GroupElement) -> Subspace:
        """The span of the basis vectors of degree g, the unit span of its block."""
        units = [{i: 1} for i in self.components().get(g, ())]
        return Subspace(self.field, self.dim, units)

    def support(self) -> tuple[GroupElement, ...]:
        """Nonidentity degrees with a nonzero component, in canonical order."""
        return tuple(d for d in self.components() if not d.is_identity())

    def identity_component(self) -> Subspace:
        return self.homogeneous_component(self.group.identity())

    # -- ideals ---------------------------------------------------------------

    def ideal_closure(self, sub: Subspace) -> Subspace:
        """Least ideal containing `sub`.

        Fixed-point iteration adding the nonzero slot products {v, E, E},
        {E, v, E} and {E, E, v} of every new spanning vector v, on integer
        images, until stable or, even part-way through one vector's
        products, until the span has rank `dim`: each added row lies in the
        least ideal and E is an ideal, so rank `dim` means the closure is E.
        The result is the canonical basis, whatever the order in which
        products (or multiples) were added.  A one-entry product at a
        column whose one-entry vector was offered before is in the span
        already and is skipped without being reduced.
        """
        self._check_subspace(sub)
        n, closure = self.dim, Subspace(self.field, self.dim)
        rows, units = closure.int_rows, set()

        def offer(w):
            if len(w) == 1:
                if (c := next(iter(w))) in units:
                    return False
                units.add(c)
            return closure.add(w)

        queue = [row for row in sub.integral_rows() if offer(row)]
        while queue and len(rows) < n:
            products = self.int_slot_products(queue.pop()).values()
            queue.extend(w for w in products if len(rows) < n and offer(w))
        return closure

    def is_ideal(self, sub: Subspace) -> bool:
        """Whether {I,E,E} + {E,I,E} + {E,E,I} is contained in I."""
        return self.ideal_witness(sub) is None

    def ideal_witness(self, sub: Subspace):
        """First product escaping the subspace, or None when it is an ideal.

        Every nonzero slot product of every basis row is tested, in
        (row, j, k, slot) order, on integer images; zero products always
        lie in the subspace.
        """
        self._check_subspace(sub)
        for r, row in enumerate(sub.integral_rows()):
            for (j, k, slot), w in self.int_slot_products(row).items():
                if not sub.contains(w):
                    return {"vector": sub.basis[r], "slot": slot, "j": j, "k": k}
        return None

    def is_subsystem(self, sub: Subspace) -> bool:
        """Whether {S,S,S} is contained in S, tested on integer images."""
        self._check_subspace(sub)
        rows = sub.integral_rows()
        return all(
            sub.contains(self.int_triple_product(x, y, z)) for x in rows for y in rows for z in rows
        )

    def _check_subspace(self, sub: Subspace) -> None:
        if sub.ambient != self.dim or sub.field != self.field:
            raise InputError("subspace is not in the system's space (ambient dimension or field)")

    def lie_defect_ideal(self) -> Subspace:
        """Ideal generated by all {a,b,c} - {a,c,b} + {b,c,a}.

        This ideal is zero exactly when the system is a Lie triple system.
        The returned ideal is certified to satisfy the vanishing laws
        {E,E,I} = {E,I,E} = 0 exactly, on every nonzero slot product of
        every basis row; a certificate failure means the input system itself
        is corrupt.  The witness is the first failing pair (j, k), with
        {E,E,I} tested before {E,I,E} on each pair.
        """
        # the combination at (i, j, k) is zero unless (i, j, k), (i, k, j) or
        # (j, k, i) is stored: the stored (a, b, c) is each of them in turn
        # at (a, b, c), (a, c, b) and (c, a, b)
        reached = set()
        for a, b, c in self._table:
            reached.update(((a, b, c), (a, c, b), (c, a, b)))
        generators = [
            self._combination((i, j, k), (j, k, i), minus=(i, k, j))
            for i, j, k in sorted(reached)
        ]
        ideal = self.ideal_closure(Subspace(self.field, self.dim, generators))
        for r, row in enumerate(ideal.integral_rows()):
            # keyed (j, k, -slot) so that on each pair {E,E,I} (slot 2)
            # comes before {E,I,E} (slot 1)
            products = self.int_slot_products(row)
            failing = [(j, k, -slot) for j, k, slot in products if slot]
            if failing:
                j, k, slot = min(failing)
                family = "{E,E,I}" if slot == -2 else "{E,I,E}"
                raise CertificateFailure(
                    f"products {family} of the defect ideal do not vanish",
                    witness={"vector": ideal.basis[r], "j": j, "k": k},
                )
        return ideal

    def is_lie_triple(self) -> bool:
        """Whether the system is a Lie triple system.

        Decided as `lie_defect_ideal() == 0` and cross-checked against the
        direct axiom test (vanishing {x,x,z} and the ternary Jacobi sum on
        basis tuples).  The two must agree; a mismatch is an implementation
        bug and raises OracleDisagreement rather than returning quietly.
        """
        via_defect = self.lie_defect_ideal().is_zero()
        via_axioms = self._lie_axiom_oracle()
        if via_defect != via_axioms:
            raise OracleDisagreement(
                "defect-ideal test and direct Lie-triple axiom test disagree",
                witness={"defect_zero": via_defect, "axioms_hold": via_axioms},
            )
        return via_defect

    def _lie_axiom_oracle(self) -> bool:
        # {x,x,z} = 0 fails exactly at a stored (i, i, k); the sum
        # {i,j,k} + {j,i,k} is zero unless it has a stored term, and swapping
        # i and j leaves it unchanged, so it suffices to test it at stored
        # keys; the same holds for the cyclic Jacobi sum under rotation
        if any(i == j for i, j, _ in self._table):
            return False
        for i, j, k in self._table:
            if self._combination((i, j, k), (j, i, k)):
                return False
            if self._combination((i, j, k), (j, k, i), (k, i, j)):
                return False
        return True

    def _combination(self, *keys, minus=None) -> dict[int, object]:
        """{b_i, b_j, b_k} summed over `keys`, less the constant at `minus`,
        on the integer image, zeros dropped."""
        acc: dict[int, object] = {}
        for key in keys:
            for l, c in self._table.get(key, {}).items():
                acc[l] = acc.get(l, 0) + c
        for l, c in self._table.get(minus, {}).items():
            acc[l] = acc.get(l, 0) - c
        return self.field.clean(acc)

    def annihilator(self) -> Subspace:
        """Elements x with {x,E,E} + {E,x,E} + {E,E,x} = 0.

        Computed as the kernel of the stacked linear map collecting all
        three slot actions against basis pairs.  Its nonzero rows, keyed
        (slot, j, k, l), are read straight off the stored constants: the
        constant {b_a, b_b, b_c} = sum_l x_l b_l puts x_l in column a of row
        (0, b, c, l), in column b of (1, a, c, l) and in column c of
        (2, a, b, l).  The kernel is canonical, so row order and the scale
        of the integer image are immaterial.
        """
        rows: dict[tuple[int, int, int, int], dict[int, object]] = {}
        for (a, b, c), entry in self._table.items():
            for key, column in (((0, b, c), a), ((1, a, c), b), ((2, a, b), c)):
                for l, x in entry.items():
                    rows.setdefault((*key, l), {})[column] = x
        return Subspace(self.field, self.dim, rows.values()).kernel()

    # -- misc -----------------------------------------------------------------

    def structure_constants(self) -> list[tuple[tuple[int, int, int], list[tuple[int, object]]]]:
        """Canonical serializable view of the structure constants."""
        return [(key, sorted(entry.items())) for key, entry in self.nonzero_triples()]

    def __repr__(self):
        return (
            f"GradedTripleSystem(dim={self.dim}, group={list(self.group.moduli)}, "
            f"field={self.field!r}, constants={len(self._table)})"
        )
