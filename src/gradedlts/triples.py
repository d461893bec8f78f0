"""Group-graded Leibniz triple systems over an exact field.

A system is a finite-dimensional vector space with an ordered basis, a
degree map into an abelian group, and a trilinear product {.,.,.} given by
sparse structure constants.  The two defining five-term identities of a
Leibniz triple system, the grading condition {E_g, E_h, E_k} in E_{ghk},
and the derived six-term identity are all verified by exhaustive sweeps
over basis tuples, which suffices because each identity is multilinear.
The products of a vector with every basis pair, which the ideal predicate,
ideal closures, the defect-ideal certificate and the annihilator need, come
from `slot_products`: one pass over the stored constants.

Systems are immutable after construction; verification sweeps are pure and
may be run concurrently on the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Mapping, Sequence

from .errors import CertificateFailure, InputError, OracleDisagreement
from .groups import AbelianGroup, GroupElement
from .linalg import Echelon, Subspace


@dataclass(frozen=True)
class Violation:
    """One failed identity instance: which identity, where, and the residual."""

    identity: str
    indices: tuple[int, ...]
    residual: tuple

    def describe(self, field) -> dict:
        return {
            "identity": self.identity,
            "indices": list(self.indices),
            "residual": [field.format(x) for x in self.residual],
        }


class GradedTripleSystem:
    """A graded Leibniz triple system described by structure constants.

    `products` maps basis index triples (i, j, k) to the expansion of
    {b_i, b_j, b_k} as a mapping from output index l to a nonzero scalar.
    Unspecified triples are zero.  No symmetry of any kind is assumed; the
    product of a Leibniz triple system is not antisymmetric in general.
    """

    __slots__ = ("field", "group", "dim", "degrees", "_table")

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
        self._table = table

    # -- product evaluation -------------------------------------------------

    def nonzero_triples(self):
        """Iterate ((i, j, k), {l: scalar}) over the stored constants."""
        for key in sorted(self._table):
            yield key, dict(self._table[key])

    def triple_product(self, x: Sequence, y: Sequence, z: Sequence) -> tuple:
        """Trilinear extension of the structure constants to vectors."""
        n = self.dim
        if len(x) != n or len(y) != n or len(z) != n:
            raise InputError("vector length does not match system dimension")
        zero = self.field.zero
        out = [zero] * n
        for (i, j, k), entry in self._table.items():
            coef = x[i] * y[j] * z[k]
            if coef:
                for l, c in entry.items():
                    out[l] = out[l] + coef * c
        return tuple(out)

    def vector(self, sparse: Mapping[int, object]) -> list:
        """Dense coordinate list of a sparse mapping l -> scalar."""
        out = [self.field.zero] * self.dim
        for l, c in sparse.items():
            out[l] = c
        return out

    def slot_products(self, v) -> dict[tuple[int, int, int], dict[int, object]]:
        """Products of `v` with every basis pair, in one pass over the constants.

        `v` is a dense sequence or a sparse mapping l -> scalar.  Key
        (j, k, 0) is {v, b_j, b_k}, (j, k, 1) is {b_j, v, b_k} and
        (j, k, 2) is {b_j, b_k, v}.  Only the nonzero products are returned,
        as sparse mappings l -> scalar, with keys in increasing order; a
        missing key means the product is zero.
        """
        if not isinstance(v, Mapping):
            if len(v) != self.dim:
                raise InputError("vector length does not match system dimension")
            v = dict(enumerate(v))
        zero, get = self.field.zero, v.get
        acc: dict[tuple[int, int, int], dict[int, object]] = {}
        for (a, b, c), entry in self._table.items():
            for key, coef in (((b, c, 0), get(a)), ((a, c, 1), get(b)), ((a, b, 2), get(c))):
                if coef:
                    out = acc.setdefault(key, {})
                    for l, x in entry.items():
                        out[l] = out.get(l, zero) + coef * x
        products = {}
        for key in sorted(acc):
            out = {l: x for l, x in acc[key].items() if x}
            if out:
                products[key] = out
        return products

    # -- identity sweeps ----------------------------------------------------

    def _sweep(self, identities) -> list[Violation]:
        """Evaluate residual expansions on all n^5 basis quintuples.

        `identities` is a sequence of (name, accumulate) pairs, where
        accumulate(a, b, c, d, e, acc) adds the identity's residual at that
        quintuple into the sparse mapping `acc`.  Nonzero residuals become
        violations, in tuple order and then in the given identity order.
        """
        violations = []
        for indices in product(range(self.dim), repeat=5):
            for name, accumulate in identities:
                acc: dict[int, object] = {}
                accumulate(*indices, acc)
                if any(acc.values()):
                    violations.append(Violation(name, indices, tuple(self.vector(acc))))
        return violations

    def _nested_terms(self):
        """The dense table P and accumulators for nested products.

        left(F, d, e, acc, sign), middle(a, F, e, acc, sign) and
        right(a, b, F, acc, sign) add sign times {F, b_d, b_e},
        {b_a, F, b_e} and {b_a, b_b, F} into `acc`, where F is a stored
        entry of P (a sparse first-level product) or None.
        """
        n = self.dim
        rows = [[None] * n for _ in range(n * n)]
        P = [rows[i * n : (i + 1) * n] for i in range(n)]
        for (i, j, k), entry in self._table.items():
            P[i][j][k] = entry
        zero = self.field.zero

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

    def verify_axioms(self) -> list[Violation]:
        """Check both defining five-term identities on all n^5 basis tuples.

        Returns the list of violations; a valid system yields the empty
        list.  Each violation names the quintuple and its nonzero residual.
        """
        P, left, middle, right = self._nested_terms()
        one = self.field.one
        minus = -one

        def middle_slot(a, b, c, d, e, acc):
            # {a,{b,c,d},e} = {{a,b,c},d,e} - {{a,c,b},d,e}
            #                 - {{a,d,b},c,e} + {{a,d,c},b,e}
            middle(a, P[b][c][d], e, acc, one)
            left(P[a][b][c], d, e, acc, minus)
            left(P[a][c][b], d, e, acc, one)
            left(P[a][d][b], c, e, acc, one)
            left(P[a][d][c], b, e, acc, minus)

        def right_slot(a, b, c, d, e, acc):
            # {a,b,{c,d,e}} = {{a,b,c},d,e} - {{a,b,d},c,e}
            #                 - {{a,b,e},c,d} + {{a,b,e},d,c}
            right(a, b, P[c][d][e], acc, one)
            left(P[a][b][c], d, e, acc, minus)
            left(P[a][b][d], c, e, acc, one)
            left(P[a][b][e], c, d, acc, one)
            left(P[a][b][e], d, c, acc, minus)

        return self._sweep((("middle_slot", middle_slot), ("right_slot", right_slot)))

    def verify_fundamental_identity(self) -> list[Violation]:
        """Check the derived six-term identity on all basis quintuples.

        The identity is a consequence of the two defining identities, so it
        must come back empty for any system that passes `verify_axioms`; it
        is checked independently as a cross-validation sweep.
        """
        P, left, middle, right = self._nested_terms()
        one = self.field.one
        minus = -one

        def six_term(a, b, c, d, e, acc):
            # {{c,d,e},b,a} - {{c,d,e},a,b} - {{c,b,a},d,e} + {{c,a,b},d,e}
            #   - {c,{a,b,d},e} - {c,d,{a,b,e}} = 0
            left(P[c][d][e], b, a, acc, one)
            left(P[c][d][e], a, b, acc, minus)
            left(P[c][b][a], d, e, acc, minus)
            left(P[c][a][b], d, e, acc, one)
            middle(c, P[a][b][d], e, acc, minus)
            right(c, d, P[a][b][e], acc, minus)

        return self._sweep((("six_term", six_term),))

    def verify_grading(self) -> list[Violation]:
        """Check degree compatibility of every stored structure constant."""
        violations = []
        for (i, j, k), entry in sorted(self._table.items()):
            expected = self.degrees[i].compose(self.degrees[j]).compose(self.degrees[k])
            for l in sorted(entry):
                if self.degrees[l] != expected:
                    vec = self.vector({l: entry[l]})
                    violations.append(Violation("grading", (i, j, k, l), tuple(vec)))
        return violations

    # -- grading data ---------------------------------------------------------

    def homogeneous_component(self, g: GroupElement) -> Subspace:
        """The span of the basis vectors of degree g."""
        one = self.field.one
        units = [{i: one} for i, d in enumerate(self.degrees) if d == g]
        return Subspace(self.field, self.dim, units)

    def support(self) -> tuple[GroupElement, ...]:
        """Nonidentity degrees with a nonzero component, in canonical order."""
        seen = {d for d in self.degrees if not d.is_identity()}
        return tuple(sorted(seen))

    def homogeneous_decomposition(self) -> dict[GroupElement, Subspace]:
        """All nonzero components keyed by degree; their direct sum is the space."""
        return {
            d: self.homogeneous_component(d) for d in sorted(set(self.degrees))
        }

    def identity_component(self) -> Subspace:
        return self.homogeneous_component(self.group.identity())

    # -- ideals ---------------------------------------------------------------

    def ideal_closure(self, sub: Subspace) -> Subspace:
        """Least ideal containing `sub`.

        Fixed-point iteration adding the nonzero slot products {v, E, E},
        {E, v, E} and {E, E, v} of every new spanning vector v; terminates
        because the dimension grows strictly until stable (at most `dim`
        steps).  The result is the canonical basis, whatever the order in
        which products were added.
        """
        if sub.ambient != self.dim:
            raise InputError("subspace ambient dimension mismatch")
        acc = Echelon(self.field, self.dim)
        queue = []
        for row in sub.basis.rows:
            if acc.add(row):
                queue.append(row)
        while queue:
            for w in self.slot_products(queue.pop()).values():
                if acc.add(w):
                    queue.append(w)
        return Subspace(self.field, self.dim, acc.rows.values())

    def is_ideal(self, sub: Subspace) -> bool:
        """Whether {I,E,E} + {E,I,E} + {E,E,I} is contained in I."""
        witness = self.ideal_witness(sub)
        return witness is None

    def ideal_witness(self, sub: Subspace):
        """First product escaping the subspace, or None when it is an ideal.

        Every nonzero slot product of every basis row is tested, in
        (row, j, k, slot) order; zero products always lie in the subspace.
        """
        if sub.ambient != self.dim:
            raise InputError("subspace ambient dimension mismatch")
        for row in sub.basis.rows:
            for (j, k, slot), w in self.slot_products(row).items():
                if not sub.contains(w):
                    return {"vector": row, "slot": slot, "j": j, "k": k}
        return None

    def is_subsystem(self, sub: Subspace) -> bool:
        """Whether {S,S,S} is contained in S."""
        rows = sub.basis.rows
        for x in rows:
            for y in rows:
                for z in rows:
                    if not sub.contains(self.triple_product(x, y, z)):
                        return False
        return True

    def lie_defect_ideal(self) -> Subspace:
        """Ideal generated by all {a,b,c} - {a,c,b} + {b,c,a}.

        This ideal is zero exactly when the system is a Lie triple system.
        The returned ideal is certified to satisfy the vanishing laws
        {E,E,I} = {E,I,E} = 0 exactly, on every nonzero slot product of
        every basis row; a certificate failure means the input system itself
        is corrupt.  The witness is the first failing pair (j, k), with
        {E,E,I} tested before {E,I,E} on each pair.
        """
        zero = self.field.zero
        generators = []
        n = self.dim
        for i, j, k in product(range(n), repeat=3):
            acc: dict[int, object] = {}
            for l, c in self._table.get((i, j, k), {}).items():
                acc[l] = acc.get(l, zero) + c
            for l, c in self._table.get((i, k, j), {}).items():
                acc[l] = acc.get(l, zero) - c
            for l, c in self._table.get((j, k, i), {}).items():
                acc[l] = acc.get(l, zero) + c
            if any(acc.values()):
                generators.append(acc)
        ideal = self.ideal_closure(Subspace(self.field, n, generators))
        for row in ideal.basis.rows:
            # keyed (j, k, -slot) so that on each pair {E,E,I} (slot 2)
            # comes before {E,I,E} (slot 1)
            failing = [(j, k, -slot) for j, k, slot in self.slot_products(row) if slot]
            if failing:
                j, k, slot = min(failing)
                family = "{E,E,I}" if slot == -2 else "{E,I,E}"
                raise CertificateFailure(
                    f"products {family} of the defect ideal do not vanish",
                    witness={"vector": row, "j": j, "k": k},
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
        zero = self.field.zero
        n = self.dim
        for i in range(n):
            for k in range(n):
                if self._table.get((i, i, k)):
                    return False
        for i, j, k in product(range(n), repeat=3):
            acc: dict[int, object] = {}
            for l, c in self._table.get((i, j, k), {}).items():
                acc[l] = acc.get(l, zero) + c
            for l, c in self._table.get((j, i, k), {}).items():
                acc[l] = acc.get(l, zero) + c
            if any(acc.values()):
                return False
            acc = {}
            for l, c in self._table.get((i, j, k), {}).items():
                acc[l] = acc.get(l, zero) + c
            for l, c in self._table.get((j, k, i), {}).items():
                acc[l] = acc.get(l, zero) + c
            for l, c in self._table.get((k, i, j), {}).items():
                acc[l] = acc.get(l, zero) + c
            if any(acc.values()):
                return False
        return True

    def annihilator(self) -> Subspace:
        """Elements x with {x,E,E} + {E,x,E} + {E,E,x} = 0.

        Computed as the kernel of the stacked linear map collecting all
        three slot actions against basis pairs.  Its nonzero rows, keyed
        (slot, j, k, l), are read straight off the stored constants: the
        constant {b_a, b_b, b_c} = sum_l x_l b_l puts x_l in column a of row
        (0, b, c, l), in column b of (1, a, c, l) and in column c of
        (2, a, b, l).  The kernel is canonical, so row order is immaterial.
        """
        rows: dict[tuple[int, int, int, int], dict[int, object]] = {}
        for (a, b, c), entry in self._table.items():
            for key, column in (((0, b, c), a), ((1, a, c), b), ((2, a, b), c)):
                for l, x in entry.items():
                    rows.setdefault((*key, l), {})[column] = x
        return Echelon(self.field, self.dim, rows.values()).kernel()

    # -- misc -----------------------------------------------------------------

    def structure_constants(self) -> list[tuple[tuple[int, int, int], list[tuple[int, object]]]]:
        """Canonical serializable view of the stored constants."""
        out = []
        for key in sorted(self._table):
            entry = self._table[key]
            out.append((key, [(l, entry[l]) for l in sorted(entry)]))
        return out

    def __repr__(self):
        return (
            f"GradedTripleSystem(dim={self.dim}, group={list(self.group.moduli)}, "
            f"field={self.field!r}, constants={len(self._table)})"
        )
