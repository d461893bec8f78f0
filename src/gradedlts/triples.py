"""Group-graded Leibniz triple systems over an exact field.

A system is a finite-dimensional vector space with an ordered basis, a
degree map into an abelian group, and a trilinear product {.,.,.} given by
sparse structure constants.  The two defining five-term identities of a
Leibniz triple system and the derived six-term identity hold on all basis
tuples (enough, as each is multilinear) exactly when a term-driven join of
the stored constants finds no nonzero residual: each term nests one stored
constant in another, so a tuple the join never reaches has residual zero.
The grading condition {E_g, E_h, E_k} in E_{ghk} is checked constant by
constant.  The products of a vector with every basis pair, which the ideal
predicate, ideal closures and the defect-ideal certificate need, come from
`slot_products`, which reads only the constants its vector meets.

Systems are immutable after construction; verification sweeps are pure and
may be run concurrently on the same instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
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


# An identity is (name, terms).  A term (sign, fed, inner, outer) stands, at
# a basis tuple q, for sign times the product with the inner product of
# b_q[p], p in `inner`, in slot `fed` and b_q[p], p in `outer`, in its other
# slots in order.  inner + outer lists every position once, so an inner
# constant and an outer constant fed by one of its outputs meet at one tuple.
AXIOM_TERMS = (
    # {a,{b,c,d},e} = {{a,b,c},d,e} - {{a,c,b},d,e} - {{a,d,b},c,e} + {{a,d,c},b,e}
    ("middle_slot", ((1, 1, (1, 2, 3), (0, 4)), (-1, 0, (0, 1, 2), (3, 4)),
                     (1, 0, (0, 2, 1), (3, 4)), (1, 0, (0, 3, 1), (2, 4)),
                     (-1, 0, (0, 3, 2), (1, 4)))),
    # {a,b,{c,d,e}} = {{a,b,c},d,e} - {{a,b,d},c,e} - {{a,b,e},c,d} + {{a,b,e},d,c}
    ("right_slot", ((1, 2, (2, 3, 4), (0, 1)), (-1, 0, (0, 1, 2), (3, 4)),
                    (1, 0, (0, 1, 3), (2, 4)), (1, 0, (0, 1, 4), (2, 3)),
                    (-1, 0, (0, 1, 4), (3, 2)))),
)
# {{c,d,e},b,a} - {{c,d,e},a,b} - {{c,b,a},d,e} + {{c,a,b},d,e}
#   - {c,{a,b,d},e} - {c,d,{a,b,e}} = 0
SIX_TERM = (
    ("six_term", ((1, 0, (2, 3, 4), (1, 0)), (-1, 0, (2, 3, 4), (0, 1)),
                  (-1, 0, (2, 1, 0), (3, 4)), (1, 0, (2, 0, 1), (3, 4)),
                  (-1, 1, (0, 1, 3), (2, 4)), (-1, 2, (0, 1, 4), (2, 3)))),
)
# [[y,z],x] - [[y,x],z] - [y,[z,x]] = 0 in a right Leibniz algebra, at (y, z, x)
RIGHT_LEIBNIZ = (
    ("right_leibniz", ((1, 0, (0, 1), (2,)), (-1, 0, (0, 2), (1,)), (-1, 1, (1, 2), (0,)))),
)


def index_constants(table, n: int, arity: int):
    """Index stored constants by slot and by output coordinate.

    `table` maps keys of `arity` basis indices to sparse entries {l: x}.
    Returns (table, by_slot, by_output): by_slot[s][i] lists the keys with
    key[s] == i and by_output[l] the keys whose entry has an l coordinate,
    in increasing order.  Only lists are added, as the index lives as long
    as its system.
    """
    by_slot = tuple([[] for _ in range(n)] for _ in range(arity))
    by_output = [[] for _ in range(n)]
    for key in sorted(table):
        for s, i in enumerate(key):
            by_slot[s][i].append(key)
        for l in table[key]:
            by_output[l].append(key)
    return table, by_slot, by_output


def join_residuals(field, index, identities):
    """Residuals of the identities at every basis tuple that some term reaches.

    A term at a tuple sums, over the outputs b_l of its inner constant, x_l
    times the outer constant with b_l in slot `fed`, so it is nonzero only
    if both are stored.  Joining every stored inner constant with every
    stored outer constant fed by one of its outputs thus reaches every tuple
    with a nonzero term and sums each term there in full; a tuple no term
    reaches has every term zero, so its residual is zero: the join is exact.

    One leading index a = q[0] at a time: a term starts from the stored
    constants with a in the slot that carries position 0, inner (then outer
    through `by_slot`) or outer (then inner through `by_output`).  Yields
    ((q, identity index), residual) for every reached pair, cancelled
    residuals included, in increasing order, holding one bucket at a time.
    """
    table, by_slot, by_output = index
    arity = len(by_slot)
    zero = field.zero
    plan = []
    for ident, (_, terms) in enumerate(identities):
        for sign, fed, inner, outer in terms:
            # where each position sits in the inner key followed by the outer key
            slots = [t for t in range(arity) if t != fed]
            source = [inner.index(p) if p in inner else arity + slots[outer.index(p)]
                      for p in range(2 * arity - 1)]
            start = (True, source[0]) if source[0] < arity else (False, source[0] - arity)
            plan.append((ident, sign < 0, fed, itemgetter(*source), start))
    for a in range(len(by_output)):
        acc: dict[tuple, object] = {}  # (q, identity index, output m) -> scalar
        for ident, negate, fed, place, (from_inner, slot) in plan:
            if from_inner:
                pairs = (
                    (key, x, outer)
                    for key in by_slot[slot][a]
                    for l, x in table[key].items()
                    for outer in by_slot[fed][l]
                )
            else:
                pairs = (
                    (key, table[key][outer[fed]], outer)
                    for outer in by_slot[slot][a]
                    for key in by_output[outer[fed]]
                )
            for inner, x, outer in pairs:
                q = place(inner + outer)
                for m, y in table[outer].items():
                    key = (q, ident, m)
                    if negate:
                        acc[key] = acc.get(key, zero) - x * y
                    else:
                        acc[key] = acc.get(key, zero) + x * y
        for target, group in groupby(sorted(acc), key=lambda key: key[:2]):
            yield target, {key[2]: acc[key] for key in group}


def term_violations(field, index, identities) -> list[Violation]:
    """The nonzero residuals of `join_residuals` as violations, in its order."""
    violations = []
    for (indices, ident), residual in join_residuals(field, index, identities):
        if any(residual.values()):
            vector = tuple(residual.get(m, field.zero) for m in range(len(index[2])))
            violations.append(Violation(identities[ident][0], indices, vector))
    return violations


class GradedTripleSystem:
    """A graded Leibniz triple system described by structure constants.

    `products` maps basis index triples (i, j, k) to the expansion of
    {b_i, b_j, b_k} as a mapping from output index l to a nonzero scalar.
    Unspecified triples are zero.  No symmetry of any kind is assumed; the
    product of a Leibniz triple system is not antisymmetric in general.
    """

    __slots__ = ("field", "group", "dim", "degrees", "_table", "_index")

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
        self._index = index_constants(table, n, 3)

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
        """Products of `v` with every basis pair, from the constants v meets.

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
        zero = self.field.zero
        acc: dict[tuple[int, int, int], dict[int, object]] = {}
        for slot, by_index in enumerate(self._index[1]):
            others = itemgetter(*[t for t in range(3) if t != slot])
            for i, coef in v.items():
                if coef:
                    for key in by_index[i]:
                        out = acc.setdefault((*others(key), slot), {})
                        for l, x in self._table[key].items():
                            out[l] = out.get(l, zero) + coef * x
        products = {}
        for key in sorted(acc):
            out = {l: x for l, x in acc[key].items() if x}
            if out:
                products[key] = out
        return products

    # -- identity sweeps ----------------------------------------------------

    def verify_axioms(self) -> list[Violation]:
        """Check both defining five-term identities on every basis quintuple.

        Exact by the term-driven join (`join_residuals`): a quintuple that no
        term reaches has every term zero.  Violations name the quintuple and
        its nonzero residual, in quintuple order, then middle_slot before
        right_slot; a valid system yields the empty list.
        """
        return term_violations(self.field, self._index, AXIOM_TERMS)

    def verify_fundamental_identity(self) -> list[Violation]:
        """Check the derived six-term identity on every basis quintuple.

        The same exact join as `verify_axioms`.  The identity follows from
        the two defining ones, so it must come back empty whenever those
        pass; it is checked independently as a cross-validation.
        """
        return term_violations(self.field, self._index, SIX_TERM)

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
        # {x,x,z} = 0 fails exactly at a stored (i, i, k); the sum
        # {i,j,k} + {j,i,k} is zero unless it has a stored term, and swapping
        # i and j leaves it unchanged, so it suffices to test it at stored
        # keys; the same holds for the cyclic Jacobi sum under rotation
        if any(i == j for i, j, _ in self._table):
            return False
        for i, j, k in self._table:
            if any(self._combination((i, j, k), (j, i, k)).values()):
                return False
            if any(self._combination((i, j, k), (j, k, i), (k, i, j)).values()):
                return False
        return True

    def _combination(self, *keys, minus=None) -> dict[int, object]:
        """{b_i, b_j, b_k} summed over `keys`, less the constant at `minus`."""
        zero = self.field.zero
        acc: dict[int, object] = {}
        for key in keys:
            for l, c in self._table.get(key, {}).items():
                acc[l] = acc.get(l, zero) + c
        for l, c in self._table.get(minus, {}).items():
            acc[l] = acc.get(l, zero) - c
        return acc

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
