"""Group-graded Leibniz triple systems over an exact field.

A system is a finite-dimensional vector space with an ordered basis, a
degree map into an abelian group, and a trilinear product {.,.,.} given by
sparse structure constants.  The identities are checked by the join of
`identities`, the grading {E_g, E_h, E_k} in E_{ghk} constant by constant;
the basis is homogeneous, so each component E_g is a block of basis indices.
Products of a vector with every basis pair come from one enumerator, which
reads only the constants the vector meets; `ideal_closure` streams it.
Zero and span tests run on the integer image of the constants (`scale` =
D times them; over GF(p) the residues) and on primitive integer vectors:
scaling moves no zero.

Systems are immutable after construction; verification sweeps are pure and
may be run concurrently on the same instance.
"""

from __future__ import annotations

from collections.abc import Mapping
from operator import itemgetter
from typing import Sequence

from .errors import CertificateFailure, InputError
from .groups import AbelianGroup, GroupElement
from .identities import (AXIOM_TERMS, SIX_TERM, Violation, grading_violations, index_constants,
                         term_violations)
from .linalg import Subspace, dense


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

    def int_slot_products(self, w: Mapping) -> dict[tuple[int, int, int], dict[int, object]]:
        """The nonzero products of w with every basis pair, `scale` times, reduced,
        keys in order: (j, k, 0) is {w, b_j, b_k}, (j, k, 1) is {b_j, w, b_k}
        and (j, k, 2) is {b_j, b_k, w}.  Built from `_slot_stream`."""
        acc, clean = dict(self._slot_stream(w)), self.field.clean
        return {key: out for key in sorted(acc) if (out := clean(acc[key]))}

    def _slot_stream(self, w: Mapping):
        """Yield ((j, k, slot), product) as `int_slot_products`, one slot at a
        time, unreduced and unsorted.  Reads only the constants w meets."""
        table, by_slot, _ = self._index
        for slot, by_index in enumerate(by_slot):
            others = itemgetter(*[t for t in range(3) if t != slot])
            acc: dict[tuple[int, int, int], dict[int, object]] = {}
            for i, coef in w.items():
                for key in by_index[i]:
                    out = acc.setdefault((*others(key), slot), {})
                    for l, x in table[key].items():
                        out[l] = out.get(l, 0) + coef * x
            yield from acc.items()

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
        the integer image (`grading_violations`)."""
        return grading_violations(self.field, self._table, self.degrees, self.scale)

    # -- grading data ---------------------------------------------------------

    def components(self) -> dict[GroupElement, tuple[int, ...]]:
        """Nonzero homogeneous components keyed by degree, sorted: the basis is
        homogeneous, so each is the sorted tuple of the basis indices of its
        degree, and their direct sum is the space."""
        blocks: dict[GroupElement, list[int]] = {}
        for i, d in enumerate(self.degrees):
            blocks.setdefault(d, []).append(i)
        return {d: tuple(blocks[d]) for d in sorted(blocks)}

    def support(self) -> tuple[GroupElement, ...]:
        """Nonidentity degrees with a nonzero component, in canonical order."""
        return tuple(d for d in self.components() if not d.is_identity())

    def identity_component(self) -> Subspace:
        """E_1, the unit span of the basis vectors of identity degree."""
        units = [{i: 1} for i in self.components().get(self.group.identity(), ())]
        return Subspace(self.field, self.dim, units)

    # -- ideals ---------------------------------------------------------------

    def ideal_closure(self, sub: Subspace) -> Subspace:
        """Least ideal containing `sub`.

        Fixed-point iteration adding the slot products {v, E, E}, {E, v, E}
        and {E, E, v} of every new spanning vector v, streamed slot by slot
        on integer images, until stable or, even part-way through a slot,
        until the span has rank `dim`: each added row lies in the least
        ideal and E is an ideal, so rank `dim` means the closure is E.
        The result is the canonical basis, whatever the order in which
        products (or multiples) were added.
        """
        self._check_subspace(sub)
        n, closure, clean = self.dim, Subspace(self.field, self.dim), self.field.clean
        queue = [row for row in sub.integral_rows() if closure.add(row)]
        while queue and closure.dim < n:
            for _, w in self._slot_stream(queue.pop()):
                if closure.add(w):
                    queue.append(clean(w))
                    if closure.dim == n:
                        break
        return closure

    def ideal_witness(self, sub: Subspace):
        """First product escaping the subspace, or None when it is an ideal.

        Every nonzero slot product of every basis row is tested, in
        (row, j, k, slot) order, on integer images; zero products always
        lie in the subspace.
        """
        self._check_subspace(sub)
        for row in sub.integral_rows():
            for (j, k, slot), w in self.int_slot_products(row).items():
                if not sub.contains(w):
                    vector = dense(self.field, row, self.dim, row[min(row)])
                    return {"vector": vector, "slot": slot, "j": j, "k": k}
        return None

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
        for row in ideal.integral_rows():
            # keyed (j, k, -slot) so that on each pair {E,E,I} (slot 2)
            # comes before {E,I,E} (slot 1)
            products = self.int_slot_products(row)
            failing = [(j, k, -slot) for j, k, slot in products if slot]
            if failing:
                j, k, slot = min(failing)
                family = "{E,E,I}" if slot == -2 else "{E,I,E}"
                vector = dense(self.field, row, self.dim, row[min(row)])
                raise CertificateFailure(
                    f"products {family} of the defect ideal do not vanish",
                    witness={"vector": vector, "j": j, "k": k},
                )
        return ideal

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

    def __repr__(self):
        return (
            f"GradedTripleSystem(dim={self.dim}, group={list(self.group.moduli)}, "
            f"field={self.field!r}, constants={len(self._table)})"
        )
