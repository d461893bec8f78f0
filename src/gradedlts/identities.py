"""Identities as tables of signed terms, checked by an exact join of stored constants.

The two five-term identities of a Leibniz triple system, the derived
six-term identity and the right Leibniz identity of an algebra each nest
one stored constant in another, so they hold on all basis tuples (enough,
as each is multilinear) exactly when the join finds no nonzero residual: a
tuple it never reaches has residual zero.  Run on the bracket table of the
standard embedding, the right Leibniz join is the pass certificate of the
system's identities too (`embedding._ActionMatrix`).  On an integer image
(D times the constants) a residual scales by D^2 and is divided back; the
grading of an algebra or a system is read off it too.
"""

from __future__ import annotations

from functools import reduce
from itertools import groupby
from operator import itemgetter
from typing import NamedTuple

from .errors import InputError, is_int
from .groups import GroupElement
from .linalg import dense


class Violation(NamedTuple):
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


def graded_table(field, group, degrees, products, arity: int):
    """(degrees as a tuple, {key: {l: scalar}}) of a graded product table,
    the one input check of a system's and an algebra's constants: each
    degree lies in `group`, each key is a tuple of `arity` ints and each
    output an int (not a bool), all in range(n); scalars are coerced with
    `field.element`, zeros dropped.  Any defect raises InputError."""
    degrees = tuple(degrees)
    n = len(degrees)
    if not all(isinstance(d, GroupElement) and d.group == group for d in degrees):
        raise InputError("degree from a different group")
    table = {}
    for key, out in products.items():
        if not (isinstance(key, tuple) and len(key) == arity
                and all(is_int(i) and 0 <= i < n for i in key)):
            raise InputError(f"structure constant index {key!r} out of range")
        entry = {}
        for l, value in out.items():
            if not (is_int(l) and 0 <= l < n):
                raise InputError(f"structure constant output index {l!r} out of range")
            if value := field.element(value):
                entry[l] = value
        if entry:
            table[key] = entry
    return degrees, table


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


def join_residuals(index, identities, clean=None):
    """Residuals of the identities at every basis tuple that some term reaches.

    A term at a tuple sums, over the outputs b_l of its inner constant, x_l
    times the outer constant with b_l in slot `fed`, so it is nonzero only
    if both are stored.  Joining every stored inner constant with every
    stored outer constant fed by one of its outputs thus reaches every tuple
    with a nonzero term and sums each term there in full; a tuple no term
    reaches has every term zero, so its residual is zero: the join is exact.

    One bucket per lead q[0] = a, each in turn: a term starts from the
    constants with a in the slot of position 0, inner (then outer via
    `by_slot`) or outer (then inner via `by_output`).  Yields
    ((q, identity index), residual) at every reached pair, cancelled ones
    too, in increasing order, unreduced; with a field's `clean`, a bucket is
    reduced whole and only nonzero residuals come out, so a caller that
    stops at the first one joins no further bucket.
    """
    table, by_slot, by_output = index
    arity = len(by_slot)
    plan = []
    for ident, (_, terms) in enumerate(identities):
        for sign, fed, inner, outer in terms:
            # where each position sits in the inner key followed by the outer key
            slots = [t for t in range(arity) if t != fed]
            source = [inner.index(p) if p in inner else arity + slots[outer.index(p)]
                      for p in range(2 * arity - 1)]
            zero = source[0]  # position 0 sits in slot zero % arity of its key
            plan.append((ident, sign, fed, itemgetter(*source), zero < arity, zero % arity))
    for lead in range(len(by_output)):
        acc: dict[tuple, object] = {}  # (q, identity index, output m) -> scalar
        for ident, sign, fed, place, from_inner, slot in plan:
            first = by_slot[slot][lead]
            if from_inner:
                pairs = (
                    (key, sign * x, outer)
                    for key in first
                    for l, x in table[key].items()
                    for outer in by_slot[fed][l]
                )
            else:
                pairs = (
                    (key, sign * table[key][outer[fed]], outer)
                    for outer in first
                    for key in by_output[outer[fed]]
                )
            for inner, x, outer in pairs:
                q = place(inner + outer)
                for m, y in table[outer].items():
                    key = (q, ident, m)
                    acc[key] = acc.get(key, 0) + x * y
        acc = acc if clean is None else clean(acc)
        for target, group in groupby(sorted(acc), key=itemgetter(0, 1)):
            yield target, {key[2]: acc[key] for key in group}


def term_violations(field, index, identities, scale) -> list[Violation]:
    """The nonzero residuals of `join_residuals` as violations, in its order,
    divided back by `scale`, the factor by which the indexed table scales them."""
    violations = []
    for (indices, ident), residual in join_residuals(index, identities, clean=field.clean):
        vector = dense(field, residual, len(index[2]), scale)
        violations.append(Violation(identities[ident][0], indices, vector))
    return violations


def grading_violations(field, table, degrees, scale) -> list[Violation]:
    """Every stored constant at b_l of a product of basis elements `key` with
    deg(b_l) not the product of the key's degrees, as a violation at
    (*key, l), in key then l order.  `table` is an integer image, `scale`
    times the constants; only a violating constant is divided back."""
    violations = []
    for key in sorted(table):
        entry, expected = table[key], reduce(GroupElement.compose, (degrees[i] for i in key))
        for l in sorted(entry):
            if degrees[l] != expected:
                vector = dense(field, {l: entry[l]}, len(degrees), scale)
                violations.append(Violation("grading", (*key, l), vector))
    return violations
