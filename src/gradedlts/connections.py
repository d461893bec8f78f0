"""The connection relation on the support of a graded system.

Two nonidentity degrees g and h in the odd support are connected when some
finite sequence g_1, ..., g_{2n+1} of elements drawn from the inverse-closed
odd support (plus the identity) starts at g_1 = g, keeps every odd partial
product inside the inverse-closed odd support, keeps every even partial
product inside the inverse-closed even support, and ends in {h, h^-1}.

Even partial products are required to lie in the even support strictly (the
identity is not permitted there); the degenerate case g h = 1 is reachable
through the length-one sequence and the {h, h^-1} clause instead.

Each support element's closure, by breadth-first search over group
elements, and its connected set are computed once, when its `SupportData`
is built.  Parent pointers yield a witness sequence per element.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import EquivalenceFailure, InputError, read_only
from .groups import GroupElement


class SupportData:
    """Odd and even supports of a graded system with their inverse closures,
    and the closure of each odd element g as parent pointers: reached
    element -> (previous element, a, b), and g -> None.  `connected` is read
    off the closures given, forged ones included: g -> the odd h with h or
    h^-1 in g's closure.  Equality and hash ignore both, which the supports
    determine."""

    __slots__ = ("odd", "even", "pm_odd", "pm_even", "closures", "connected")

    def __init__(self, odd, even, pm_odd, pm_even, closures: dict):
        odd_set, by_inverse = frozenset(odd), {h.inverse(): h for h in odd}
        connected = {
            g: odd_set.intersection(reach).union(by_inverse[x] for x in reach if x in by_inverse)
            for g, reach in closures.items()
        }
        for name, value in zip(self.__slots__, (odd, even, pm_odd, pm_even, closures, connected)):
            object.__setattr__(self, name, value)

    __setattr__ = __delattr__ = read_only

    def _key(self) -> tuple:
        return (self.odd, self.even, self.pm_odd, self.pm_even)

    def __eq__(self, other):
        if other.__class__ is not SupportData:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @classmethod
    def from_parts(cls, odd, even) -> "SupportData":
        odd = tuple(sorted(odd))
        even = tuple(sorted(even))
        pm_odd = frozenset(odd) | frozenset(g.inverse() for g in odd)
        pm_even = frozenset(even) | frozenset(g.inverse() for g in even)
        steps = sorted(pm_odd) + [odd[0].group.identity()] if odd else []
        moves: dict = {}
        closures = {g: _closure_with_parents(moves, steps, pm_odd, pm_even, g) for g in odd}
        return cls(odd, even, pm_odd, pm_even, closures)

    @classmethod
    def from_system(cls, system, emb) -> "SupportData":
        return cls.from_parts(system.support(), emb.support())


class ConnectionClass(NamedTuple):
    """An equivalence class of connected support elements.

    The representative is the minimal member in the canonical element
    order; members are pairwise connected and no member is connected to
    anything outside the class.
    """

    representative: GroupElement
    members: tuple[GroupElement, ...]

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.members


def _closure_with_parents(moves: dict, steps, pm_odd, pm_even, g: GroupElement):
    """Parent pointers of the search from g.  `moves` maps each element q
    visited by any search to its steps (q a b, a, b), in (a, b) order, with
    q a in the even and q a b in the odd support; a visit fills it once."""
    parents: dict[GroupElement, tuple] = {g: None}
    frontier = [g]
    while frontier:
        q = frontier.pop()
        if q not in moves:
            moves[q] = [
                (qab, a, b)
                for a in steps
                if (qa := q.compose(a)) in pm_even
                for b in steps
                if (qab := qa.compose(b)) in pm_odd
            ]
        for qab, a, b in moves[q]:
            if qab not in parents:
                parents[qab] = (q, a, b)
                frontier.append(qab)
    return parents


def _lookup(table: dict, g: GroupElement):
    try:
        return table[g]
    except KeyError:
        raise InputError(f"{g.format()} is not in the odd support") from None


def connection_closure(sup: SupportData, g: GroupElement) -> frozenset[GroupElement]:
    """All partial-product endpoints reachable from g (a subset of the
    inverse-closed odd support)."""
    return frozenset(_lookup(sup.closures, g))


def are_connected(sup: SupportData, g: GroupElement, h: GroupElement) -> bool:
    """Whether h is connected to g (final product allowed to hit h or h^-1)."""
    if h not in sup.connected:
        raise InputError(f"{h.format()} is not in the odd support")
    return h in _lookup(sup.connected, g)


def witness_sequence(sup: SupportData, g: GroupElement, h: GroupElement) -> tuple[GroupElement, ...]:
    """A concrete connection sequence from g to h, as group elements.

    The sequence starts at g and appends the length-two extensions found by
    the closure search; its final partial product lies in {h, h^-1}.  It is
    checked by `validate_sequence` before it is returned, and a sequence
    that fails raises EquivalenceFailure naming the pair.
    """
    parents = _lookup(sup.closures, g)
    if h in parents:
        target = h
    elif h.inverse() in parents:
        target = h.inverse()
    else:
        raise InputError(f"{h.format()} is not connected to {g.format()}")
    extensions = []
    node = target
    while parents[node] is not None:
        node, a, b = parents[node]
        extensions[:0] = (a, b)
    seq = (g, *extensions)
    if not validate_sequence(sup, seq, g, h):
        raise EquivalenceFailure(
            "witness sequence does not connect the pair", witness={"pair": (g.format(), h.format())}
        )
    return seq


def validate_sequence(sup: SupportData, seq, g: GroupElement, h: GroupElement) -> bool:
    """Independent check that a sequence witnesses a connection from g to h."""
    # an empty sequence has even length
    if len(seq) % 2 == 0 or seq[0] != g:
        return False
    allowed = sup.pm_odd | {g.group.identity()}
    if any(x not in allowed for x in seq):
        return False
    partial = g
    for pos, x in enumerate(seq[1:], 1):
        partial = partial.compose(x)
        if partial not in (sup.pm_even if pos % 2 else sup.pm_odd):
            return False
    return partial in (h, h.inverse())


def connection_classes(sup: SupportData) -> list[ConnectionClass]:
    """Partition of the odd support into connection classes.

    The classes are read off the connected sets and rechecked: each
    member's connected set, worked out once from its own closure, must be
    exactly its class (so the relation is reflexive, symmetric and
    transitive), and the classes must be inverse-closed: a class containing
    h also contains h^-1 whenever h^-1 lies in the support, and the closure
    of h^-1 is the inverse image of the closure of h (the search from h^-1
    mirrors the one from h, step for inverted step).  Any defect raises
    EquivalenceFailure with a witness: it would contradict the equivalence
    property of the connection relation and therefore signals a bug rather
    than a property of the input.
    """
    classes: list[ConnectionClass] = []
    assigned: dict[GroupElement, GroupElement] = {}
    for g in sup.odd:
        if g in assigned:
            continue
        connected = _lookup(sup.connected, g)
        members = tuple(h for h in sup.odd if h in connected)
        for h in members:
            if h in assigned:
                raise EquivalenceFailure(
                    "closure reached an element already assigned to another class",
                    witness={"element": h.format(), "class": g.format()},
                )
            assigned[h] = g
        if members:  # else g stays unassigned, and the cover check names it
            classes.append(ConnectionClass(representative=min(members), members=members))

    if len(assigned) != len(sup.odd):
        missing = [g.format() for g in sup.odd if g not in assigned]
        raise EquivalenceFailure("classes do not cover the support", witness=missing)

    for cls in classes:
        members = frozenset(cls.members)
        for h in cls.members:
            connected = _lookup(sup.connected, h)
            if connected != members:
                # the first member h misses, else the first element its set strays to
                missed = [k for k in cls.members if k not in connected]
                message = ("pairwise connectivity recheck failed inside a class" if missed
                           else "elements of distinct classes are connected")
                k = missed[0] if missed else min(connected - members)
                raise EquivalenceFailure(message, witness={"pair": (h.format(), k.format())})
            hinv = h.inverse()
            if hinv in sup.odd and (
                hinv not in members
                or set(_lookup(sup.closures, hinv)) != {x.inverse() for x in sup.closures[h]}
            ):
                raise EquivalenceFailure(
                    "class is not inverse-closed",
                    witness={"element": h.format()},
                )
    return classes
