"""Finitely generated abelian groups used as degree lattices for gradings.

A group is described by its list of cyclic moduli: 0 denotes an infinite
cyclic factor and m >= 2 a finite one.  Elements are integer coordinate
vectors in canonical form (each finite coordinate reduced to [0, m)), so
equality, hashing, and the lexicographic total order are all structural.
"""

from __future__ import annotations

import functools

from .errors import InputError, is_int, read_only


class AbelianGroup:
    __slots__ = ("moduli",)

    def __init__(self, moduli: tuple[int, ...]):
        moduli = _integers(moduli, "moduli")
        if any(m < 0 or m == 1 for m in moduli):
            raise InputError(f"moduli must be 0 or >= 2, got {list(moduli)}")
        object.__setattr__(self, "moduli", moduli)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not AbelianGroup:
            return NotImplemented
        return self.moduli == other.moduli

    def __hash__(self):
        return hash((self.moduli,))

    @property
    def rank(self) -> int:
        return len(self.moduli)

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    def element(self, coords) -> "GroupElement":
        coords = _integers(coords, "coordinates")
        if len(coords) != self.rank:
            raise InputError(
                f"element has {len(coords)} coordinates, group has {self.rank} factors"
            )
        return GroupElement(self, coords)

    def __repr__(self):
        return f"AbelianGroup({list(self.moduli)})"


def _integers(values, what: str) -> tuple[int, ...]:
    values = tuple(values)
    if not all(map(is_int, values)):
        raise InputError(f"{what} must be integers, got {list(values)!r}")
    return values


@functools.total_ordering
class GroupElement:
    __slots__ = ("group", "coords")

    def __init__(self, group: AbelianGroup, coords: tuple[int, ...]):
        # Canonical form: finite coordinates reduced to [0, m).
        reduced = tuple(c % m if m else c for c, m in zip(coords, group.moduli))
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", reduced)

    __setattr__ = __delattr__ = read_only

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        same_group = self.group is other.group or self.group == other.group
        return same_group and self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def compose(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(
            self.group, tuple(a + b for a, b in zip(self.coords, other.coords))
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, tuple(-c for c in self.coords))

    def is_identity(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __lt__(self, other: "GroupElement") -> bool:
        self._check(other)
        return self.coords < other.coords

    def _check(self, other: "GroupElement"):
        if self.group is not other.group and self.group != other.group:
            raise InputError("elements belong to different groups")

    def format(self) -> str:
        return "[" + ",".join(str(c) for c in self.coords) + "]"

    def __repr__(self):
        return self.format()
