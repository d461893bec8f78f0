"""Verified example systems and constructors for building new ones.

Graded right Leibniz algebras give triple systems through the double
bracket {x, y, z} = [[x, y], z]; this module provides that construction,
direct sums, degree relabeling along group homomorphisms, and a set of
named built-in fixtures stored as data files in the command-line input
format (so loading them doubles as a format conformance check).

The built-in with a nonzero Lie-defect ideal, `nonlie_J`, is the double
bracket of an algebra found by an exhaustive search over small graded right
Leibniz algebras; the test suite keeps the search and the algebra, and
checks that the search still finds the frozen fixture.
"""

from __future__ import annotations

import re
from importlib import resources
from typing import Mapping, NamedTuple

from .errors import InputError, is_int
from .groups import AbelianGroup, GroupElement
from .identities import (RIGHT_LEIBNIZ, Violation, graded_table, grading_violations,
                         index_constants, term_violations)
from .rational import RationalField
from .triples import GradedTripleSystem

BUILTIN_NAMES = ("zero_3", "sl2_Z", "disjoint_sum", "nonlie_J", "trivial_grading_sl2")

_ZERO_PATTERN = re.compile(r"zero_([0-9]+)")
# the largest n that `zero_system` builds: its embedding would need n**2 = 10**8 tensor columns
ZERO_MAX = 10**4


class GradedLeibnizAlgebra(NamedTuple):
    """A graded right Leibniz algebra given by binary structure constants."""

    field: object
    group: AbelianGroup
    degrees: tuple[GroupElement, ...]
    brackets: tuple  # canonical ((i, j), ((l, scalar), ...)) entries

    @classmethod
    def build(cls, field, group, degrees, brackets: Mapping[tuple[int, int], Mapping[int, object]]):
        degrees, table = graded_table(field, group, degrees, brackets, 2)
        canon = tuple((key, tuple(sorted(table[key].items()))) for key in sorted(table))
        return cls(field=field, group=group, degrees=degrees, brackets=canon)

    @property
    def dim(self) -> int:
        return len(self.degrees)

    def bracket_table(self) -> dict:
        return {key: dict(entry) for key, entry in self.brackets}

    def verify(self) -> list[Violation]:
        """Grading compatibility, then the right Leibniz identity on basis triples.

        Both run on the integer image of the brackets.  Grading violations
        come first, in bracket order (`grading_violations`).  The identity is
        checked by the term-driven join, exact because a triple that no term
        reaches has every term zero; its violations follow in (y, z, x) order.
        """
        ints, scale = self.field.integer_image(self.bracket_table())
        index = index_constants(ints, self.dim, 2)
        return (grading_violations(self.field, ints, self.degrees, scale)
                + term_violations(self.field, index, RIGHT_LEIBNIZ, scale**2))


def from_leibniz_algebra(algebra: GradedLeibnizAlgebra) -> GradedTripleSystem:
    """Double-bracket triple system {x, y, z} = [[x, y], z] of a Leibniz algebra.

    The construction always satisfies the triple-system identities when the
    algebra satisfies the right Leibniz identity; the caller should still
    run `verify_axioms` (a failure indicates a corrupt algebra table).
    """
    violations = algebra.verify()
    if violations:
        raise InputError(
            f"algebra fails its own invariants ({len(violations)} violations); "
            "refusing to build the triple system"
        )
    n = algebra.dim
    table = algebra.bracket_table()
    products: dict[tuple[int, int, int], dict[int, object]] = {}
    for (i, j), inner in table.items():
        for k in range(n):
            acc: dict[int, object] = {}
            for m, c in inner.items():
                for l, c2 in table.get((m, k), {}).items():
                    acc[l] = acc.get(l, 0) + c * c2
            if acc := algebra.field.clean(acc):
                products[(i, j, k)] = acc
    return GradedTripleSystem(algebra.field, algebra.group, algebra.degrees, products)


def direct_sum(systems) -> GradedTripleSystem:
    """Block-diagonal sum of triple systems over a common group and field."""
    systems = list(systems)
    if not systems:
        raise InputError("direct sum needs at least one summand")
    field = systems[0].field
    group = systems[0].group
    for s in systems[1:]:
        if s.field != field or s.group != group:
            raise InputError("direct sum requires a common field and group")
    degrees = []
    products: dict[tuple[int, int, int], dict[int, object]] = {}
    offset = 0
    for s in systems:
        degrees.extend(s.degrees)
        for (i, j, k), entry in s.nonzero_triples():
            products[(i + offset, j + offset, k + offset)] = {
                l + offset: c for l, c in entry.items()
            }
        offset += s.dim
    return GradedTripleSystem(field, group, degrees, products)


def relabel_degrees(system: GradedTripleSystem, target: AbelianGroup, image) -> GradedTripleSystem:
    """Push the grading through a group homomorphism.

    `image` maps each generator coordinate of the source group to a target
    element, as a matrix of integers (one row per source factor); m times
    the row of a factor of order m must be the identity, else InputError.
    Any homomorphism preserves grading compatibility, so the result is
    graded by the target group with the same structure constants.
    """
    image = [list(row) for row in image]
    if not all(is_int(x) for row in image for x in row):
        raise InputError(f"homomorphism matrix entries must be integers, got {image!r}")
    if len(image) != system.group.rank:
        raise InputError("homomorphism matrix must have one row per source factor")
    for m, row in zip(system.group.moduli, image):
        if len(row) != target.rank:
            raise InputError("homomorphism matrix must have one column per target factor")
        if m and not target.element([m * x for x in row]).is_identity():
            raise InputError(f"homomorphism matrix: {m} times row {row} is not the identity")

    def push(g: GroupElement) -> GroupElement:
        coords = [0] * target.rank
        for c, row in zip(g.coords, image):
            for t, mult in enumerate(row):
                coords[t] += c * mult
        return target.element(coords)

    degrees = [push(d) for d in system.degrees]
    products = {key: entry for key, entry in system.nonzero_triples()}
    return GradedTripleSystem(system.field, target, degrees, products)


def sl2_algebra(field=None) -> GradedLeibnizAlgebra:
    """The three-dimensional simple Lie algebra with a diagonal grading.

    Basis (e, h, f) with [h, e] = 2e, [h, f] = -2f, [e, f] = h, graded over
    the integers with degrees (1, 0, -1).
    """
    field = field or RationalField()
    group = AbelianGroup((0,))
    degrees = [group.element([1]), group.element([0]), group.element([-1])]
    brackets = {
        (1, 0): {0: 2},
        (0, 1): {0: -2},
        (1, 2): {2: -2},
        (2, 1): {2: 2},
        (0, 2): {1: 1},
        (2, 0): {1: -1},
    }
    return GradedLeibnizAlgebra.build(field, group, degrees, brackets)


def zero_system(n: int, field=None) -> GradedTripleSystem:
    """The n-dimensional system with identically zero product and trivial grading;
    InputError for n < 0 or past n = ZERO_MAX, before anything is built."""
    if n < 0:
        raise InputError(f"zero system of negative dimension {n}")
    if n > ZERO_MAX:
        raise InputError(f"zero system of dimension {n} is past the limit {ZERO_MAX}")
    field = field or RationalField()
    group = AbelianGroup((0,))
    degrees = [group.identity()] * n
    return GradedTripleSystem(field, group, degrees, {})


def builtin(name: str) -> GradedTripleSystem:
    """Load a named verified fixture.

    Names: zero_<n> (trivially graded zero system, n in ASCII digits), sl2_Z,
    disjoint_sum, nonlie_J, trivial_grading_sl2.  Names in `BUILTIN_NAMES`
    are parsed from their packaged file; any other zero_<n> is synthesized.
    """
    from .systemfile import loads_system

    if name in BUILTIN_NAMES:
        return loads_system(fixture_text(name))
    if match := _ZERO_PATTERN.fullmatch(name):
        digits = match.group(1)
        # an n with more digits than ZERO_MAX is past it; checked before int(),
        # which refuses more than 4,300 digits
        if len(digits.lstrip("0")) > len(str(ZERO_MAX)):
            raise InputError(f"zero_<n> with {len(digits)} digits is too large")
        return zero_system(int(digits))
    raise InputError(f"unknown builtin fixture {name!r}")


def fixture_text(name: str) -> str:
    """Raw file contents of a packaged fixture (for CLI round-trip tests)."""
    if name not in BUILTIN_NAMES:
        raise InputError(f"unknown builtin fixture {name!r}")
    return resources.files("gradedlts").joinpath(f"fixture_data/{name}.json").read_text(
        encoding="utf-8"
    )
