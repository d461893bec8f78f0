"""Deterministic generators for the benchmark's input systems.

Every system is built from the public API of `gradedlts`, without
randomness.  The expected facts that the report checks rely on
(dimensions, classes, class members) follow from these constructions, not
from the analyser's output.
"""

from __future__ import annotations

from gradedlts import (
    AbelianGroup,
    GradedTripleSystem,
    RationalField,
    direct_sum,
    from_leibniz_algebra,
    relabel_degrees,
    sl2_algebra,
)


def sl2_power(k: int, field=None) -> GradedTripleSystem:
    """Direct sum of k double-bracket sl2 copies; copy i has degrees (e_i, 0, -e_i) in Z^k.

    n = 3k, 12k stored constants, and k connection classes {e_i, -e_i}.
    """
    field = field or RationalField()
    copy = from_leibniz_algebra(sl2_algebra(field))
    target = AbelianGroup((0,) * k)
    parts = [
        relabel_degrees(copy, target, [[1 if t == i else 0 for t in range(k)]])
        for i in range(k)
    ]
    return direct_sum(parts)


def coordinate_sum(system: GradedTripleSystem, modulus: int) -> GradedTripleSystem:
    """Push a Z^k grading to Z_m by summing coordinates; this merges degrees and classes."""
    target = AbelianGroup((modulus,))
    return relabel_degrees(system, target, [[1]] * system.group.rank)
