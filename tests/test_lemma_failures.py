"""The lemma suite's failure lists, frozen: refactors must not change them.

The structural laws are theorems, so on a true support every failure list
is empty.  Forged supports and forged classes reach the failure branches:
with each odd element's closure cut down to itself, every class is
{h, h^-1}, and disconnected degrees that do multiply fail the vanishing
and confinement laws.  The systems are sl3 graded by its root lattice over
Q and GF(7), the direct sum of two such sl3 over Q graded by Z^4 (two
true classes, many forged ones), sl2^3, the non-Lie builtin `nonlie_J`
and the non-Lie right Leibniz algebra sl2 + V4 (`sl2_module`).  Four
supports and class lists per system:

  * "forged": the true supports, each closure replaced by {h: None};
  * "singleton": `SupportData.from_parts` with an empty even support,
    whose closures are singletons too, but whose pair laws read no even
    support;
  * "true": `SupportData.from_system`;
  * "split": the true support, with the first class of two or more members
    split in two, its members at even and at odd positions.  On sl2 + V4
    this fails `core_disconnected_products_vanish` through [u, t] of an odd
    core product u and an even t, which differs from [t, u] there.

For each law the golden `tests/golden/lemma_failures.json` holds
(name, instances, nonvacuous, number of failures, sha256 of the ordered
failure list as canonical JSON); the full lists run to about 500 KB.

Regenerate it only for a deliberate change of the lemma suite, with
`PYTHONPATH=src python tests/test_lemma_failures.py`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import gradedlts as g
from conftest import sl2_power, sl_root

GOLDEN = Path(__file__).parent / "golden" / "lemma_failures.json"


def sl2_module(k: int, field) -> g.GradedTripleSystem:
    """The right Leibniz algebra sl2 + V_k, graded by weight, as a triple system.

    V_k is the irreducible module of dimension k + 1 with basis v_0..v_k of
    weights k, k - 2, ..., -k, acting from the right, v.x = -x v, and
    [x, v] = [v, w] = 0: a hemisemidirect product, so not a Lie algebra.
    """
    group = g.AbelianGroup((0,))
    degrees = [group.element([w]) for w in (2, 0, -2, *range(k, -k - 1, -2))]
    e, h, f = 0, 1, 2
    brackets = {(h, e): {e: 2}, (e, h): {e: -2}, (h, f): {f: -2}, (f, h): {f: 2},
                (e, f): {h: 1}, (f, e): {h: -1}}
    for i in range(k + 1):
        v = 3 + i
        brackets[v, h] = {v: 2 * i - k}
        if i < k:
            brackets[v, f] = {v + 1: -(i + 1)}
        if i:
            brackets[v, e] = {v - 1: i - k - 1}
    return g.from_leibniz_algebra(g.GradedLeibnizAlgebra.build(field, group, degrees, brackets))


def sl3_root_pair(field) -> g.GradedTripleSystem:
    """Two copies of sl3, each graded by its root lattice, summed over Z^4: n = 16."""
    target = g.AbelianGroup((0,) * 4)
    copy = sl_root(3, field)
    images = ([[1, 0, 0, 0], [0, 1, 0, 0]], [[0, 0, 1, 0], [0, 0, 0, 1]])
    return g.direct_sum(g.relabel_degrees(copy, target, image) for image in images)


def systems() -> dict:
    return {
        "sl3_root_Q": lambda: sl_root(3, g.RationalField()),
        "sl3x2_root_Q": lambda: sl3_root_pair(g.RationalField()),
        "sl3_root_F7": lambda: sl_root(3, g.PrimeField(7)),
        "sl2x3_Q": lambda: sl2_power(3, g.RationalField()),
        # not a Lie system: [x, y] and [y, x] of L need not vanish together
        "nonlie_J": lambda: g.builtin("nonlie_J"),
        "sl2_V4_Q": lambda: sl2_module(4, g.RationalField()),
    }


def supports(system, emb) -> dict:
    """Support kind -> (support, classes)."""
    sup = g.SupportData.from_system(system, emb)
    forged = g.SupportData(
        sup.odd, sup.even, sup.pm_odd, sup.pm_even, {h: {h: None} for h in sup.odd}
    )
    kinds = {
        "forged": forged,
        "singleton": g.SupportData.from_parts(system.support(), ()),
        "true": sup,
    }
    out = {kind: (s, g.connection_classes(s)) for kind, s in kinds.items()}
    classes = out["true"][1]
    t = next(t for t, cls in enumerate(classes) if len(cls.members) > 1)
    members = classes[t].members
    halves = [g.ConnectionClass(half[0], half) for half in (members[::2], members[1::2])]
    out["split"] = (sup, [*classes[:t], *halves, *classes[t + 1:]])
    return out


def digest(system_name: str) -> dict:
    """Support kind -> one [name, instances, nonvacuous, failures, sha256] per law."""
    system = systems()[system_name]()
    emb = g.build_embedding(system)
    out = {}
    for kind, (sup, classes) in supports(system, emb).items():
        rows = []
        for check in g.verify_structure_lemmas(system, emb, classes, sup):
            canonical = json.dumps(check.failures, sort_keys=True, separators=(",", ":"))
            sha = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            rows.append([check.name, check.instances, check.nonvacuous, len(check.failures), sha])
        out[kind] = rows
    return out


@pytest.mark.parametrize("name", sorted(systems()))
def test_lemma_failures_match_golden(name):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[name]
    assert digest(name) == expected


def test_forged_closures_fail_every_law_on_sl3():
    rows = json.loads(GOLDEN.read_text(encoding="utf-8"))["sl3_root_Q"]["forged"]
    assert [row[3] for row in rows] == [12, 12, 12, 36, 24, 648, 1824, 96]


def test_split_class_fails_the_core_disconnected_law_on_sl2_module():
    # 4 failures, 2 of them at level "even_action", where [t, u] gives none
    rows = json.loads(GOLDEN.read_text(encoding="utf-8"))["sl2_V4_Q"]["split"]
    assert {row[0]: row[3] for row in rows}["core_disconnected_products_vanish"] == 4


def test_split_class_fails_every_level_of_the_core_disconnected_law():
    # sl4 pushed to Z_3 has a 5-dimensional, non-abelian identity component
    # and one class {[1], [2]}; split in two, the core products of each half
    # meet the other half at all three levels, the identity triple included
    group = g.AbelianGroup((3,))
    system = g.relabel_degrees(sl_root(4, g.RationalField()), group, [[2], [-2], [1]])
    emb = g.build_embedding(system)
    sup = g.SupportData.from_system(system, emb)
    one, two = group.element([1]), group.element([2])
    assert g.connection_classes(sup) == [g.ConnectionClass(one, (one, two))]
    split = [g.ConnectionClass(one, (one,)), g.ConnectionClass(two, (two,))]
    check = g.verify_structure_lemmas(system, emb, split, sup)[-1]
    assert check.name == "core_disconnected_products_vanish"
    assert (check.instances, check.nonvacuous) == (40, 40)
    levels = Counter(failure["level"] for failure in check.failures)
    assert levels == {"tensor": 136, "even_action": 136, "identity_triple": 224}


def test_true_supports_fail_no_law():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert all(row[3] == 0 for case in golden.values() for row in case["true"])


if __name__ == "__main__":
    data = {name: digest(name) for name in sorted(systems())}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}")
