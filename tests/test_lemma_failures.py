"""The lemma suite's failure lists, frozen: refactors must not change them.

The structural laws are theorems, so on a true support every failure list
is empty.  Forged supports reach the failure branches: with each odd
element's closure cut down to itself, every class is {h, h^-1}, and
disconnected degrees that do multiply fail the vanishing and confinement
laws.  The systems are sl3 graded by its root lattice over Q and GF(7),
sl2^3 and the non-Lie builtin `nonlie_J`.  Three supports per system:

  * "forged": the true supports, each closure replaced by {h: None};
  * "singleton": `SupportData.from_parts` with an empty even support,
    whose closures are singletons too, but whose pair laws read no even
    support;
  * "true": `SupportData.from_system`.

For each law the golden `tests/golden/lemma_failures.json` holds
(name, instances, nonvacuous, number of failures, sha256 of the ordered
failure list as canonical JSON); the full lists run to about 500 KB.

Regenerate it only for a deliberate change of the lemma suite, with
`PYTHONPATH=src python tests/test_lemma_failures.py`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import gradedlts as g
from conftest import sl2_power, sl_root

GOLDEN = Path(__file__).parent / "golden" / "lemma_failures.json"


def systems() -> dict:
    return {
        "sl3_root_Q": lambda: sl_root(3, g.RationalField()),
        "sl3_root_F7": lambda: sl_root(3, g.PrimeField(7)),
        "sl2x3_Q": lambda: sl2_power(3, g.RationalField()),
        # not a Lie system: [x, y] and [y, x] of L need not vanish together
        "nonlie_J": lambda: g.builtin("nonlie_J"),
    }


def supports(system, emb) -> dict:
    sup = g.SupportData.from_system(system, emb)
    forged = g.SupportData(
        sup.odd, sup.even, sup.pm_odd, sup.pm_even, {h: {h: None} for h in sup.odd}
    )
    return {
        "forged": forged,
        "singleton": g.SupportData.from_parts(system.support(), ()),
        "true": sup,
    }


def digest(system_name: str) -> dict:
    """Support kind -> one [name, instances, nonvacuous, failures, sha256] per law."""
    system = systems()[system_name]()
    emb = g.build_embedding(system)
    out = {}
    for kind, sup in supports(system, emb).items():
        classes = g.connection_classes(sup)
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


def test_true_supports_fail_no_law():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert all(row[3] == 0 for case in golden.values() for row in case["true"])


if __name__ == "__main__":
    data = {name: digest(name) for name in sorted(systems())}
    GOLDEN.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN.name}")
