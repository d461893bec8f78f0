"""The verdicts of `decompose` against oracles that decide them another way.

`decompose` reads each verdict off the certificate that decides it:
`tight` is U = 0, two ideals are disjoint when their sum has the sum of
their dimensions, and under `tight` and a zero annihilator `direct_sum` is
"the ideal dimensions add up to n".  The oracles decide `tight` by
comparing the product span with the identity component, disjointness by
Zassenhaus intersection, and `direct_sum` by the four-term formula that
also tests U = 0 and pairwise disjointness.  The spanning check that backs
U + sum of ideals = E is forced to fail once, since no valid system
reaches it.
"""

from itertools import combinations

import pytest

import gradedlts as g
from conftest import random_variant, sl2_power, sl_root
from gradedlts import decomposition

Q, F7 = g.RationalField(), g.PrimeField(7)

SYSTEMS = {
    **{name: lambda name=name: g.builtin(name) for name in g.BUILTIN_NAMES},
    **{
        f"sl2^{k}_{label}": lambda k=k, field=field: sl2_power(k, field)
        for k in range(1, 5)
        for label, field in (("Q", Q), ("F7", F7))
    },
    "sl3_root_Q": lambda: sl_root(3, Q),
    "sl3_root_F7": lambda: sl_root(3, F7),
}


def oracle_verdicts(system, report):
    """tight, pairwise_disjoint and direct_sum, decided by the oracles."""
    tight = report.span_products == system.identity_component()
    totals = [ideal.total for ideal in report.ideals]
    pairwise_disjoint = None
    if len(totals) >= 2:
        pairwise_disjoint = all(a.intersect(b).is_zero() for a, b in combinations(totals, 2))
    direct_sum = None
    if tight and system.annihilator().is_zero():
        direct_sum = (
            sum(t.dim for t in totals) == system.dim
            and report.u.is_zero()
            and (pairwise_disjoint is None or pairwise_disjoint)
        )
    return tight, pairwise_disjoint, direct_sum


def verdicts(system):
    report = g.decompose(system, g.build_embedding(system))
    new = (report.tight, report.pairwise_disjoint, report.direct_sum)
    return new, oracle_verdicts(system, report)


@pytest.mark.parametrize("name", list(SYSTEMS))
def test_verdicts_match_the_oracles(name):
    new, oracle = verdicts(SYSTEMS[name]())
    assert new == oracle


def test_verdicts_match_the_oracles_on_random_variants():
    seen = set()
    for seed in range(100):
        new, oracle = verdicts(random_variant(seed))
        assert new == oracle, seed
        seen.add(new)
    # tight and not, one class and several, a direct sum and none
    assert {t for t, _, _ in seen} == {True, False}
    assert {d for _, d, _ in seen} == {None, True}
    assert {s for _, _, s in seen} == {None, True}


def test_spanning_check_fires_when_the_ideals_fall_short(monkeypatch):
    # drop the vertex part: on sl2 the one class ideal shrinks to its core,
    # the Cartan line, and U = 0, so the sum reaches dimension 1 of 3
    real = decomposition.class_ideal

    def core_only(system, cls):
        ideal = real(system, cls)
        return ideal._replace(total=ideal.core)

    monkeypatch.setattr(decomposition, "class_ideal", core_only)
    system = g.builtin("sl2_Z")
    with pytest.raises(g.DecompositionFailure) as caught:
        g.decompose(system, g.build_embedding(system))
    assert str(caught.value) == "complement plus class ideals do not span the system"
    assert caught.value.witness == {"dim_reached": 1, "dim_expected": 3}
