"""The sparse slot-product enumerator and its callers against dense oracles.

`int_slot_products` reads only the stored constants whose slots meet the
support of its vector, through the per-slot index; `ideal_closure` and
`annihilator` run on the stored constants too.  Here each is compared with
a computation built from `oracle_triple` (the dense table in conftest) on
every builtin, on sl2^2 over Q and over GF(7) and on a one-constant system,
with seeded random vectors, and the slot products (divided back by
`exact_slot_products`) also with the unindexed pass `oracle_slot_products`
on sparse and dense probes, sl3 included.
`ideal_closure` is also compared on every line the obstruction search
probes, where most closures stop at full rank before their fixed point,
on sl3 and sl4 root over Q and GF(7) and `random_variant` 0-9 too, where
the streamed products reach `Subspace.add` unreduced.
"""

from __future__ import annotations

import random
from itertools import product

import pytest

import gradedlts as g
from conftest import (
    dense,
    exact_slot_products,
    mutate_constant,
    naive_closure,
    oracle_slot_product,
    oracle_slot_products,
    oracle_triple,
    probe_lines,
    random_variant,
    sl2_square,
    sl_root,
)


def systems():
    out = {name: g.builtin(name) for name in g.BUILTIN_NAMES}
    out["sl2x2_Q"] = sl2_square(g.RationalField())
    out["sl2x2_F7"] = sl2_square(g.PrimeField(7))
    # {b0, b1, b2} = b0 alone: each basis vector acts in exactly one slot
    out["lone_constant"] = mutate_constant(
        g.builtin("zero_3"), 0, 1, 2, 0, g.RationalField().one
    )
    return out


SYSTEMS = systems()


def unit(system, i):
    zero, one = system.field.zero, system.field.one
    return [one if t == i else zero for t in range(system.dim)]


def random_vectors(system, seed, count=3):
    rng = random.Random(seed)
    field = system.field
    coefficients = [0, 0, 1, -1, 2, -3]
    return [
        [field.element(rng.choice(coefficients)) for _ in range(system.dim)]
        for _ in range(count)
    ]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_slot_products_match_oracle(name):
    system = SYSTEMS[name]
    n = system.dim
    for v in random_vectors(system, seed=n) + [unit(system, i) for i in range(n)]:
        products = exact_slot_products(system, v)
        assert list(products) == sorted(products)
        for j, k, slot in product(range(n), range(n), range(3)):
            expected = oracle_slot_product(system, v, j, k, slot)
            if any(expected):
                assert dense(system, products[(j, k, slot)]) == expected
            else:
                assert (j, k, slot) not in products
        assert all(all(x for x in w.values()) for w in products.values())


def sparse_probes(system, seed, count=12):
    rng = random.Random(seed)
    field = system.field
    probes = []
    for _ in range(count):
        support = rng.sample(range(system.dim), rng.randint(1, 2))
        probes.append({i: field.element(rng.choice([1, -1, 2, -3])) for i in support})
    # an explicit zero coordinate is skipped, and the empty mapping has no products
    probes.append({0: field.zero, system.dim - 1: field.one})
    probes.append({})
    return probes


INDEXED = dict(SYSTEMS, sl3_root_Q=sl_root(3, g.RationalField()), sl3_root_F7=sl_root(3, g.PrimeField(7)))


@pytest.mark.parametrize("name", sorted(INDEXED))
def test_indexed_slot_products_match_unindexed_pass(name):
    system = INDEXED[name]
    probes = sparse_probes(system, seed=name) + random_vectors(system, seed=name, count=4)
    for v in probes:
        products = exact_slot_products(system, v)
        expected = oracle_slot_products(system, v)
        assert list(products) == list(expected)
        assert products == expected


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_ideal_closure_matches_naive_fixed_point(name):
    system = SYSTEMS[name]
    for v in random_vectors(system, seed=100 + system.dim) + [unit(system, 0)]:
        line = g.Subspace(system.field, system.dim, [v])
        assert system.ideal_closure(line) == naive_closure(system, [v])


def probed_systems():
    out = {f"sl{N}_root_{name}": sl_root(N, field)
           for N in (3, 4) for name, field in (("Q", g.RationalField()), ("F7", g.PrimeField(7)))}
    out.update({f"random_variant_{seed}": random_variant(seed) for seed in range(10)})
    return {**SYSTEMS, **out}


PROBED = probed_systems()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(PROBED))
def test_every_probe_closure_matches_naive_fixed_point(name, seed, monkeypatch):
    # a closure that stops at full rank returns E; one that stops a step
    # early (rank n - 1) differs from the oracle on every full closure.
    # The closure hands `Subspace.add` each product as the stream sums it:
    # over GF(7) with entries of 7 or more, or multiples of 7, never reduced
    system = PROBED[name]
    p = getattr(system.field, "p", 0)
    unreduced = []
    stream = g.GradedTripleSystem._slot_stream

    def recorded(self, w):
        for key, out in stream(self, w):
            unreduced.extend(x for x in out.values() if p and not 0 < x < p)
            yield key, out

    monkeypatch.setattr(g.GradedTripleSystem, "_slot_stream", recorded)
    for v in probe_lines(system, seed):
        line = g.Subspace(system.field, system.dim, [v])
        assert system.ideal_closure(line) == naive_closure(system, [v]), v
    if name.endswith("F7"):
        assert unreduced


@pytest.mark.parametrize("seed", [0, 1])
def test_probe_lines_reach_full_and_proper_closures(seed):
    # on sl2 + sl2 the comparison above covers both ways out of a closure:
    # the unit lines close to one copy of sl2, the random ones to E
    system = SYSTEMS["sl2x2_Q"]
    lines = [g.Subspace(system.field, system.dim, [v]) for v in probe_lines(system, seed)]
    assert {system.ideal_closure(line).dim for line in lines} == {3, 6}


def test_closure_stops_part_way_through_the_first_products(monkeypatch):
    # the first seeded probe line of sl2 over Q spans E with the first few of
    # its slot products: one stream is started, and it is left part-way
    system = SYSTEMS["sl2_Z"]
    v = probe_lines(system, seed=0)[system.dim]
    line = g.Subspace(system.field, system.dim, [v])
    counts = {"streams": 0, "drawn": 0, "adds": 0}
    stream, add = g.GradedTripleSystem._slot_stream, g.linalg.Subspace.add

    def counted_stream(self, w):
        counts["streams"] += 1
        for item in stream(self, w):
            counts["drawn"] += 1
            yield item

    def counted_add(self, vec):
        counts["adds"] += 1
        return add(self, vec)

    monkeypatch.setattr(g.GradedTripleSystem, "_slot_stream", counted_stream)
    monkeypatch.setattr(g.linalg.Subspace, "add", counted_add)
    closure = system.ideal_closure(line)
    monkeypatch.undo()
    assert closure == g.Subspace.full(system.field, system.dim) == naive_closure(system, [v])
    assert counts["streams"] == 1
    assert counts["drawn"] < len(exact_slot_products(system, v))
    assert counts["adds"] == 1 + counts["drawn"]


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_annihilator_is_kernel_of_oracle_action_matrix(name):
    system = SYSTEMS[name]
    n = system.dim
    # one row per (slot, j, k, l): column i holds coordinate l of the slot
    # product of b_i with (b_j, b_k)
    columns = [
        [x for j, k, slot in product(range(n), range(n), range(3))
         for x in oracle_slot_product(system, unit(system, i), j, k, slot)]
        for i in range(n)
    ]
    rows = [list(row) for row in zip(*columns)]
    assert system.annihilator() == g.Subspace(system.field, n, rows).kernel()


@pytest.mark.parametrize("field", [g.RationalField(), g.PrimeField(7)], ids=["Q", "F7"])
def test_ideal_witness_on_sl2_cartan_line(field):
    # {h, e, h} = [[h, e], h] = -4e escapes span{h}: the first escaping
    # product in (row, j, k, slot) order
    sl2 = g.from_leibniz_algebra(g.sl2_algebra(field))
    h = unit(sl2, 1)
    witness = sl2.ideal_witness(g.Subspace(field, 3, [h]))
    assert witness == {"vector": tuple(h), "slot": 0, "j": 0, "k": 1}
