"""Class ideals, the certified decomposition, lemma suite, and obstructions."""

import cProfile
import fractions
import pstats
import random
from fractions import Fraction
from itertools import product

import pytest

import gradedlts as g
from conftest import (
    coordinate_sum,
    dense_table,
    library_vector,
    naive_closure,
    oracle_triple,
    probe_lines,
    random_variant,
    sl2_power,
    sl2_square,
    sl_root,
)
from gradedlts.cli import main
from gradedlts.decomposition import _cross_products_vanish

Q = g.RationalField()


def pipeline(name):
    system = g.builtin(name)
    emb = g.build_embedding(system)
    sup = g.SupportData.from_system(system, emb)
    classes = g.connection_classes(sup)
    return system, emb, sup, classes


@pytest.fixture(scope="module")
def sl2_pipe():
    return pipeline("sl2_Z")


@pytest.fixture(scope="module")
def disjoint_pipe():
    return pipeline("disjoint_sum")


def test_core_span_of_sl2_is_the_cartan_line(sl2_pipe):
    system, emb, sup, classes = sl2_pipe
    core = g.class_core_span(system, classes[0])
    # qualifying products: {e, h, f} = -2h and {f, h, e} = -2h span the
    # degree-zero line; {e, f, h}-type products vanish
    assert core == g.Subspace(Q, 3, [[0, 1, 0]])


def test_core_span_of_disjoint_sum_blocks(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    first = g.class_core_span(system, classes[0])
    second = g.class_core_span(system, classes[1])
    assert first == g.Subspace(Q, 6, [[0, 1, 0, 0, 0, 0]])
    assert second == g.Subspace(Q, 6, [[0, 0, 0, 0, 1, 0]])


def test_core_span_lands_in_identity_component(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    identity_comp = system.identity_component()
    for cls in classes:
        core = g.class_core_span(system, cls)
        assert identity_comp.contains_subspace(core)


def test_class_ideal_of_sl2_is_everything(sl2_pipe):
    system, emb, sup, classes = sl2_pipe
    ideal = g.class_ideal(system, classes[0])
    assert ideal.total == g.Subspace.full(Q, 3)
    assert ideal.core.dim == 1 and ideal.vertex.dim == 2


def test_class_ideals_of_disjoint_sum_equal_the_summands(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    ideals = [g.class_ideal(system, cls) for cls in classes]
    first_block = g.Subspace(Q, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]])
    second_block = g.Subspace(Q, 6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]])
    assert ideals[0].total == first_block
    assert ideals[1].total == second_block


PREDICATE_CASES = {
    **{name: lambda name=name: g.builtin(name) for name in g.BUILTIN_NAMES},
    "sl3_root_Q": lambda: sl_root(3, Q),
    "sl3_root_F7": lambda: sl_root(3, g.PrimeField(7)),
}


@pytest.mark.parametrize("name", sorted(PREDICATE_CASES))
def test_class_ideals_pass_predicates(name):
    # `class_ideal` certifies the ideal predicate only: every ideal is a
    # subsystem, since {I,I,I} lies in {I,E,E}, which lies in I; the dense
    # oracle confirms it on every basis triple
    system = PREDICATE_CASES[name]()
    emb = g.build_embedding(system)
    table = dense_table(system)
    for cls in g.connection_classes(g.SupportData.from_system(system, emb)):
        ideal = g.class_ideal(system, cls)
        assert system.ideal_witness(ideal.total) is None
        rows = ideal.total.basis
        for x, y, z in product(rows, repeat=3):
            triple = oracle_triple(system, x, y, z, table)
            assert ideal.total.contains(library_vector(triple))


def test_decompose_zero_system():
    system, emb, sup, classes = pipeline("zero_3")
    report = g.decompose(system, emb)
    assert report.ideals == []
    assert report.u == g.Subspace.full(Q, 3)
    assert report.tight is False
    assert report.direct_sum is None
    assert any(o.kind == "zero_product" for o in report.obstructions)


def test_decompose_sl2(sl2_pipe):
    system, emb, sup, classes = sl2_pipe
    report = g.decompose(system, emb)
    assert report.u.is_zero()
    assert len(report.ideals) == 1
    assert report.ideals[0].total == g.Subspace.full(Q, 3)
    assert report.tight is True
    assert report.annihilator_dim == 0
    assert report.direct_sum is True
    assert report.obstructions == []


def test_decompose_disjoint_sum(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    report = g.decompose(system, emb)
    assert report.u.is_zero()
    assert len(report.ideals) == 2
    assert report.all_orthogonal is True
    assert report.tight is True
    assert report.annihilator_dim == 0
    assert report.pairwise_disjoint is True
    assert report.direct_sum is True
    assert sum(i.total.dim for i in report.ideals) == 6


def test_cross_class_products_vanish_by_direct_evaluation(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    report = g.decompose(system, emb)
    first, second = (ideal.total for ideal in report.ideals)
    n = system.dim
    units = [tuple(Fraction(1) if t == m else Fraction(0) for t in range(n)) for m in range(n)]
    for va in first.basis:
        for vb in second.basis:
            for u in units:
                for args in ((va, u, vb), (va, vb, u), (u, va, vb)):
                    assert all(x == 0 for x in oracle_triple(system, *args))


def oracle_cross_products_vanish(system, left, right):
    """The three families evaluated densely, one unit vector b_m at a time."""
    n = system.dim
    zero, one = system.field.zero, system.field.one
    units = [[one if t == m else zero for t in range(n)] for m in range(n)]
    checks = {"left_middle": True, "left_right": True, "middle_right": True}
    for va in left.basis:
        for vb in right.basis:
            for u in units:
                for family, args in (
                    ("left_right", (va, u, vb)),
                    ("left_middle", (va, vb, u)),
                    ("middle_right", (u, va, vb)),
                ):
                    if any(x != zero for x in oracle_triple(system, *args)):
                        checks[family] = False
    return checks


def sparse_subspace(field, n, rng):
    vectors = []
    for _ in range(rng.randint(1, 3)):
        v = [field.zero] * n
        for i in rng.sample(range(n), rng.randint(1, 3)):
            v[i] = field.element(rng.choice([1, -1, 2]))
        vectors.append(v)
    return g.Subspace(field, n, vectors)


@pytest.mark.parametrize("field", [g.RationalField(), g.PrimeField(7)], ids=["Q", "F7"])
def test_cross_products_match_dense_oracle_on_random_subspaces(field):
    system = sl2_square(field)
    rng = random.Random(7)
    ideals = g.decompose(system, g.build_embedding(system)).ideals
    pairs = [(ideals[0].total, ideals[1].total)]
    pairs += [
        (sparse_subspace(field, system.dim, rng), sparse_subspace(field, system.dim, rng))
        for _ in range(30)
    ]
    outcomes = set()
    for left, right in pairs:
        checks = _cross_products_vanish(system, left, right)
        assert checks == oracle_cross_products_vanish(system, left, right)
        outcomes.add(tuple(checks.values()))
    # vanishing, partly vanishing and nonvanishing pairs all occur
    assert {(True, True, True), (True, False, False), (False, False, False)} <= outcomes


def test_cross_products_tell_the_three_families_apart():
    # {b0, b1, b2} = b0 is the only product, so each pair of lines below
    # meets exactly one family: {b0, E, b2}, {b0, b1, E} and {E, b1, b2}
    system = g.GradedTripleSystem(
        Q, g.AbelianGroup((0,)), [g.AbelianGroup((0,)).identity()] * 3, {(0, 1, 2): {0: 1}}
    )
    line = [g.Subspace(Q, 3, [[int(t == i) for t in range(3)]]) for i in range(3)]
    expected = {
        (0, 2): {"left_middle": True, "left_right": False, "middle_right": True},
        (0, 1): {"left_middle": False, "left_right": True, "middle_right": True},
        (1, 2): {"left_middle": True, "left_right": True, "middle_right": False},
    }
    for (a, b), checks in expected.items():
        assert _cross_products_vanish(system, line[a], line[b]) == checks
        assert oracle_cross_products_vanish(system, line[a], line[b]) == checks


def test_complement_recorded_and_spans(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    report = g.decompose(system, emb)
    total = report.u
    for ideal in report.ideals:
        total = total.sum(ideal.total)
    assert total == g.Subspace.full(Q, system.dim)
    # no report field records the spanning: `decompose` raises unless it holds
    assert not hasattr(report, "spans")


def test_trivially_graded_sl2_is_all_complement():
    system, emb, sup, classes = pipeline("trivial_grading_sl2")
    report = g.decompose(system, emb)
    assert report.ideals == []
    assert report.u == g.Subspace.full(Q, 3)
    assert report.tight is False
    assert any(o.kind == "identity_component_not_tight" for o in report.obstructions)


def test_obstructions_for_disjoint_sum(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    report = g.decompose(system, emb)
    kinds = {o.kind for o in report.obstructions}
    assert "ideal_outside_allowed_set" in kinds
    assert "support_not_connected" in kinds
    # probed block lines close up to the proper block ideal
    assert "proper_ideal_found" in kinds


def test_obstruction_probes_are_seed_deterministic(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    a = g.decompose(system, emb, seed=3)
    b = g.decompose(system, emb, seed=3)
    assert [(o.kind, o.detail, o.witness) for o in a.obstructions] == [
        (o.kind, o.detail, o.witness) for o in b.obstructions
    ]


def test_no_obstructions_for_sl2_with_any_seed(sl2_pipe):
    system, emb, sup, classes = sl2_pipe
    for seed in (0, 1, 17):
        assert g.decompose(system, emb, seed=seed).obstructions == []


def test_lemma_suite_vacuous_for_single_class(sl2_pipe):
    system, emb, sup, classes = sl2_pipe
    checks = {c.name: c for c in g.verify_structure_lemmas(system, emb, classes, sup)}
    assert all(c.holds for c in checks.values())
    assert checks["disconnected_brackets_vanish"].instances == 0
    assert checks["disconnected_inverse_triple_vanishes"].instances == 0
    assert checks["core_disconnected_products_vanish"].instances == 0


def test_lemma_suite_on_disjoint_sum(disjoint_pipe):
    system, emb, sup, classes = disjoint_pipe
    checks = g.verify_structure_lemmas(system, emb, classes, sup)
    assert all(c.holds for c in checks)
    for check in checks:
        assert check.nonvacuous >= 1, check.name


def test_lemma_suite_reads_the_blocks_once(monkeypatch):
    system = sl2_power(3, g.RationalField())
    emb = g.build_embedding(system)
    sup = g.SupportData.from_system(system, emb)
    classes = g.connection_classes(sup)
    calls = []

    def counting(name):
        method = getattr(g.GradedTripleSystem, name)

        def counted(self, *args):
            calls.append(name)
            return method(self, *args)

        return counted

    for name in ("components", "identity_component"):
        monkeypatch.setattr(g.GradedTripleSystem, name, counting(name))
    checks = g.verify_structure_lemmas(system, emb, classes, sup)
    assert all(c.holds for c in checks)
    assert calls == ["components"]


def test_randomized_variants_have_certified_ideals():
    for seed in range(6):
        system = random_variant(seed)
        assert system.verify_grading() == []
        emb = g.build_embedding(system)
        sup = g.SupportData.from_system(system, emb)
        for cls in g.connection_classes(sup):
            ideal = g.class_ideal(system, cls)
            assert system.ideal_witness(ideal.total) is None, seed


@pytest.mark.parametrize(
    "field,push,streams",
    [(g.RationalField(), None, 67), (g.PrimeField(7), 2, 58)],
    ids=["sl2x3_Q", "sl2x3_F7_Z2"],
)
def test_slot_product_evaluations_per_decompose_run(field, push, streams, monkeypatch, tmp_path):
    # every slot product comes from one stream per vector: 24 and 15 of these
    # build the sorted `int_slot_products`, 43 feed the closures, which stop
    # at full rank
    system = sl2_power(3, field)
    if push:
        system = coordinate_sum(system, push)
    path = tmp_path / "sl2x3.json"
    path.write_text(g.dumps_system(system), encoding="utf-8")
    calls = []
    stream = g.GradedTripleSystem._slot_stream

    def counted(self, w):
        calls.append(w)
        return stream(self, w)

    monkeypatch.setattr(g.GradedTripleSystem, "_slot_stream", counted)
    assert main(["decompose", str(path)]) == 0
    assert len(calls) == streams


def rescaled(system, scales):
    """The system in the basis c_i b_i: {b_i', b_j', b_k'} = sum_l c_i c_j c_k x_l / c_l b_l'."""
    table = {
        (i, j, k): {l: x * scales[i] * scales[j] * scales[k] / scales[l] for l, x in entry.items()}
        for (i, j, k), entry in system.nonzero_triples()
    }
    return g.GradedTripleSystem(system.field, system.group, system.degrees, table)


# distinct rationals of either sign, one per basis vector of sl2^3
RESCALE = [Fraction(3, 7), Fraction(-5, 2), Fraction(2, 9), Fraction(7, 4), Fraction(-1, 3),
           Fraction(11, 5), Fraction(4, 13), Fraction(-9, 8), Fraction(6, 11)]


def test_rescaled_basis_gives_the_same_decomposition():
    # the stored constants carry denominators (D > 1) and the integer rows
    # non-unit pivot entries; the facts of the report are basis-free
    plain = sl2_power(3, Q)
    scaled = rescaled(plain, RESCALE)
    assert scaled.scale > 1

    def facts(system):
        report = g.decompose(system, g.build_embedding(system))
        return (
            [ideal.cls.members for ideal in report.ideals],
            [(ideal.core.dim, ideal.vertex.dim, ideal.total.dim) for ideal in report.ideals],
            report.direct_sum,
            [obstruction.kind for obstruction in report.obstructions],
        )

    assert facts(scaled) == facts(plain)


def test_rescaled_probe_closures_match_naive_fixed_point():
    system = rescaled(sl2_power(3, Q), RESCALE)
    vectors = probe_lines(system, seed=0)
    lines = [g.Subspace(Q, system.dim, [v]) for v in vectors]
    assert any(row[min(row)] > 1 for line in lines for row in line.integral_rows())
    for v, line in zip(vectors, lines):
        assert system.ideal_closure(line) == naive_closure(system, [v]), v


def test_fraction_calls_per_decompose_run(tmp_path):
    # scalar.fraction_calls of the benchmark: the calls into fractions.py
    # under cProfile.  Fractions enter at parse and in the report; the
    # eliminator, the closures, the probes, the grading check and the
    # certificates run on ints.
    # Counted with CPython 3.11's fractions.py; before the fraction-free
    # eliminator this run made 49,487.
    path = tmp_path / "sl2x3.json"
    path.write_text(g.dumps_system(sl2_power(3, Q)), encoding="utf-8")
    profile = cProfile.Profile()
    assert profile.runcall(main, ["decompose", str(path)]) == 0
    stats = pstats.Stats(profile).stats
    calls = sum(s[1] for (file, _, _), s in stats.items() if file == fractions.__file__)
    assert calls == 351
