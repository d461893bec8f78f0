"""Acceptance suite: one test per criterion, printed as a pass line each.

All checks are exact (zero tolerance) except the explicit wall-clock bound
in criterion 1.  Mutation testing classifies each corrupted system with an
independent test-local oracle; corruptions that happen to produce another
valid graded system are not corruptions at all and are excluded from the
kill set (the checker is still required to stay clean on them), see the
module-level sampler below.
"""

import hashlib
import json
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gradedlts as g
from conftest import (
    child_env,
    even_grading_violations,
    mutate_constant,
    oracle_is_lie,
    oracle_is_valid,
    random_variant,
)
from gradedlts.fixtures import fixture_text

Q = g.RationalField()

MUTATIONS_PER_FIXTURE = 20
RANDOM_VARIANTS = 20


def _passed(number, slug):
    print(f"ACCEPTANCE {number:02d} {slug}: PASS")


@pytest.fixture(scope="module")
def systems():
    return {name: g.builtin(name) for name in g.BUILTIN_NAMES}


@pytest.fixture(scope="module")
def pipelines(systems):
    out = {}
    for name, system in systems.items():
        emb = g.build_embedding(system)
        sup = g.SupportData.from_system(system, emb)
        classes = g.connection_classes(sup)
        out[name] = (system, emb, sup, classes)
    return out


def test_criterion_01_axioms_and_mutation_detection(systems):
    # identity sweeps empty and fast on every builtin
    for name, system in systems.items():
        assert system.dim <= 6
        start = time.perf_counter()
        assert system.verify_axioms() == [], name
        assert system.verify_fundamental_identity() == [], name
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"{name} took {elapsed:.2f}s"

    # seeded random corruptions; 100% detection of every oracle-corrupt
    # mutant, and the checker stays clean on oracle-valid mutants
    rng = random.Random(20240809)
    for name, system in systems.items():
        n = system.dim
        corrupt_checked = 0
        attempts = 0
        while corrupt_checked < MUTATIONS_PER_FIXTURE:
            attempts += 1
            assert attempts < 500, f"{name}: sampler exhausted"
            i, j, k, l = (rng.randrange(n) for _ in range(4))
            delta = system.field.element(rng.choice([1, -1, 2]))
            mutant = mutate_constant(system, i, j, k, l, delta)
            detected = bool(
                mutant.verify_grading()
                or mutant.verify_axioms()
                or mutant.verify_fundamental_identity()
            )
            if oracle_is_valid(mutant):
                # equivalent mutant: another valid graded system, which the
                # checker must accept (possible only for degenerate fixtures)
                assert not detected, (name, (i, j, k, l))
                continue
            corrupt_checked += 1
            assert detected, f"{name}: undetected corruption at {(i, j, k, l)}"
    _passed(1, "axioms-and-mutation-detection")


def test_criterion_02_defect_ideal_certificates(systems):
    for name, system in systems.items():
        # the vanishing certificates {E,E,I} = {E,I,E} = 0 are enforced
        # inside the computation and raise on failure
        defect = system.lie_defect_ideal()
        assert system.ideal_witness(defect) is None, name
        assert defect.is_zero() == oracle_is_lie(system), name
    assert systems["nonlie_J"].lie_defect_ideal().is_zero() is False
    assert oracle_is_lie(systems["nonlie_J"]) is False
    assert systems["sl2_Z"].lie_defect_ideal().is_zero() is True
    _passed(2, "defect-ideal-and-lie-test")


def test_criterion_03_standard_embedding(pipelines):
    for name, (system, emb, sup, classes) in pipelines.items():
        # construction already certified well-definedness and the right
        # Leibniz identity on all quotient basis triples (exact, or raise);
        # the even grading follows from the system's
        assert system.verify_grading() == [] and even_grading_violations(emb) == [], name
        comps = emb.components()
        assert sorted(r for c in comps.values() for r in c) == list(range(emb.dim_even)), name
    _passed(3, "standard-embedding-certificates")


def test_criterion_04_connectivity(pipelines):
    for name, (system, emb, sup, classes) in pipelines.items():
        covered = sorted(m for cls in classes for m in cls.members)
        assert covered == sorted(sup.odd), name
        assert len(covered) == len(set(covered)), name
        for cls in classes:
            for h in cls.members:
                for k in cls.members:
                    assert g.are_connected(sup, h, k), name
                    assert g.are_connected(sup, k, h), name
                hinv = h.inverse()
                if hinv in sup.odd:
                    assert hinv in cls.members, name
    assert len(pipelines["sl2_Z"][3]) == 1
    assert len(pipelines["disjoint_sum"][3]) == 2
    assert len(pipelines["zero_3"][3]) == 0
    _passed(4, "connectivity-partition")


def test_criterion_05_class_ideals(pipelines):
    for name, (system, emb, sup, classes) in pipelines.items():
        for cls in classes:
            ideal = g.class_ideal(system, cls)
            assert system.ideal_witness(ideal.total) is None, name
    for seed in range(RANDOM_VARIANTS):
        system = random_variant(seed)
        assert system.verify_grading() == [], seed
        emb = g.build_embedding(system)
        sup = g.SupportData.from_system(system, emb)
        for cls in g.connection_classes(sup):
            ideal = g.class_ideal(system, cls)
            assert system.ideal_witness(ideal.total) is None, seed
    _passed(5, "class-ideals-on-fixtures-and-variants")


def test_criterion_06_complement_decomposition(pipelines):
    for name, (system, emb, sup, classes) in pipelines.items():
        report = g.decompose(system, emb)
        total = report.u
        for ideal in report.ideals:
            total = total.sum(ideal.total)
        assert total == g.Subspace.full(system.field, system.dim), name
        assert report.all_orthogonal, name
        for pair in report.orthogonality:
            assert pair["vanish"], (name, pair)
    system, emb, sup, classes = pipelines["disjoint_sum"]
    report = g.decompose(system, emb)
    blocks = [
        g.Subspace(Q, 6, [[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0]]),
        g.Subspace(Q, 6, [[0, 0, 0, 1, 0, 0], [0, 0, 0, 0, 1, 0], [0, 0, 0, 0, 0, 1]]),
    ]
    assert [ideal.total for ideal in report.ideals] == blocks
    _passed(6, "complement-plus-ideals-decomposition")


def test_criterion_07_direct_sum_when_tight_and_faithful(pipelines):
    qualifying = 0
    for name, (system, emb, sup, classes) in pipelines.items():
        report = g.decompose(system, emb)
        if report.tight and report.annihilator_dim == 0:
            qualifying += 1
            assert sum(i.total.dim for i in report.ideals) == system.dim, name
            for a in range(len(report.ideals)):
                for b in range(a + 1, len(report.ideals)):
                    assert report.ideals[a].total.intersect(
                        report.ideals[b].total
                    ).is_zero(), name
            assert report.direct_sum is True, name
    assert qualifying >= 2  # sl2_Z and disjoint_sum at minimum
    _passed(7, "direct-sum-corollary")


def test_criterion_08_lemma_suite(pipelines):
    system, emb, sup, classes = pipelines["disjoint_sum"]
    checks = g.verify_structure_lemmas(system, emb, classes, sup)
    assert len(checks) == 8
    for check in checks:
        assert check.holds, check.name
        assert check.nonvacuous >= 1, check.name
    # the other fixtures must also pass wherever instances exist
    for name, (system, emb, sup, classes) in pipelines.items():
        for check in g.verify_structure_lemmas(system, emb, classes, sup):
            assert check.holds, (name, check.name)
    _passed(8, "structural-lemma-suite")


def test_criterion_09_report_determinism(tmp_path):
    for name in g.BUILTIN_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_text(fixture_text(name), encoding="utf-8")
        digests = []
        for attempt in range(2):
            out = tmp_path / f"{name}_{attempt}_report.json"
            result = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "gradedlts",
                    "decompose",
                    str(path),
                    "--seed",
                    "0",
                    "--json",
                    str(out),
                ],
                capture_output=True,
                text=True,
                env=child_env(),
            )
            assert result.returncode == 0, (name, result.stderr)
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1], name
    _passed(9, "byte-identical-reports")


def test_criterion_10_cli_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(fixture_text("sl2_Z"), encoding="utf-8")

    corrupted = json.loads(fixture_text("sl2_Z"))
    corrupted["triple"][0]["out"][0]["val"] = "5"
    bad_math = tmp_path / "bad_math.json"
    bad_math.write_text(json.dumps(corrupted), encoding="utf-8")

    bad_scalar = tmp_path / "bad_scalar.json"
    bad_scalar.write_text(
        json.dumps(
            {
                "group": {"moduli": [0]},
                "field": {"kind": "rational"},
                "dimension": 1,
                "degrees": [[0]],
                "triple": [{"args": [0, 0, 0], "out": [{"idx": 0, "val": "1/0"}]}],
            }
        ),
        encoding="utf-8",
    )
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json", encoding="utf-8")

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "gradedlts", *args],
            capture_output=True,
            text=True,
            env=child_env(),
        ).returncode

    for command in ("verify", "analyze", "embed", "decompose"):
        assert run(command, str(good)) == 0, command
        assert run(command, str(bad_math)) == 1, command
        assert run(command, str(bad_scalar)) == 2, command
        assert run(command, str(bad_json)) == 2, command
    _passed(10, "cli-exit-code-contract")
