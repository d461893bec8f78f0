"""Degenerate inputs (dimension zero) and forced certificate failures."""

import json

import pytest

import gradedlts as g
from gradedlts.errors import IdealCertificateFailure

Q = g.RationalField()


def make_zero_dim():
    return g.GradedTripleSystem(Q, g.AbelianGroup((0,)), [], {})


def test_zero_dimensional_system_accepted_everywhere():
    system = make_zero_dim()
    assert system.verify_axioms() == []
    assert system.verify_grading() == []
    assert system.verify_fundamental_identity() == []
    assert system.support() == ()
    assert system.annihilator().dim == 0
    assert system.lie_defect_ideal().dim == 0
    assert system.lie_defect_ideal().is_zero() is True

    emb = g.build_embedding(system)
    assert emb.dim_even == 0
    assert emb.support() == ()

    report = g.decompose(system, emb)
    assert report.ideals == []
    assert report.u.dim == 0
    # with no identity component left uncovered the tightness equation 0 = 0 holds
    assert report.tight is True


def test_zero_dimensional_cli_round_trip(tmp_path):
    import json
    import subprocess
    import sys

    from conftest import child_env
    from gradedlts.systemfile import dumps_system

    path = tmp_path / "empty.json"
    path.write_text(dumps_system(make_zero_dim()), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "gradedlts", "decompose", str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr


def test_hand_built_non_ideal_class_is_rejected():
    # a doctored "class" holding only one of the two connected degrees is
    # not inverse-closed, and the assembled subspace fails the ideal
    # predicate: {e1, f1, f1} = -2 f1 escapes span{e1, h1}
    system = g.builtin("disjoint_sum")
    group = system.group
    fake = g.ConnectionClass(
        representative=group.element([1, 0]), members=(group.element([1, 0]),)
    )
    with pytest.raises(IdealCertificateFailure):
        g.class_ideal(system, fake)


def test_dependent_core_and_vertex_parts_are_rejected():
    # {e, f, h} = e and {e, f, e} = h break the grading of e, h, f in
    # degrees 1, 0, -1; the core of the class {-1, 1} is then span{e}, which
    # lies in its vertex part span{e, f}
    group = g.AbelianGroup((0,))
    degrees = [group.element([1]), group.element([0]), group.element([-1])]
    system = g.GradedTripleSystem(Q, group, degrees, {(0, 2, 1): {0: 1}, (0, 2, 0): {1: 1}})
    assert len(system.verify_grading()) == 2
    cls = g.ConnectionClass(representative=degrees[2], members=(degrees[2], degrees[0]))
    with pytest.raises(IdealCertificateFailure) as info:
        g.class_ideal(system, cls)
    assert str(info.value) == "core and vertex parts of a class ideal are not independent"
    assert info.value.witness == {"class": "[-1]"}
    json.dumps(info.value.witness)


def test_one_dimensional_zero_system():
    system = g.zero_system(1)
    emb = g.build_embedding(system)
    report = g.decompose(system, emb)
    assert any(o.kind == "zero_product" for o in report.obstructions)
    assert report.u == g.Subspace.full(Q, 1)
