"""Smoke test of the benchmark at its smallest sizes, with no timing gate.

    python -m pytest perfbench/test_smoke.py

Each workload runs once untraced and once traced at sl2^2 / sl2^1 size;
the test asserts that every report passes its checks and that every
metric the benchmark declares is reported.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

import run  # noqa: E402
from workloads import WORKLOADS, check_report  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_workload_at_smallest_size(name, traced):
    workload = WORKLOADS[name](seed=3, smoke=True)
    result = run.run(workload, ROOT, seconds=0, traced=traced, seed=3)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= len(workload.inputs)
    section = "per_layer" if traced else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in DECLARED[section]}
    for m in DECLARED[section]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_checks_reject_a_wrong_report():
    workload = WORKLOADS["fine_sparse_Q"](seed=0, smoke=True)
    inp = workload.inputs[0]
    report = {
        "command": "decompose",
        "system": {"dimension": inp.system.dim},
        "verification": {
            "axioms": {"violation_count": 0},
            "grading": {"violation_count": 0},
            "fundamental_identity": {"violation_count": 0},
        },
        "classes": [{"members": ["[1,0]", "[-1,0]", "[0,1]", "[0,-1]"]}],
        "embedding": {"even_part_dim": inp.system.dim, "null_space_dim": 0},
        "decomposition": {"direct_sum": False},
    }
    failures = check_report(inp, "decompose", 0, report)
    assert len(failures) == 3


def test_refuses_to_run_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(Path(run.__file__)), "--workload", "coarse_Fp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
