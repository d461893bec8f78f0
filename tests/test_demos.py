"""The demos in `demos/` run as scripts and print exactly their frozen output.

Each demo imports through the package namespace, so this also covers the
public names as a fresh interpreter resolves them.  The frozen outputs live
in `tests/golden/demos/<demo>.txt`; regenerate them only for a deliberate
change of a demo, with `PYTHONPATH=src python tests/test_demos.py`.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN_DIR = Path(__file__).parent / "golden" / "demos"


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, timeout=60, check=False
    )


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    result = run_demo(demo)
    assert result.returncode == 0, result.stderr.decode()
    assert result.stdout == (GOLDEN_DIR / f"{demo.stem}.txt").read_bytes()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        result = run_demo(demo)
        if result.returncode != 0:
            sys.exit(f"{demo.name} exited {result.returncode}:\n{result.stderr.decode()}")
        (GOLDEN_DIR / f"{demo.stem}.txt").write_bytes(result.stdout)
        print(f"wrote {demo.stem}.txt", file=sys.stderr)
