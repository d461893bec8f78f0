"""Golden `decompose --json` reports: refactors must not change a byte.

Each case writes its system file into a scratch directory and runs the CLI
from there on the bare file name, so the report's `input.path` is the fixed
relative path `<case>.json` and the whole report compares byte for byte,
header included.  The frozen reports live in `tests/golden/`.

Regenerate them only for a deliberate change of the report format, with
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

import gradedlts as g
from gradedlts.cli import main
from gradedlts.fixtures import fixture_text

from conftest import sl2_square

GOLDEN_DIR = Path(__file__).parent / "golden"


def golden_inputs() -> dict[str, str]:
    """Case name -> system file text."""
    inputs = {name: fixture_text(name) for name in g.BUILTIN_NAMES}
    inputs["sl2x2_Q"] = g.dumps_system(sl2_square(g.RationalField()))
    inputs["sl2x2_F7"] = g.dumps_system(sl2_square(g.PrimeField(7)))
    return inputs


def decompose_report(name: str, text: str, directory: Path) -> bytes:
    """Run `decompose --seed 0 --json` with `directory` as working directory."""
    (directory / f"{name}.json").write_text(text, encoding="utf-8")
    previous = os.getcwd()
    os.chdir(directory)
    try:
        code = main(["decompose", f"{name}.json", "--seed", "0", "--json", "report.json"])
    finally:
        os.chdir(previous)
    assert code == 0, name
    return (directory / "report.json").read_bytes()


@pytest.mark.parametrize("name", sorted(golden_inputs()))
def test_decompose_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.decompose.json").read_bytes()
    assert decompose_report(name, golden_inputs()[name], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    for case, source in sorted(golden_inputs().items()):
        with tempfile.TemporaryDirectory() as scratch:
            report = decompose_report(case, source, Path(scratch))
        (GOLDEN_DIR / f"{case}.decompose.json").write_bytes(report)
        print(f"wrote {case}.decompose.json", file=sys.stderr)
