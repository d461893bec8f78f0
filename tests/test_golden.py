"""Golden `--json` reports: refactors must not change a byte.

Each case writes its system file into a scratch directory and runs the CLI
from there on the bare file name, so the report's `input.path` is the fixed
relative path `<case>.json` and the whole report compares byte for byte,
header included.  The frozen reports live in `tests/golden/`:
`<case>.decompose.json` for valid systems (exit 0) and `<case>.verify.json`
for systems with one corrupted structure constant (exit 1), which freeze
the violation lists of the identity sweeps.  `<case>.analyze.json` and
`<case>.embed.json` exist for both sets: exit 0 on the valid systems, and
exit 1 on the corrupted ones, which freezes the shared fail-out report.
`cli_stdout.json` freezes the exit code and standard output of every
command on three cases: the empty system, two classes and a failed
verification.

Regenerate them only for a deliberate change of the report format, with
`PYTHONPATH=src python tests/test_golden.py`.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import gradedlts as g
from gradedlts.cli import main
from gradedlts.fixtures import fixture_text

from conftest import child_env, coordinate_sum, mutate_constant, sl2_power, sl2_square, sl_root

GOLDEN_DIR = Path(__file__).parent / "golden"
COMMANDS = ("verify", "analyze", "embed", "decompose")
STDOUT_CASES = ("zero_3", "disjoint_sum", "sl2_Z_corrupt")


def golden_inputs() -> dict[str, str]:
    """Case name -> system file text, for `decompose`."""
    inputs = {name: fixture_text(name) for name in g.BUILTIN_NAMES}
    inputs["sl2x2_Q"] = g.dumps_system(sl2_square(g.RationalField()))
    inputs["sl2x2_F7"] = g.dumps_system(sl2_square(g.PrimeField(7)))
    # n = 9: the fine Z^3 grading over Q, and GF(7) pushed to Z_2 (one class)
    inputs["sl2x3_Q"] = g.dumps_system(sl2_power(3, g.RationalField()))
    inputs["sl2x3_F7_Z2"] = g.dumps_system(coordinate_sum(sl2_power(3, g.PrimeField(7)), 2))
    # dense, one class: sl3 (n = 8) and sl4 (n = 15) graded by their root lattices
    inputs["sl3_root_Q"] = g.dumps_system(sl_root(3, g.RationalField()))
    inputs["sl4_root_Q"] = g.dumps_system(sl_root(4, g.RationalField()))
    return inputs


def corrupted_inputs() -> dict[str, str]:
    """Case name -> system file text, for `verify` (each fails it)."""
    one = g.RationalField().one
    # {b0, b2, b0} = 2 b0 becomes 3 b0: 41 axiom and 20 six-term violations
    sl2 = mutate_constant(g.builtin("sl2_Z"), 0, 2, 0, 0, one)
    # {b0, b0, b0} = b2 gains a b0 term: axiom, grading and six-term violations
    nonlie = mutate_constant(g.builtin("nonlie_J"), 0, 0, 0, 0, one)
    return {
        "sl2_Z_corrupt": g.dumps_system(sl2),
        "nonlie_J_corrupt": g.dumps_system(nonlie),
    }


def cli_report(command: str, name: str, text: str, directory: Path, code: int) -> bytes:
    """Run `<command> <name>.json --json report.json` with `directory` as working directory."""
    (directory / f"{name}.json").write_text(text, encoding="utf-8")
    argv = [command, f"{name}.json", "--json", "report.json"]
    if command == "decompose":
        argv[2:2] = ["--seed", "0"]
    previous = os.getcwd()
    os.chdir(directory)
    try:
        assert main(argv) == code, name
    finally:
        os.chdir(previous)
    return (directory / "report.json").read_bytes()


def decompose_report(name: str, text: str, directory: Path) -> bytes:
    return cli_report("decompose", name, text, directory, 0)


def verify_report(name: str, text: str, directory: Path) -> bytes:
    return cli_report("verify", name, text, directory, 1)


@pytest.mark.parametrize("name", sorted(golden_inputs()))
def test_decompose_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.decompose.json").read_bytes()
    assert decompose_report(name, golden_inputs()[name], tmp_path) == expected


@pytest.mark.parametrize("name", sorted(corrupted_inputs()))
def test_verify_report_matches_golden(name, tmp_path):
    expected = (GOLDEN_DIR / f"{name}.verify.json").read_bytes()
    assert verify_report(name, corrupted_inputs()[name], tmp_path) == expected


def analyze_embed_cases() -> dict[tuple[str, str], tuple[str, int]]:
    """(command, case) -> (system file text, exit code) for `analyze` and `embed`."""
    cases = {}
    for inputs, code in ((golden_inputs(), 0), (corrupted_inputs(), 1)):
        for name, text in inputs.items():
            for command in ("analyze", "embed"):
                cases[(command, name)] = (text, code)
    return cases


@pytest.mark.parametrize("command,name", sorted(analyze_embed_cases()))
def test_analyze_and_embed_reports_match_golden(command, name, tmp_path):
    text, code = analyze_embed_cases()[(command, name)]
    expected = (GOLDEN_DIR / f"{name}.{command}.json").read_bytes()
    assert cli_report(command, name, text, tmp_path, code) == expected


@pytest.mark.parametrize("name", sorted({**golden_inputs(), **corrupted_inputs()}))
def test_each_report_is_the_decompose_report_cut_at_its_sections(name, tmp_path):
    corrupted = corrupted_inputs()
    text = {**golden_inputs(), **corrupted}[name]
    code = 1 if name in corrupted else 0
    reports = {
        command: json.loads(cli_report(command, name, text, tmp_path, code))
        for command in COMMANDS
    }
    full = reports["decompose"]
    for command, report in reports.items():
        assert [key for key in full if key in report] == list(report), command
        assert report["command"] == command
        assert ("seed" in report) == (command == "decompose")
        for key in report:
            assert key == "command" or report[key] == full[key], (command, key)


def cli_stdout() -> bytes:
    """`cli_stdout.json`: case -> command -> exit code and standard output lines."""
    inputs = {**golden_inputs(), **corrupted_inputs()}
    frozen = {}
    for name in STDOUT_CASES:
        frozen[name] = {}
        with tempfile.TemporaryDirectory() as scratch:
            path = Path(scratch) / f"{name}.json"
            path.write_text(inputs[name], encoding="utf-8")
            for command in COMMANDS:
                with redirect_stdout(io.StringIO()) as out:
                    code = main([command, str(path)])
                frozen[name][command] = {"exit": code, "stdout": out.getvalue().splitlines()}
    return (json.dumps(frozen, indent=2) + "\n").encode("utf-8")


def test_cli_stdout_matches_golden():
    assert cli_stdout() == (GOLDEN_DIR / "cli_stdout.json").read_bytes()


def golden_stdout(name: str, command: str) -> tuple[int, str]:
    """The exit code and standard output that `cli_stdout.json` holds for a case."""
    frozen = json.loads((GOLDEN_DIR / "cli_stdout.json").read_text(encoding="utf-8"))[name][command]
    return frozen["exit"], "".join(line + "\n" for line in frozen["stdout"])


def child(argv: list[str], directory: Path, program=("-m", "gradedlts"), **options):
    """Run `python <program> <argv>` in `directory`, its output captured as text."""
    options.setdefault("env", child_env())
    return subprocess.run(
        [sys.executable, *program, *argv], cwd=directory, capture_output=True, text=True, **options
    )


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_cli_children_print_the_stdout_golden(unbuffered, tmp_path):
    """A buffered child's summary sits in its stdout buffer until `entry`
    flushes it, right before the process ends."""
    inputs = {**golden_inputs(), **corrupted_inputs()}
    for name in STDOUT_CASES:
        (tmp_path / f"{name}.json").write_text(inputs[name], encoding="utf-8")
        for command in COMMANDS:
            result = child([command, f"{name}.json"], tmp_path, env=child_env(unbuffered))
            assert (result.returncode, result.stdout) == golden_stdout(name, command), (name, command)
            assert result.stderr == "", (name, command)


DECOMPOSE_ARGV = ["decompose", "--seed", "0", "disjoint_sum.json", "--json", "report.json"]


def test_child_with_standard_output_closed_writes_the_golden_report(tmp_path):
    (tmp_path / "disjoint_sum.json").write_text(golden_inputs()["disjoint_sum"], encoding="utf-8")
    result = child(DECOMPOSE_ARGV, tmp_path, preexec_fn=lambda: os.close(1))
    assert (result.returncode, result.stderr) == (0, "")
    expected = (GOLDEN_DIR / "disjoint_sum.decompose.json").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == expected


@pytest.mark.parametrize("runner", ["entry()", "sys.exit(main())"])
def test_entry_skips_exit_handlers_and_keeps_the_output(runner, tmp_path):
    """`entry` ends the process without its exit handlers; returning from
    `main` instead runs them.  Output and report are whole either way."""
    (tmp_path / "disjoint_sum.json").write_text(golden_inputs()["disjoint_sum"], encoding="utf-8")
    program = (
        "import atexit, pathlib, sys\n"
        "atexit.register(pathlib.Path('handler_ran').touch)\n"
        "from gradedlts.cli import entry, main\n"
        f"{runner}\n"
    )
    result = child(DECOMPOSE_ARGV, tmp_path, program=("-c", program), env=child_env(False))
    assert (result.returncode, result.stdout) == golden_stdout("disjoint_sum", "decompose")
    expected = (GOLDEN_DIR / "disjoint_sum.decompose.json").read_bytes()
    assert (tmp_path / "report.json").read_bytes() == expected
    assert (tmp_path / "handler_ran").exists() == (runner != "entry()")


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for inputs, command, run in (
        (golden_inputs(), "decompose", decompose_report),
        (corrupted_inputs(), "verify", verify_report),
    ):
        for case, source in sorted(inputs.items()):
            with tempfile.TemporaryDirectory() as scratch:
                report = run(case, source, Path(scratch))
            (GOLDEN_DIR / f"{case}.{command}.json").write_bytes(report)
            print(f"wrote {case}.{command}.json", file=sys.stderr)
    for (command, case), (source, code) in sorted(analyze_embed_cases().items()):
        with tempfile.TemporaryDirectory() as scratch:
            report = cli_report(command, case, source, Path(scratch), code)
        (GOLDEN_DIR / f"{case}.{command}.json").write_bytes(report)
        print(f"wrote {case}.{command}.json", file=sys.stderr)
    (GOLDEN_DIR / "cli_stdout.json").write_bytes(cli_stdout())
    print("wrote cli_stdout.json", file=sys.stderr)
