"""Command line: exit codes, report structure, determinism."""

import ast
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gradedlts as g
from gradedlts import cli
from gradedlts.cli import main
from gradedlts.embedding import _ActionMatrix
from gradedlts.fixtures import fixture_text
from conftest import child_env, mutate_constant


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "gradedlts", *args],
        capture_output=True,
        text=True,
        env=child_env(),
    )


@pytest.fixture(scope="module")
def fixture_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixtures")
    paths = {}
    for name in g.BUILTIN_NAMES:
        path = root / f"{name}.json"
        path.write_text(fixture_text(name), encoding="utf-8")
        paths[name] = path
    return paths


def test_verify_passes_on_fixture(fixture_files):
    result = run_cli("verify", str(fixture_files["sl2_Z"]))
    assert result.returncode == 0
    assert "verdict: pass" in result.stdout


def test_verify_fails_on_corrupted_constant(fixture_files, tmp_path):
    data = json.loads(fixture_text("sl2_Z"))
    for record in data["triple"]:
        if record["args"] == [0, 2, 0]:
            record["out"][0]["val"] = "3"
    bad = tmp_path / "corrupt.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("verify", str(bad))
    assert result.returncode == 1
    assert "FAILED" in result.stdout


def test_decompose_of_a_corrupt_system_writes_the_verification_report(tmp_path, capsys):
    data = json.loads(fixture_text("sl2_Z"))
    data["triple"][2]["out"][0]["val"] = "3"  # {b0, b2, b0} = 3 b0, not 2 b0
    bad, out = tmp_path / "corrupt.json", tmp_path / "report.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["decompose", str(bad), "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith("verdict: fail (verification)\n")
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report) == ["tool", "command", "input", "system", "seed", "verification"]
    assert report["verification"]["axioms"]["ok"] is False


def test_certificate_failure_exits_1_with_one_line(fixture_files, monkeypatch, capsys):
    def broken(system):
        raise g.NotWellDefined("bracketing N escapes N", witness={"tensor": 0})

    monkeypatch.setattr(cli, "build_embedding", broken)
    assert main(["embed", str(fixture_files["sl2_Z"])]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "certificate failure [NotWellDefined]: bracketing N escapes N\n"


def _fail_a_lemma(monkeypatch):
    checked = cli.verify_structure_lemmas

    def planted(*args):
        checks = checked(*args)
        checks[0].failures.append("planted failure")
        return checks

    monkeypatch.setattr(cli, "verify_structure_lemmas", planted)


@pytest.mark.parametrize(
    "command, plant, verdict, section, key",
    [
        ("decompose", _fail_a_lemma, "fail (certificates)", "lemmas", "all_hold"),
    ],
)
def test_failed_certificate_exits_1_and_writes_the_report(
    command, plant, verdict, section, key, fixture_files, tmp_path, monkeypatch, capsys
):
    plant(monkeypatch)
    out = tmp_path / "report.json"
    assert main([command, str(fixture_files["sl2_Z"]), "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.endswith(f"verdict: {verdict}\n")
    assert json.loads(out.read_text(encoding="utf-8"))[section][key] is False


@pytest.mark.parametrize("command", ["verify", "analyze", "embed", "decompose"])
@pytest.mark.parametrize("corrupt", [False, True], ids=["valid", "corrupt"])
def test_each_command_builds_the_action_matrix_once(command, corrupt, tmp_path, monkeypatch):
    # the identity checks and build_embedding read one certified action matrix
    system = g.builtin("sl2_Z")
    if corrupt:
        system = mutate_constant(system, 0, 2, 0, 0, g.RationalField().one)
    path = tmp_path / "system.json"
    path.write_text(g.dumps_system(system), encoding="utf-8")
    built = []
    init = _ActionMatrix.__init__

    def counted(self, system):
        built.append(system)
        init(self, system)

    monkeypatch.setattr(_ActionMatrix, "__init__", counted)
    assert main([command, str(path)]) == int(corrupt)
    assert len(built) == 1


def test_verify_rejects_malformed_scalar(tmp_path):
    doc = {
        "group": {"moduli": [0]},
        "field": {"kind": "rational"},
        "dimension": 1,
        "degrees": [[0]],
        "triple": [{"args": [0, 0, 0], "out": [{"idx": 0, "val": "1/0"}]}],
    }
    bad = tmp_path / "bad_scalar.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    result = run_cli("verify", str(bad))
    assert result.returncode == 2
    assert "input error" in result.stderr


def test_verify_reports_exact_residuals_of_a_5000_digit_scalar(tmp_path, capsys):
    # {b0, b0, b0} = c b0 with c = 2 10^4999 + 1: both five-term residuals
    # are c^2 = 4 10^9998 + 4 10^4999 + 1 and the six-term one is -2 c^2
    c = "2" + "0" * 4998 + "1"
    doc = {
        "group": {"moduli": [0]},
        "field": {"kind": "rational"},
        "dimension": 1,
        "degrees": [[0]],
        "triple": [{"args": [0, 0, 0], "out": [{"idx": 0, "val": c}]}],
    }
    path = tmp_path / "long_scalar.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "report.json"
    assert main(["verify", str(path), "--json", str(out)]) == 1
    assert "verdict: fail" in capsys.readouterr().out
    verification = json.loads(out.read_text(encoding="utf-8"))["verification"]
    square = "4" + "0" * 4998 + "4" + "0" * 4998 + "1"
    assert [v["residual"] for v in verification["axioms"]["violations"]] == [[square]] * 2
    assert verification["fundamental_identity"]["violations"][0]["residual"] == [
        "-8" + "0" * 4998 + "8" + "0" * 4998 + "2"
    ]


@pytest.mark.parametrize(
    "text",
    ["1_000", " 7 ", "+7", "\u0663"],
    ids=["underscore", "spaces", "plus", "arabic_indic_digit"],
)
def test_verify_rejects_scalar_outside_grammar(text, tmp_path, capsys):
    # int() accepts each of these; the grammar is -?[0-9]+(/[0-9]+)?
    data = json.loads(fixture_text("sl2_Z"))
    data["triple"][0]["out"][0]["val"] = text
    bad = tmp_path / "bad_scalar.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "malformed scalar" in capsys.readouterr().err


def test_verify_rejects_a_pseudoprime_modulus(tmp_path, capsys):
    # 318665857834031151167461 = 399165290221 * 798330580441 passes
    # Miller-Rabin to the bases 2..37; inverting 399165290221 modulo it fails
    data = json.loads(fixture_text("sl2_Z"))
    data["field"] = {"kind": "prime", "p": 318665857834031151167461}
    data["triple"][0]["out"][0]["val"] = "1/399165290221"
    bad = tmp_path / "pseudoprime.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "not a prime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("+" + "7" * 5000, "malformed scalar '+777"),
        ("7" * 5000 + "/0", "has non-positive denominator"),
    ],
    ids=["plus", "zero_denominator"],
)
def test_long_bad_scalar_exits_2_with_one_short_line(text, message, tmp_path, capsys):
    data = json.loads(fixture_text("sl2_Z"))
    data["triple"][0]["out"][0]["val"] = text
    bad = tmp_path / "bad_scalar.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200, err[:300]
    assert message in err and f"({len(text)} characters)" in err


def test_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    text = fixture_text("sl2_Z").replace('"dimension": 3', '"dimension": ' + "9" * 5000)
    bad = tmp_path / "huge_dimension.json"
    bad.write_text(text, encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ") and err.count("\n") == 1, err[:300]


def test_file_that_is_not_utf8_exits_2(tmp_path):
    # 0xff never occurs in UTF-8
    bad = tmp_path / "not_utf8.json"
    bad.write_bytes(b"\xff" + fixture_text("sl2_Z").encode("utf-8"))
    result = run_cli("verify", str(bad))
    assert result.returncode == 2
    assert result.stderr.startswith("input error: cannot read ") and "utf-8" in result.stderr
    assert result.stderr.count("\n") == 1


def test_deeply_nested_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "nested.json"
    bad.write_text("[" * 100_000, encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: invalid JSON: ") and err.count("\n") == 1, err[:300]


def test_internal_error_exits_3_with_one_line(monkeypatch, capsys):
    def broken(path):
        raise RuntimeError("loader exploded\nsecond line")

    monkeypatch.setattr(cli, "read_input", broken)
    assert main(["verify", "whatever.json"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: loader exploded second line\n"


def test_verify_rejects_boolean_degree(tmp_path):
    data = json.loads(fixture_text("sl2_Z"))
    data["degrees"][0] = [True]
    bad = tmp_path / "bool_degree.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    result = run_cli("verify", str(bad))
    assert result.returncode == 2
    assert "input error" in result.stderr


_DELETE = object()


def _changed_sl2_doc(path, value):
    """The sl2_Z document with the entry at `path` (keys and indices; the
    empty path is the whole document) set to `value`, or deleted when
    `value` is _DELETE."""
    doc = json.loads(fixture_text("sl2_Z"))
    if not path:
        return value
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is _DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


# (id, path, value, message) of a document that each check of the loader rejects
MALFORMED_INPUTS = [
    ("not_an_object", (), [], "top-level document must be an object"),
    ("no_triple", ("triple",), _DELETE, "missing required key 'triple'"),
    ("group_list", ("group",), [0], "group must be an object with a 'moduli' list"),
    ("field_string", ("field",), "rational", "field must be an object"),
    ("prime_without_p", ("field",), {"kind": "prime"}, "prime field descriptor is missing 'p'"),
    ("field_kind", ("field",), {"kind": "real"}, "unknown field kind 'real'"),
    ("degree_rank", ("degrees", 0), [1, 0], "element has 2 coordinates, group has 1 factors"),
    ("triple_object", ("triple",), {}, "triple must be a list of records"),
    ("record_no_out", ("triple", 0, "out"), _DELETE, "each triple record needs 'args' and 'out'"),
    ("out_object", ("triple", 0, "out"), {}, "out must be a list"),
    ("output_no_val", ("triple", 0, "out", 0, "val"), _DELETE, "each output needs 'idx' and 'val'"),
]


@pytest.mark.parametrize(
    "path, value, message",
    [case[1:] for case in MALFORMED_INPUTS],
    ids=[case[0] for case in MALFORMED_INPUTS],
)
def test_malformed_input_exits_2_with_its_message(path, value, message, tmp_path, capsys):
    bad = tmp_path / "malformed.json"
    bad.write_text(json.dumps(_changed_sl2_doc(path, value)), encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"input error: {message}\n")


def test_broken_json_reports_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"group": \n', encoding="utf-8")
    result = run_cli("verify", str(bad))
    assert result.returncode == 2
    assert "line" in result.stderr


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="no /dev/fd")
def test_piped_input_records_the_hash_of_the_bytes_analysed(tmp_path):
    # `gradedlts verify <(cat FILE)`: a pipe can be read only once
    data = fixture_text("sl2_Z").encode("utf-8")
    read, write = os.pipe()
    os.write(write, data)
    os.close(write)
    try:
        out = tmp_path / "report.json"
        assert main(["verify", f"/dev/fd/{read}", "--json", str(out)]) == 0
    finally:
        os.close(read)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["input"]["sha256"] == hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_input_newlines_read_as_universal_newlines(newline, tmp_path):
    # the report hashes the bytes on disk, and a JSON error names the line
    # and column of the text with its newlines translated
    good = tmp_path / "system.json"
    good.write_bytes(fixture_text("sl2_Z").replace("\n", newline).encode("utf-8"))
    out = tmp_path / "report.json"
    assert main(["verify", str(good), "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["input"]["sha256"] == hashlib.sha256(good.read_bytes()).hexdigest()
    bad = tmp_path / "broken.json"
    bad.write_bytes(newline.join(['{"group":', '  {"moduli": [0]},', "  oops"]).encode("utf-8"))
    with pytest.raises(g.InputError) as raised:
        g.load_system(bad)
    assert (raised.value.line, raised.value.column) == (3, 3)
    with pytest.raises(g.InputError) as expected:
        g.loads_system(bad.read_text(encoding="utf-8"))
    assert str(raised.value) == str(expected.value)


def test_analyze_reports_classes(fixture_files, tmp_path):
    out = tmp_path / "analyze.json"
    result = run_cli("analyze", str(fixture_files["disjoint_sum"]), "--json", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    assert report["command"] == "analyze"
    assert len(report["classes"]) == 2
    assert report["supports"]["odd_support"] == ["[-1,0]", "[0,-1]", "[0,1]", "[1,0]"]
    for cls in report["classes"]:
        for member, seq in cls["witness_sequences"].items():
            assert seq[0] == cls["representative"]


def test_analyze_zero_system_has_no_classes(fixture_files, tmp_path):
    out = tmp_path / "zero.json"
    result = run_cli("analyze", str(fixture_files["zero_3"]), "--json", str(out))
    assert result.returncode == 0
    assert json.loads(out.read_text())["classes"] == []


def test_analyze_sl2_single_class(fixture_files, tmp_path):
    out = tmp_path / "sl2.json"
    result = run_cli("analyze", str(fixture_files["sl2_Z"]), "--json", str(out))
    assert result.returncode == 0
    assert len(json.loads(out.read_text())["classes"]) == 1


def test_embed_report_contents(fixture_files, tmp_path):
    out = tmp_path / "embed.json"
    result = run_cli("embed", str(fixture_files["sl2_Z"]), "--json", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    section = report["embedding"]
    assert section["realization"] == "tensor_square_quotient"
    assert section["even_part_dim"] == 3
    assert section["null_space_dim"] == 6
    assert section["well_defined"] is True
    assert section["leibniz_identity"] is True
    assert section["even_grading_ok"] is True


def test_decompose_report_contents(fixture_files, tmp_path):
    out = tmp_path / "decompose.json"
    result = run_cli(
        "decompose", str(fixture_files["disjoint_sum"]), "--seed", "0", "--json", str(out)
    )
    assert result.returncode == 0
    report = json.loads(out.read_text())
    deco = report["decomposition"]
    assert deco["direct_sum"] is True
    assert len(deco["ideals"]) == 2
    assert deco["u_dim"] == 0
    assert deco["all_orthogonal"] is True
    assert report["lemmas"]["all_hold"] is True
    assert report["seed"] == 0
    assert report["input"]["sha256"] == hashlib.sha256(
        fixture_files["disjoint_sum"].read_bytes()
    ).hexdigest()


def test_decompose_zero_system_report(fixture_files, tmp_path):
    out = tmp_path / "zero_decompose.json"
    result = run_cli("decompose", str(fixture_files["zero_3"]), "--json", str(out))
    assert result.returncode == 0
    deco = json.loads(out.read_text())["decomposition"]
    assert deco["ideals"] == []
    assert deco["u_dim"] == 3


def test_decompose_sl2_report(fixture_files, tmp_path):
    out = tmp_path / "sl2_decompose.json"
    result = run_cli("decompose", str(fixture_files["sl2_Z"]), "--json", str(out))
    assert result.returncode == 0
    report = json.loads(out.read_text())
    deco = report["decomposition"]
    assert deco["u_dim"] == 0
    assert len(deco["ideals"]) == 1
    assert deco["tight"] is True
    assert deco["annihilator_dim"] == 0
    assert report["obstructions"] == []


def test_reports_are_deterministic(fixture_files, tmp_path):
    for name in ("sl2_Z", "disjoint_sum"):
        digests = []
        for attempt in range(2):
            out = tmp_path / f"{name}_{attempt}.json"
            result = run_cli(
                "decompose", str(fixture_files[name]), "--seed", "0", "--json", str(out)
            )
            assert result.returncode == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1]


# argv -> exit code, the stream written and a message in it, and the seed
# of the --json report written (None: no report).  Every row but the last
# six is what the argparse parser of earlier versions did too; it also
# accepted unique-prefix abbreviations such as --js, an empty --json value,
# which wrote no report, and "-" before non-ASCII digits as a negative
# number, and ended help with SystemExit.
PARSER_CASES = [
    ([], 2, "err", "the following arguments are required: command", None),
    (["frob", "{path}"], 2, "err", "argument command: invalid choice: 'frob'", None),
    (["verify"], 2, "err", "the following arguments are required: path", None),
    (["verify", "{path}", "extra"], 2, "err", "unrecognized arguments: extra", None),
    (["verify", "{path}", "--json"], 2, "err", "argument --json: expected one argument", None),
    (["verify", "{path}", "--seed", "1"], 2, "err", "unrecognized arguments: --seed", None),
    (["decompose", "{path}", "--seed", "x"], 2, "err", "--seed: invalid int value: 'x'", None),
    (["verify", "{path}", "--bogus"], 2, "err", "unrecognized arguments: --bogus", None),
    (["decompose", "{path}", "--seed", "-2", "--json", "{out}"], 0, "out", "verdict: pass", -2),
    (["decompose", "--seed=3", "--json={out}", "{path}"], 0, "out", "verdict: pass", 3),
    (["verify", "--", "{path}"], 0, "out", "verdict: pass", None),
    (["--help"], 0, "out", "usage: gradedlts {verify,analyze,embed,decompose} PATH", None),
    (["decompose", "--help"], 0, "out", "usage: gradedlts decompose PATH [--json", None),
    (["verify", "{path}", "--js", "{out}"], 2, "err", "unrecognized arguments: --js", None),
    (["verify", "{path}", "--json="], 2, "err", "argument --json: expected a non-empty path", None),
    (["verify", "{path}", "--json", ""], 2, "err", "--json: expected a non-empty path", None),
    (["decompose", "--json=", "{path}"], 2, "err", "--json: expected a non-empty path", None),
    (["decompose", "{path}", "--json", ""], 2, "err", "--json: expected a non-empty path", None),
    (["decompose", "{path}", "--seed", "-\u0663"], 2, "err", "--seed: expected one argument", None),
]


@pytest.mark.parametrize("argv, code, stream, message, seed", PARSER_CASES)
def test_command_line_grammar(argv, code, stream, message, seed, fixture_files, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [a.format(path=fixture_files["sl2_Z"], out=out) for a in argv]
    assert main(argv) == code
    captured = capsys.readouterr()
    assert message in getattr(captured, stream)
    assert (captured.out if stream == "err" else captured.err) == ""
    if code == 2:
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: gradedlts ") and error.startswith("gradedlts: error: ")
    if seed is not None:
        assert json.loads(out.read_text(encoding="utf-8"))["seed"] == seed
    else:
        assert not out.exists()


@pytest.mark.parametrize("seed", ["1_000", " 7", "7 ", "+3", "\u0663", "-\u0663", "0x7", ""])
def test_seed_is_an_ascii_integer(seed, fixture_files, tmp_path, capsys):
    # int() accepts all but the last two; the grammar is -?[0-9]+
    out = tmp_path / "report.json"
    assert main(["decompose", str(fixture_files["sl2_Z"]), f"--seed={seed}", "--json", str(out)]) == 2
    assert capsys.readouterr().err.endswith(f"argument --seed: invalid int value: {seed!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "decompose"])
@pytest.mark.parametrize("target", ["missing_directory", "directory"])
def test_unwritable_report_exits_2_with_one_line(command, target, fixture_files, tmp_path, capsys):
    out = tmp_path / "absent" / "report.json" if target == "missing_directory" else tmp_path
    assert main([command, str(fixture_files["sl2_Z"]), "--json", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"input error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_cli_module_entry_point_exists():
    result = run_cli("--help")
    assert result.returncode == 0
    for command in ("verify", "analyze", "embed", "decompose"):
        assert command in result.stdout


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", ["--help", "verify", "decompose"])
def test_unwritable_standard_output_exits_2_with_one_line(command, unbuffered, fixture_files):
    args = [command] if command == "--help" else [command, str(fixture_files["sl2_Z"])]
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "gradedlts", *args],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env=child_env(unbuffered),
        )
    reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
    assert result.returncode == 2
    assert result.stderr == f"input error: cannot write standard output: {reason}\n"


class RecordingStream:
    """A standard stream that logs its writes and flushes; `fail` is raised by flush."""

    def __init__(self, name, log, fail=None):
        self.name, self.log, self.fail = name, log, fail

    def write(self, text):
        self.log.append((self.name, "write", text))
        return len(text)

    def flush(self):
        if self.fail is not None:
            raise self.fail
        self.log.append((self.name, "flush"))


def run_entry(monkeypatch, code, stdout_fails=None) -> list:
    """Run `cli.entry` over recording streams with `main` returning `code`; the log."""
    log = []

    def exit_(status):
        log.append(("exit", status))
        raise SystemExit  # os._exit never returns

    monkeypatch.setattr(cli, "main", lambda: code)
    monkeypatch.setattr(sys, "stdout", RecordingStream("stdout", log, stdout_fails))
    monkeypatch.setattr(sys, "stderr", RecordingStream("stderr", log))
    monkeypatch.setattr(os, "_exit", exit_)
    with pytest.raises(SystemExit):
        cli.entry()
    return log


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_entry_flushes_both_streams_then_ends_the_process(code, monkeypatch):
    log = run_entry(monkeypatch, code)
    assert log == [("stdout", "flush"), ("stderr", "flush"), ("exit", code)]


def test_entry_reports_a_failed_flush_of_standard_output(monkeypatch):
    broken = BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))
    log = run_entry(monkeypatch, 0, stdout_fails=broken)
    written = "".join(entry[2] for entry in log if entry[:2] == ("stderr", "write"))
    assert written == f"input error: cannot write standard output: {broken}\n"
    assert log[-2:] == [("stderr", "flush"), ("exit", 2)]


def test_console_script_and_module_run_one_entry():
    tomllib = pytest.importorskip("tomllib")  # 3.11+
    root = Path(__file__).resolve().parents[1]
    scripts = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]["scripts"]
    tree = ast.parse((root / "src" / "gradedlts" / "__main__.py").read_text(encoding="utf-8"))
    [imported] = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    [called] = [node.value.func.id for node in tree.body if isinstance(node, ast.Expr)]
    assert imported.level == 1 and [alias.name for alias in imported.names] == [called]
    assert scripts == {"gradedlts": f"gradedlts.{imported.module}:{called}"}
    assert getattr(cli, called) is cli.entry


def test_prime_field_file_passes_all_commands(tmp_path):
    from gradedlts.systemfile import dumps_system

    system = g.from_leibniz_algebra(g.sl2_algebra(field=g.PrimeField(5)))
    path = tmp_path / "mod5.json"
    path.write_text(dumps_system(system), encoding="utf-8")
    for command in ("verify", "analyze", "embed", "decompose"):
        result = run_cli(command, str(path))
        assert result.returncode == 0, (command, result.stderr)
