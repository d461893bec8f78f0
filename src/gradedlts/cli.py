"""Command-line interface: verify, analyze, embed, decompose.

The grammar is fixed: `gradedlts COMMAND PATH [--json PATH] [--seed N]`,
with `--seed` (default 0) on `decompose` only.  An option takes its value
as the next argument or after `=`, options may come before or after PATH,
`--` ends the options, and `-h`/`--help` prints usage to standard output.
Option names are never abbreviated.

Exit codes are a contract for scripted use: 0 means every check and
certificate passed (or help was printed), 1 means a mathematical
verification or certificate failed, 2 means the command line or the input
could not be parsed or validated, or the report or standard output could not
be written, and 3 means an internal error (any other exception, reported on
one line).  A usage error prints a `usage:` line and one `gradedlts: error:`
line on standard error.  Reports are emitted as JSON with fixed key order and
string-serialized scalars, so identical inputs and flags produce
byte-identical files.  Each command's report is the `decompose` report cut to
that command's sections, in one key order.

`main(argv)` returns the exit code; `entry()`, the process entry of both
`gradedlts` and `python -m gradedlts`, runs it, flushes both streams and
ends the process there, without the interpreter's teardown.
"""

from __future__ import annotations

import json
import os
import re
import sys
from pathlib import Path
from typing import NoReturn

# hashlib is heavy to load (OpenSSL's libcrypto); the interpreter's built-in
# SHA-256 gives the same digest, as random.py does for sha512
try:
    from _sha2 import sha256  # 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

from . import __version__
from .connections import SupportData, connection_classes, witness_sequence
from .decomposition import decompose, verify_structure_lemmas
from .embedding import build_embedding
from .errors import CertificateFailure, InputError
from .systemfile import loads_system, read_input

_MAX_REPORTED_VIOLATIONS = 20

# ASCII decimal digits: int() also takes "+", spaces, "_" and other digits
_INTEGER = re.compile(r"-?[0-9]+")

_COMMANDS = {
    "verify": "check the defining identities and the grading",
    "analyze": "compute supports and connection classes",
    "embed": "build and certify the standard embedding",
    "decompose": "produce the certified ideal decomposition",
}


class _UsageError(Exception):
    """A command line outside the grammar; `command` is None before a valid one."""

    def __init__(self, command, message):
        super().__init__(message)
        self.command = command


def main(argv=None) -> int:
    try:
        parsed = _parse_args(sys.argv[1:] if argv is None else list(argv))
    except _UsageError as exc:
        print(f"usage: {_usage(exc.command)}\ngradedlts: error: {exc}", file=sys.stderr)
        return 2
    try:
        code, lines = (0, [parsed]) if isinstance(parsed, str) else _run(*parsed)
        _print(lines)
        return code
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except CertificateFailure as exc:
        print(f"certificate failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        message = " ".join(str(exc).splitlines())
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


def entry() -> NoReturn:
    """Run `main` on this process's arguments and end the process with its code.

    Both streams are flushed first (a stream that is None, as when fd 1 was
    closed at start, is skipped); a failed flush of standard output is
    reported like a failed write, exit code 2.  The process then ends
    without the interpreter's teardown, so exit handlers registered by other
    code in this process do not run.
    """
    code = main()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:
        print(f"input error: {_stdout_error(exc)}", file=sys.stderr)
        code = 2
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:
            pass  # nowhere is left to report it; the exit code stands
    os._exit(code)


def _stdout_error(exc: OSError) -> InputError:
    return InputError(f"cannot write standard output: {exc}")


def _print(lines: list[str]) -> None:
    """Write `lines` to standard output: the CLI's one write there."""
    try:
        print("\n".join(lines))
    except OSError as exc:
        raise _stdout_error(exc) from None


def _usage(command) -> str:
    if command is None:
        return "gradedlts {verify,analyze,embed,decompose} PATH [--json PATH] [--seed N]"
    seed = " [--seed N]" if command == "decompose" else ""
    return f"gradedlts {command} PATH [--json PATH]{seed}"


def _help(command) -> str:
    if command is None:
        head = ["Exact verification and decomposition of graded Leibniz triple systems.", "",
                "commands:", *(f"  {name:<10} {text}" for name, text in _COMMANDS.items())]
    else:
        head = [_COMMANDS[command].capitalize() + "."]
    options = ["  PATH         system file (JSON)", "  --json PATH  write the full report here"]
    if command in (None, "decompose"):
        options.append("  --seed N     seed for decompose's randomized ideal probes (default 0)")
    options.append("  -h, --help   show this help and exit")
    return "\n".join([f"usage: {_usage(command)}", "", *head, "", "arguments:", *options])


def _is_option(arg: str) -> bool:
    """Whether `arg` names an option; "-" and negative integers are values."""
    return arg.startswith("-") and arg != "-" and not _INTEGER.fullmatch(arg)


def _parse_args(argv: list[str]):
    """(command, path, json_out, seed) of the command line, or the help text it asks for.

    `seed` is None for every command but decompose.  Raises `_UsageError`
    on anything outside the grammar.
    """
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        return _help(None)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        message = f"argument command: invalid choice: {command!r} (choose from {choices})"
        raise _UsageError(None, message)
    values = {"--json": None, "--seed": 0} if command == "decompose" else {"--json": None}
    positional = []
    args = iter(rest)
    for arg in args:
        if arg == "--":
            positional.extend(args)
        elif not _is_option(arg):
            positional.append(arg)
        elif arg in ("-h", "--help"):
            return _help(command)
        else:
            name, eq, value = arg.partition("=")
            if name not in values:
                raise _UsageError(command, f"unrecognized arguments: {arg}")
            if not eq:
                value = next(args, None)
                if value is None or _is_option(value):
                    raise _UsageError(command, f"argument {name}: expected one argument")
            if name == "--json" and not value:
                raise _UsageError(command, "argument --json: expected a non-empty path")
            if name == "--seed":
                try:
                    if not _INTEGER.fullmatch(value):
                        raise ValueError(value)
                    value = int(value)
                except ValueError:
                    message = f"argument --seed: invalid int value: {value!r}"
                    raise _UsageError(command, message) from None
            values[name] = value
    if not positional:
        raise _UsageError(command, "the following arguments are required: path")
    if len(positional) > 1:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(positional[1:])}")
    return command, positional[0], values["--json"], values.get("--seed")


def _verification_section(system) -> tuple[dict, bool]:
    found = {
        "axioms": system.verify_axioms(),
        "grading": system.verify_grading(),
        "fundamental_identity": system.verify_fundamental_identity(),
    }
    section = {
        key: {
            "ok": not violations,
            "violation_count": len(violations),
            "violations": [
                v.describe(system.field) for v in violations[:_MAX_REPORTED_VIOLATIONS]
            ],
        }
        for key, violations in found.items()
    }
    return section, not any(found.values())


def _supports_section(system, emb) -> dict:
    return {
        "odd_support": [g.format() for g in system.support()],
        "even_support": [g.format() for g in emb.support()],
    }


def _classes_section(sup, classes) -> list[dict]:
    out = []
    for cls in classes:
        witnesses = {}
        for member in cls.members:
            if member != cls.representative:
                seq = witness_sequence(sup, cls.representative, member)
                witnesses[member.format()] = [g.format() for g in seq]
        out.append(
            {
                "representative": cls.representative.format(),
                "members": [g.format() for g in cls.members],
                "witness_sequences": witnesses,
            }
        )
    return out


def _embedding_section(emb) -> dict:
    return {
        "realization": "tensor_square_quotient",
        "tensor_dimension": emb.tensor_dim,
        "null_space_dim": emb.tensor_dim - emb.dim_even,
        "even_part_dim": emb.dim_even,
        "even_support": [g.format() for g in emb.support()],
        "component_dims": {g.format(): len(block) for g, block in emb.components().items()},
        # certified by build_embedding, the even grading by the system's
        "well_defined": True,
        "leibniz_identity": True,
        "even_grading_ok": True,
        "even_grading_violations": [],
    }


def _basis_strings(subspace) -> list[list[str]]:
    fmt = subspace.field.format
    return [list(map(fmt, row)) for row in subspace.basis]


def _decomposition_section(report) -> dict:
    return {
        "u_dim": report.u.dim,
        "u_basis": _basis_strings(report.u),
        "tight": report.tight,
        "annihilator_dim": report.annihilator_dim,
        "spans": True,  # decompose raises unless U + the ideals span E
        "ideals": [
            {
                "class": ideal.cls.representative.format(),
                "members": [g.format() for g in ideal.cls.members],
                "core_dim": ideal.core.dim,
                "vertex_dim": ideal.vertex.dim,
                "total_dim": ideal.total.dim,
                "basis": _basis_strings(ideal.total),
                "is_ideal": True,
                "is_subsystem": True,
            }
            for ideal in report.ideals
        ],
        "orthogonality": report.orthogonality,
        "all_orthogonal": report.all_orthogonal,
        "pairwise_disjoint": report.pairwise_disjoint,
        "direct_sum": report.direct_sum,
    }


def _lemma_section(checks) -> dict:
    return {
        "all_hold": all(c.holds for c in checks),
        "checks": [
            {
                "name": c.name,
                "instances": c.instances,
                "nonvacuous": c.nonvacuous,
                "holds": c.holds,
                "failures": c.failures[:_MAX_REPORTED_VIOLATIONS],
            }
            for c in checks
        ],
    }


def _obstruction_section(obstructions) -> list[dict]:
    out = []
    for o in obstructions:
        entry = {"kind": o.kind, "detail": o.detail}
        if o.witness is not None:
            entry["witness"] = o.witness
        out.append(entry)
    return out


def _emit(report: dict, json_out) -> None:
    if json_out is not None:
        try:
            Path(json_out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        except OSError as exc:
            raise InputError(f"cannot write {json_out}: {exc}") from None


def _run(command: str, path: str, json_out, seed) -> tuple[int, list[str]]:
    """Run `command` on the system file at `path`: its exit code and summary lines.

    Every command builds the decompose report, in its one key order, cut
    at its own sections: verify, and any command whose verification fails,
    stops after the verification; analyze adds the supports and classes,
    embed the supports and the embedding.
    """
    # the input is read once, so the hash is of the bytes parsed
    data, text = read_input(path)
    system = loads_system(text)
    report = {
        "tool": {"name": "gradedlts", "version": __version__},
        "command": command,
        "input": {"path": str(path), "sha256": sha256(data).hexdigest()},
        "system": {
            "field": system.field.descriptor(),
            "group": list(system.group.moduli),
            "dimension": system.dim,
        },
    }
    if seed is not None:
        report["seed"] = seed
    report["verification"], ok = _verification_section(system)
    if command == "verify" or not ok:
        _emit(report, json_out)
        lines = []
        for key, block in report["verification"].items():
            status = "ok" if block["ok"] else f"FAILED ({block['violation_count']} violations)"
            lines.append(f"{key.replace('_', ' ')}: {status}")
        verdict = "pass" if ok else "fail" if command == "verify" else "fail (verification)"
        return (0 if ok else 1), [*lines, f"verdict: {verdict}"]

    emb = build_embedding(system)
    report["supports"] = _supports_section(system, emb)
    if command == "analyze":
        sup = SupportData.from_system(system, emb)
        classes = connection_classes(sup)
    elif command == "decompose":
        deco = decompose(system, emb, seed=seed)
        sup, classes = deco.supports, [ideal.cls for ideal in deco.ideals]
    if command != "embed":
        report["classes"] = _classes_section(sup, classes)
    if command != "analyze":
        report["embedding"] = _embedding_section(emb)
    if command == "decompose":
        report["decomposition"] = _decomposition_section(deco)
        report["lemmas"] = _lemma_section(verify_structure_lemmas(system, emb, classes, sup))
        report["obstructions"] = _obstruction_section(deco.obstructions)
    _emit(report, json_out)

    if command == "analyze":
        return 0, [
            f"odd support: {' '.join(report['supports']['odd_support']) or '(empty)'}",
            f"even support: {' '.join(report['supports']['even_support']) or '(empty)'}",
            f"connection classes: {len(report['classes'])}",
            *(f"  [{cls['representative']}] members: {' '.join(cls['members'])}"
              for cls in report["classes"]),
        ]
    section = report["embedding"]
    if command == "embed":
        return 0, [
            f"even part dimension: {section['even_part_dim']}",
            f"null space dimension: {section['null_space_dim']}",
            f"even support: {' '.join(section['even_support']) or '(empty)'}",
            "verdict: pass",
        ]
    ok = deco.all_orthogonal and report["lemmas"]["all_hold"]
    return (0 if ok else 1), [
        f"ideals: {len(deco.ideals)}  complement dim: {deco.u.dim}",
        f"tight: {deco.tight}  annihilator dim: {deco.annihilator_dim}",
        f"direct sum: {deco.direct_sum}",
        f"obstructions: {len(deco.obstructions)}",
        f"verdict: {'pass' if ok else 'fail (certificates)'}",
    ]
