"""Command-line interface: verify, analyze, embed, decompose.

The grammar is fixed: `gradedlts COMMAND PATH [--json PATH] [--seed N]`,
with `--seed` (default 0) on `decompose` only.  An option takes its value
as the next argument or after `=`, options may come before or after PATH,
`--` ends the options, and `-h`/`--help` prints usage to standard output.
Option names are never abbreviated.

Exit codes are a contract for scripted use: 0 means every check and
certificate passed (or help was printed), 1 means a mathematical
verification or certificate failed, 2 means the command line or the input
could not be parsed or validated, and 3 means an internal error (any other
exception, reported on one line).  A usage error prints a `usage:` line and
one `gradedlts: error:` line on standard error.  Reports are emitted as JSON
with fixed key order and string-serialized scalars, so identical inputs and
flags produce byte-identical files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

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
from .systemfile import load_system

_MAX_REPORTED_VIOLATIONS = 20

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
    if parsed is None:
        return 0
    command, path, json_out, seed = parsed
    handler = {
        "verify": _cmd_verify,
        "analyze": _cmd_analyze,
        "embed": _cmd_embed,
        "decompose": _cmd_decompose,
    }[command]
    try:
        return handler(command, path, json_out, seed)
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
    return arg.startswith("-") and arg != "-" and not arg[1:].isdigit()


def _parse_args(argv: list[str]):
    """(command, path, json_out, seed) of the command line, or None after printing help.

    `seed` is None for every command but decompose.  Raises `_UsageError`
    on anything outside the grammar.
    """
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    command, *rest = argv
    if command in ("-h", "--help"):
        print(_help(None))
        return None
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
            print(_help(command))
            return None
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


def _input_section(path: str) -> dict:
    digest = sha256(Path(path).read_bytes()).hexdigest()
    return {"path": str(path), "sha256": digest}


def _header(command: str, path: str, system) -> dict:
    return {
        "tool": {"name": "gradedlts", "version": __version__},
        "command": command,
        "input": _input_section(path),
        "system": {
            "field": system.field.descriptor(),
            "group": list(system.group.moduli),
            "dimension": system.dim,
        },
    }


def _verification_section(system) -> tuple[dict, bool]:
    axiom_violations = system.verify_axioms()
    grading_violations = system.verify_grading()
    fundamental_violations = system.verify_fundamental_identity()

    def block(violations):
        return {
            "ok": not violations,
            "violation_count": len(violations),
            "violations": [
                v.describe(system.field) for v in violations[:_MAX_REPORTED_VIOLATIONS]
            ],
        }

    section = {
        "axioms": block(axiom_violations),
        "grading": block(grading_violations),
        "fundamental_identity": block(fundamental_violations),
    }
    ok = not (axiom_violations or grading_violations or fundamental_violations)
    return section, ok


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


def _embedding_section(system, emb) -> dict:
    grading_violations = emb.verify_even_grading()
    return {
        "realization": "tensor_square_quotient",
        "tensor_dimension": emb.tensor_dim,
        "null_space_dim": emb.tensor_dim - emb.dim_even,
        "even_part_dim": emb.dim_even,
        "even_support": [g.format() for g in emb.support()],
        "component_dims": {g.format(): len(block) for g, block in emb.components().items()},
        "well_defined": True,
        "leibniz_identity": True,
        "even_grading_ok": not grading_violations,
        "even_grading_violations": grading_violations[:_MAX_REPORTED_VIOLATIONS],
    }


def _basis_strings(system, subspace) -> list[list[str]]:
    fmt = system.field.format
    return [list(map(fmt, row)) for row in subspace.basis]


def _decomposition_section(system, report) -> dict:
    return {
        "u_dim": report.u.dim,
        "u_basis": _basis_strings(system, report.u),
        "tight": report.tight,
        "annihilator_dim": report.annihilator_dim,
        "spans": report.spans,
        "ideals": [
            {
                "class": ideal.cls.representative.format(),
                "members": [g.format() for g in ideal.cls.members],
                "core_dim": ideal.core.dim,
                "vertex_dim": ideal.vertex.dim,
                "total_dim": ideal.total.dim,
                "basis": _basis_strings(system, ideal.total),
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


def _print_verification(section) -> None:
    for key in ("axioms", "grading", "fundamental_identity"):
        block = section[key]
        status = "ok" if block["ok"] else f"FAILED ({block['violation_count']} violations)"
        print(f"{key.replace('_', ' ')}: {status}")


def _cmd_verify(command, path, json_out, seed) -> int:
    system = load_system(path)
    report = _header(command, path, system)
    verification, ok = _verification_section(system)
    report["verification"] = verification
    _emit(report, json_out)
    _print_verification(verification)
    print("verdict:", "pass" if ok else "fail")
    return 0 if ok else 1


def _verified(command, path, json_out, seed):
    """Load, verify and embed the system of an analyze, embed or decompose run.

    Returns (system, emb, report) with the header (and `seed`, given for
    decompose only), verification and supports in the report.  When
    verification fails, the report is written and the verdict printed, and
    emb is None.
    """
    system = load_system(path)
    report = _header(command, path, system)
    if seed is not None:
        report["seed"] = seed
    verification, ok = _verification_section(system)
    report["verification"] = verification
    if not ok:
        _emit(report, json_out)
        _print_verification(verification)
        print("verdict: fail (verification)")
        return system, None, report
    emb = build_embedding(system)
    report["supports"] = _supports_section(system, emb)
    return system, emb, report


def _cmd_analyze(command, path, json_out, seed) -> int:
    system, emb, report = _verified(command, path, json_out, seed)
    if emb is None:
        return 1
    sup = SupportData.from_system(system, emb)
    report["classes"] = _classes_section(sup, connection_classes(sup))
    _emit(report, json_out)
    print("odd support:", " ".join(report["supports"]["odd_support"]) or "(empty)")
    print("even support:", " ".join(report["supports"]["even_support"]) or "(empty)")
    print(f"connection classes: {len(report['classes'])}")
    for cls in report["classes"]:
        print(f"  [{cls['representative']}] members: {' '.join(cls['members'])}")
    return 0


def _cmd_embed(command, path, json_out, seed) -> int:
    system, emb, report = _verified(command, path, json_out, seed)
    if emb is None:
        return 1
    section = _embedding_section(system, emb)
    report["embedding"] = section
    _emit(report, json_out)
    print(f"even part dimension: {section['even_part_dim']}")
    print(f"null space dimension: {section['null_space_dim']}")
    print("even support:", " ".join(section["even_support"]) or "(empty)")
    ok = section["even_grading_ok"]
    print("verdict:", "pass" if ok else "fail (even grading)")
    return 0 if ok else 1


def _cmd_decompose(command, path, json_out, seed) -> int:
    system, emb, report = _verified(command, path, json_out, seed)
    if emb is None:
        return 1
    deco = decompose(system, emb, seed=seed)
    sup = deco.supports
    classes = [ideal.cls for ideal in deco.ideals]
    report["classes"] = _classes_section(sup, classes)
    report["embedding"] = _embedding_section(system, emb)
    report["decomposition"] = _decomposition_section(system, deco)
    lemma_checks = verify_structure_lemmas(system, emb, classes, sup)
    report["lemmas"] = _lemma_section(lemma_checks)
    report["obstructions"] = _obstruction_section(deco.obstructions)
    _emit(report, json_out)

    print(f"ideals: {len(deco.ideals)}  complement dim: {deco.u.dim}")
    print(f"tight: {deco.tight}  annihilator dim: {deco.annihilator_dim}")
    print(f"direct sum: {deco.direct_sum}")
    print(f"obstructions: {len(deco.obstructions)}")
    certs_ok = (
        report["embedding"]["even_grading_ok"]
        and deco.all_orthogonal
        and report["lemmas"]["all_hold"]
    )
    print("verdict:", "pass" if certs_ok else "fail (certificates)")
    return 0 if certs_ok else 1


if __name__ == "__main__":
    sys.exit(main())
