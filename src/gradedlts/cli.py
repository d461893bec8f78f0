"""Command-line interface: verify, analyze, embed, decompose.

Exit codes are a contract for scripted use: 0 means every check and
certificate passed, 1 means a mathematical verification or certificate
failed, 2 means the input could not be parsed or validated, and 3 means an
internal error (any other exception, reported on one line).  Reports
are emitted as JSON with fixed key order and string-serialized scalars, so
identical inputs and flags produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .connections import SupportData, connection_classes, witness_sequence
from .decomposition import decompose, verify_structure_lemmas
from .embedding import build_embedding
from .errors import CertificateFailure, InputError
from .systemfile import load_system

_MAX_REPORTED_VIOLATIONS = 20


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gradedlts",
        description="Exact verification and decomposition of graded Leibniz triple systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("verify", _cmd_verify, "check the defining identities and the grading"),
        ("analyze", _cmd_analyze, "compute supports and connection classes"),
        ("embed", _cmd_embed, "build and certify the standard embedding"),
        ("decompose", _cmd_decompose, "produce the certified ideal decomposition"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("path", help="system file (JSON)")
        p.add_argument("--json", dest="json_out", metavar="PATH", help="write the full report here")
        if name == "decompose":
            p.add_argument(
                "--seed",
                type=int,
                default=0,
                help="seed for the randomized ideal probes (default 0)",
            )
        p.set_defaults(handler=handler)
    return parser


def _input_section(path: str) -> dict:
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
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
        "null_space_dim": emb.null_space.dim,
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
    if json_out:
        Path(json_out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")


def _print_verification(section) -> None:
    for key in ("axioms", "grading", "fundamental_identity"):
        block = section[key]
        status = "ok" if block["ok"] else f"FAILED ({block['violation_count']} violations)"
        print(f"{key.replace('_', ' ')}: {status}")


def _cmd_verify(args) -> int:
    system = load_system(args.path)
    report = _header("verify", args.path, system)
    verification, ok = _verification_section(system)
    report["verification"] = verification
    _emit(report, args.json_out)
    _print_verification(verification)
    print("verdict:", "pass" if ok else "fail")
    return 0 if ok else 1


def _verified(args):
    """Load, verify and embed the system of an analyze, embed or decompose run.

    Returns (system, emb, report) with the header (and `seed` for decompose),
    verification and supports in the report.  When verification fails, the
    report is written and the verdict printed, and emb is None.
    """
    system = load_system(args.path)
    report = _header(args.command, args.path, system)
    if args.command == "decompose":
        report["seed"] = args.seed
    verification, ok = _verification_section(system)
    report["verification"] = verification
    if not ok:
        _emit(report, args.json_out)
        _print_verification(verification)
        print("verdict: fail (verification)")
        return system, None, report
    emb = build_embedding(system)
    report["supports"] = _supports_section(system, emb)
    return system, emb, report


def _cmd_analyze(args) -> int:
    system, emb, report = _verified(args)
    if emb is None:
        return 1
    sup = SupportData.from_system(system, emb)
    report["classes"] = _classes_section(sup, connection_classes(sup))
    _emit(report, args.json_out)
    print("odd support:", " ".join(report["supports"]["odd_support"]) or "(empty)")
    print("even support:", " ".join(report["supports"]["even_support"]) or "(empty)")
    print(f"connection classes: {len(report['classes'])}")
    for cls in report["classes"]:
        print(f"  [{cls['representative']}] members: {' '.join(cls['members'])}")
    return 0


def _cmd_embed(args) -> int:
    system, emb, report = _verified(args)
    if emb is None:
        return 1
    section = _embedding_section(system, emb)
    report["embedding"] = section
    _emit(report, args.json_out)
    print(f"even part dimension: {section['even_part_dim']}")
    print(f"null space dimension: {section['null_space_dim']}")
    print("even support:", " ".join(section["even_support"]) or "(empty)")
    ok = section["even_grading_ok"]
    print("verdict:", "pass" if ok else "fail (even grading)")
    return 0 if ok else 1


def _cmd_decompose(args) -> int:
    system, emb, report = _verified(args)
    if emb is None:
        return 1
    deco = decompose(system, emb, seed=args.seed)
    sup = deco.supports
    classes = [ideal.cls for ideal in deco.ideals]
    report["classes"] = _classes_section(sup, classes)
    report["embedding"] = _embedding_section(system, emb)
    report["decomposition"] = _decomposition_section(system, deco)
    lemma_checks = verify_structure_lemmas(system, emb, classes, sup)
    report["lemmas"] = _lemma_section(lemma_checks)
    report["obstructions"] = _obstruction_section(deco.obstructions)
    _emit(report, args.json_out)

    print(f"ideals: {len(deco.ideals)}  complement dim: {deco.u.dim}")
    print(f"tight: {deco.tight}  annihilator dim: {deco.annihilator_dim}")
    print(f"direct sum: {deco.direct_sum}")
    print(f"obstructions: {len(deco.obstructions)}")
    certs_ok = (
        report["embedding"]["even_grading_ok"]
        and deco.spans
        and deco.all_orthogonal
        and report["lemmas"]["all_hold"]
    )
    print("verdict:", "pass" if certs_ok else "fail (certificates)")
    return 0 if certs_ok else 1


if __name__ == "__main__":
    sys.exit(main())
