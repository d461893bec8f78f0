"""The benchmark's workloads and the checks applied to every report.

A workload is one CLI command run on one or more generated input files.
Each input carries the facts its report must show; they follow from how
the system was built (the grading fixes the classes, a Lie input has even
part of dimension n and null space of dimension n^2 - n, and passes every
identity), never from an earlier run of the analyser.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from gradedlts import AbelianGroup, PrimeField

from systems import coordinate_sum, sl2_power


@dataclass(frozen=True)
class Input:
    label: str
    system: object
    classes: frozenset  # member sets of the connection classes, as formatted degrees
    direct_sum: bool | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    extra_args: tuple[str, ...]
    inputs: tuple[Input, ...]


def _members(*groups) -> frozenset:
    return frozenset(frozenset(g.format() for g in members) for members in groups)


def _sl2_power_classes(k: int) -> frozenset:
    # Copy i spans degrees e_i, 0, -e_i, and only e_i and -e_i connect to each other.
    group = AbelianGroup((0,) * k)
    units = [group.element([int(t == i) for t in range(k)]) for i in range(k)]
    return _members(*((u, u.inverse()) for u in units))


def fine_sparse_Q(seed: int, smoke: bool = False) -> Workload:
    k = 2 if smoke else 3
    system = sl2_power(k)
    return Workload(
        "fine_sparse_Q",
        "decompose",
        ("--seed", str(seed)),
        (Input("fine_sparse_Q", system, _sl2_power_classes(k), direct_sum=True),),
    )


def coarse_Fp(seed: int, smoke: bool = False) -> Workload:
    system = coordinate_sum(sl2_power(1 if smoke else 3, PrimeField(7)), 2)
    # Every nonzero degree e_i or -e_i sums to 1 in Z_2: one class {1}.
    one = system.group.element([1])
    return Workload(
        "coarse_Fp",
        "decompose",
        ("--seed", str(seed)),
        (Input("coarse_Fp", system, _members([one])),),
    )


WORKLOADS = {f.__name__: f for f in (fine_sparse_Q, coarse_Fp)}


def check_report(inp: Input, command: str, exit_code: int, report: dict) -> list[str]:
    """Failures of one report against the facts its input was built with."""
    failures = []
    if exit_code != 0:
        failures.append(f"exit code {exit_code}, expected 0")
    n = inp.system.dim
    if report.get("command") != command or report.get("system", {}).get("dimension") != n:
        failures.append("header does not match the command and input")
    counts = {
        key: block["violation_count"] for key, block in report.get("verification", {}).items()
    }
    if any(counts.values()) or len(counts) != 3:
        failures.append(f"verified input reports violations {counts}")
    if failures:
        return failures

    classes = frozenset(frozenset(c["members"]) for c in report["classes"])
    if classes != inp.classes:
        failures.append(f"classes {sorted(map(sorted, classes))} differ from the construction")
    emb = report["embedding"]
    if (emb["even_part_dim"], emb["null_space_dim"]) != (n, n * n - n):
        failures.append(
            f"even part {emb['even_part_dim']} / null space {emb['null_space_dim']}, "
            f"expected {n} / {n * n - n}"
        )
    if inp.direct_sum is not None and report["decomposition"]["direct_sum"] is not inp.direct_sum:
        failures.append(f"direct_sum is not {inp.direct_sum}")
    return failures


def canonical(report: dict) -> str:
    """The report with `input.path` dropped, for byte comparison across files."""
    report = dict(report, input={k: v for k, v in report["input"].items() if k != "path"})
    return json.dumps(report, indent=2)
