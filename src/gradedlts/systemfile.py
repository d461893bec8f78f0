"""Reading and writing graded triple systems as JSON documents.

Document layout::

    {
      "group":     {"moduli": [0, 2, ...]},          # 0 = infinite factor
      "field":     {"kind": "rational"}               # or {"kind": "prime", "p": 5}
      "dimension": n,
      "degrees":   [[...], ...],                      # one coordinate vector per basis vector
      "triple":    [{"args": [i, j, k],
                     "out": [{"idx": l, "val": "a" or "a/b"}, ...]}, ...]
    }

Indices are 0-based; scalars are strings matching `-?[0-9]+(/[0-9]+)?`
(ASCII digits, a positive denominator); unspecified argument triples mean a zero
product; duplicate argument triples (and duplicate output indices within a
record) are rejected.  Serialization is canonical: records sorted by
arguments, outputs sorted by index, zero entries omitted, two-space
indentation, and a trailing newline, so that parse -> serialize -> parse is
the identity and equal systems serialize byte-identically.
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import InputError, is_int
from .groups import AbelianGroup
from .linalg import field_from_descriptor
from .triples import GradedTripleSystem


def read_input(path) -> tuple[bytes, str]:
    """The file's bytes, read once, and their text as `Path.read_text` decodes it."""
    try:
        data = Path(path).read_bytes()
        return data, data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None


def load_system(path) -> GradedTripleSystem:
    """Parse a system from a file path."""
    return loads_system(read_input(path)[1])


def loads_system(text: str) -> GradedTripleSystem:
    """Parse a system from a JSON string."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
    except (ValueError, RecursionError) as exc:
        # e.g. an integer literal past the interpreter's int/str digit limit,
        # or arrays nested deeper than the decoder's recursion limit
        raise InputError(f"invalid JSON: {exc}") from None
    return system_from_data(data)


def system_from_data(data) -> GradedTripleSystem:
    if not isinstance(data, dict):
        raise InputError("top-level document must be an object")
    for key in ("group", "field", "dimension", "degrees", "triple"):
        if key not in data:
            raise InputError(f"missing required key {key!r}")

    group_desc = data["group"]
    if not isinstance(group_desc, dict) or "moduli" not in group_desc:
        raise InputError("group must be an object with a 'moduli' list")
    moduli = group_desc["moduli"]
    if not isinstance(moduli, list) or not all(is_int(m) for m in moduli):
        raise InputError("group moduli must be a list of integers")
    group = AbelianGroup(tuple(moduli))

    if not isinstance(data["field"], dict):
        raise InputError("field must be an object")
    field = field_from_descriptor(data["field"])

    n = data["dimension"]
    if not is_int(n) or n < 0:
        raise InputError("dimension must be a non-negative integer")

    degrees_raw = data["degrees"]
    if not isinstance(degrees_raw, list) or len(degrees_raw) != n:
        raise InputError(f"degrees must list exactly {n} coordinate vectors")
    degrees = []
    for coords in degrees_raw:
        if not isinstance(coords, list) or not all(is_int(c) for c in coords):
            raise InputError("each degree must be a list of integers")
        degrees.append(group.element(coords))

    triple_raw = data["triple"]
    if not isinstance(triple_raw, list):
        raise InputError("triple must be a list of records")
    products: dict[tuple[int, int, int], dict[int, object]] = {}
    for record in triple_raw:
        if not isinstance(record, dict) or "args" not in record or "out" not in record:
            raise InputError("each triple record needs 'args' and 'out'")
        args = record["args"]
        if (
            not isinstance(args, list)
            or len(args) != 3
            or not all(is_int(a) for a in args)
        ):
            raise InputError(f"args must be three integers, got {args!r}")
        if tuple(args) in products:
            raise InputError(f"duplicate triple record for args {args}")
        out = record["out"]
        if not isinstance(out, list):
            raise InputError("out must be a list")
        entry: dict[int, object] = {}
        for item in out:
            if not isinstance(item, dict) or "idx" not in item or "val" not in item:
                raise InputError("each output needs 'idx' and 'val'")
            l = item["idx"]
            if not is_int(l):
                raise InputError(f"output index must be an integer, got {l!r}")
            if l in entry:
                raise InputError(f"duplicate output index {l} for args {args}")
            val = item["val"]
            if not isinstance(val, str):
                raise InputError(f"scalar values must be strings, got {val!r}")
            entry[l] = field.element(val)
        products[tuple(args)] = entry
    return GradedTripleSystem(field, group, degrees, products)


def system_to_data(system: GradedTripleSystem) -> dict:
    """Canonical plain-data form of a system."""
    fmt = system.field.format
    triple = [
        {"args": list(key), "out": [{"idx": l, "val": fmt(entry[l])} for l in sorted(entry)]}
        for key, entry in system.nonzero_triples()
    ]
    return {
        "group": {"moduli": list(system.group.moduli)},
        "field": system.field.descriptor(),
        "dimension": system.dim,
        "degrees": [list(d.coords) for d in system.degrees],
        "triple": triple,
    }


def dumps_system(system: GradedTripleSystem) -> str:
    return json.dumps(system_to_data(system), indent=2) + "\n"


def dump_system(system: GradedTripleSystem, path) -> None:
    Path(path).write_text(dumps_system(system), encoding="utf-8")
