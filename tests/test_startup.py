"""What a fresh interpreter loads: `import gradedlts` is lazy, the CLI stays lean.

Each check runs in its own interpreter, so the modules this test session
has already imported do not hide a load.  Modules the interpreter loads
before the package (such as those `site` pulls in) are not counted.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def fresh(program: str):
    """Run `program` in a new interpreter with `src/` on the path; return its printed JSON."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", program], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def loaded_by(statement: str) -> list[str]:
    """The modules that `statement` adds to `sys.modules`."""
    return fresh(
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )


def test_import_gradedlts_loads_no_submodule():
    assert [m for m in loaded_by("import gradedlts") if m.startswith("gradedlts.")] == []


def test_cli_loads_neither_dataclasses_nor_fixtures():
    loaded = loaded_by("import gradedlts.cli")
    assert "gradedlts.cli" in loaded
    assert [m for m in ("dataclasses", "inspect", "gradedlts.fixtures") if m in loaded] == []


def test_load_system_loads_only_the_systemfile_chain():
    loaded = {m for m in loaded_by("from gradedlts import load_system") if m.startswith("gradedlts")}
    assert loaded == {
        "gradedlts", "gradedlts.errors", "gradedlts.groups", "gradedlts.identities",
        "gradedlts.linalg", "gradedlts.systemfile", "gradedlts.triples",
    }


def test_every_public_name_resolves_lazily():
    found = fresh(
        "import json, gradedlts\n"
        "listed = set(dir(gradedlts))\n"
        "names = list(gradedlts.__all__)\n"
        "namespace = {}\n"
        "exec('from gradedlts import *', namespace)\n"
        "print(json.dumps({\n"
        "    'all': names,\n"
        "    'unlisted': [n for n in names if n not in listed],\n"
        "    'starred': sorted(n for n in namespace if not n.startswith('__')),\n"
        "    'bound': [n for n in names if getattr(gradedlts, n) is not namespace[n]],\n"
        "    'subspace': gradedlts.linalg.Subspace.__qualname__,\n"
        "}))\n"
    )
    assert len(found["all"]) == 49
    assert found["unlisted"] == [] and found["bound"] == []
    assert found["starred"] == sorted(found["all"])
    assert found["subspace"] == "Subspace"


def decompose_loads(system, names, tmp_path):
    """Exit code of a fresh `decompose` of `system` and which of `names` it loaded."""
    from gradedlts import dumps_system

    path = tmp_path / "input.json"
    path.write_text(dumps_system(system), encoding="utf-8")
    return fresh(
        "import contextlib, io, json, sys\n"
        "from gradedlts.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['decompose', {str(path)!r}])\n"
        f"print(json.dumps([code, sorted(set({sorted(names)!r}) & set(sys.modules))]))\n"
    )


def test_prime_field_decompose_does_not_load_fractions(tmp_path):
    # the rational field lives in its own module; GF(p) never uses a Fraction
    from conftest import sl2_square
    from gradedlts import PrimeField

    numeric = {"fractions", "decimal", "numbers"}
    assert decompose_loads(sl2_square(PrimeField(7)), numeric, tmp_path) == [0, []]


@pytest.mark.parametrize("field", ["GF(7)", "Q"])
def test_decompose_loads_no_argument_parser_and_no_openssl(field, tmp_path):
    from conftest import sl2_square
    from gradedlts import PrimeField, RationalField

    system = sl2_square(PrimeField(7) if field == "GF(7)" else RationalField())
    heavy = {"argparse", "gettext", "locale", "hashlib", "_hashlib"}
    assert decompose_loads(system, heavy, tmp_path) == [0, []]


@pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")])
def test_input_digest_is_sha256_with_or_without_the_builtin_module(blocked, tmp_path):
    path = tmp_path / "input.json"
    path.write_bytes(bytes(range(256)) * 41)
    digest, fell_back = fresh(
        "import json, sys\n"
        f"for name in {blocked!r}:\n"
        "    sys.modules[name] = None\n"
        "from gradedlts import cli\n"
        f"digest = cli._input_section({str(path)!r})['sha256']\n"
        "print(json.dumps([digest, 'hashlib' in sys.modules]))\n"
    )
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert fell_back == bool(blocked)
