"""What a fresh interpreter loads: `import gradedlts` is lazy, the CLI stays lean.

Each check runs in its own interpreter, so the modules this test session
has already imported do not hide a load.  Modules the interpreter loads
before the package (such as those `site` pulls in) are not counted.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

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
        "    'echelon': gradedlts.linalg.Echelon.__qualname__,\n"
        "}))\n"
    )
    assert len(found["all"]) == 49
    assert found["unlisted"] == [] and found["bound"] == []
    assert found["starred"] == sorted(found["all"])
    assert found["echelon"] == "Echelon"


def test_prime_field_decompose_does_not_load_fractions(tmp_path):
    # the rational field lives in its own module; GF(p) never uses a Fraction
    from conftest import sl2_square
    from gradedlts import PrimeField, dumps_system

    path = tmp_path / "sl2x2_F7.json"
    path.write_text(dumps_system(sl2_square(PrimeField(7))), encoding="utf-8")
    code, loaded = fresh(
        "import contextlib, io, json, sys\n"
        "from gradedlts.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['decompose', {str(path)!r}])\n"
        "loaded = {'fractions', 'decimal', 'numbers'} & set(sys.modules)\n"
        "print(json.dumps([code, sorted(loaded)]))\n"
    )
    assert (code, loaded) == (0, [])
