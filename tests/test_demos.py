"""Demo smoke tests: the quick demos run to completion, and every name a
demo imports from ``ksgroup`` exists.

Demo 04 takes about 40 s, so it only gets the import check.
"""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
QUICK = ("01", "02", "03", "05")


def test_all_five_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", [p for p in DEMOS if p.name[:2] in QUICK], ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_resolve(demo):
    for node in ast.walk(ast.parse(demo.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ksgroup":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                # a name is an attribute of the module or one of its submodules
                assert hasattr(module, alias.name) or importlib.util.find_spec(name), name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "ksgroup":
                    importlib.import_module(alias.name)
