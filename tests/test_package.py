"""The package runs on numpy alone, and exports exactly the names its __init__ imports."""

import ast
import pkgutil
import subprocess
import sys
from pathlib import Path

import cairoreg

TEST_ONLY = ("scipy", "hypothesis", "pytest")


def test_modules_load_no_test_dependency():
    modules = [m.name for m in pkgutil.iter_modules(cairoreg.__path__, "cairoreg.")]
    assert "cairoreg.cli" in modules and "cairoreg.losses" in modules
    src = str(Path(cairoreg.__path__[0]).parent)
    code = (
        "import importlib, sys\n"
        f"sys.path.insert(0, {src!r})\n"
        f"for name in {modules!r}:\n"
        "    importlib.import_module(name)\n"
        f"print(sorted(name for name in {TEST_ONLY!r} if name in sys.modules))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    )
    assert run.stdout.strip() == "[]"


def test_all_lists_exactly_the_imported_public_names():
    tree = ast.parse(Path(cairoreg.__file__).read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    ]
    assert sorted(cairoreg.__all__) == sorted(n for n in imported if not n.startswith("_"))
    namespace: dict = {}
    exec("from cairoreg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(cairoreg.__all__)
