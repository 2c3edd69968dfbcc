"""The package runs on numpy alone: no module of it loads a test dependency."""

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
