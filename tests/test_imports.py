"""No ``dreamrand`` module imports a name at module level that it never uses.
The only exceptions are the names the benchmark's probes rebind on a module
(the module-owned entries of ``SPAN_HOOKS`` in ``perfbench/tracing.py``),
which must stay bound there whether or not the module calls them. Importing
the package loads no third-party package but numpy."""
import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dreamrand
from test_bench_hooks import _load_tracing

SRC = Path(dreamrand.__file__).resolve().parent
PROBED = {
    (owner.__name__, attr)
    for owner, attr, _, _ in _load_tracing().SPAN_HOOKS
    if isinstance(owner, types.ModuleType)
}


def unused_imports(source):
    """The names that module-level imports in ``source`` bind and that no
    expression or ``__all__`` entry in it refers to."""
    tree = ast.parse(source)
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - exported)


def test_scan_finds_unused_import():
    source = "import os\nimport numpy as np\nfrom .a import b, c as d\n__all__ = ['b']\nnp.zeros(1)\n"
    assert unused_imports(source) == ["d", "os"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    module = f"dreamrand.{path.stem}"
    unused = [name for name in unused_imports(path.read_text()) if (module, name) not in PROBED]
    assert not unused, f"{module} imports {unused} and never uses them"


def test_import_loads_only_stdlib_and_numpy():
    # The benchmark's setup_s times a fresh interpreter importing the package,
    # and some allowed dependencies are slow to import (scipy.stats takes over
    # a second), so they belong inside the functions that use them.
    code = (
        "import importlib, pkgutil, sys\n"
        f"sys.path.insert(0, {str(SRC.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import dreamrand\n"
        "for m in pkgutil.iter_modules(dreamrand.__path__):\n"
        "    importlib.import_module('dreamrand.' + m.name)\n"
        "print(*sorted({name.split('.')[0] for name in set(sys.modules) - before}))\n"
    )
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.split()
    assert "numpy" in loaded
    assert set(loaded) - set(sys.stdlib_module_names) - {"dreamrand", "numpy"} == set()
