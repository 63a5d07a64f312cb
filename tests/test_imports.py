"""Every name a kerrcat module imports is used in that module, and
importing kerrcat loads no module it only needs on some calls.

A stdlib ``ast`` scan: the names bound by ``import`` and ``from ... import``
statements (``from __future__`` excepted) must each be read somewhere in the
module, in code or in a quoted annotation. ``__init__.py`` is exempt: its
imports are the package's re-exports.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kerrcat

MODULES = sorted(p for p in Path(kerrcat.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def imported_names(tree: ast.AST) -> dict:
    """name -> line of every name bound by an import statement."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def used_names(tree: ast.AST) -> set:
    """Names read anywhere in the module, quoted annotations included."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        ann = getattr(node, "annotation", None) or getattr(node, "returns", None)
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            used |= used_names(ast.parse(ann.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nfrom math import pi, tau\n"
                     "def f(x: 'np.ndarray'):\n    return pi\n")
    assert set(imported_names(tree)) == {"np", "pi", "tau"}
    assert set(imported_names(tree)) - used_names(tree) == {"tau"}


def test_import_leaves_scipy_ndimage_unloaded():
    # count_transfer_lobes imports scipy.ndimage on first use: at module level
    # it added ~70 ms to every `import kerrcat`; so do fit_exponential and
    # rabi_frequency for scipy.optimize (~80 ms)
    env = {**os.environ, "PYTHONPATH": str(Path(kerrcat.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c",
                          "import sys, kerrcat; print(*(m in sys.modules for m in "
                          "('scipy.ndimage', 'scipy.optimize')))"],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False", "False"]
