"""Every name a kerrcat module imports is used in that module, every public
function and class has a caller in the package, and importing kerrcat loads
no module it only needs on some calls.

Stdlib ``ast`` scans. The names bound by ``import`` and ``from ... import``
statements (``from __future__`` excepted) must each be read somewhere in the
module, in code or in a quoted annotation. A public top-level function or
class must be read in some module outside its own definition, unless
UNCALLED names the reason it is kept. ``__init__.py`` is exempt from both:
its imports are the package's re-exports, and a re-export is no caller.
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

# Public names with no caller in the package, each kept for a stated reason.
# An entry goes when its name gains a caller or is deleted.
ORACLE = "oracle: the tests check the program against it"
FOCK = "Fock primitive: the tests build states and oracles from it"
ACCEPTANCE = "acceptance tier: criteria C4 and C5 run under it"
GATE_TOMOGRAPHY = "ROADMAP item 2: the simulated X(pi/2) gate tomography calls it"
FILTER_PURCELL = "ROADMAP item 7: the filter-set Purcell rate calls it"
UNCALLED = {
    "phase_modulation_pulse": ORACLE,  # of effective_detuning
    "x_gate_transfer": ORACLE,  # of chevron_map; also a benchmark span
    "liouvillian_matrix": ORACLE,  # of the density-matrix route
    "creation": FOCK,
    "displacement": FOCK,
    "state_fidelity": FOCK,
    "parity_operator": FOCK,
    "standard_bath": ACCEPTANCE,
    "simulate_x_gate": GATE_TOMOGRAPHY,
    "bloch_vector": GATE_TOMOGRAPHY,
    "manifold_population": GATE_TOMOGRAPHY,
    "effective_kerr_params": FILTER_PURCELL,
    "squeezing_for_cat_size": FILTER_PURCELL,
    "dressed_mode_params": FILTER_PURCELL,
    "cqr_coupling": FILTER_PURCELL,
}
# Whole modules exempt: the benchmark in perfbench/ looks kernels.py up by
# name, and ROADMAP item 3, the next benchmark change, deletes it.
UNCALLED_MODULES = {"kernels": "ROADMAP item 3: the benchmark change deletes it"}


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


def public_defs(tree: ast.Module) -> set:
    """Names of the public top-level functions and classes of a module."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def called_names(tree: ast.Module) -> set:
    """Names a module reads, each top-level statement counting all it reads
    but the name it defines itself."""
    called = set()
    for node in tree.body:
        called |= used_names(node) - ({node.name} if isinstance(
            node, (ast.FunctionDef, ast.ClassDef)) else set())
    return called


def uncalled(trees: dict) -> dict:
    """name -> module of every public function and class that no module in
    trees (module stem -> tree) reads outside its own definition."""
    called = set().union(*(called_names(t) for t in trees.values()))
    return {name: stem for stem, tree in trees.items()
            for name in public_defs(tree) - called}


def test_every_public_name_has_a_caller():
    trees = {p.stem: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    found = uncalled(trees)
    unlisted = {name: stem for name, stem in found.items()
                if name not in UNCALLED and stem not in UNCALLED_MODULES}
    assert not unlisted, f"public names nothing in kerrcat calls: {unlisted}"
    stale = set(UNCALLED) - set(found)
    assert not stale, f"UNCALLED lists names that are called or gone: {stale}"
    assert set(UNCALLED_MODULES) <= set(trees)


def test_scan_flags_an_uncalled_name():
    trees = {"a": ast.parse("def f(n):\n    return f(n - 1) if n else g()\n"
                            "def g() -> 'C':\n    pass\n"
                            "class C:\n    def m(self) -> 'C':\n        return self\n"),
             "b": ast.parse("def _h():\n    return 1\n")}
    assert uncalled(trees) == {"f": "a"}
    trees["b"] = ast.parse("def _h():\n    return f(2)\n")
    assert uncalled(trees) == {}


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
