"""The package namespace: every export resolves, every import is exported,
and every export has a reader."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gevreylab
import gevreylab.eigen

ROOT = Path(__file__).resolve().parents[1]


def test_all_lists_exactly_the_public_imports():
    tree = ast.parse(Path(gevreylab.__file__).read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    # __all__ is derived from the namespace, so it must hold the public
    # imports and nothing else: no module, no standard-library name.
    exported = gevreylab.__all__
    assert exported == sorted({name for name in imported if not name.startswith("_")})
    assert [name for name in exported if not hasattr(gevreylab, name)] == []


def _referenced_names(path: Path) -> set[str]:
    """Names a module loads, reads as attributes, or imports; a def or
    class statement, or an assignment, is a definition, not a reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_every_export_has_a_reader():
    # A public name stays only while the package itself (beyond the
    # namespace), the acceptance gate or the benchmark reads it.
    package = Path(gevreylab.__file__).parent
    readers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    readers += [*(ROOT / "perfbench").rglob("*.py"),
                ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]
    read = set().union(*(_referenced_names(p) for p in readers))
    assert [name for name in gevreylab.__all__ if name not in read] == []


def _private_definitions(path: Path) -> set[str]:
    """Module-level private names a module defines, dunders aside."""
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_has_a_reader():
    # A helper that nothing in the package reads any more is dead code,
    # even when a test still imports it.
    modules = sorted(Path(gevreylab.__file__).parent.glob("*.py"))
    read = set().union(*(_referenced_names(p) for p in modules))
    unread = [(p.name, name) for p in modules for name in sorted(_private_definitions(p))
              if name not in read]
    assert unread == []


def test_no_eigen_function_takes_a_pair_and_its_operator():
    # An eigenpair carries its operator and its window, so a function
    # handed both could be handed a pair and an operator that disagree.
    both = [name for name, fn in inspect.getmembers(gevreylab.eigen, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == "gevreylab.eigen"
            and {"pair", "params"} <= set(inspect.signature(fn).parameters)]
    assert both == []


def test_no_module_imports_scipy():
    # scipy is a test dependency only, so no import of it may sit even on
    # a path that no run reaches.
    package = Path(gevreylab.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names if name.split(".")[0] == "scipy"]
    assert found == []


def test_reports_import_no_package_module():
    # The byte writers know files, not numerics: the pipelines hand them
    # rows and dicts, so reports.py imports nothing of the package.
    path = Path(gevreylab.__file__).parent / "reports.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "gevreylab"]
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.split(".")[0] == "gevreylab"):
            found.append("." * node.level + (node.module or ""))
    assert found == []


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(gevreylab.__file__).parents[1]))
    code = "import sys, gevreylab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


#: Runs that load no scipy: the transform fit, the derivative stencils,
#: the Hermite-Galerkin solve, the finite-difference oracle, the default
#: grid's Beta value and the profile values are numpy or standard library
#: only.  The splitting ladder and the oracle are the library call chains
#: of the splitting and oracle benchmark jobs.
_RUNS = (
    "transform --order 2",
    "classify --order 2",
    "inequalities --p 1 --q 2",
    "inequalities --p 1 --q 3",
    "inequalities --p 3 --q 4",
    "eigen --p 2 --q 3",
    "counterexample --p 1 --q 2",
    "demo --pairs 2,3",
    "splitting ladder",
    "oracle 2,3",
)

_SPLITTING = """
import numpy as np
import gevreylab as gl
bump = gl.make_gevrey_bump(2.0)
cuts = [25.0 * 2.0 ** (j / 2.0) for j in range(7)]
highs = [gl.decompose(bump, lam, 0.5, tube_height=lam**-0.5).high_sup() for lam in cuts]
gl.fit_stretched_exponential(np.array(cuts), np.array(highs))
"""

_LIBRARY_RUNS = {
    "splitting ladder": _SPLITTING,
    "oracle 2,3": "import gevreylab as gl\ngl.reference_eigenvalues(gl.OperatorParams(2, 3))\n",
}


@pytest.mark.parametrize("run", _RUNS,
                         ids=lambda run: "-".join(w for w in run.split() if w[0] != "-"))
def test_runs_load_only_the_scipy_they_use(run, tmp_path):
    if run in _LIBRARY_RUNS:
        code = _LIBRARY_RUNS[run]
    else:
        argv = [*run.split(), "--out", str(tmp_path / "out")]
        code = f"from gevreylab.cli import main\nassert main({argv!r}) == 0\n"
    code += """
import sys
names = {m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}
print(sorted(n for n in names if not n.startswith('_')
             and hasattr(sys.modules['scipy.' + n], '__path__')))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(gevreylab.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    loaded = set(ast.literal_eval(out.stdout.strip().splitlines()[-1]))
    assert loaded == set()
