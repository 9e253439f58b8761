"""Import hygiene: no unused module-level imports, no function-local
imports in the library, no scipy at run time, every library name the
benchmark's tracer wraps still resolves, and its kernel counter reads the
sizes of a real solve's operator.

The library modules and the test files are parsed with ``ast``; a name
bound by a top-level ``import`` counts as used when it appears as a name
anywhere in the module or is listed in the module's ``__all__``. The
package ``__init__`` is skipped: its imports are the public re-exports.
A library module imports only at its top level, where the unused-import
check can see every import.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted(p for p in (ROOT / "src" / "cvarsafe").glob("*.py")
                 if p.name != "__init__.py")
MODULES = LIBRARY + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    """Names bound by the module's top-level imports that it never uses."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


def local_imports(source: str):
    """Line numbers of the imports that are not at the module's top level."""
    tree = ast.parse(source)
    top = set(map(id, tree.body))
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and id(node) not in top)


def test_detects_unused_and_accepts_used():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport numpy as np\nfrom a import b, c as d\n"
              "__all__ = ['b']\nx = np.zeros(1)\n")
    assert unused_imports(source) == [(2, "os"), (4, "d")]


def test_detects_local_imports():
    source = ("import os\n"
              "def f():\n    from a import b\n    return b\n"
              "class C:\n    def g(self):\n        import c\n")
    assert local_imports(source) == [3, 7]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", LIBRARY, ids=lambda p: p.name)
def test_no_local_imports_in_library(path):
    assert local_imports(path.read_text()) == []


def test_package_imports_without_scipy():
    # A fresh interpreter, because this one has loaded scipy for the tests.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = "import sys, cvarsafe, cvarsafe.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def import_tracing():
    """The benchmark's tracer module, from ``perfbench/``."""
    sys.path[:0] = [p for p in (str(ROOT / "perfbench"),) if p not in sys.path]
    return importlib.import_module("tracing")


def test_traced_names_resolve():
    # Every name the benchmark's tracer times (TIMES), counts (_COUNTERS) or
    # wraps beyond __all__ (_EXTRA_FUNCTIONS, _EXTRA_METHODS) must be one it
    # wraps: a traced function that is renamed or deleted would read 0 in its
    # per-layer metric and fail nothing else.
    tracing = import_tracing()
    names = {n for fns in tracing.TIMES.values() for n in fns}
    names.update(tracing._COUNTERS)
    names.update(f"{layer}.{fn}" for layer, fns in tracing._EXTRA_FUNCTIONS.items()
                 for fn in fns)
    names.update(f"{layer}.{cls}.{m}"
                 for layer, (cls, methods) in tracing._EXTRA_METHODS.items()
                 for m in methods)
    assert len(names) >= 19
    for name in sorted(names):
        layer, *path = name.split(".")
        assert layer in tracing.LAYERS, name
        module = importlib.import_module(f"cvarsafe.{layer}")
        if len(path) == 1:  # a function: wrapped from __all__ or as an extra
            assert callable(getattr(module, path[0], None)), name
            assert (path[0] in module.__all__
                    or path[0] in tracing._EXTRA_FUNCTIONS.get(layer, ())), name
        else:  # a method, wrapped where its class defines it
            cls, method = path
            assert callable(vars(getattr(module, cls)).get(method)), name
    for layer in tracing.LAYERS:
        module = importlib.import_module(f"cvarsafe.{layer}")
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], layer


def test_traced_kernel_counts_read_the_operator_sizes():
    # The tracer's kernel counter unpacks the kernel's arguments by position
    # and reads n_u, the atom count and the slot count from their shapes: an
    # argument order that makes it misread one changes the benchmark's flop
    # count, so each Bellman step of a coarse solve must count 6k + 3 flops
    # per (node, z, action) with one merged atom of k slots.
    tracing = import_tracing()
    cvarsafe = importlib.import_module("cvarsafe")
    model = cvarsafe.make_stormwater_model()
    grid = cvarsafe.AugmentedGrid.uniform(model, (25, 25), 11, 11, 21)
    trans = cvarsafe.precompute_transitions(model, grid)
    n_x, n_z = grid.n_xnodes, grid.z_axis.size
    n_u, k = trans.cz_idx.shape[1], trans.corner_idx.shape[3]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cvarsafe.dp.value_iteration(0.5, model, grid, trans)
    finally:
        tracer.uninstall()
    kernels = [s for s in tracer.spans if s.name == "dp.sweep_kernel"]
    assert len(kernels) == model.horizon
    for span in kernels:
        assert span.work["dp.node_updates"] == n_x * n_z
        assert span.work["dp.kernel_flops_computed"] == n_x * n_z * n_u * (6 * k + 3)
