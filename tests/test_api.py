"""Public-API guard: every exported name resolves, the package exports
exactly its submodules' ``__all__`` lists, every name the benchmark
imports or wraps still exists where it looks for it, and README's
library example runs."""

from __future__ import annotations

import ast
import importlib
import math
import re
from pathlib import Path

import fracback

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
TRACING = PERFBENCH / "tracing.py"
SUBMODULES = ("errors", "experiments", "quadrature", "solver", "special", "spectral")


def test_all_names_resolve():
    assert len(set(fracback.__all__)) == len(fracback.__all__)
    assert [n for n in fracback.__all__ if not hasattr(fracback, n)] == []


def test_package_exports_the_submodule_lists():
    names = [
        n for m in SUBMODULES for n in importlib.import_module(f"fracback.{m}").__all__
    ]
    assert len(set(names)) == len(names)  # no name is public in two modules
    assert sorted(fracback.__all__) == sorted(names + ["__version__"])


def test_benchmark_imports_resolve():
    # parsed, not imported: the benchmark modules are read, never run
    imported = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracback"):
                imported += [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                imported += [
                    (alias.name, None)
                    for alias in node.names
                    if alias.name.startswith("fracback")
                ]
    assert any(name for _, name in imported)
    for module, name in imported:
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), (module, name)


def test_traced_benchmark_targets_exist():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)
    )
    assert targets
    for module, name in targets:
        mod = importlib.import_module(f"fracback.{module}")
        assert callable(getattr(mod, name, None)), (module, name)


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    scope = {}
    exec(block, scope)
    assert math.isfinite(scope["err"])
    assert math.isfinite(scope["c11"])
