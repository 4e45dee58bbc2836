"""Public-API guard: every exported name resolves, and every function the
traced benchmark wraps still exists where it looks for it."""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import fracback

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_all_names_resolve():
    assert len(set(fracback.__all__)) == len(fracback.__all__)
    assert [n for n in fracback.__all__ if not hasattr(fracback, n)] == []


def test_traced_benchmark_targets_exist():
    # parsed, not imported: the benchmark module is read, never run
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
