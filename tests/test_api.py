"""Public-API guard: every exported name resolves, the package exports
exactly its submodules' ``__all__`` lists, every name the benchmark
imports or wraps still exists where it looks for it, README's library
example runs, and a wrong-typed argument is a DomainError."""

from __future__ import annotations

import ast
import importlib
import math
import re
from pathlib import Path

import numpy as np
import pytest

import fracback
from fracback import DomainError
from fracback.cli import load_config

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


_MS, _QUAD, _SRC = fracback.ModeSet(truncation=3), fracback.QuadConfig(), fracback.Source()
_FIELD = fracback.SpectralField(_MS, np.zeros(_MS.size))
_PROB = fracback.TimeFractionalProblem(0.5, 1.0, _MS, _SRC, _QUAD)
_SINES = (math.sin, math.sin)
X = "x"
# "x" in each object slot of each public entry point; never-written paths
WRONG_TYPE_CALLS = {
    "forward_solve.prob": lambda: fracback.forward_solve(X, _FIELD, 0.5),
    "forward_solve.u0": lambda: fracback.forward_solve(_PROB, X, 0.5),
    "final_value.prob": lambda: fracback.final_value(X, _FIELD),
    "final_value.u0": lambda: fracback.final_value(_PROB, X),
    "backward_reconstruct.prob": lambda: fracback.backward_reconstruct(X, _FIELD, 0.5),
    "backward_reconstruct.g": lambda: fracback.backward_reconstruct(_PROB, X, 0.5),
    "reconstruct_noisy.prob": lambda: fracback.reconstruct_noisy(X, _FIELD, _SRC, 0.5),
    "reconstruct_noisy.g": lambda: fracback.reconstruct_noisy(_PROB, X, _SRC, 0.5),
    "reconstruct_noisy.source": lambda: fracback.reconstruct_noisy(_PROB, _FIELD, X, 0.5),
    "solvability_diagnostic.prob": lambda: fracback.solvability_diagnostic(X, _FIELD),
    "solvability_diagnostic.g": lambda: fracback.solvability_diagnostic(_PROB, X),
    "choose_t.choice": lambda: fracback.choose_t(X, 0.5),
    "l2_error.a": lambda: fracback.l2_error(X, _FIELD),
    "l2_error.b": lambda: fracback.l2_error(_FIELD, X),
    "hp_norm.field": lambda: fracback.hp_norm(X, 0.0),
    "write_csv.field": lambda: fracback.write_csv(X, "never-written.csv"),
    "SpectralField.modeset": lambda: fracback.SpectralField(X, np.zeros(9)),
    "project.modeset": lambda: fracback.project(_SINES, X, _QUAD),
    "project.cfg": lambda: fracback.project(_SINES, _MS, X),
    "composite_nodes.cfg": lambda: fracback.composite_nodes(0.0, 1.0, X),
    "composite_nodes.cfg+subintervals": lambda: fracback.composite_nodes(0.0, 1.0, X, 2),
    "singular_nodes.cfg": lambda: fracback.singular_nodes(0.5, 0.5, X),
    "Source.term": lambda: fracback.Source(X),
    "TimeFractionalProblem.modeset": lambda: fracback.TimeFractionalProblem(0.5, 1.0, X, _SRC),
    "TimeFractionalProblem.source": lambda: fracback.TimeFractionalProblem(0.5, 1.0, _MS, X),
    "TimeFractionalProblem.quad": lambda: fracback.TimeFractionalProblem(0.5, 1.0, _MS, _SRC, X),
    "paper_problem.cfg": lambda: fracback.paper_problem(X),
    "noisy_source.source": lambda: fracback.noisy_source(X, 0.01, _MS),
    "noisy_source.modeset": lambda: fracback.noisy_source(_SRC, 0.01, X),
    "noisy_data.g": lambda: fracback.noisy_data(X, 0.01, _QUAD),
    "noisy_data.quad": lambda: fracback.noisy_data(_FIELD, 0.01, X),
    "noise_audit.modeset": lambda: fracback.noise_audit(0.01, X, _QUAD),
    "noise_audit.quad": lambda: fracback.noise_audit(0.01, _MS, X),
    "run_table1.cfg": lambda: fracback.run_table1(X),
    "run_table2.cfg": lambda: fracback.run_table2(X),
    "run_table3.cfg": lambda: fracback.run_table3(X),
    "run_fig4.cfg": lambda: fracback.run_fig4(X),
    "ErrorTable.config": lambda: fracback.ErrorTable("table1", X, ()),
    "fit_rate.table": lambda: fracback.fit_rate(X),
    # emit_table writes the CSV and the plot script that emit_csv and
    # emit_plot_script wrote before it; a str and a field in its table slot
    "emit_csv.table": lambda: fracback.emit_table(X, "never-written"),
    "emit_plot_script.table": lambda: fracback.emit_table(_FIELD, "never-written"),
    "load_config.path": lambda: load_config(5),  # a str is a path
}


@pytest.mark.parametrize("call", WRONG_TYPE_CALLS.values(), ids=WRONG_TYPE_CALLS.keys())
def test_wrong_typed_argument_is_a_domain_error(call):
    with pytest.raises(DomainError, match=r"must be a [\w ]+, got "):
        call()
