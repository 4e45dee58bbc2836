"""perfbench/run.py's correctness gates, checked against the library.

The benchmark fails an operation when a table's hash differs from its pin or
a CLI reconstruction differs, byte for byte, from the one it computes
through the library.  These tests load run.py by path (loading only
defines things; its process runner is built in ``main``) and apply the
same gates, so a library change that the benchmark would refuse fails here
first.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from fracback.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class _Paths:
    """Stands in for run.Runner: Reference only asks it for file paths."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.n = 0

    def path(self, stem: str) -> Path:
        self.n += 1
        return self.root / f"{self.n:04d}-{stem}"


@pytest.fixture
def run(monkeypatch):
    # sys.path is restored afterwards: perfbench/ (for run.py's
    # "import tracing") and src/, which Reference adds when it is missing
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    sys.modules.pop("tracing", None)


@pytest.mark.parametrize(
    "request_",
    [
        ("backward", "--alpha", "0.8", "--t", "1e-05"),
        ("backward", "--alpha", "0.8", "--eps", "1e-06", "--delta", "1e-06"),
    ],
    ids=["t", "noise"],
)
def test_cli_backward_matches_reference(run, request_, tmp_path):
    expected = run.Reference(_Paths(tmp_path)).expected(request_)
    out = tmp_path / "cli"
    assert main([*request_, "--out", str(out)]) == 0
    assert (out / "backward.csv").read_bytes() == expected


def test_pinned_hashes_match_the_tables(run, table1_run, table3_run):
    assert run.PINNED == {
        "table1": table1_run[0].content_hash,
        "table3": table3_run[0].content_hash,
    }
