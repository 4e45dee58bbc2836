"""The test run itself: a failing property test is reported, and the run goes on."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

TWO_TESTS = textwrap.dedent(
    """
    from hypothesis import given, strategies as st

    @given(st.integers(0, 10))
    def test_fails(x):
        assert x < 5

    def test_plain():
        pass
    """
)


def test_failing_property_test_does_not_stop_the_run(tmp_path):
    # this repo's pytest settings and conftest, on a file of one failing
    # @given test and one plain test; everything the run writes (hypothesis'
    # patch file included) stays under tmp_path
    (tmp_path / "test_two.py").write_text(TWO_TESTS, encoding="utf-8")
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join([str(REPO / "tests"), str(REPO / "src")]),
        "TMPDIR": str(tmp_path),
    }
    argv = [
        sys.executable, "-m", "pytest", "-q", "-c", str(REPO / "pyproject.toml"),
        "--rootdir", str(tmp_path), "-p", "conftest", "-p", "no:cacheprovider", "test_two.py",
    ]
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out  # 3 is pytest's internal-error code
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
    assert "Falsifying example: test_fails(" in out
