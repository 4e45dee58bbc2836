"""Shared fixtures: printed benchmark values and one-time table runs.

The REF_* dictionaries freeze the error tables as printed for the
benchmark problem.  The expensive table runs are session-scoped so the
experiment and acceptance tests share them; each is timed for the
runtime criteria.  So are the mpmath Mittag-Leffler references that the
special-function and acceptance tests both check against.  Two sets of
runs exist: the default configuration, which every pin of this
implementation is taken on, and the 6-point configuration that the
fidelity criteria compare with the printed tables.
"""

from __future__ import annotations

import contextlib
import tempfile
import time
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from fracback import (
    ExperimentConfig,
    paper_problem,
    run_table1,
    run_table2,
    run_table3,
)

from _ml_reference import ml_ref

# Printed error values for the benchmark problem, one column per alpha,
# rows in the order of the default level sweeps (t = 1e-2 .. 1e-9 for
# table 1; eta = 1e-3 .. 1e-9 for tables 2 and 3).  They were made with a
# 6-point Gauss rule on 4 temporal subintervals: ExperimentConfig(points=6)
# reproduces every entry outside GROUP_B to within 0.32 % (table 1) and
# 0.07 % (tables 2 and 3).  The default 4-point rule does not: it is 2-6 %
# off at alpha <= 0.4 (-6.0 % at alpha = 0.2, t = 1e-2).
REF_T1 = {
    0.2: [2.3039, 1.9435, 1.4666, 1.0448, 7.1524e-1, 4.7622e-1, 3.1115e-1, 2.0078e-1],
    0.4: [1.8539, 9.1668e-1, 3.9416e-1, 1.6173e-1, 6.5167e-2, 2.6068e-2, 1.0398e-2, 4.1427e-3],
    0.6: [9.3104e-1, 2.6341e-1, 6.7753e-2, 1.7109e-2, 7.0172e-3, 1.8928e-3, 4.8508e-4, 1.2216e-4],
    0.8: [3.8800e-1, 7.1923e-2, 1.5789e-2, 2.8933e-3, 4.7172e-4, 7.0156e-5, 1.05642e-5, 1.60185e-6],
}
REF_T2 = {
    0.2: [3.8624e-1, 1.2858e-1, 4.1342e-2, 1.5766e-2, 6.0274e-3, 2.1209e-3, 6.9930e-4],
    0.4: [4.9101e-1, 1.6186e-1, 5.1862e-2, 2.1299e-2, 8.0740e-3, 2.7968e-3, 9.1513e-4],
    0.6: [5.0883e-1, 1.6842e-1, 5.3918e-2, 2.3100e-2, 8.6432e-3, 2.9553e-3, 9.6132e-4],
    0.8: [4.7844e-1, 1.6200e-1, 5.2174e-2, 2.3234e-2, 8.5687e-3, 2.8931e-3, 9.3612e-4],
}
REF_T3 = {
    0.2: [3.8253e-1, 1.2820e-1, 4.1301e-2, 1.5764e-2, 6.0271e-3, 2.1209e-3, 6.9930e-4],
    0.4: [4.8690e-1, 1.6142e-1, 5.1817e-2, 2.1297e-2, 8.0737e-3, 2.7968e-3, 9.1513e-4],
    0.6: [5.0410e-1, 1.6792e-1, 5.3867e-2, 2.3098e-2, 8.6428e-3, 2.9553e-3, 9.6132e-4],
    0.8: [4.7320e-1, 1.6147e-1, 5.2116e-2, 2.3234e-2, 8.5687e-3, 2.8931e-3, 9.3612e-4],
}

# Group B: the 43 printed entries that are not the error of this method on
# this problem.  The fidelity criteria check them against the direct-rule
# oracle of tests/_benchmark_oracle.py instead of the printed value, at the
# same tolerances.  The evidence:
# * With exact data only mode (1,1) carries error, and its closed form
#   (_benchmark_oracle.exact_error, which the graded rule with 16 temporal
#   subintervals matches to 1e-6) puts the printed values at 1.10-1.79x
#   the true error, with a ratio that is not monotone in t: 1.10, 1.51,
#   1.74, 1.79, 1.68, 1.59, 1.53 for alpha = 0.8, t = 1e-3 .. 1e-9.  A
#   direct rule scales its nodes with t and every Mittag-Leffler argument
#   here is <= 0.05, so its relative bias does not depend on t: no rule of
#   that kind gives such a ratio.  In a scan of 63 (points,
#   temporal_subintervals) pairs every rule stayed 9-44 % off these entries.
# * The printed tables contradict each other.  At alpha = 0.6, eta = 1e-6
#   the choice t_eta = eta^(1/(2 alpha)) is exactly 1e-5, so table 2 there
#   and table 1 at t = 1e-5 reconstruct at the same time and differ only by
#   a source noise of 1e-6.  Per mode, source noise moves the error by at
#   most what data noise does (|1 - r_n|/lambda_n <= r_n with
#   r_n = E_n(t)/E_n(tau) >= 1), and the printed tables 3 - 2 differ by
#   2e-6 there.  Yet the printed values are 1.7109e-2 (table 1) and
#   2.3100e-2 (table 2); this program gives 1.7109e-2 and 1.7112e-2.
GROUP_B = frozenset(
    [("table1", 0.6, t) for t in (1e-6, 1e-7, 1e-8, 1e-9)]
    + [("table1", 0.8, t) for t in (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9)]
    + [
        (table_id, alpha, eta)
        for table_id in ("table2", "table3")
        for alpha in (0.2, 0.4, 0.6, 0.8)
        for eta in (1e-6, 1e-7, 1e-8, 1e-9)
    ]
)

# One profile for every property test: reproducible examples, no example
# database written to disk, and no per-example deadline (a cold
# Mittag-Leffler fit can take a second).
settings.register_profile(
    "fracback", max_examples=30, derandomize=True, database=None, deadline=None
)
settings.load_profile("fracback")
# hypothesis also caches the literals of the test modules under its home
# directory, ./.hypothesis by default; keep that out of the work tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "fracback-hypothesis")
# On a failing property test hypothesis' pytest plugin imports its patch
# writer, whose libcst import raises a DeprecationWarning (from
# mypy_extensions) inside a plugin hook: under filterwarnings = ["error"]
# the run stopped there with INTERNALERROR, and no later test ran.  The
# writer is imported here once, with that warning ignored; the plugin goes
# without it when libcst is not installed.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def _timed_run(run, cfg):
    """(ErrorTable, wall seconds) for one single-threaded table run."""
    start = time.perf_counter()
    table = run(cfg, threads=1)
    return table, time.perf_counter() - start


@pytest.fixture(scope="session")
def ml_ref_triples() -> list[tuple[float, float, float, float]]:
    """200 (alpha, beta, x, reference E_{alpha,beta}(x)) drawn from seed
    20240817: |x| log-uniform on [1e-6, 1e5] at even draws, uniform on
    [0, 1e5] at odd ones."""
    rng = np.random.default_rng(20240817)
    triples = []
    for k in range(200):
        alpha = float(rng.uniform(0.05, 1.0))
        beta = float(rng.uniform(0.1, 3.8))
        if k % 2 == 0:
            x = -float(10.0 ** rng.uniform(-6.0, 5.0))
        else:
            x = -float(rng.uniform(0.0, 1e5))
        triples.append((alpha, beta, x, ml_ref(alpha, beta, x)))
    return triples


@pytest.fixture(scope="session")
def erfc_refs() -> tuple[np.ndarray, list[float]]:
    """(xs, E_{1/2,1}(xs)) at 121 points of [-30, 0], E_{1/2,1}(x) =
    e^{x^2} erfc(-x); the two factors overflow/underflow in doubles, so the
    product is formed in mpmath."""
    xs = np.linspace(-30.0, 0.0, 121)
    with mp.workdps(60):
        want = [float(mp.exp(mp.mpf(float(x)) ** 2) * mp.erfc(-mp.mpf(float(x)))) for x in xs]
    return xs, want


@pytest.fixture(scope="session")
def default_config() -> ExperimentConfig:
    return ExperimentConfig()


@pytest.fixture(scope="session")
def six_point_config() -> ExperimentConfig:
    """The discretization of the printed tables: 6 points x 4 subintervals."""
    return ExperimentConfig(points=6)


@pytest.fixture(scope="session")
def benchmark_problem(default_config):
    return paper_problem(default_config)


@pytest.fixture(scope="session")
def table1_run(default_config):
    """(ErrorTable, wall seconds) for the default table-1 sweep."""
    return _timed_run(run_table1, default_config)


@pytest.fixture(scope="session")
def table2_run(default_config):
    return _timed_run(run_table2, default_config)


@pytest.fixture(scope="session")
def table3_run(default_config):
    return _timed_run(run_table3, default_config)


@pytest.fixture(scope="session")
def table1_six_point_run(six_point_config):
    return _timed_run(run_table1, six_point_config)


@pytest.fixture(scope="session")
def table2_six_point_run(six_point_config):
    return _timed_run(run_table2, six_point_config)


@pytest.fixture(scope="session")
def table3_six_point_run(six_point_config):
    return _timed_run(run_table3, six_point_config)
