"""Benchmark reproduction: problem setup, noise injection, error tables, fits.

The benchmark problem lives on (0, pi)^2 with

    u0(x, y) = sin(x) sin(y),
    f(x, y, s) = (2 - pi^2) sin(x) sin(y) e^(-pi^2 s),
    tau = 1, truncation 30x30,

and the final data g is produced by the forward solver itself.  Table 1
sweeps the reconstruction time t over 10^-2..10^-9 with exact data;
Tables 2 and 3 sweep source noise eps (and data noise delta = eps) over
10^-3..10^-9, picking t by the eta^(1/(2 alpha)) rule.  Noise follows the
constant recipe: f + eps/2, g + delta/2, added pointwise before
projection.  Errors are Parseval L2 distances to the projected u0 on the
truncated coefficient vector.

Everything here is deterministic: fixed reduction orders, shortest
round-trip decimal serialization, and a content hash over the emitted
CSV so repeated runs (any thread count) are byte-identical.
"""

from __future__ import annotations

import dataclasses
import math
import os
from collections.abc import Iterable
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (
    NONNEGATIVE,
    POSITIVE,
    UNIT,
    DomainError,
    NumericalError,
    check_enum,
    check_int,
    check_real,
    check_type,
    refuse,
)
from .quadrature import QuadConfig, SingularMode
from .solver import (
    ChoiceRule,
    RegularizationChoice,
    Source,
    Term,
    TimeFractionalProblem,
    backward_reconstruct,
    choose_t,
    final_value,
)
from .spectral import ModeSet, SpectralField, hp_norm, l2_error, project

__all__ = [
    "NoiseMode",
    "ExperimentConfig",
    "ErrorTable",
    "PaperProblem",
    "NoiseAudit",
    "paper_problem",
    "noisy_source",
    "noisy_data",
    "noise_audit",
    "run_table1",
    "run_table2",
    "run_table3",
    "run_fig4",
    "fit_rate",
    "emit_table",
]

_PI2 = math.pi * math.pi


class NoiseMode(str, Enum):
    """Noise recipes: the constant shift of the benchmark, or seeded random."""

    PAPER_CONSTANT = "paper_constant"
    SEEDED_RANDOM = "seeded_random"


def _reals(name: str, vs, ok, want: str) -> tuple[float, ...]:
    """An ExperimentConfig sequence as floats, each checked by check_real."""
    if isinstance(vs, (str, bytes, Mapping)) or not isinstance(vs, Iterable):
        raise DomainError(f"ExperimentConfig: {name} must be a sequence, got {vs!r}")
    return tuple(check_real("ExperimentConfig", name, v, ok, want) for v in vs)


@dataclass(frozen=True)
class ExperimentConfig:
    """Benchmark configuration.

    The printed reference tables were made with a 6-point Gauss rule:
    ``ExperimentConfig(points=6)`` reproduces them, apart from 43 printed
    entries that are not the error of this method (see tests/conftest.py).
    The defaults use 4 points and differ from the printed values by 2-6 %
    at alpha <= 0.4.
    """

    alphas: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    tau: float = 1.0
    truncation: int = 30
    subintervals: int = 4
    points: int = 4
    temporal_subintervals: int = 4
    sweep: tuple[float, ...] | None = None
    noise_mode: NoiseMode = NoiseMode.PAPER_CONSTANT
    seed: int = 0
    singular_mode: SingularMode = SingularMode.PAPER_DIRECT

    def __post_init__(self) -> None:
        object.__setattr__(self, "alphas", _reals("alphas", self.alphas, *UNIT))
        if not self.alphas:
            raise DomainError("ExperimentConfig: alphas must be non-empty")
        if len(set(self.alphas)) != len(self.alphas):
            raise DomainError(f"ExperimentConfig: alphas must be distinct, got {self.alphas}")
        check_real("ExperimentConfig", "tau", self.tau, *POSITIVE)
        for name in ("truncation", "temporal_subintervals"):
            check_int("ExperimentConfig", name, getattr(self, name))
        if self.sweep is not None:
            # the only check of a table's levels, made before any table run
            object.__setattr__(self, "sweep", _reals("sweep", self.sweep, *POSITIVE))
            if not self.sweep:
                raise DomainError("ExperimentConfig: sweep must be non-empty or omitted")
            if any(b >= a for a, b in zip(self.sweep, self.sweep[1:])):
                raise DomainError(
                    f"ExperimentConfig: sweep must be strictly decreasing: {self.sweep}"
                )
        mode = check_enum("ExperimentConfig", "noise mode", NoiseMode, self.noise_mode)
        object.__setattr__(self, "noise_mode", mode)
        check_int("ExperimentConfig", "seed", self.seed, lo=0)
        # QuadConfig checks points, subintervals and the singular mode
        object.__setattr__(self, "singular_mode", self.quad_config().singular_mode)

    def quad_config(self) -> QuadConfig:
        return QuadConfig(self.points, self.subintervals, self.singular_mode)


@dataclass(frozen=True)
class ErrorTable:
    """A table's errors: one row per level of its config, one column per alpha."""

    table_id: str
    config: ExperimentConfig
    rows: tuple[tuple[float, ...], ...]
    content_hash: str = field(init=False)  # sha256 of to_csv()

    def __post_init__(self) -> None:
        check_type("ErrorTable", "config", self.config, ExperimentConfig)
        if self.table_id not in _TABLES:
            raise DomainError(f"ErrorTable: unknown id {self.table_id!r}")
        if len(self.rows) != len(self.levels):
            raise DomainError("ErrorTable: one row per level required")
        for row in self.rows:
            if len(row) != len(self.alphas):
                raise DomainError("ErrorTable: one error per alpha required")
            for v in row:
                check_real("ErrorTable", "error", v, *NONNEGATIVE)
        try:  # CPython's own sha256: ~0.02 MB, where hashlib loads OpenSSL (~3.5 MB resident)
            from _sha2 import sha256  # 3.12+
        except ImportError:
            try:
                from _sha256 import sha256  # 3.10-3.11
            except ImportError:
                from hashlib import sha256
        digest = sha256(self.to_csv().encode("utf-8")).hexdigest()
        object.__setattr__(self, "content_hash", digest)

    @property
    def levels(self) -> tuple[float, ...]:
        """The config's sweep, or the table's default levels (descending)."""
        return _levels(self.table_id, self.config)

    @property
    def alphas(self) -> tuple[float, ...]:
        return self.config.alphas

    def column(self, alpha: float) -> tuple[float, ...]:
        try:
            j = self.alphas.index(alpha)
        except ValueError:
            raise DomainError(f"ErrorTable: no column for alpha={alpha}") from None
        return tuple(row[j] for row in self.rows)

    def to_csv(self) -> str:
        header = "level," + ",".join(f"alpha_{a!r}" for a in self.alphas)
        lines = [header]
        for level, row in zip(self.levels, self.rows):
            lines.append(",".join([repr(level)] + [repr(v) for v in row]))
        return "\n".join(lines) + "\n"


@dataclass(frozen=True, eq=False)
class PaperProblem:
    """The benchmark problem per alpha: template, u0, and final data g."""

    config: ExperimentConfig
    modeset: ModeSet
    quad: QuadConfig
    u0: SpectralField
    problems: Mapping[float, TimeFractionalProblem]
    finals: Mapping[float, SpectralField]

    def paper_t(self, alpha: float, eta: float) -> float:
        """The paper's regularization time for noise level eta: t^alpha = eta^(1/2)."""
        choice = RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=eta)
        return choose_t(choice, alpha, tau=self.config.tau)

    def noisy(
        self, alpha: float, eps: float = 0.0, delta: float = 0.0
    ) -> tuple[TimeFractionalProblem, SpectralField]:
        """The alpha problem with f noised at eps, and g noised at delta, by
        the config's noise recipe; eps = delta = 0 leaves both exact."""
        if alpha not in self.problems:
            raise DomainError(f"PaperProblem: no problem for alpha={alpha}")
        cfg = self.config
        prob = self.problems[alpha]
        g = noisy_data(self.finals[alpha], delta, self.quad, mode=cfg.noise_mode, seed=cfg.seed)
        source = noisy_source(prob.source, eps, self.modeset, mode=cfg.noise_mode, seed=cfg.seed)
        return dataclasses.replace(prob, source=source), g

    def reconstruct(
        self, alpha: float, t: float, eps: float = 0.0, delta: float = 0.0
    ) -> SpectralField:
        """u(t) from the data of :meth:`noisy`."""
        return backward_reconstruct(*self.noisy(alpha, eps, delta), t)


def _one(x: float) -> float:
    return 1.0  # the noise shift's constant, as (_one,) * d per-axis factors


def paper_problem(cfg: ExperimentConfig = ExperimentConfig()) -> PaperProblem:
    """Construct u0, the per-alpha problems, and g = forward value at tau."""
    check_type("paper_problem", "cfg", cfg, ExperimentConfig)
    ms = ModeSet(dimension=2, truncation=cfg.truncation)
    quad = cfg.quad_config()
    u0 = project((math.sin, math.sin), ms, quad)  # sin x sin y as per-axis factors
    # f = (2 - pi^2) e^(-pi^2 s) u0: one source shared by every alpha
    source = Source(Term(u0.coeffs, lambda s: (2.0 - _PI2) * math.exp(-_PI2 * s)))
    problems = {}
    finals = {}
    for a in cfg.alphas:
        prob = TimeFractionalProblem(
            alpha=a,
            tau=cfg.tau,
            modeset=ms,
            source=source,
            quad=quad,
            temporal_subintervals=cfg.temporal_subintervals,
        )
        problems[a] = prob
        finals[a] = final_value(prob, u0)
    return PaperProblem(cfg, ms, quad, u0, problems, finals)


def _seeded_coeffs(size: int, level: float, seed: int, stream: int) -> np.ndarray:
    rng = np.random.default_rng([seed, stream])
    r = rng.uniform(-1.0, 1.0, size)
    norm = float(np.sqrt(np.sum(r * r)))
    return r * (level / norm)


def noisy_source(
    source: Source,
    eps: float,
    modeset: ModeSet,
    mode: NoiseMode = NoiseMode.PAPER_CONSTANT,
    seed: int = 0,
) -> Source:
    """Source perturbed at level eps: constant +eps/2, or seeded random.

    The constant recipe adds eps/2 pointwise before projection; the random
    recipe adds a time-independent coefficient vector with L2 norm exactly
    eps (so the L-infinity-in-time L2 noise bound holds with equality).
    """
    check_type("noisy_source", "source", source, Source)
    check_type("noisy_source", "modeset", modeset, ModeSet)
    check_real("noisy_source", "eps", eps, *NONNEGATIVE)
    mode = check_enum("noisy_source", "noise mode", NoiseMode, mode)
    check_int("noisy_source", "seed", seed, lo=0)
    if eps == 0.0:
        return source
    if mode is NoiseMode.PAPER_CONSTANT:
        noise = Term((_one,) * modeset.dimension, lambda s, _e=float(eps): _e / 2.0)
    else:
        noise = Term(_seeded_coeffs(modeset.size, float(eps), seed, 0), lambda s: 1.0)
    return Source(*source.terms, noise)


def noisy_data(
    g: SpectralField,
    delta: float,
    quad: QuadConfig,
    mode: NoiseMode = NoiseMode.PAPER_CONSTANT,
    seed: int = 0,
) -> SpectralField:
    """Final data perturbed at level delta (constant +delta/2, or random)."""
    check_type("noisy_data", "g", g, SpectralField)
    check_type("noisy_data", "quad", quad, QuadConfig)
    check_real("noisy_data", "delta", delta, *NONNEGATIVE)
    mode = check_enum("noisy_data", "noise mode", NoiseMode, mode)
    check_int("noisy_data", "seed", seed, lo=0)
    if delta == 0.0:
        return g
    if mode is NoiseMode.PAPER_CONSTANT:
        ones = project((_one,) * g.modeset.dimension, g.modeset, quad)
        with np.errstate(over="ignore"):  # checked next
            coeffs = g.coeffs + (delta / 2.0) * ones.coeffs
        refuse("noisy_data: the shifted data is not finite", ~np.isfinite(coeffs), g.modeset)
        return SpectralField(g.modeset, coeffs)
    shift = _seeded_coeffs(g.modeset.size, float(delta), seed, 1)
    return SpectralField(g.modeset, g.coeffs + shift)


@dataclass(frozen=True)
class NoiseAudit:
    """Nominal level vs the norms the constant recipe actually produces."""

    nominal: float
    function_norm: float  # (level/2) * ||1||_{L2((0,pi)^d)} = (level/2) * pi^(d/2)
    truncated_norm: float  # Parseval norm of the projected shift


def noise_audit(level: float, modeset: ModeSet, quad: QuadConfig) -> NoiseAudit:
    """Report how far the +level/2 constant shift exceeds the nominal bound."""
    check_real("noise_audit", "level", level, *NONNEGATIVE)
    d = check_type("noise_audit", "modeset", modeset, ModeSet).dimension
    check_type("noise_audit", "quad", quad, QuadConfig)
    ones = hp_norm(project((_one,) * d, modeset, quad), 0.0)
    norms = [(level / 2.0) * v for v in (math.pi ** (d / 2), ones)]
    if not all(map(math.isfinite, norms)):
        raise NumericalError(f"noise_audit: the norms of level={level!r} overflow")
    return NoiseAudit(float(level), *norms)


_TIMES = tuple(10.0 ** -(i + 1) for i in range(1, 9))
_ETAS = tuple(10.0 ** -(i + 2) for i in range(1, 8))
# table id -> (default levels, the field at one level for one alpha).  A level is
# the time t in table 1 and the noise level e, with t by the paper rule, in
# tables 2 (source noise only) and 3 (source and data noise); the rate figure
# plots table 3.
_TABLES = {
    "table1": (_TIMES, lambda pp, a, t: pp.reconstruct(a, t)),
    "table2": (_ETAS, lambda pp, a, e: pp.reconstruct(a, pp.paper_t(a, e), eps=e)),
    "table3": (_ETAS, lambda pp, a, e: pp.reconstruct(a, pp.paper_t(a, e), eps=e, delta=e)),
}
_TABLES["fig4"] = _TABLES["table3"]


def _levels(table_id: str, cfg: ExperimentConfig) -> tuple[float, ...]:
    return check_type(f"run_{table_id}", "cfg", cfg, ExperimentConfig).sweep or _TABLES[table_id][0]


def _run_table(table_id: str, cfg: ExperimentConfig, threads: int) -> ErrorTable:
    """The table's error at every (level, alpha); one alpha column per worker."""
    check_int(f"run_{table_id}", "threads", threads)
    levels, request = _levels(table_id, cfg), _TABLES[table_id][1]
    pp = paper_problem(cfg)

    def column(alpha: float) -> list[float]:
        return [l2_error(request(pp, alpha, level), pp.u0) for level in levels]

    if threads == 1 or len(cfg.alphas) == 1:
        cols = [column(a) for a in cfg.alphas]
    else:
        from concurrent.futures import ThreadPoolExecutor  # ~0.7 MB resident

        with ThreadPoolExecutor(max_workers=threads) as pool:
            cols = list(pool.map(column, cfg.alphas))
    return ErrorTable(table_id, cfg, tuple(zip(*cols)))


def run_table1(cfg: ExperimentConfig = ExperimentConfig(), threads: int = 1) -> ErrorTable:
    """Exact-data reconstruction errors over t = 10^-2 .. 10^-9."""
    return _run_table("table1", cfg, threads)


def run_table2(cfg: ExperimentConfig = ExperimentConfig(), threads: int = 1) -> ErrorTable:
    """Source-noise errors (eps only) at t_eps = eps^(1/(2 alpha))."""
    return _run_table("table2", cfg, threads)


def run_table3(cfg: ExperimentConfig = ExperimentConfig(), threads: int = 1) -> ErrorTable:
    """Source-and-data-noise errors (delta = eps = eta) at t_eta."""
    return _run_table("table3", cfg, threads)


def fit_rate(table: ErrorTable, last: int | None = None) -> dict[float, float]:
    """{alpha: least-squares slope of log10(error) on log10(level)} over the ``last`` rows."""
    if len(check_type("fit_rate", "table", table, ErrorTable).levels) < 3:
        raise DomainError("fit_rate: need at least 3 rows")
    if last is not None:
        last = check_int("fit_rate", "last", last, lo=2, hi=len(table.levels))
    rows = slice(None if last is None else -last, None)
    log_levels = np.log10(np.array(table.levels)[rows])
    out = {}
    for a in table.alphas:
        col = np.array(table.column(a))[rows]
        if np.any(col <= 0.0):
            raise NumericalError(
                f"fit_rate: non-positive error in alpha={a} column; power-law fit undefined"
            )
        out[a] = float(np.polyfit(log_levels, np.log10(col), 1)[0])
    return out


def run_fig4(
    cfg: ExperimentConfig = ExperimentConfig(), threads: int = 1
) -> tuple[ErrorTable, float]:
    """Table 3 as the rate figure, plus the C of its sqrt(level) fit."""
    if len(_levels("fig4", cfg)) < 3:
        # rejected here, not after a whole table run
        raise DomainError(f"run_fig4: the rate fit needs at least 3 levels, got sweep={cfg.sweep}")
    fig = _run_table("fig4", cfg, threads)
    return fig, _fig4_C(fig)


def _fig4_C(fig: ErrorTable) -> float:
    """Best C in error ~ C sqrt(level): alpha = 0.8 if run, else the last alpha."""
    col = np.array(fig.column(0.8 if 0.8 in fig.alphas else fig.alphas[-1]))
    levels = np.array(fig.levels)
    # levels are finite and > 0 (ExperimentConfig), so the sum is > 0
    return float(np.sum(col * np.sqrt(levels)) / np.sum(levels))


def emit_table(table: ErrorTable, out: str | Path) -> tuple[Path, Path]:
    """Write ``<id>.csv`` (LF, UTF-8, shortest round-trip floats) into the
    directory ``out``, and beside it the standalone gnuplot script ``<id>.gp``
    that plots it; return both paths.

    Tables render as log-log error curves per alpha; fig4 additionally
    overlays the fitted C*sqrt(eta) reference line.
    """
    check_type("emit_table", "table", table, ErrorTable)
    out = Path(check_type("emit_table", "out", out, (str, os.PathLike)))
    csv_path, gp_path = (out / f"{table.table_id}{ext}" for ext in (".csv", ".gp"))
    csv_ref = csv_path.name
    lines = [
        f"# gnuplot script for {table.table_id}; data: {csv_ref}",
        "set datafile separator ','",
        "set logscale xy",
        "set key top left",
        "set xlabel 'level'",
        "set ylabel 'L2 error'",
    ]
    curves = [
        f"'{csv_ref}' using 1:{j + 2} with linespoints title 'alpha={a!r}'"
        for j, a in enumerate(table.alphas)
    ]
    if table.table_id == "fig4":
        C = _fig4_C(table)
        lines.append(f"C = {C!r}")
        curves.append("C*sqrt(x) with lines dashtype 2 title sprintf('%.3g*sqrt(eta)', C)")
    lines.append("plot \\")
    lines.append(", \\\n".join("    " + c for c in curves))
    lines.append("pause -1")
    try:
        for path, text in ((csv_path, table.to_csv()), (gp_path, "\n".join(lines) + "\n")):
            path.write_text(text, encoding="utf-8", newline="\n")
    except OSError as exc:
        raise OSError(f"emit_table: cannot write {path}: {exc}") from exc
    return csv_path, gp_path
