"""Command-line front end for the fracback library.

Subcommands
-----------
ml         evaluate E_{alpha,beta}(x), printed at 15 significant digits
forward    solve the forward problem at time t and write the field CSV
backward   reconstruct u(t) from final data and write the field CSV
table      run one benchmark error table (1, 2, or 3); write CSV + plot script
fig4       run the rate sweep, print the fitted C, write CSV + plot script
diagnose   print the solvability classification of the final data

Configuration comes from an optional JSON file (strict schema: unknown keys
are rejected) whose values are overridden by flags; with no file and no
flags the defaults reproduce the benchmark artifacts.  The output directory
is resolved as ``--out``, then the config file's ``out``, then the
``FRACBACK_OUT`` environment variable, then the current directory.

Exit codes are a stable contract: 0 success, 2 usage or domain error
(including parameter-choice failures), 3 I/O error, 4 numerical failure.
No subcommand reads the network, and rerunning any subcommand with the
same inputs produces byte-identical outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path
from typing import Sequence

from .errors import NONNEGATIVE, DomainError, NumericalError, check_int, check_real, check_type
from .experiments import (
    ErrorTable,
    ExperimentConfig,
    PaperProblem,
    emit_table,
    noise_audit,
    paper_problem,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
)
from .solver import forward_solve, solvability_diagnostic
from .special import ml
from .spectral import write_csv

__all__ = ["load_config", "main"]

_EXPERIMENT_KEYS = frozenset(f.name for f in dataclasses.fields(ExperimentConfig))
_CONFIG_KEYS = _EXPERIMENT_KEYS | {"out", "verbosity"}


def load_config(path: str | Path | None) -> tuple[ExperimentConfig, str | None, int]:
    """(ExperimentConfig, out or None, verbosity) from a strict JSON config file."""
    if path is None:
        return ExperimentConfig(), None, 0
    import json  # its only user: a request without --config never imports it
    check_type("config", "path", path, (str, os.PathLike))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"config: cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DomainError(f"config: {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"config: {path} must hold a JSON object")
    unknown = sorted(set(data) - _CONFIG_KEYS)
    if unknown:
        raise DomainError(f"config: unknown keys {unknown} in {path}")
    fields = {k: v for k, v in data.items() if k in _EXPERIMENT_KEYS}
    try:
        experiment = ExperimentConfig(**fields)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"config: {path}: {exc}") from exc
    out = data.get("out")
    if out is not None and not isinstance(out, str):
        raise DomainError(f"config: out must be a string, got {out!r}")
    verbosity = check_int("config", "verbosity", data.get("verbosity", 0), lo=0)
    return experiment, out, verbosity


def _settings(args: argparse.Namespace) -> tuple[ExperimentConfig, Path, int]:
    """Merge config file, flags, and environment into the effective settings."""
    ecfg, cfg_out, cfg_verbosity = load_config(args.config)
    if args.singular_mode is not None:  # ExperimentConfig checks the token
        ecfg = dataclasses.replace(ecfg, singular_mode=args.singular_mode)
    out = args.out or cfg_out or os.environ.get("FRACBACK_OUT") or "."
    return ecfg, Path(out), cfg_verbosity + args.verbose


def _ensure_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc


def _write_fields(out: Path, pp: PaperProblem, alpha: float, name: str, field) -> None:
    """Write u0.csv, g.csv (the exact final data) and <name>.csv, in that order."""
    _ensure_dir(out)
    for f, stem in ((pp.u0, "u0"), (pp.finals[alpha], "g"), (field, name)):
        path = out / f"{stem}.csv"
        write_csv(f, path)
        print(f"wrote {path}")


def _echo(verbosity: int, message: str) -> None:
    if verbosity >= 1:
        print(f"# {message}", file=sys.stderr)


def _single_alpha(args: argparse.Namespace) -> tuple[ExperimentConfig, Path, int, PaperProblem, float]:
    ecfg, out, verbosity = _settings(args)
    alpha = float(args.alpha)
    ecfg = dataclasses.replace(ecfg, alphas=(alpha,))
    _echo(verbosity, f"config: {ecfg}")
    return ecfg, out, verbosity, paper_problem(ecfg), alpha


def _cmd_ml(args: argparse.Namespace) -> int:
    value = ml(args.alpha, args.beta, args.x)
    print(f"{value:.15g}")
    return 0


def _cmd_forward(args: argparse.Namespace) -> int:
    ecfg, out, verbosity, pp, alpha = _single_alpha(args)
    prob, _ = pp.noisy(alpha, eps=args.eps)
    t = ecfg.tau if args.t is None else args.t
    _write_fields(out, pp, alpha, "forward", forward_solve(prob, pp.u0, t))
    return 0


def _cmd_backward(args: argparse.Namespace) -> int:
    ecfg, out, verbosity, pp, alpha = _single_alpha(args)
    eps = check_real("backward", "eps", args.eps, *NONNEGATIVE)
    delta = check_real("backward", "delta", args.delta, *NONNEGATIVE)
    eta = max(eps, delta)
    t = args.t
    if t is None:
        if eta == 0.0:
            raise DomainError(
                "backward: --t is required unless a noise level (--eps/--delta) "
                "selects it through the parameter-choice rule"
            )
        t = pp.paper_t(alpha, eta)
        _echo(verbosity, f"parameter choice: t = {t!r}")
    if verbosity >= 1 and eta > 0.0:
        audit = noise_audit(eta, pp.modeset, pp.quad)
        _echo(
            verbosity,
            f"noise audit: nominal={audit.nominal!r} "
            f"function_norm={audit.function_norm!r} "
            f"truncated_norm={audit.truncated_norm!r}",
        )
    field = pp.reconstruct(alpha, t, eps=eps, delta=delta)
    if t == 0.0:
        print("warning: unregularized inversion (t = 0)", file=sys.stderr)
    _write_fields(out, pp, alpha, "backward", field)
    return 0


_TABLE_RUNNERS = {1: run_table1, 2: run_table2, 3: run_table3}


def _emit_table(table: ErrorTable, out: Path) -> None:
    _ensure_dir(out)
    for path in emit_table(table, out):
        print(f"wrote {path}")
    print(f"sha256 {table.content_hash}")


def _cmd_table(args: argparse.Namespace) -> int:
    ecfg, out, verbosity = _settings(args)
    _echo(verbosity, f"config: {ecfg}")
    table = _TABLE_RUNNERS[args.id](ecfg, threads=args.threads)
    _emit_table(table, out)
    return 0


def _cmd_fig4(args: argparse.Namespace) -> int:
    ecfg, out, verbosity = _settings(args)
    _echo(verbosity, f"config: {ecfg}")
    table, C = run_fig4(ecfg, threads=args.threads)
    _emit_table(table, out)
    print(f"C = {C!r}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    ecfg, out, verbosity, pp, alpha = _single_alpha(args)
    report = solvability_diagnostic(*pp.noisy(alpha, delta=args.delta))
    print(f"classification: {report.classification}")
    sums = report.partial_sums
    quarters = sorted({max(len(sums) * k // 4, 1) for k in (1, 2, 3, 4)})
    for idx in quarters:
        print(f"S_{idx} = {sums[idx - 1]!r}")
    return 0


def _flag(*names: str, **spec) -> tuple[tuple[str, ...], dict]:
    """One add_argument call: its option strings and keyword arguments."""
    return names, spec


_COMMON = (
    _flag("--config", metavar="PATH", help="JSON config file (strict keys)"),
    _flag("--out", metavar="DIR",
          help="output directory (fallback: config file, $FRACBACK_OUT, '.')"),
    _flag("--singular-mode", metavar="MODE",
          help="quadrature treatment of the weakly singular kernel: paper or graded"),
    _flag("-v", "--verbose", action="count", default=0, help="diagnostics on stderr"),
)
_ALPHA = _flag("--alpha", type=float, default=0.8, help="fractional order (default 0.8)")
_EPS = _flag("--eps", type=float, default=0.0, help="source noise level")
_DELTA = _flag("--delta", type=float, default=0.0, help="data noise level")
_THREADS = _flag("--threads", type=int, default=1, help="worker cap (output-invariant)")

# subcommand -> (help, handler, flags), in the order of `fracback --help`
_COMMANDS = {
    "ml": ("evaluate E_{alpha,beta}(x)", _cmd_ml, (
        _flag("--alpha", type=float, required=True, help="order alpha in (0, 1]"),
        _flag("--beta", type=float, required=True, help="order beta > 0"),
        _flag("--x", type=float, required=True, help="argument x <= 0"),
    )),
    "forward": ("forward solution field at time t", _cmd_forward, (
        *_COMMON, _ALPHA, _flag("--t", type=float, help="time in [0, tau] (default tau)"), _EPS,
    )),
    "backward": ("backward reconstruction at time t", _cmd_backward, (
        *_COMMON, _ALPHA,
        _flag("--t", type=float, help="time in [0, tau]; omitted: chosen from the noise level"),
        _EPS, _DELTA,
    )),
    "table": ("run benchmark error table 1, 2, or 3", _cmd_table, (
        *_COMMON, _flag("--id", type=int, choices=(1, 2, 3), required=True), _THREADS,
    )),
    "fig4": ("rate sweep and fitted C", _cmd_fig4, (*_COMMON, _THREADS)),
    "diagnose": ("solvability classification of the data", _cmd_diagnose, (
        *_COMMON, _ALPHA, _DELTA,
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracback",
        description="Backward time-fractional heat conduction benchmark tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for names, spec in flags:
            p.add_argument(*names, **spec)
        p.set_defaults(handler=handler)
    return parser


# argparse reads a value such as -1e-3 or -inf as an option string, so
# "--x -1e-3" would fail with "expected one argument"; "--x=-1e-3" does not.
_FLOAT_FLAGS = frozenset(
    n for *_, flags in _COMMANDS.values() for names, spec in flags if spec.get("type") is float
    for n in names
)


def _join_float_values(argv: Sequence[str]) -> list[str]:
    """Join each float flag to a following token that float() accepts."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in _FLOAT_FLAGS:
            try:
                float(token)
            except ValueError:
                pass
            else:
                out[-1] += "=" + token
                continue
        out.append(token)
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(_join_float_values(sys.argv[1:] if argv is None else argv))
    try:
        return args.handler(args)
    except DomainError as exc:  # includes ParameterChoiceError
        print(f"fracback: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"fracback: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"fracback: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
