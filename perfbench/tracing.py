"""Spans recorded from outside the program, around calls into each layer.

Every traced function is replaced at each module attribute of the
``fracback`` package that holds it (for example ``solver.ml_array`` as
well as ``special.ml_array``), so the callers' own lookups go through the
wrapper.  The wrappers call the original function with the same arguments
and return its result untouched; the correctness gates of the traced run
check that every output bit is unchanged.

Self time is a span's duration minus the time its child spans cover.  The
argument accounting done for ``ml_array`` runs after the span has ended and
is subtracted from the parent's self time as bookkeeping.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs wrapped in a traced run; the layer is the module.
TARGETS = (
    ("special", "ml_array"),
    ("quadrature", "singular_nodes"),
    ("quadrature", "composite_nodes"),
    ("spectral", "project"),
    ("spectral", "l2_error"),
    ("spectral", "write_csv"),
    ("solver", "forward_solve"),
    ("solver", "backward_reconstruct"),
    ("solver", "reconstruct_noisy"),
    ("experiments", "paper_problem"),
    ("experiments", "noisy_data"),
    ("experiments", "noisy_source"),
    ("cli", "main"),
)

ML = "special.ml_array"

# Magnitude bands on y = |x|^(1/alpha), fixed here and independent of the
# regime thresholds inside special.py.
BANDS = (("band_small", 4.0), ("band_mid", 40.0), ("band_large", float("inf")))

# The (alpha, beta) pairs every workload evaluates: E_{a,1} and E_{a,a}.
ALPHAS = (0.2, 0.4, 0.6, 0.8)
PAIRS = tuple((a, b) for a in ALPHAS for b in (1.0, a))


def pair_tag(alpha: float, beta: float) -> str:
    return f"a{alpha!r}_b{beta!r}"


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self.op = 0
        self.bookkeeping_s = 0.0
        self.enabled = True

    def call(self, name: str, fn, args, kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else None
        span = {
            "name": name,
            "op": self.op,
            "parent": parent["id"] if parent else -1,
            "id": len(self.spans),
            "child_s": 0.0,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            dur = span["end"] - span["start"]
            span["self_s"] = dur - span["child_s"]
        book = self._account_ml(span, args, kwargs) if name == ML else 0.0
        if parent is not None:
            parent["child_s"] += dur + book
        return result

    def _account_ml(self, span: dict, args, kwargs) -> float:
        import numpy as np

        t0 = time.perf_counter()
        bound = dict(zip(("alpha", "beta", "x"), args))
        bound.update(kwargs)
        x = np.asarray(bound["x"], dtype=np.float64).ravel()
        alpha, beta = float(bound["alpha"]), float(bound["beta"])
        y = np.abs(x) ** (1.0 / alpha)
        lo = 0.0
        bands = {}
        for band, hi in BANDS:
            bands[band] = int(np.count_nonzero((y >= lo) & (y < hi)))
            lo = hi
        span.update(
            alpha=alpha,
            beta=beta,
            args=int(x.size),
            unique=int(np.unique(x).size),
            bands=bands,
        )
        for anc in self._stack:
            anc["ml_args"] = anc.get("ml_args", 0) + int(x.size)
        book = time.perf_counter() - t0
        self.bookkeeping_s += book
        return book


def install(tracer: Tracer) -> list[str]:
    """Wrap every target at each ``fracback`` attribute holding it.

    Returns the targets that do not exist, so the report can say which
    layer went unmeasured.
    """
    import importlib

    missing = []
    for mod_name, fn_name in TARGETS:
        try:
            mod = importlib.import_module(f"fracback.{mod_name}")
            orig = getattr(mod, fn_name)
        except (ImportError, AttributeError):
            missing.append(f"{mod_name}.{fn_name}")
            continue
        name = f"{mod_name}.{fn_name}"

        @functools.wraps(orig)
        def wrapper(*args, _name=name, _orig=orig, **kwargs):
            return tracer.call(_name, _orig, args, kwargs)

        for key, module in list(sys.modules.items()):
            if key != "fracback" and not key.startswith("fracback."):
                continue
            for attr, val in list(vars(module).items()):
                if val is orig:
                    setattr(module, attr, wrapper)
    return missing


def _top_level(spans: list[dict], name: str) -> list[dict]:
    """Spans of ``name`` without an ancestor of the same name."""
    by_id = {s["id"]: s for s in spans}
    out = []
    for s in spans:
        if s["name"] != name:
            continue
        p = s["parent"]
        while p != -1 and by_id[p]["name"] != name:
            p = by_id[p]["parent"]
        if p == -1:
            out.append(s)
    return out


def layer_metrics(spans: list[dict], n_ops: int, op_wall_s: float) -> dict:
    """Per-layer metrics per operation from the spans of ``n_ops`` operations.

    ``op_wall_s`` is the summed wall time of those operations; it is the
    base of ``trace.coverage`` and of the per-module shares.
    """
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for s in spans:
        calls[s["name"]] += 1
        self_s[s["name"]] += s["self_s"]
    total_s = {
        name: sum(s["end"] - s["start"] for s in _top_level(spans, name))
        for name in calls
    }
    per = 1.0 / n_ops
    m: dict[str, float] = {}

    ml = [s for s in spans if s["name"] == ML]
    args = sum(s["args"] for s in ml)
    m["special.ml_array.calls"] = calls[ML] * per
    m["special.ml_array.args"] = args * per
    m["special.ml_array.self_s"] = self_s[ML] * per
    m["special.ml_array.us_per_arg"] = 1e6 * self_s[ML] / args if args else 0.0
    m["special.ml_array.unique_ratio"] = (
        sum(s["unique"] for s in ml) / args if args else 0.0
    )
    bands = defaultdict(int)
    for s in ml:
        for band, count in s["bands"].items():
            bands[(band, s["alpha"], s["beta"])] += count
    for alpha, beta in sorted(set(PAIRS) | {(a, b) for _, a, b in bands}):
        for band, _ in BANDS:
            key = f"special.ml_array.args.{band}.{pair_tag(alpha, beta)}"
            m[key] = bands.get((band, alpha, beta), 0) * per

    proj = "spectral.project"
    m[f"{proj}.calls"] = calls[proj] * per
    m[f"{proj}.self_s"] = self_s[proj] * per
    m[f"{proj}.ms_per_call"] = 1e3 * self_s[proj] / calls[proj] if calls[proj] else 0.0
    m["spectral.l2_error.self_s"] = self_s["spectral.l2_error"] * per
    for name in ("spectral.write_csv", "quadrature.singular_nodes", "quadrature.composite_nodes"):
        m[f"{name}.calls"] = calls[name] * per
        m[f"{name}.self_s"] = self_s[name] * per
    for fn in ("forward_solve", "backward_reconstruct", "reconstruct_noisy"):
        name = f"solver.{fn}"
        m[f"{name}.calls"] = calls[name] * per
        m[f"{name}.total_s"] = total_s.get(name, 0.0) * per
        m[f"{name}.self_s"] = self_s[name] * per
    br = [s for s in spans if s["name"] == "solver.backward_reconstruct"]
    m["solver.backward_reconstruct.ml_args_per_call"] = (
        sum(s.get("ml_args", 0) for s in br) / len(br) if br else 0.0
    )
    m["experiments.paper_problem.total_s"] = total_s.get("experiments.paper_problem", 0.0) * per
    m["experiments.noisy_data.calls"] = calls["experiments.noisy_data"] * per
    m["experiments.noisy_data.total_s"] = total_s.get("experiments.noisy_data", 0.0) * per
    m["experiments.noisy_source.total_s"] = total_s.get("experiments.noisy_source", 0.0) * per
    m["cli.main.total_s"] = total_s.get("cli.main", 0.0) * per
    m["trace.coverage"] = sum(self_s.values()) / op_wall_s
    return m


def module_shares(spans: list[dict], op_wall_s: float) -> dict[str, float]:
    """Self time of each layer (module) as a share of the operations' wall time."""
    shares: dict[str, float] = defaultdict(float)
    for s in spans:
        shares[s["name"].split(".")[0]] += s["self_s"] / op_wall_s
    return dict(shares)
