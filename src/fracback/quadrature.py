"""Composite Gauss-Legendre quadrature and the weakly singular time integral.

The public entry points are :class:`QuadConfig` (the tabulated
Gauss-Legendre rule with 2..8 points, a subinterval count and a singular
mode), :func:`composite_nodes` (the nodes and weights of the composite
rule with ``N`` equal subintervals), and :func:`singular_nodes` (nodes,
effective weights and (t-s)^alpha for ``int_0^t (t-s)^(alpha-1) g(s) ds``).
Callers reduce ``w * g(s)`` over the returned arrays themselves.  The
singular integral supports two modes: ``paper_direct`` applies the
composite rule to the full integrand (interior nodes never touch the
endpoint singularity, so the value is finite but carries an O(1)
low-order error component near s = t), while ``graded_substitution``
removes the singularity exactly via u = (t-s)^alpha and is the mode used
by verification paths.

Node and weight values are stored as 17-significant-digit literals so
results are bit-identical across platforms; the test suite validates them
against an independent root-finding computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import POSITIVE, UNIT, NumericalError, check_enum, check_int, check_real, check_type

__all__ = [
    "QuadConfig",
    "SingularMode",
    "composite_nodes",
    "singular_nodes",
]


# Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
# 17 significant digits (see module docstring).
_RULES: dict[int, tuple[tuple[float, ...], tuple[float, ...]]] = {
    2: (
        (-0.57735026918962576, 0.57735026918962576),
        (1.0, 1.0),
    ),
    3: (
        (-0.77459666924148338, 0.0, 0.77459666924148338),
        (0.55555555555555556, 0.88888888888888889, 0.55555555555555556),
    ),
    4: (
        (-0.86113631159405258, -0.33998104358485626,
         0.33998104358485626, 0.86113631159405258),
        (0.34785484513745386, 0.65214515486254614,
         0.65214515486254614, 0.34785484513745386),
    ),
    5: (
        (-0.90617984593866399, -0.53846931010568309, 0.0,
         0.53846931010568309, 0.90617984593866399),
        (0.23692688505618909, 0.47862867049936647, 0.56888888888888889,
         0.47862867049936647, 0.23692688505618909),
    ),
    6: (
        (-0.93246951420315203, -0.66120938646626451, -0.23861918608319691,
         0.23861918608319691, 0.66120938646626451, 0.93246951420315203),
        (0.17132449237917035, 0.36076157304813861, 0.46791393457269105,
         0.46791393457269105, 0.36076157304813861, 0.17132449237917035),
    ),
    7: (
        (-0.94910791234275852, -0.74153118559939444, -0.40584515137739717,
         0.0, 0.40584515137739717, 0.74153118559939444,
         0.94910791234275852),
        (0.12948496616886969, 0.27970539148927667, 0.38183005050511894,
         0.41795918367346939, 0.38183005050511894, 0.27970539148927667,
         0.12948496616886969),
    ),
    8: (
        (-0.96028985649753623, -0.79666647741362674, -0.52553240991632899,
         -0.1834346424956498, 0.1834346424956498, 0.52553240991632899,
         0.79666647741362674, 0.96028985649753623),
        (0.10122853629037626, 0.22238103445337447, 0.31370664587788729,
         0.36268378337836198, 0.36268378337836198, 0.31370664587788729,
         0.22238103445337447, 0.10122853629037626),
    ),
}


class SingularMode(str, Enum):
    """How singular_nodes treats the (t-s)^(alpha-1) kernel.  A member is
    found by its value or by the value's first word, ``paper`` or ``graded``."""

    PAPER_DIRECT = "paper_direct"
    GRADED_SUBSTITUTION = "graded_substitution"

    @classmethod
    def _missing_(cls, value):
        return next((m for m in cls if m.value.partition("_")[0] == value), None)


@dataclass(frozen=True)
class QuadConfig:
    """Composite-rule configuration: Gauss-Legendre point count (2..8),
    subinterval count, singular mode."""

    points: int = 4
    subintervals: int = 4
    singular_mode: SingularMode = SingularMode.PAPER_DIRECT

    def __post_init__(self) -> None:
        check_int("QuadConfig", "points", self.points, lo=2, hi=8)
        check_int("QuadConfig", "subintervals", self.subintervals)
        mode = check_enum("QuadConfig", "singular mode", SingularMode, self.singular_mode)
        object.__setattr__(self, "singular_mode", mode)


def composite_nodes(
    a: float, b: float, cfg: QuadConfig, subintervals: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Flattened nodes and weights of the composite rule on [a, b].

    The arrays are ordered subinterval-by-subinterval, left to right, so
    reductions over them are reproducible.  ``subintervals`` overrides
    ``cfg.subintervals`` when given (used by internally refined callers).
    """
    check_real("composite_nodes", "a", a, math.isfinite, "finite")
    check_real("composite_nodes", "b", b, lambda v: a <= v < math.inf and math.isfinite(v - a),
               f"finite, >= a={a} and with b - a finite")
    check_type("composite_nodes", "cfg", cfg, QuadConfig)
    nsub = cfg.subintervals if subintervals is None else subintervals
    check_int("composite_nodes", "subintervals", nsub)
    ref_x, ref_w = (np.asarray(v) for v in _RULES[cfg.points])
    edges = a + (b - a) * np.arange(nsub + 1) / nsub
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    pts = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    wts = (half[:, None] * ref_w[None, :]).ravel()
    return pts, wts


def singular_nodes(
    t: float, alpha: float, cfg: QuadConfig, subintervals: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s_i, effective weights w_i with sum_i w_i g(s_i) ~ the integral,
    and z_i = (t - s_i)^alpha.

    Folds the kernel (t-s)^(alpha-1) (paper_direct) or the grading
    substitution u = (t-s)^alpha (graded_substitution) into the weights so
    callers only evaluate the smooth factor g on the returned nodes.  In
    graded mode z is the node u itself: recomputing it from s would cancel
    near s = t, where u^(1/alpha) falls below the spacing of floats at t.
    """
    check_real("singular_nodes", "t", t, *POSITIVE)
    check_real("singular_nodes", "alpha", alpha, *UNIT)
    check_type("singular_nodes", "cfg", cfg, QuadConfig)
    if cfg.singular_mode is SingularMode.PAPER_DIRECT:
        pts, wts = composite_nodes(0.0, t, cfg, subintervals)
        d = t - pts
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked next
            wts = wts * d ** (alpha - 1.0)
        if not np.isfinite(wts).all():  # subnormal t: a node at s = t, or the power overflows
            raise NumericalError(f"singular_nodes: (t-s)^(alpha-1) is not finite at a node, t={t!r}")
        return pts, wts, d**alpha
    # graded: int_0^{t^alpha} g(t - u^(1/alpha)) du / alpha
    u, wu = composite_nodes(0.0, t**alpha, cfg, subintervals)
    return t - u ** (1.0 / alpha), wu / alpha, u
