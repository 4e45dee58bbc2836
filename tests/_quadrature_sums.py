"""Quadrature values for the tests: fsum of w * f over the library's nodes.

The library exposes only node/weight generators; these helpers reduce
``w * f(point)`` over them with ``math.fsum`` in node order.
"""

from __future__ import annotations

import math

from fracback import QuadConfig, composite_nodes, singular_nodes


def integrate_1d(f, a: float, b: float, cfg: QuadConfig) -> float:
    """Composite-rule approximation of int_a^b f(x) dx."""
    pts, wts = composite_nodes(a, b, cfg)
    return math.fsum(w * f(float(x)) for x, w in zip(pts, wts))


def integrate_2d(
    f, box=((0.0, math.pi), (0.0, math.pi)), cfg: QuadConfig = QuadConfig()
) -> float:
    """Tensor-product composite rule for int f(x, y) over box."""
    (ax, bx), (ay, by) = box
    px, wx = composite_nodes(ax, bx, cfg)
    py, wy = composite_nodes(ay, by, cfg)
    return math.fsum(
        u * v * f(float(x), float(y))
        for x, u in zip(px, wx)
        for y, v in zip(py, wy)
    )


def integrate_singular(g, t: float, alpha: float, cfg: QuadConfig) -> float:
    """Approximation of int_0^t (t-s)^(alpha-1) g(s) ds per cfg.singular_mode."""
    pts, wts, _ = singular_nodes(t, alpha, cfg)
    return math.fsum(w * g(float(s)) for s, w in zip(pts, wts))
