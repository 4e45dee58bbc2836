"""Quadrature tests: rule tables against an independent oracle, composite
integration examples with frozen true errors, and the singular modes."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from fracback import (
    DomainError,
    NumericalError,
    QuadConfig,
    SingularMode,
    composite_nodes,
    singular_nodes,
)
from _quadrature_sums import integrate_1d, integrate_2d, integrate_singular

GRADED = QuadConfig(singular_mode=SingularMode.GRADED_SUBSTITUTION)


def reference_rule(n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The n-point rule on [-1, 1], read back through one composite subinterval
    (midpoint 0, half-width 1, so every node and weight is the stored literal)."""
    pts, wts = composite_nodes(-1.0, 1.0, QuadConfig(points=n), subintervals=1)
    return tuple(pts.tolist()), tuple(wts.tolist())


class TestRuleTables:
    def test_four_point_literals(self):
        nodes, weights = reference_rule(4)
        assert nodes == (
            -0.86113631159405258,
            -0.33998104358485626,
            0.33998104358485626,
            0.86113631159405258,
        )
        assert weights == (
            0.34785484513745386,
            0.65214515486254614,
            0.65214515486254614,
            0.34785484513745386,
        )

    def test_two_point_rule(self):
        nodes, weights = reference_rule(2)
        assert abs(nodes[1] - 1.0 / math.sqrt(3.0)) <= 2e-16
        assert weights == (1.0, 1.0)

    def test_matches_independent_tables(self):
        # numpy's Gauss-Legendre tables are an independent derivation
        for n in range(2, 9):
            nodes, weights = reference_rule(n)
            ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
            assert np.allclose(nodes, ref_nodes, rtol=0.0, atol=5e-15)
            assert np.allclose(weights, ref_weights, rtol=0.0, atol=5e-15)

    def test_weights_sum_to_two(self):
        for n in range(2, 9):
            assert abs(math.fsum(reference_rule(n)[1]) - 2.0) <= 1e-14

    def test_exactness_to_degree_2n_minus_1(self):
        for n in range(2, 9):
            nodes, weights = reference_rule(n)
            for k in range(2 * n):
                got = math.fsum(w * x**k for x, w in zip(nodes, weights))
                want = 0.0 if k % 2 else 2.0 / (k + 1)
                assert abs(got - want) <= 1e-12, f"n={n} k={k}"

    def test_symmetry_and_ordering(self):
        for n in range(2, 9):
            nodes, weights = reference_rule(n)
            assert all(a < b for a, b in zip(nodes, nodes[1:]))
            assert all(abs(a + b) <= 1e-16 for a, b in zip(nodes, reversed(nodes)))
            assert all(w > 0 for w in weights)

    def test_out_of_range_rejected(self):
        for n in (1, 9, 0, -3):
            with pytest.raises(DomainError, match="points"):
                QuadConfig(points=n)
        with pytest.raises(DomainError):
            QuadConfig(points=4.0)
        with pytest.raises(DomainError):
            QuadConfig(points=True)


class TestQuadConfig:
    def test_defaults(self):
        cfg = QuadConfig()
        assert cfg.points == 4
        assert cfg.subintervals == 4
        assert cfg.singular_mode is SingularMode.PAPER_DIRECT

    def test_string_mode_coerced(self):
        cfg = QuadConfig(singular_mode="graded_substitution")
        assert cfg.singular_mode is SingularMode.GRADED_SUBSTITUTION

    def test_invalid_subintervals(self):
        with pytest.raises(DomainError):
            QuadConfig(subintervals=0)
        # a fractional count gave weights summing to 1.2, and NaN weights
        with pytest.raises(DomainError):
            QuadConfig(subintervals=2.5)
        with pytest.raises(DomainError):
            composite_nodes(0.0, 1.0, QuadConfig(), subintervals=2.5)
        with pytest.raises(DomainError):
            singular_nodes(1.0, 0.5, QuadConfig(), subintervals=2.5)


class TestCompositeNodes:
    def test_partition_of_interval(self):
        cfg = QuadConfig()
        pts, wts = composite_nodes(0.0, math.pi, cfg)
        assert len(pts) == 16
        assert np.all(np.diff(pts) > 0)
        assert np.all(wts > 0)
        assert abs(math.fsum(wts) - math.pi) <= 1e-14
        assert 0.0 < pts[0] and pts[-1] < math.pi

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            composite_nodes(1.0, 0.0, QuadConfig())

    def test_interval_length_past_the_double_range(self):
        # b - a = inf once gave NaN nodes and weights with two RuntimeWarnings
        with pytest.raises(DomainError, match="with b - a finite, got 1e"):
            composite_nodes(-1e308, 1e308, QuadConfig())

    @pytest.mark.parametrize(
        "a, b",
        [(0.0, 1.7e308), (0.9e308, 1.2e308), (-1.2e308, -0.9e308)],
        ids=["edge-product", "edge-sum", "negative-edge-sum"],
    )
    def test_nodes_past_the_double_range(self, a, b):
        # b - a is finite, but (b - a) * k, or the sum of two edges that gives a
        # midpoint, is not: these gave NaN or inf nodes with RuntimeWarnings
        want = re.escape(f"each node and weight must be finite on [{a!r}, {b!r}] in 4 subintervals")
        with pytest.raises(DomainError, match=want):
            composite_nodes(a, b, QuadConfig())


class TestIntegrate1D:
    def test_constant(self):
        assert abs(integrate_1d(lambda x: 1.0, 0.0, math.pi, QuadConfig()) - math.pi) <= 1e-15

    def test_sine_with_frozen_error(self):
        # True composite n=4, N=4 error on [0, pi]; frozen for reproducibility.
        err = integrate_1d(math.sin, 0.0, math.pi, QuadConfig()) - 2.0
        assert abs(err) <= 2e-10
        assert abs(err - (-1.6647838663175207e-10)) <= 1e-15

    def test_odd_power_exact(self):
        cfg = QuadConfig(subintervals=1)
        assert integrate_1d(lambda x: x**7, -1.0, 1.0, cfg) == 0.0

    def test_reversed_interval_rejected(self):
        with pytest.raises(DomainError):
            integrate_1d(math.sin, 1.0, 0.0, QuadConfig())

    def test_doubling_never_degrades(self):
        cases = [
            (math.sin, 0.0, math.pi, 2.0),
            (lambda x: math.exp(-x), 0.0, 1.0, 1.0 - math.exp(-1.0)),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
        ]
        for f, a, b, exact in cases:
            for n_sub in (1, 2, 4, 8):
                e1 = abs(integrate_1d(f, a, b, QuadConfig(subintervals=n_sub)) - exact)
                e2 = abs(integrate_1d(f, a, b, QuadConfig(subintervals=2 * n_sub)) - exact)
                assert e2 <= 1.01 * e1 + 1e-16


class TestIntegrate2D:
    def test_constant(self):
        got = integrate_2d(lambda x, y: 1.0)
        assert abs(got - math.pi**2) <= 1e-13

    def test_product_sine_with_frozen_error(self):
        err = integrate_2d(lambda x, y: math.sin(x) * math.sin(y)) - 4.0
        assert abs(err) <= 1e-9
        assert abs(err - (-6.659131024377984e-10)) <= 1e-15

    def test_squared_sine_exact(self):
        got = integrate_2d(lambda x, y: math.sin(x) ** 2 * math.sin(y) ** 2)
        assert got == math.pi**2 / 4.0

    def test_custom_box(self):
        got = integrate_2d(lambda x, y: x * y, box=((0.0, 1.0), (0.0, 2.0)))
        assert abs(got - 1.0) <= 1e-14


class TestIntegrateSingular:
    ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)

    def test_constant_graded_exact(self):
        for alpha in self.ALPHAS:
            for t in (1.0, 0.3, 1e-3):
                got = integrate_singular(lambda s: 1.0, t, alpha, GRADED)
                want = t**alpha / alpha
                assert abs(got - want) <= 1e-12 * want, (alpha, t)

    def test_constant_direct_deficit_recorded(self):
        # paper_direct underestimates the singular mass; frozen actual value.
        got = integrate_singular(lambda s: 1.0, 1.0, 0.5, QuadConfig())
        assert abs(got - 1.9031711798021662) <= 1e-14
        assert got < 2.0  # the deficit is one-sided

    def test_alpha_one_exponential(self):
        want = 1.0 - math.exp(-1.0)
        got = integrate_singular(lambda s: math.exp(-s), 1.0, 1.0, QuadConfig())
        assert abs(got - want) <= 1e-10

    def test_vanishing_interval(self):
        for alpha in (0.5, 1.0):
            got = integrate_singular(lambda s: 1.0, 1e-9, alpha, GRADED)
            limit = 1e-9**alpha / alpha
            assert 0.0 <= got <= limit * (1.0 + 1e-12)

    def test_nonpositive_t_rejected(self):
        for t in (0.0, -1.0):
            with pytest.raises(DomainError):
                integrate_singular(lambda s: 1.0, t, 0.5, QuadConfig())

    def test_subnormal_t_raises_in_direct_mode(self):
        # at t = 5e-324 a paper_direct node rounds to s = t, where (t-s)^(alpha-1)
        # is infinite, and at alpha = 0.01, t = 1e-310 the power overflows; the
        # graded weights hold no such factor.  A leaked RuntimeWarning fails here
        for t, alpha in ((5e-324, 0.8), (1e-310, 0.01)):
            with pytest.raises(NumericalError, match=f"t={t!r}"):
                singular_nodes(t, alpha, QuadConfig())
            assert np.isfinite(singular_nodes(t, alpha, GRADED)[1]).all()
        for alpha in (0.2, 0.5, 0.8):
            failed = 0
            for m in range(1, 78):
                try:
                    assert np.isfinite(singular_nodes(m * 5e-324, alpha, QuadConfig())[1]).all()
                except NumericalError:
                    failed += 1
            assert failed == 30, alpha
            assert np.isfinite(singular_nodes(1e-320, alpha, QuadConfig())[1]).all()

    def test_bad_alpha_rejected(self):
        for alpha in (0.0, 1.5):
            with pytest.raises(DomainError):
                integrate_singular(lambda s: 1.0, 1.0, alpha, QuadConfig())

    def test_mode_consistency_at_alpha_one(self):
        for g, t in ((math.cos, 1.0), (lambda s: math.exp(-s), 0.7)):
            direct = integrate_singular(g, t, 1.0, QuadConfig())
            graded = integrate_singular(g, t, 1.0, GRADED)
            assert abs(direct - graded) <= 1e-10

    def test_singular_nodes_structure(self):
        pts, wts, z = singular_nodes(1.0, 0.5, QuadConfig())
        assert len(pts) == 16
        assert np.all(pts < 1.0) and np.all(pts > 0.0)
        assert np.all(wts > 0)
        assert np.array_equal(z, (1.0 - pts) ** 0.5)
