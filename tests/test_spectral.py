"""Spectral-basis tests: modes, projection, norms, CSV."""

from __future__ import annotations

import math
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import fracback.spectral as spectral
from fracback import (
    DomainError,
    ModeSet,
    NumericalError,
    QuadConfig,
    SpectralField,
    hp_norm,
    l2_error,
    project,
    write_csv,
)
from fracback.quadrature import composite_nodes
from _pins import check_pin
from _quadrature_sums import integrate_2d

MS2 = ModeSet(dimension=2, truncation=30)
MS1 = ModeSet(dimension=1, truncation=30)
CFG = QuadConfig()
ZERO2 = SpectralField(MS2, np.zeros(900))


def _phi(indices: tuple[int, int]):
    """Normalized eigenfunction (2/pi) sin(m x) sin(n y) of a 2-D mode."""
    m, n = indices
    return lambda x, y: (2.0 / math.pi) * math.sin(m * x) * math.sin(n * y)


def _one(x: float) -> float:
    return 1.0


def _decay(x: float) -> float:
    return math.exp(-x) * x


def _wave(x: float, y: float) -> float:
    return math.cos(x * y) + x * y * y


def _integrand(form: str, *factors):
    """The product of one-dimensional factors, as the tuple or pointwise."""
    if form == "factors":
        return factors
    return lambda *point: math.prod(g(v) for g, v in zip(factors, point))


FORMS = ("pointwise", "factors")


def _field_with(modeset: ModeSet, mode_indices: tuple, value: float) -> SpectralField:
    coeffs = np.zeros(modeset.size)
    coeffs[modeset.index_of(*mode_indices)] = value
    return SpectralField(modeset, coeffs)


class TestMode:
    def test_eigenvalues(self):
        ms2, ms1 = ModeSet(dimension=2, truncation=4), ModeSet(dimension=1, truncation=4)
        assert ms2.eigenvalues[ms2.index_of(1, 1)] == 2.0
        assert ms2.eigenvalues[ms2.index_of(2, 3)] == 13.0
        assert ms1.eigenvalues[ms1.index_of(4)] == 16.0

    def test_invalid_indices(self):
        sets = {1: ModeSet(dimension=1, truncation=4), 2: ModeSet(dimension=2, truncation=4)}
        for bad in ((0, 1), (-2,), (1, 2, 3), (), (1, 5)):
            with pytest.raises(DomainError):
                sets.get(len(bad), sets[2]).index_of(*bad)


class TestModeSet:
    def test_size_and_order(self):
        assert MS2.size == 900
        assert MS1.size == 30
        modes = MS2.modes
        assert modes[0] == (1, 1)
        assert modes[1] == (1, 2)
        assert modes[30] == (2, 1)
        assert modes[-1] == (30, 30)

    def test_no_duplicates(self):
        assert len(set(MS2.modes)) == 900

    def test_index_of_round_trip(self):
        for k in (0, 17, 450, 899):
            assert MS2.index_of(*MS2.modes[k]) == k

    def test_index_of_out_of_range(self):
        with pytest.raises(DomainError):
            MS2.index_of(31, 1)
        with pytest.raises(DomainError):
            MS2.index_of(5)

    def test_invalid_construction(self):
        with pytest.raises(DomainError):
            ModeSet(dimension=3, truncation=4)
        with pytest.raises(DomainError):
            ModeSet(dimension=2, truncation=0)

    def test_eigenvalue_vector_matches_modes(self):
        ev = MS2.eigenvalues
        assert ev.shape == (900,)
        for k in (0, 100, 899):
            assert ev[k] == sum(i * i for i in MS2.modes[k])


class TestSpectralField:
    def test_validates_length_and_finiteness(self):
        with pytest.raises(DomainError):
            SpectralField(MS2, np.zeros(3))
        bad = np.zeros(900)
        bad[5] = math.inf
        with pytest.raises(DomainError):
            SpectralField(MS2, bad)
        with pytest.raises(DomainError, match="SpectralField: coeffs must be real numbers"):
            SpectralField(ModeSet(2, 2), ["a"] * 4)

    def test_coeffs_read_only(self):
        f = SpectralField(MS2, np.zeros(900))
        with pytest.raises(ValueError):
            f.coeffs[0] = 1.0

    def test_coeff_lookup(self):
        f = _field_with(MS2, (3, 7), 2.5)
        assert f.coeff(3, 7) == 2.5
        assert f.coeff(7, 3) == 0.0


class TestProjection:
    def test_product_sine(self):
        for form in FORMS:
            f = project(_integrand(form, math.sin, math.sin), MS2, CFG)
            c11 = f.coeff(1, 1)
            assert abs(c11 - math.pi / 2.0) <= 1e-10, form
            rest = f.coeffs.copy()
            rest[MS2.index_of(1, 1)] = 0.0
            assert float(np.max(np.abs(rest))) <= 1e-10, form

    def test_constant(self):
        for form in FORMS:
            f = project(_integrand(form, _one, _one), MS2, CFG)
            for m in (1, 2, 3, 14, 29, 30):
                for n in (1, 2, 9, 30):
                    got = f.coeff(m, n)
                    if m % 2 == 1 and n % 2 == 1:
                        want = (2.0 / math.pi) * (2.0 / m) * (2.0 / n)
                    else:
                        want = 0.0
                    assert abs(got - want) <= 1e-10, (form, m, n)

    def test_zero(self):
        f = project(lambda x, y: 0.0, MS2, CFG)
        assert float(np.max(np.abs(f.coeffs))) == 0.0

    def test_d1_projection(self):
        for form in FORMS:
            f = project(_integrand(form, lambda x: math.sin(2.0 * x)), MS1, CFG)
            want = math.sqrt(math.pi / 2.0)
            assert abs(f.coeff(2) - want) <= 1e-10, form

    def test_nan_integrand_rejected(self):
        # an infinite node value is a breakdown like a NaN, not a bad coefficient
        for form in FORMS:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(NumericalError, match="integrand returned a non-finite value"):
                    project(_integrand(form, lambda x: bad, _one), MS2, CFG)
        # finite factors whose product overflows
        with pytest.raises(NumericalError, match="non-finite"):
            project((lambda x: 1e200, lambda x: 1e200), MS2, CFG)
        # finite node values whose inner products overflow: a DomainError on the
        # SpectralField once
        for form in FORMS:
            with pytest.raises(NumericalError, match=r"inner product overflowed for mode \(1,\)"):
                project(_integrand(form, lambda x: 1e308), MS1, CFG)

    def test_each_node_value_computed_once(self):
        # the integrand is built in column blocks, none of which may call a
        # factor again: d x n factor calls, n^d pointwise calls
        calls = {"x": 0, "y": 0, "xy": 0}

        def fx(x):
            calls["x"] += 1
            return math.sin(x)

        def fy(y):
            calls["y"] += 1
            return _decay(y)

        def fxy(x, y):
            calls["xy"] += 1
            return math.sin(x) * _decay(y)

        n = CFG.points * CFG.subintervals * MS2.truncation
        project((fx, fy), MS2, CFG)
        project(fxy, MS2, CFG)
        assert calls == {"x": n, "y": n, "xy": n * n}

    def test_blocks_sum_in_the_whole_grid_order(self):
        # reference: contract the whole n^d grid of node values; 3 points on
        # 11 subintervals make n = 33, one column past a block of 32
        cases = ((QuadConfig(points=3, subintervals=1), ModeSet(2, 11)), (CFG, MS2), (CFG, MS1))
        for cfg, ms in cases:
            d, m = ms.dimension, ms.truncation
            pts, wts = composite_nodes(0.0, math.pi, cfg, subintervals=cfg.subintervals * m)
            sw = np.sin(np.outer(np.arange(1.0, m + 1), pts)) * wts[None, :]
            factors = (math.cos, _decay)[:d]
            vals = reduce(np.multiply.outer, [np.array([g(x) for x in pts.tolist()]) for g in factors])
            for _ in range(d):
                vals = np.einsum("mi,i...->...m", sw, vals, optimize=False)
            want = ((2.0 / math.pi) ** (d / 2) * vals).ravel()
            assert project(factors, ms, cfg).coeffs.tobytes() == want.tobytes(), (cfg, ms)

    def test_projection_in_bounded_memory(self):
        # the 480 x 480 grid of node values alone was 1.8 MB
        spectral._project.cache_clear()
        tracemalloc.start()
        try:
            project((math.sin, math.sin), MS2, CFG)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_factors_give_the_bits_of_the_pointwise_product(self):
        def g(x):
            return math.exp(-x) * x

        cases = [
            ((math.sin, math.sin), lambda x, y: math.sin(x) * math.sin(y), MS2),
            ((_one, _one), lambda x, y: _one(x) * _one(y), MS2),
            ((g,), g, MS1),
        ]
        for factors, pointwise, ms in cases:
            got = project(factors, ms, CFG)
            assert got.coeffs.tobytes() == project(pointwise, ms, CFG).coeffs.tobytes()
            # the memo keys on the tuple's items: an equal tuple is a hit
            assert project(tuple(list(factors)), ms, CFG) is got

    def test_bad_factors_rejected(self):
        bad = (((math.sin,), MS2), ((math.sin, math.sin), MS1), ((math.sin, 2.0), MS2))
        for factors, ms in bad:
            with pytest.raises(DomainError, match="callable factors"):
                project(factors, ms, CFG)
        # unhashable or wrong arguments are rejected before the memo hashes them
        ms4 = ModeSet(dimension=2, truncation=4)
        for f, ms in ((np.ones(16), ms4), ((math.sin, [1]), ms4), (math.sin, "x")):
            with pytest.raises(DomainError):
                project(f, ms, CFG)

    # the integrands no table hash covers: 1-D pointwise, 1-D factors on a
    # 6-point 3-subinterval rule, and a non-separable 2-D pointwise f
    @pytest.mark.pin
    @pytest.mark.parametrize(("name", "f", "ms", "cfg"), [
        ("project.1d_pointwise", _decay, MS1, CFG),
        ("project.1d_factors", (_decay,), MS1, QuadConfig(6, 3)),
        ("project.2d_wave", _wave, MS2, CFG),
    ], ids=["1d_pointwise", "1d_factors", "2d_wave"])
    def test_frozen_projection_bytes(self, name, f, ms, cfg):
        check_pin(name, [project(f, ms, cfg).coeffs])

    def test_eigenfunction_projects_to_unit_vector(self):
        for indices in ((1, 1), (2, 3), (7, 30)):
            f = project(_phi(indices), MS2, CFG)
            want = np.zeros(MS2.size)
            want[MS2.index_of(*indices)] = 1.0
            assert float(np.max(np.abs(f.coeffs - want))) <= 1e-9, indices


class TestNorms:
    def test_unit_coefficient(self):
        f = _field_with(MS2, (5, 6), 1.0)
        assert l2_error(f, ZERO2) == 1.0

    def test_projected_sine_norm(self):
        f = project(lambda x, y: math.sin(x) * math.sin(y), MS2, CFG)
        assert abs(l2_error(f, ZERO2) - math.pi / 2.0) <= 1e-10

    def test_error_identities(self):
        f = project(lambda x, y: math.sin(x) * math.sin(y), MS2, CFG)
        assert l2_error(f, f) == 0.0
        g = SpectralField(MS2, np.zeros(900))
        assert abs(l2_error(f, g) - math.sqrt(np.sum(f.coeffs**2))) <= 1e-15

    def test_error_keeps_the_bits_of_python_squares(self):
        # Python's d ** 2 (libm pow) and numpy's d * d differ in the last bit
        # for ~1 in 1,200 doubles, and a short sum can carry that to the norm
        def reference(a, b):
            return math.sqrt(
                math.fsum((float(u) - float(v)) ** 2 for u, v in zip(a.coeffs, b.coeffs))
            )

        rng = np.random.default_rng(5)
        for _ in range(20):
            a, b = (SpectralField(MS2, rng.standard_normal(900)) for _ in range(2))
            assert l2_error(a, b) == reference(a, b)
        d = rng.standard_normal(200_000)
        odd = np.array([v for v in d.tolist() if v**2 != v * v])
        ms3 = ModeSet(dimension=1, truncation=3)
        zero3 = SpectralField(ms3, np.zeros(3))
        moved = 0
        for trio in odd[: 3 * (len(odd) // 3)].reshape(-1, 3):
            f = SpectralField(ms3, trio)
            assert l2_error(f, zero3) == reference(f, zero3)
            moved += l2_error(f, zero3) != math.sqrt(math.fsum((trio * trio).tolist()))
        assert moved > 0  # these inputs tell the two squares apart

    @pytest.mark.parametrize("a, b", [(1e308, -1e308), (1e200, 0.0), (1e154, 0.0)])
    def test_distance_past_the_double_range_raises(self, a, b):
        # the difference, a square and fsum's partial sum each overflowed: an
        # inf with numpy's warning, and two bare OverflowErrors
        ms = ModeSet(dimension=1, truncation=4)
        fa, fb = SpectralField(ms, np.full(4, a)), SpectralField(ms, np.full(4, b))
        with pytest.raises(NumericalError, match="l2_error: the distance overflows"):
            l2_error(fa, fb)

    def test_modeset_mismatch(self):
        f = SpectralField(MS2, np.zeros(900))
        g = SpectralField(ModeSet(dimension=2, truncation=10), np.zeros(100))
        with pytest.raises(DomainError):
            l2_error(f, g)

    def test_hp_examples(self):
        f = project(lambda x, y: math.sin(x) * math.sin(y), MS2, CFG)
        assert hp_norm(f, 0.0) == l2_error(f, ZERO2)
        assert abs(hp_norm(f, 1.0) - math.pi) <= 1e-9
        z = SpectralField(MS2, np.zeros(900))
        assert hp_norm(z, 2.0) == 0.0

    def test_hp_monotone_in_p(self):
        rng = np.random.default_rng(7)
        f = SpectralField(MS2, rng.normal(size=900))
        values = [hp_norm(f, p) for p in (0.0, 0.25, 0.5, 1.0, 2.0)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_negative_p_rejected(self):
        f = SpectralField(MS2, np.zeros(900))
        with pytest.raises(DomainError):
            hp_norm(f, -0.5)

    def test_overflow_is_numerical_error(self):
        # 1800**400 overflows a double; so does the product 4 * 1e200**2
        cases = [
            (SpectralField(MS2, np.ones(900)), 200.0),
            (SpectralField(ModeSet(dimension=1, truncation=2), [1e200, 1e200]), 1.0),
        ]
        for f, p in cases:
            with pytest.raises(NumericalError, match="overflows"):
                hp_norm(f, p)


class TestOrthonormality:
    def test_refined_quadrature(self):
        # inner products of eigenfunctions for m,n <= 10 at N=16
        cfg = QuadConfig(subintervals=16)
        pairs = [((1, 1), (1, 1)), ((1, 2), (1, 2)), ((10, 10), (10, 10)),
                 ((1, 1), (2, 1)), ((3, 4), (4, 3)), ((10, 9), (9, 10))]
        for a, b in pairs:
            pa, pb = _phi(a), _phi(b)
            got = integrate_2d(lambda x, y: pa(x, y) * pb(x, y), cfg=cfg)
            want = 1.0 if a == b else 0.0
            assert abs(got - want) <= 1e-9, (a, b)

    def test_default_quadrature_error_recorded(self):
        # At the default N=4, high-mode inner products carry visible
        # quadrature error.  The value is recorded (sanity-banded), not
        # asserted accurate: it exposes the benchmark recipe's coarse rule.
        # (Note some modes, e.g. (10,10), are integrated exactly by node
        # symmetry; (7,7) is not.)
        p = _phi((7, 7))
        got = integrate_2d(lambda x, y: p(x, y) ** 2, cfg=QuadConfig())
        assert math.isfinite(got)
        assert 0.0 < got < 2.0

    def test_bessel_inequality(self):
        for f in (
            lambda x, y: math.sin(x) * math.sin(y),
            lambda x, y: x * (math.pi - x) * y * (math.pi - y),
        ):
            pf = project(f, MS2, CFG)
            mass = integrate_2d(lambda x, y: f(x, y) ** 2, cfg=QuadConfig(subintervals=16))
            assert np.sum(pf.coeffs**2) <= mass + 1e-8


class TestCsv:
    def test_round_trip_and_bytes(self, tmp_path):
        # 17 significant digits round-trip every double exactly
        rng = np.random.default_rng(11)
        f = SpectralField(MS2, rng.normal(size=900))
        p1 = tmp_path / "f1.csv"
        p2 = tmp_path / "f2.csv"
        write_csv(f, p1)
        rows = [ln.split(",") for ln in p1.read_text(encoding="utf-8").splitlines()[1:]]
        assert [tuple(int(i) for i in r[:2]) for r in rows] == list(MS2.modes)
        g = SpectralField(MS2, [float(r[2]) for r in rows])
        assert np.array_equal(g.coeffs, f.coeffs)
        write_csv(g, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_and_format(self, tmp_path):
        f = _field_with(MS2, (1, 1), math.pi / 2.0)
        path = tmp_path / "f.csv"
        write_csv(f, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,n,coeff"
        assert lines[1].startswith("1,1,1.5707963267948966")
        assert len(lines) == 901

    def test_d1_header(self, tmp_path):
        f = SpectralField(MS1, np.zeros(30))
        path = tmp_path / "f1d.csv"
        write_csv(f, path)
        assert path.read_text(encoding="utf-8").splitlines()[0] == "m,coeff"
