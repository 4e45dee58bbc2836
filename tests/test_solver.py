"""Solver tests: memory term, forward/backward algebra, diagnostics,
parameter choice, and the stability/ill-posedness properties."""

from __future__ import annotations

import dataclasses
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracback import (
    ChoiceRule,
    DomainError,
    ModeSet,
    NumericalError,
    ParameterChoiceError,
    QuadConfig,
    RegularizationChoice,
    SingularMode,
    Source,
    SpectralField,
    Term,
    TimeFractionalProblem,
    backward_reconstruct,
    choose_t,
    final_value,
    forward_solve,
    l2_error,
    ml,
    ml_array,
    project,
    reconstruct_noisy,
    solvability_diagnostic,
)

PI2 = math.pi**2
MS8 = ModeSet(dimension=2, truncation=8)
GRADED = QuadConfig(singular_mode=SingularMode.GRADED_SUBSTITUTION)


def bench_source() -> Source:
    return Source(
        Term(
            lambda x, y: math.sin(x) * math.sin(y),
            lambda s: (2.0 - PI2) * math.exp(-PI2 * s),
        )
    )


def problem(alpha: float, nt: int = 4, quad: QuadConfig | None = None,
            modeset: ModeSet = MS8, source=None) -> TimeFractionalProblem:
    return TimeFractionalProblem(
        alpha=alpha,
        tau=1.0,
        modeset=modeset,
        source=bench_source() if source is None else source,
        quad=quad if quad is not None else QuadConfig(),
        temporal_subintervals=nt,
    )


def u0_field(modeset: ModeSet = MS8) -> SpectralField:
    return project(lambda x, y: math.sin(x) * math.sin(y), modeset, QuadConfig())


class TestProblemValidation:
    def test_alpha_range(self):
        for alpha in (0.0, -0.1, 1.2):
            with pytest.raises(DomainError):
                problem(alpha)

    def test_tau_positive(self):
        with pytest.raises(DomainError):
            TimeFractionalProblem(
                alpha=0.5, tau=0.0, modeset=MS8, source=Source()
            )
        # a wrong quad type failed only at the first solve, with an AttributeError
        with pytest.raises(DomainError, match="quad must be a QuadConfig"):
            TimeFractionalProblem(alpha=0.5, tau=1.0, modeset=MS8, source=Source(), quad="x")

    def test_temporal_subintervals(self):
        with pytest.raises(DomainError):
            problem(0.5, nt=0)


def source_coeff(prob: TimeFractionalProblem, m: int, n: int, s: float) -> float:
    """(f(., s), phi_mn) through the batch path."""
    col = prob.source.coefficient_batch(prob.modeset, prob.quad, np.array([s]))
    return float(col[prob.modeset.index_of(m, n), 0])


def memory(prob: TimeFractionalProblem, t: float) -> float:
    """F_(1,1)(t): the forward solution from u0 = 0 is the memory term."""
    zero = SpectralField(prob.modeset, np.zeros(prob.modeset.size))
    return forward_solve(prob, zero, t).coeff(1, 1)


def _reference_term_batch(term: Term, modeset: ModeSet, quad: QuadConfig, s: np.ndarray) -> np.ndarray:
    """One term's columns as Term.coefficient_batch formed them before Source took it over."""
    if not isinstance(term.spatial, np.ndarray):
        spatial = project(term.spatial, modeset, quad).coeffs
    elif term.spatial.shape != (modeset.size,):
        raise DomainError("Term: coefficient count != modeset size")
    else:
        spatial = term.spatial
    tvals = np.array([float(term.temporal(float(sj))) for sj in s])
    if not np.isfinite(tvals).all():
        raise NumericalError("Term: temporal factor returned a non-finite value")
    return spatial[:, None] * tvals[None, :]


# module-level spatial factors, so the projection memo keys them by identity
def _bump(x: float) -> float:
    return x * (math.pi - x)


def _ramp(x: float) -> float:
    return math.exp(-x) - 0.25


def _wave2(x: float, y: float) -> float:
    return math.sin(x) * math.cos(2.0 * y) + 0.5 * x


_SPATIAL = {  # pointwise functions and per-axis tuples, by dimension
    1: (math.sin, _bump, (_ramp,), (_bump,)),
    2: (_wave2, lambda x, y: _bump(x) * _ramp(y), (_bump, _ramp), (math.sin, _bump)),
}
_TEMPORAL = (lambda s: 1.0, lambda s: math.exp(-3.0 * s), lambda s: (2.0 - PI2) * math.exp(-PI2 * s))


@st.composite
def _mixed_sources(draw):
    modeset = draw(st.sampled_from((ModeSet(1, 5), ModeSet(2, 4))))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("vector", "function")))
        if kind == "vector":
            values = st.floats(-1e3, 1e3, allow_nan=False)
            spatial = np.array(draw(st.lists(values, min_size=modeset.size, max_size=modeset.size)))
        else:
            spatial = draw(st.sampled_from(_SPATIAL[modeset.dimension]))
        c = draw(st.floats(-10.0, 10.0, allow_nan=False))
        temporal = draw(st.sampled_from(_TEMPORAL + (lambda s, c=c: c * s + 1.0,)))
        terms.append(Term(spatial, temporal))
    s = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)))
    return modeset, terms, s


class TestSourceCoefficient:
    def test_benchmark_mode_11(self):
        prob = problem(0.5)
        for s in (0.0, 0.3, 1.0):
            want = (2.0 - PI2) * (math.pi / 2.0) * math.exp(-PI2 * s)
            got = source_coeff(prob, 1, 1, s)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_benchmark_mode_12_orthogonal(self):
        prob = problem(0.5)
        assert abs(source_coeff(prob, 1, 2, 0.4)) <= 1e-10

    def test_zero_source(self):
        prob = problem(0.5, source=Source())
        assert source_coeff(prob, 2, 2, 0.5) == 0.0

    def test_source_sums_terms(self):
        one = Term(np.ones(MS8.size), lambda s: 1.0)
        two = Term(np.full(MS8.size, 2.0), lambda s: 1.0)
        prob = problem(0.5, source=Source(one, two))
        assert source_coeff(prob, 3, 3, 0.1) == 3.0

    def test_pointwise_term_projected_once_and_shared(self):
        calls = []

        def spatial(x, y):
            calls.append((x, y))
            return math.sin(x) * math.sin(y)

        base = Source(Term(spatial, lambda s: (2.0 - PI2) * math.exp(-PI2 * s)))
        noisy = Source(*base.terms, Term(np.ones(MS8.size), lambda s: 1.0))
        for src in (base, noisy, base):
            src.coefficient_batch(MS8, QuadConfig(), np.array([0.0, 0.5]))
        cfg = QuadConfig()
        per_direction = cfg.subintervals * MS8.truncation * cfg.points
        assert len(calls) == per_direction**2  # one projection grid

    def test_bad_terms_rejected(self):
        with pytest.raises(DomainError):
            Source(lambda x, y: 1.0)
        # these failed only when the coefficients were first built
        with pytest.raises(DomainError, match="temporal must be callable"):
            Term(np.ones(4), 5)
        with pytest.raises(DomainError, match="spatial must be real numbers"):
            Term(["a"] * 4, lambda s: 1.0)
        with pytest.raises(DomainError, match="factors must be callable"):
            Term((math.sin, 2.0), lambda s: 1.0)
        with pytest.raises(DomainError, match="Term: spatial must be finite, got nan"):
            Term(np.array([1.0, np.nan, 0.0, 0.0]), lambda s: 1.0)
        one_factor = Source(Term((math.sin,), lambda s: 1.0))  # MS8 is 2-D
        with pytest.raises(DomainError, match="callable factors"):
            one_factor.coefficient_batch(MS8, QuadConfig(), np.array([0.5]))
        short = Source(Term(np.ones(3), lambda s: 1.0))
        with pytest.raises(DomainError):
            short.coefficient_batch(MS8, QuadConfig(), np.array([0.5]))
        nan = Source(Term(np.ones(MS8.size), lambda s: math.nan))
        with pytest.raises(NumericalError):
            nan.coefficient_batch(MS8, QuadConfig(), np.array([0.5]))

    @settings(max_examples=60)
    @given(case=_mixed_sources())
    @example(case=(ModeSet(1, 5), [Term(np.array([-0.0, 1.0, -2.0, 0.0, 3.0]), lambda s: -1.0)],
                   np.array([0.5])))  # zeros + (-0.0) is +0.0: the sum starts from zeros
    def test_batch_is_the_per_term_sum_to_the_bit(self, case):
        # Source forms every term's columns itself, summed left to right from zeros
        modeset, terms, s = case
        want = np.zeros((modeset.size, len(s)))
        for term in terms:
            want = want + _reference_term_batch(term, modeset, QuadConfig(), s)
        got = Source(*terms).coefficient_batch(modeset, QuadConfig(), s)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_overflowing_coefficient_raises(self):
        # 1e308 * 10 once left numpy's overflow warning and four inf coefficients
        src = Source(Term(np.full(4, 1e308), lambda s: 10.0))
        with pytest.raises(NumericalError, match=r"Source: a coefficient of f is not finite for mode \(1, 1\)"):
            src.coefficient_batch(ModeSet(2, 2), QuadConfig(), np.array([0.5]))
        # the mode is the row of the first bad column entry, not its flat index
        src = Source(Term(np.array([1.0, 1.0, 1e308, 1.0]), lambda s: 10.0 * s))
        with pytest.raises(NumericalError, match=r"for mode \(2, 1\)"):
            src.coefficient_batch(ModeSet(2, 2), QuadConfig(), np.array([0.0, 0.5]))


class TestMemoryTerm:
    def closed_form(self, t: float) -> float:
        return (math.pi / 2.0) * (math.exp(-PI2 * t) - math.exp(-2.0 * t))

    def test_t_zero(self):
        assert memory(problem(0.5), 0.0) == 0.0

    def test_zero_source(self):
        prob = problem(0.5, source=Source())
        assert memory(prob, 0.7) == 0.0

    def test_alpha_one_closed_form_default_path(self):
        prob = problem(1.0)
        for t in (0.1, 0.5, 1.0):
            got = memory(prob, t)
            assert abs(got - self.closed_form(t)) <= 5e-8, t

    def test_alpha_one_closed_form_oracle_path(self):
        prob = problem(1.0, nt=256, quad=GRADED)
        for t in (0.1, 0.5, 1.0):
            got = memory(prob, t)
            assert abs(got - self.closed_form(t)) <= 1e-12, t

    def test_bound_by_singular_mass(self):
        # |F(t)| <= sup_s |c(s)| * t^alpha / alpha
        for alpha in (0.2, 0.5, 0.8):
            prob = problem(alpha, quad=GRADED)
            sup_c = abs((2.0 - PI2) * (math.pi / 2.0))  # |c| max at s=0
            for t in (0.2, 1.0):
                got = abs(memory(prob, t))
                assert got <= sup_c * t**alpha / alpha * (1.0 + 1e-12)


class TestForwardSolve:
    def test_t_zero_returns_u0(self):
        prob = problem(0.6)
        u0 = u0_field()
        out = forward_solve(prob, u0, 0.0)
        assert np.array_equal(out.coeffs, u0.coeffs)

    def test_zero_everything(self):
        prob = problem(0.6, source=Source())
        z = SpectralField(MS8, np.zeros(MS8.size))
        out = forward_solve(prob, z, 0.8)
        assert float(np.max(np.abs(out.coeffs))) == 0.0

    def test_modeset_mismatch(self):
        prob = problem(0.6)
        other = SpectralField(ModeSet(dimension=2, truncation=5), np.zeros(25))
        with pytest.raises(DomainError):
            forward_solve(prob, other, 0.5)

    def test_non_finite_temporal_value_is_numerical_error(self):
        # an infinite F(s) once surfaced as a DomainError on the coefficients
        ones = SpectralField(MS8, np.ones(MS8.size))
        for bad in (math.nan, math.inf, -math.inf):
            prob = problem(0.6, source=Source(Term(np.ones(MS8.size), lambda s: bad)))
            with pytest.raises(NumericalError, match="temporal factor returned a non-finite value"):
                forward_solve(prob, ones, 0.5)

    def test_overflowing_forward_raises(self):
        # two 1e308 terms sum past the double range, caught by the source's own
        # check before F is formed; and u0 = f = D, the largest double, at
        # lambda = 1, where 8-point graded quadrature puts F(t) ~2e-15 relative
        # above (1 - E) D, so E D + F rounds to inf.  Both surfaced as a
        # RuntimeWarning and a DomainError on the SpectralField
        big = Term(np.full(MS8.size, 1e308), lambda s: 1.0)
        prob = problem(0.8, source=Source(big, big))
        with pytest.raises(NumericalError, match=r"Source: a coefficient of f is not finite for mode \(1, 1\)"):
            forward_solve(prob, u0_field(), 1.0)
        ms, top = ModeSet(1, 1), np.array([np.finfo(float).max])
        quad = QuadConfig(points=8, singular_mode=SingularMode.GRADED_SUBSTITUTION)
        prob = problem(0.2, quad=quad, modeset=ms, source=Source(Term(top, lambda s: 1.0)))
        with pytest.raises(NumericalError, match=r"u\(t=1\.0\) is not finite for mode \(1,\)"):
            forward_solve(prob, SpectralField(ms, top), 1.0)

    def test_t_out_of_range(self):
        prob = problem(0.6)
        u0 = u0_field()
        for t in (-0.1, 1.5):
            with pytest.raises(DomainError, match=r"t must be in \[0, 1\.0\], got"):
                forward_solve(prob, u0, t)

    def test_alpha_one_heat_oracle(self):
        # classical solution u = sin x sin y e^{-pi^2 t} via the oracle path
        prob = problem(1.0, nt=256, quad=GRADED)
        u0 = u0_field()
        for t in (0.1, 0.5, 1.0):
            got = forward_solve(prob, u0, t).coeff(1, 1)
            want = (math.pi / 2.0) * math.exp(-PI2 * t)
            assert abs(got - want) <= 1e-6 * want, t

    def test_final_value_is_forward_at_tau(self):
        prob = problem(0.4)
        u0 = u0_field()
        a = final_value(prob, u0)
        b = forward_solve(prob, u0, prob.tau)
        assert np.array_equal(a.coeffs, b.coeffs)


MS4 = ModeSet(dimension=2, truncation=4)
_unit = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
_vector = st.lists(_unit, min_size=MS4.size, max_size=MS4.size).map(np.array)


@st.composite
def _vector_terms(draw):
    """A coefficient-vector term with temporal factor c0 + c1 s."""
    c0, c1 = draw(_unit), draw(_unit)
    return Term(draw(_vector), lambda s: c0 + c1 * s)


class TestLinearity:
    @given(
        alpha=st.sampled_from((0.2, 0.4, 0.6, 0.8, 1.0)),
        t=st.floats(min_value=1e-6, max_value=1.0),
        u0a=_vector,
        u0b=_vector,
        ta=_vector_terms(),
        tb=_vector_terms(),
    )
    def test_forward_linear_in_data_and_source(self, alpha, t, u0a, u0b, ta, tb):
        def forward(u0, source):
            prob = problem(alpha, modeset=MS4, source=source)
            return forward_solve(prob, SpectralField(MS4, u0), t).coeffs

        a = forward(u0a, Source(ta))
        b = forward(u0b, Source(tb))
        both = forward(u0a + u0b, Source(ta, tb))
        assert np.all(np.abs(both - (a + b)) <= 1e-12 * (np.abs(a) + np.abs(b) + 1.0))
        assert np.all(forward(np.zeros(MS4.size), Source()) == 0.0)


class TestBackwardReconstruct:
    def test_t_tau_returns_g(self):
        prob = problem(0.7)
        g = final_value(prob, u0_field())
        out = backward_reconstruct(prob, g, 1.0)
        assert np.array_equal(out.coeffs, g.coeffs)

    def test_round_trip_identity(self):
        # coefficients drawn in +/-[0.5, 1.5] so coefficientwise relative
        # error is well defined (forward values bounded away from zero)
        rng = np.random.default_rng(3)
        for alpha in (0.2, 0.4, 0.6, 0.8):
            prob = problem(alpha)
            for _ in range(3):
                mags = rng.uniform(0.5, 1.5, size=MS8.size)
                signs = rng.choice((-1.0, 1.0), size=MS8.size)
                u0 = SpectralField(MS8, mags * signs)
                g = final_value(prob, u0)
                for t in (1.0, 0.5, 1e-3):
                    back = backward_reconstruct(prob, g, t)
                    fwd = forward_solve(prob, u0, t)
                    rel = np.max(
                        np.abs(back.coeffs - fwd.coeffs) / np.abs(fwd.coeffs)
                    )
                    assert rel <= 1e-12, (alpha, t, rel)

    def test_t_zero_flagged_and_inverts(self):
        prob = problem(0.5)
        u0 = u0_field()
        g = final_value(prob, u0)
        out = backward_reconstruct(prob, g, 0.0)
        scale = np.maximum(np.abs(u0.coeffs), 1e-30)
        assert np.max(np.abs(out.coeffs - u0.coeffs) / scale) <= 1e-9

    def test_t_out_of_range(self):
        prob = problem(0.5)
        g = final_value(prob, u0_field())
        for t in (-1e-9, 1.0 + 1e-9):
            with pytest.raises(DomainError, match=r"t must be in \[0, 1\.0\], got"):
                backward_reconstruct(prob, g, t)

    def test_overflowing_inversion_raises(self):
        # g near the double range over E_{alpha,1}(-lambda tau^alpha) < 1 overflows;
        # numpy's overflow warning would fail this test too (filterwarnings = error)
        prob = problem(0.8)
        g = SpectralField(MS8, np.full(MS8.size, 1e308))
        for t in (0.0, 1e-3):
            with pytest.raises(NumericalError, match=r"quotient overflowed for mode \(1, 1\)"):
                backward_reconstruct(prob, g, t)

    def test_single_mode_perturbation_amplification(self):
        prob = problem(0.5)
        g = final_value(prob, u0_field())
        k = MS8.index_of(5, 6)
        delta = 1e-8
        shifted = np.array(g.coeffs)
        shifted[k] += delta
        base = backward_reconstruct(prob, g, 0.0)
        pert = backward_reconstruct(prob, SpectralField(MS8, shifted), 0.0)
        change = pert.coeffs[k] - base.coeffs[k]
        # the naive inversion's noise gain 1 / E_{alpha,1}(-lambda tau^alpha)
        want = delta / ml(0.5, 1.0, -(5**2 + 6**2) * 1.0**0.5)
        assert abs(change - want) <= 1e-10 * abs(want)
        others = np.delete(pert.coeffs - base.coeffs, k)
        assert float(np.max(np.abs(others))) == 0.0

    def test_stability_bound_linearity(self):
        # error of perturbed reconstruction <= max_n [E(t)/E(tau)] * ||pert||
        rng = np.random.default_rng(5)
        prob = problem(0.3)
        g = final_value(prob, u0_field())
        pert = rng.normal(scale=1e-6, size=MS8.size)
        gp = SpectralField(MS8, g.coeffs + pert)
        for t in (0.5, 1e-2, 1e-4):
            lam = MS8.eigenvalues
            gain = np.array(
                [ml(0.3, 1.0, -l * t**0.3) / ml(0.3, 1.0, -l * 1.0) for l in lam]
            )
            err = l2_error(
                backward_reconstruct(prob, gp, t), backward_reconstruct(prob, g, t)
            )
            bound = float(np.max(gain)) * float(np.sqrt(np.sum(pert**2)))
            assert err <= bound * (1.0 + 1e-10)

    def test_regularization_convergence(self):
        # with exact final data the error decreases monotonically along
        # t = 1e-2 .. 1e-9 (alpha = 0.8); the 1e-3 threshold is crossed
        # between t = 1e-5 (measured 1.66e-3) and t = 1e-6 (2.63e-4)
        ms = ModeSet(dimension=2, truncation=30)
        prob = problem(0.8, modeset=ms)
        u0 = u0_field(ms)
        g = final_value(prob, u0)
        errs = [
            l2_error(backward_reconstruct(prob, g, 10.0**-k), u0)
            for k in range(2, 10)
        ]
        assert all(b < a for a, b in zip(errs, errs[1:])), errs
        assert errs[3] < 2e-3, errs
        assert errs[4] < 1e-3, errs


class TestReconstructNoisy:
    def test_zero_noise_same_path(self):
        prob = problem(0.5)
        g = final_value(prob, u0_field())
        a = backward_reconstruct(prob, g, 0.01)
        b = reconstruct_noisy(prob, g, prob.source, 0.01)
        assert np.array_equal(a.coeffs, b.coeffs)

    def test_data_noise_at_tau_returns_noisy_g(self):
        prob = problem(0.5)
        g = final_value(prob, u0_field())
        gp = SpectralField(MS8, g.coeffs + 1e-3)
        out = reconstruct_noisy(prob, gp, prob.source, 1.0)
        assert np.array_equal(out.coeffs, gp.coeffs)


class TestTauMemo:
    def test_memo_is_the_kernel_builder(self):
        import fracback.solver as solver

        assert solver._tau_terms.__wrapped__ is solver._terms_at

    @pytest.mark.parametrize("quad", [QuadConfig(), GRADED])
    def test_terms_are_read_only_at_tau_and_before(self, quad):
        # a memoized tau row is shared by every problem of its key, so no
        # caller may write through it; the builder hands out read-only rows
        # at every t, so a t < tau row is no different
        import fracback.solver as solver

        for t in (1.0, 0.3):
            for kernel, size in ((True, 4), (False, 1)):
                terms = solver._terms_at(0.4, t, MS8, quad, 4, kernel)
                assert len(terms) == size
                assert not any(arr.flags.writeable for arr in terms), (t, kernel)
                with pytest.raises(ValueError, match="read-only"):
                    terms[0][0] = 0.0

    def test_threads_filling_the_memo_see_the_serial_result(self):
        # problems that differ only in their source share one memo entry;
        # more threads than cores race to build it on a short switch interval
        import fracback.solver as solver

        u0 = u0_field()
        probs = [
            problem(0.3, source=Source(Term(np.full(MS8.size, float(k)), lambda s: 1.0)))
            for k in range(8)
        ]
        want = [final_value(p, u0).coeffs for p in probs]
        solver._tau_terms.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(lambda p: final_value(p, u0).coeffs, probs, timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestHomogeneous:
    def test_zero_source_builds_no_memory_kernel(self, monkeypatch):
        # f = 0: one E_{alpha,1} call per distinct time, over the distinct
        # eigenvalues, and a tau row memoized under its own key; the fields
        # keep the bits of a zero-valued term
        import fracback.solver as solver

        # a private memo, so that earlier tests cannot change the count
        monkeypatch.setattr(solver, "_tau_terms", lru_cache(maxsize=16)(solver._tau_terms.__wrapped__))
        u0 = u0_field()

        def fields(prob):
            g = final_value(prob, u0)
            return [g, forward_solve(prob, u0, 0.3), backward_reconstruct(prob, g, 0.1),
                    backward_reconstruct(prob, g, 0.0)]

        want = fields(problem(0.4, source=Source(Term(np.zeros(MS8.size), lambda s: 0.0))))
        calls = []

        def counting(alpha, beta, x):
            calls.append((alpha, beta, len(x)))
            return ml_array(alpha, beta, x)

        monkeypatch.setattr(solver, "ml_array", counting)
        got = fields(problem(0.4, source=Source()))
        assert [a.coeffs.tobytes() for a in got] == [b.coeffs.tobytes() for b in want]
        # tau for g, 0.3 and 0.1; both inversions read the memoized tau row
        assert calls == [(0.4, 1.0, len(np.unique(MS8.eigenvalues)))] * 3
        # the sourced tau row of ``want`` and the kernel-free one of ``got``
        assert solver._tau_terms.cache_info().currsize == 2
        rows = [solver._tau_terms(0.4, 1.0, MS8, QuadConfig(), 4, k) for k in (True, False)]
        assert [len(r) for r in rows] == [4, 1] and len(calls) == 3  # both memo hits


class TestSolvability:
    def test_exact_data_bounded(self):
        prob = problem(0.5)
        u0 = u0_field()
        report = solvability_diagnostic(prob, final_value(prob, u0))
        assert report.classification == "bounded"
        assert abs(report.partial_sums[-1] - np.sum(u0.coeffs**2)) <= 1e-9

    def test_constant_shifted_data_growing(self):
        # shifting g by a constant function injects amplified odd modes
        ms = ModeSet(dimension=2, truncation=30)
        prob = problem(0.5, modeset=ms)
        g = final_value(prob, u0_field(ms))
        one = project(lambda x, y: 1.0, ms, QuadConfig())
        shifted = SpectralField(ms, g.coeffs + 0.01 * one.coeffs)
        report = solvability_diagnostic(prob, shifted)
        assert report.classification == "growing"
        sums = report.partial_sums
        assert sums[-1] > sums[len(sums) // 2] > sums[len(sums) // 4]

    def test_zero_data_zero_sums(self):
        prob = problem(0.5, source=Source())
        z = SpectralField(MS8, np.zeros(MS8.size))
        report = solvability_diagnostic(prob, z)
        assert all(s == 0.0 for s in report.partial_sums)
        assert report.classification == "bounded"

    def test_overflowing_sums_raise(self):
        # finite inverted coefficients whose squares pass the double range: the
        # sums were once all inf, with overflow warnings and the verdict "bounded"
        g = SpectralField(MS8, np.full(MS8.size, 1e200))
        with pytest.raises(NumericalError, match=r"S_K overflowed at mode \(1, 1\)"):
            solvability_diagnostic(problem(0.8), g)


class TestAmplification:
    def test_strictly_increasing_in_lambda(self):
        # the naive inversion's noise gain 1 / E_{alpha,1}(-lambda tau^alpha), tau = 1
        lam = sorted(set(ModeSet(dimension=2, truncation=30).eigenvalues.tolist()))
        for alpha in (0.2, 0.4, 0.6, 0.8):
            amps = [1.0 / ml(alpha, 1.0, -l) for l in lam]
            assert all(b > a for a, b in zip(amps, amps[1:]))
            assert amps[0] >= 1.0


class TestChooseT:
    def test_source_condition_example(self):
        choice = RegularizationChoice(ChoiceRule.SOURCE_CONDITION, eta=1e-4, p=1.0)
        assert abs(choose_t(choice, 0.8) - 10.0**-2.5) <= 1e-17

    def test_paper_table2_example(self):
        choice = RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=1e-3)
        assert choose_t(choice, 0.5) == 1e-3

    def test_eta_must_be_positive(self):
        with pytest.raises(ParameterChoiceError):
            choose_t(RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=0.0), 0.5)

    def test_t_at_or_above_tau_rejected(self):
        with pytest.raises(ParameterChoiceError) as err:
            choose_t(RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=1.0), 0.5)
        assert "eta=1.0" in str(err.value)

    def test_t_that_underflows_to_zero_rejected(self):
        # 1e-200 ** (1 / 0.4) is below the least subnormal: t = 0, no regularization
        with pytest.raises(ParameterChoiceError, match="eta=1e-200 gives t=0.0 outside"):
            choose_t(RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=1e-200), 0.2)

    def test_invalid_rule_parameters(self):
        with pytest.raises(DomainError):
            RegularizationChoice(ChoiceRule.SOURCE_CONDITION, eta=1e-3, p=1.5)
        with pytest.raises(DomainError):
            RegularizationChoice("plain", eta=1e-3)
        with pytest.raises(DomainError):
            choose_t(RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=1e-3), 1.5)
        with pytest.raises(DomainError):
            RegularizationChoice("bogus", eta=1e-3)
        with pytest.raises(DomainError):
            RegularizationChoice(ChoiceRule.SOURCE_CONDITION, eta=1e-3, p="x")
        with pytest.raises(DomainError):
            RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=True)
        choice = RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=1e-3)
        with pytest.raises(DomainError):
            choose_t(choice, 0.5, tau=math.nan)  # returned 0.001
        with pytest.raises(DomainError):
            choose_t(choice, "x")


class TestRateTheorem:
    """The source-condition rule's optimal order: for u0 in D(A^p) and data
    noise of norm eta, t^alpha = eta^(1/(p+1)) balances a bias of order
    t^(alpha p) against a noise gain of order eta / t^alpha, so the error
    falls like eta^(p/(p+1)).  The order holds with a source f too, when
    the reconstruction sees f plus a time-constant noise of norm eps = eta."""

    MS = ModeSet(dimension=1, truncation=4000)
    # (alpha, p, source); the ids without a source predate the source cases
    CASES = [
        pytest.param(alpha, p, source, id=f"{alpha}-{p}" + ("-source" if source else ""))
        for source in (False, True)
        for alpha in (0.2, 0.4, 0.8)
        for p in (0.25, 0.5, 1.0)
    ]

    @pytest.mark.parametrize(("alpha", "p", "source"), CASES)
    def test_error_slope_is_p_over_p_plus_one(self, alpha, p, source):
        ms = self.MS
        m = np.arange(1, ms.truncation + 1, dtype=np.float64)
        c = m ** -(2.0 * p + 0.55)
        u0 = SpectralField(ms, c / math.sqrt(math.fsum(c * c)))  # just inside D(A^p)
        f = Source(Term(m**-1.5, lambda s: math.cos(3.0 * s) + 2.0)) if source else Source()
        prob = TimeFractionalProblem(alpha=alpha, tau=1.0, modeset=ms, source=f)
        g = final_value(prob, u0).coeffs
        rng = np.random.default_rng(20240817)
        noise, f_noise = (rng.uniform(-1.0, 1.0, ms.size) for _ in range(2))
        noise /= math.sqrt(math.fsum(noise * noise))
        f_noise /= math.sqrt(math.fsum(f_noise * f_noise))
        # 4 decades of eta, down to lambda_max t^alpha = 100: any smaller and
        # the truncation caps the noise gain, which flattens the error
        eta_min = (100.0 / ms.eigenvalues.max()) ** (p + 1.0)
        etas = eta_min * np.logspace(4.0, 0.0, 9)
        errs = []
        for eta in etas:
            t = choose_t(RegularizationChoice(ChoiceRule.SOURCE_CONDITION, eta=eta, p=p), alpha)
            noisy_f = Source(*f.terms, Term(eta * f_noise, lambda s: 1.0)) if source else f
            noisy = dataclasses.replace(prob, source=noisy_f)
            rec = backward_reconstruct(noisy, SpectralField(ms, g + eta * noise), t)
            errs.append(l2_error(rec, u0))
        slope = np.polyfit(np.log(etas), np.log(errs), 1)[0]
        # measured 0.196-0.213, 0.327-0.345 and 0.481-0.485 without a source,
        # 0.195-0.213, 0.326-0.344 and 0.481-0.488 with one; criterion 4's
        # +/-0.07 would also pass the p = 1 rule's t, whose slopes here are
        # 0.139 (p = 0.25) and 0.264 (p = 0.5)
        assert abs(slope - p / (p + 1.0)) <= 0.03, slope

    @pytest.mark.parametrize("alpha", [0.2, 0.4, 0.8])
    def test_source_noise_gain_is_bounded(self, alpha):
        # a unit time-constant source with g = 0 reconstructs to the per-mode
        # gain of source noise, E(t)/E(tau) F(tau) - F(t) with
        # F(s) = s^alpha E_{alpha,alpha+1}(-lambda s^alpha); the continuous
        # bound is Gamma(1 - alpha) tau^alpha.  With the default rule the
        # largest gain is 0.48, 0.69 and 0.81 of it at t^alpha = 1e-4 (alpha =
        # 0.2, 0.4, 0.8), 0.13-0.22 at 0.5; the graded rule at 64 temporal
        # subintervals gives 0.994, 0.988 and 0.975 at 1e-4 (9 s, too slow here)
        ms, tau = self.MS, 1.0
        f = Source(Term(np.ones(ms.size), lambda s: 1.0))
        prob = TimeFractionalProblem(alpha=alpha, tau=tau, modeset=ms, source=f)
        g = SpectralField(ms, np.zeros(ms.size))
        bound = math.gamma(1.0 - alpha) * tau**alpha
        for t_alpha in (1e-4, 1e-3, 1e-2, 1e-1, 0.5):
            gain = np.max(np.abs(backward_reconstruct(prob, g, t_alpha ** (1.0 / alpha)).coeffs))
            assert gain <= bound, (t_alpha, gain / bound)


class TestOptimalOrder:
    """Optimal order over the whole source set M = {||A^p u0|| <= rho} with
    data noise of norm delta and f = 0, where the method is diagonal.  Write
    E_n(s) = E_{alpha,1}(-lambda_n s^alpha), b_n = rho lambda_n^-p (1 - E_n(t))
    and a_n = E_n(t) / E_n(tau).  The worst error over M lies in
    [max_n (b_n + delta a_n), max_n b_n + delta max_n a_n], and the modulus
    of continuity omega(delta, rho), a lower bound on every method's worst
    error (u0 and -u0 can give the same data), is at least
    max_n min(delta / E_n(tau), rho lambda_n^-p), from one mode."""

    MS, RHO = TestRateTheorem.MS, 1.0

    @pytest.mark.parametrize(
        ("alpha", "p"),
        [pytest.param(a, p, id=f"{a}-{p}") for a in (0.2, 0.4, 0.8) for p in (0.25, 0.5, 1.0)],
    )
    def test_worst_error_is_within_a_constant_of_omega(self, alpha, p):
        ms = self.MS
        lam = ms.eigenvalues
        etau = ml_array(alpha, 1.0, -lam)  # tau = 1
        smooth = self.RHO * lam**-p
        # TestRateTheorem's window: 4 decades, down to lambda_max t^alpha = 100
        etas = (100.0 / lam.max()) ** (p + 1.0) * np.logspace(4.0, 0.0, 9)
        upper, omega = [], []
        for delta in etas:
            t = choose_t(RegularizationChoice(ChoiceRule.SOURCE_CONDITION, eta=delta, p=p), alpha)
            et = ml_array(alpha, 1.0, -lam * t**alpha)
            b, a = smooth * (1.0 - et), et / etau
            upper.append(np.max(b) + delta * np.max(a))
            omega.append(np.max(np.minimum(delta / etau, smooth)))
        slope = np.polyfit(np.log(etas), np.log(upper), 1)[0]
        # measured within 0.001 of p/(p+1); the p = 1 rule's t at p = 0.25
        # and 0.5 misses it by 0.050-0.067, while its ratio to omega stays
        # below 2.31
        assert abs(slope - p / (p + 1.0)) <= 0.03, slope
        # measured at most 1.39-1.99 times omega (the worst level of a case)
        ratio = np.array(upper) / np.array(omega)
        assert np.all(ratio <= 2.5), ratio.max()
        if p == 0.5:
            # the worst single mode, u0 = rho lambda_n^-p e_n with noise
            # -delta e_n, run through the solver, has the lower bound's error
            n = int(np.argmax(b + delta * a))
            e_n = np.eye(1, ms.size, n)[0]
            u0 = SpectralField(ms, smooth[n] * e_n)
            prob = TimeFractionalProblem(alpha=alpha, tau=1.0, modeset=ms, source=Source())
            g = SpectralField(ms, final_value(prob, u0).coeffs - delta * e_n)
            err = l2_error(backward_reconstruct(prob, g, t), u0)
            assert err == pytest.approx(b[n] + delta * a[n], rel=1e-12, abs=0.0)
