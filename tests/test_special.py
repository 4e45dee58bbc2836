"""Special-function tests: gamma, Mittag-Leffler examples, properties,
and agreement with the independent extended-precision reference."""

from __future__ import annotations

import dataclasses
import decimal
import math
import re
import tracemalloc
import warnings
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fracback.solver as solver
import fracback.special as special
import fracback.spectral as spectral
from fracback import (
    DomainError,
    ExperimentConfig,
    ModeSet,
    NumericalError,
    QuadConfig,
    gamma_fn,
    ml,
    ml_array,
    paper_problem,
)
from fracback.cli import main

from _ml_reference import ml_asymptotic, ml_ref, ml_taylor
from _pins import check_pin


class TestGamma:
    def test_value_at_one(self):
        assert gamma_fn(1.0) == 1.0

    def test_factorial_identity(self):
        assert abs(gamma_fn(5.0) - 24.0) <= 24.0 * 1e-13

    def test_sqrt_pi(self):
        assert abs(gamma_fn(0.5) - 1.7724538509055160) <= 1.78e-13

    def test_accuracy_on_positive_axis(self):
        with mp.workdps(40):
            for x in np.geomspace(1e-3, 170.0, 220):
                want = float(mp.gamma(mp.mpf(float(x))))
                got = gamma_fn(float(x))
                assert abs(got - want) <= 1e-13 * abs(want), f"x={x}"

    def test_negative_non_integer_via_reflection(self):
        with mp.workdps(40):
            for x in (-0.5, -1.5, -2.25, -10.75):
                want = float(mp.gamma(mp.mpf(x)))
                got = gamma_fn(x)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_pole_rejected(self):
        for x in (0.0, -1.0, -4.0):
            with pytest.raises(DomainError):
                gamma_fn(x)

    def test_overflow(self):
        with pytest.raises(OverflowError):
            gamma_fn(172.0)


class TestMLQueryDomain:
    """The (alpha, beta, x) domain that ml and ml_array both enforce."""

    @staticmethod
    def _rejected(alpha, beta, x):
        with pytest.raises(DomainError):
            ml(alpha, beta, x)
        with pytest.raises(DomainError):
            ml_array(alpha, beta, np.array([-1.0, x]))

    def test_alpha_out_of_range(self):
        for alpha in (0.0, -0.3, 1.5, 2.0, math.nan, math.inf):
            self._rejected(alpha, 1.0, -1.0)

    def test_beta_out_of_range(self):
        for beta in (0.0, -1.0, math.nan, math.inf):
            self._rejected(0.5, beta, -1.0)

    def test_positive_argument_rejected(self):
        self._rejected(0.5, 1.0, 1e-8)

    def test_non_finite_rejected(self):
        for x in (-math.inf, math.nan):
            self._rejected(0.5, 1.0, x)
        # a non-numeric argument was a bare ValueError from numpy
        self._rejected(0.5, 1.0, "x")
        with pytest.raises(DomainError, match="ml_array: x must be real numbers"):
            ml_array(0.5, 1, ["x"])

    def test_non_finite_value_raises(self, monkeypatch, capsys):
        # ml_array's last guard: a regime that returns inf is a NumericalError,
        # which the CLI reports with exit code 4
        monkeypatch.setattr(special, "_taylor_vec", lambda alpha, beta, x: np.full_like(x, np.inf))
        with pytest.raises(NumericalError, match="non-finite value"):
            ml_array(0.5, 1.0, [-0.5])
        assert main(["ml", "--alpha", "0.5", "--beta", "1", "--x", "-0.5"]) == 4
        assert "non-finite value" in capsys.readouterr().err


class TestMLExamples:
    def test_at_zero(self):
        assert ml(0.7, 1.0, 0.0) == 1.0

    def test_exponential_point(self):
        v = ml(1.0, 1.0, -1.0)
        assert abs(v - 0.36787944117144233) <= 1e-15

    def test_erfc_point(self):
        # E_{1/2,1}(-1) = e * erfc(1)
        v = ml(0.5, 1.0, -1.0)
        assert abs(v - 0.42758357615580700) <= 1e-10 * 0.427

    def test_reference_point(self):
        # frozen from the extended-precision series reference
        v = ml(0.8, 1.8, -3.0)
        assert abs(v - 0.2956932671059275) <= 1e-10 * 0.2956

    def test_beta_at_zero_is_reciprocal_gamma(self):
        for beta in (0.3, 1.0, 2.5, 3.7):
            v = ml(0.5, beta, 0.0)
            assert abs(v - 1.0 / gamma_fn(beta)) <= 1e-13

    def test_zero_d_argument_is_a_length_one_array(self):
        out = ml_array(0.5, 1.0, -1.0)
        assert out.shape == (1,)
        assert out[0] == ml(0.5, 1.0, -1.0)

    def test_taylor_sum_stops_where_its_terms_underflow(self):
        # 1/Gamma(0.5k + 2000) underflows from k = 0, so the sum has no term
        assert ml(0.5, 2000.0, -0.1) == 0.0


class TestMLClosedForms:
    def test_exponential_on_interval(self):
        xs = np.linspace(-30.0, 0.0, 601)
        vals = ml_array(1.0, 1.0, xs)
        want = np.exp(xs)
        assert np.all(np.abs(vals - want) <= 1e-12 * want)

    def test_erfc_on_interval(self, erfc_refs):
        # E_{1/2,1}(x) = e^{x^2} erfc(-x) for x <= 0
        xs, wants = erfc_refs
        for x, got, want in zip(xs, ml_array(0.5, 1.0, xs), wants):
            assert abs(got - want) <= 1e-10 * want, f"x={x}"


class TestMLReferenceAgreement:
    def test_random_triples(self, ml_ref_triples):
        for alpha, beta, x, want in ml_ref_triples:
            got = ml(alpha, beta, x)
            scale = max(abs(want), 1e-300)
            assert abs(got - want) <= 1e-10 * scale, (alpha, beta, x, got, want)

    def test_reference_branches_agree_on_overlap(self):
        # internal consistency of the reference itself
        for alpha in (0.3, 0.6, 0.9):
            for ya in (60.0, 75.0):
                y = ya**alpha
                t = float(ml_taylor(alpha, 1.0, y))
                s = float(ml_asymptotic(alpha, 1.0, y))
                assert abs(t - s) <= 1e-12 * abs(t)


class TestMLProperties:
    ALPHAS = (0.2, 0.4, 0.6, 0.8, 1.0)

    def test_monotone_and_bounded(self):
        # beta >= alpha: non-increasing in |x| and within (0, 1/Gamma(beta)].
        # For alpha = 1 the grid stops at x = 700: e^{-x} underflows to an
        # exact IEEE zero beyond ~745, where no double can stay positive.
        violations = 0
        for alpha in self.ALPHAS:
            hi = 700.0 if alpha == 1.0 else 1e4
            xs = np.concatenate(([0.0], np.geomspace(1e-3, hi, 160)))
            for beta in (alpha, 1.0, alpha + 1.0, 2.0):
                vals = ml_array(alpha, beta, -xs)
                cap = 1.0 / gamma_fn(beta)
                if np.any(np.diff(vals) > 1e-14 * np.abs(vals[:-1])):
                    violations += 1
                if np.any(vals <= 0.0) or np.any(vals > cap * (1.0 + 1e-12)):
                    violations += 1
        assert violations == 0

    def test_functional_identity(self):
        # E_{a,1}(-x) = 1 - x E_{a,a+1}(-x)
        xs = np.geomspace(1e-3, 1e4, 120)
        for alpha in (0.2, 0.5, 0.8, 0.95):
            e1 = ml_array(alpha, 1.0, -xs)
            e2 = ml_array(alpha, alpha + 1.0, -xs)
            lhs = np.abs((e1 - 1.0) + xs * e2)
            assert np.all(lhs <= 1e-9 * (1.0 + xs * e2))

    def test_asymptotic_envelope_positive_and_bounded(self):
        # r(x) = E_{a,1}(-x) Gamma(1-a) (1+x) stays in a fixed positive band
        xs = np.geomspace(1e-3, 1e5, 200)
        for alpha in (0.2, 0.4, 0.6, 0.8):
            r = ml_array(alpha, 1.0, -xs) * gamma_fn(1.0 - alpha) * (1.0 + xs)
            assert np.all(r > 0.0)
            assert np.all(np.isfinite(r))
            assert float(np.max(r)) <= 10.0

    def test_second_kind_envelope_bounded(self):
        # (1+x) E_{a,a+1}(-x) bounded on [0, 1e5]
        xs = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 160)))
        for alpha in (0.2, 0.5, 0.8):
            v = (1.0 + xs) * ml_array(alpha, alpha + 1.0, -xs)
            assert np.all(np.isfinite(v))
            assert float(np.max(np.abs(v))) <= 10.0

    def test_scalar_matches_array_path(self):
        for alpha, beta, x in ((0.3, 1.0, -7.5), (0.8, 0.8, -120.0), (1.0, 1.0, -2.0)):
            assert ml(alpha, beta, x) == float(ml_array(alpha, beta, np.array([x]))[0])


class TestKernelBits:
    @pytest.mark.pin
    def test_frozen_table_pairs(self):
        # every bit of E at the eight (alpha, beta) pairs of the tables, one
        # batch per pair; a kernel change that moves any bit fails here
        y = np.logspace(-6, 5, 3000)
        pairs = [(alpha, beta) for alpha in (0.2, 0.4, 0.6, 0.8) for beta in (alpha, 1.0)]
        check_pin("kernel.table_pairs", [ml_array(a, b, -(y**a)) for a, b in pairs])

    @pytest.mark.pin
    def test_frozen_taylor_kernel(self):
        # every bit of the Taylor kernel over its band, for each pair batched,
        # every 97th argument alone, and batched with 0, a subnormal and ulp
        # neighbours of the top; a change to its terms or its stop fails here
        chunks = []
        for alpha in _TAYLOR_ALPHAS:
            for beta in _taylor_betas(alpha):
                y_t = special._regime_bounds(alpha, beta)[0]
                x = -(np.geomspace(1e-8, y_t, 1000) ** alpha)
                below = np.nextafter(x[-1], 0.0)
                edge = [0.0, -5e-324, below, np.nextafter(below, 0.0), np.nextafter(x[-1], -np.inf)]
                chunks.append(special._taylor_vec(alpha, beta, x))
                chunks += [special._taylor_vec(alpha, beta, np.array([xi])) for xi in x[::97]]
                chunks.append(special._taylor_vec(alpha, beta, np.concatenate([x, edge])))
        check_pin("kernel.taylor", chunks)

    def test_asymptotic_blocks_match_lone_arguments(self):
        # 2 blocks + 1 row; near y_asym most rows grow their table, so rows
        # regrow from every block and the regrown rows span two blocks
        alpha = beta = 0.2
        n = 2 * special._ASYM_BLOCK + 1
        y_a = special._regime_bounds(alpha, beta)[1]
        x = -(np.geomspace(y_a, 10.0 * y_a, n) ** alpha)
        alone = np.array([ml_array(alpha, beta, x[i : i + 1])[0] for i in range(n)])
        assert _same_bits(ml_array(alpha, beta, x), alone)

    def test_asymptotic_kept_term_at_the_cap_raises(self):
        # the kernel caps log-magnitudes before exp, which must never move a
        # kept term: at |x| = 1e-305 the first term is already ~e^702
        with pytest.raises(NumericalError, match=r"asymptotic term reaches e\^700 for alpha=0.5"):
            special._asym_vec(0.5, 1.0, np.array([-1e-305]))

    def test_overflowing_y_warns_nothing(self):
        # |x|**(1/alpha) = 1e600 overflows to inf, an asymptotic-band y;
        # exp(-log|x| + ...) holds ~|log x| * 2**-53 ~ 8e-14 relative there
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ml(0.5, 1.0, -1e300)
        want = 1.0 / (math.sqrt(math.pi) * 1e300)
        assert abs(got - want) <= 1e-13 * want


class TestAsymptoticBracketing:
    # 1/Gamma(b - a*k) dips with period 1/a in k, so the smallest term of a
    # 64-term table could look interior while the true minimum lay far past
    # it: alone, these raised NumericalError or came out 6.6e-11 off
    @pytest.mark.parametrize(
        "alpha, beta, y",
        [(0.2, 0.2, 36.6), (0.2, 0.2, 40.0), (0.1, 0.1, 40.0), (0.1, 1.0, 30.0)],
    )
    def test_alone_matches_reference(self, alpha, beta, y):
        x = -(y**alpha)
        assert special._regime_bounds(alpha, beta)[1] <= y
        want = ml_ref(alpha, beta, x)
        assert abs(ml(alpha, beta, x) - want) <= 1e-10 * abs(want)

    # The regime thresholds were calibrated at the table's alphas only; just
    # above y_asym these off-grid alphas still raise (ROADMAP item 1's pieces
    # must serve them).  strict: a fix shows up as an XPASS failure.
    @pytest.mark.xfail(strict=True, raises=NumericalError)
    @pytest.mark.parametrize(
        "alpha, beta, ys",
        [
            (0.149, 1.0, np.geomspace(28, 34, 8)),
            (0.196, 0.196, np.geomspace(36, 38.5, 5)),
            (0.149, 0.149, np.geomspace(36, 39.5, 6)),
        ],
        ids=["0.149-1", "0.196-0.196", "0.149-0.149"],
    )
    def test_off_grid_alpha_above_y_asym(self, alpha, beta, ys):
        x = -(ys**alpha)
        got = ml_array(alpha, beta, x)
        want = np.array([float(ml_taylor(alpha, beta, -v)) for v in x])
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))

    # alpha = beta one ulp below 1: all 64 terms of the asymptotic table sit on
    # a Gamma pole, so _asym_vec has nothing to sum where E is ~1e-18 and
    # ~1e-20; it once returned 0.0 and now raises.  The near-(1, 1) band is
    # ROADMAP item 1's.
    @pytest.mark.xfail(strict=True, raises=NumericalError)
    def test_all_pole_table_near_one_one(self):
        a = 0.9999999999999999
        x = np.array([-40.0, -60.0])
        want = np.array([ml_ref(a, a, v) for v in x])
        assert np.all(np.abs(ml_array(a, a, x) - want) <= 1e-10 * np.abs(want))

    def test_all_pole_table_raises(self, capsys):
        a = 0.9999999999999999
        with pytest.raises(NumericalError, match="all asymptotic terms on Gamma poles"):
            ml_array(a, a, np.array([-40.0, -60.0]))
        assert main(["ml", "--alpha", repr(a), "--beta", repr(a), "--x", "-40"]) == 4
        assert "all asymptotic terms on Gamma poles" in capsys.readouterr().err

    # beta one ulp above 1 at alpha = 1: past k = 1 every term of the table
    # lies on a Gamma pole or within 1e-13 of one, so no omitted term is kept
    # and the acceptance check has nothing to check; 5.551e-18 against
    # 9.946e-18, 44 % off.  ROADMAP item 1's.
    @pytest.mark.xfail(strict=True, raises=AssertionError)
    def test_near_pole_table_above_one_one(self):
        want = ml_ref(1.0, 1.0000000000000002, -40.0)
        assert abs(ml(1.0, 1.0000000000000002, -40.0) - want) <= 1e-10 * abs(want)


class TestLargeBeta:
    # At alpha = 1 and integer beta the asymptotic series terminates; a
    # shortcut once cut it after 64 terms (7.4e-8 off at (70, -40), 4.2e-2 at
    # (80, -45)).  The gap fit once summed each node to 10**-(d + 8) absolute,
    # below 1/Gamma(beta) at large beta, and fitted a constant (0.46 off at
    # (65, -30)).  (80, -45) is 2.6e-9 off: the acceptance check bounds the
    # first omitted term, not the rounding of terms ~e^11 above the value.
    @pytest.mark.parametrize("beta, x, tol", [(70, -40.0, 1e-8), (80, -45.0, 1e-8), (65, -30.0, 1e-10)])
    def test_unit_alpha_matches_the_closed_form(self, beta, x, tol):
        # E_{1,b}(z) = z**(1 - b) (e**z - sum_{m < b - 1} z**m / m!), integer b
        with mp.workdps(200):
            z = mp.mpf(x)
            want = z ** (1 - beta) * (mp.exp(z) - mp.fsum(z**m / mp.factorial(m) for m in range(beta - 1)))
        assert abs(ml(1.0, float(beta), x) - want) <= tol * abs(want)

    # the gap band (y < 40 here) at large beta: 0.68 off, a "gap surrogate
    # failed" raise and 0.47 off before its target became relative
    @pytest.mark.parametrize("alpha, beta, y", [(0.5, 65.0, 30.0), (0.3, 50.0, 20.0), (0.9, 90.0, 39.0)])
    def test_gap_band_matches_the_reference(self, alpha, beta, y):
        x = -(y**alpha)
        want = ml_taylor(alpha, beta, -x)
        assert abs(ml(alpha, beta, x) - want) <= 1e-10 * abs(want)

    def test_asymptotic_table_owns_its_poles_read_only(self):
        # 1/Gamma(3 - k) sits on a pole for every k >= 3
        logs, signs, live = special._asym_table(1.0, 3.0, 64)
        assert live.tolist() == [0, 1] and np.all(logs[2:] == np.inf) and np.all(signs[2:] == 0.0)
        assert not any(a.flags.writeable for a in (logs, signs, live))


def _inv_gamma_log_sign(t: float) -> tuple[float, float]:
    """Return (log|1/Gamma(t)|, sign of 1/Gamma(t)); poles map to (-inf, 0)."""
    if t > 0.0:
        return -math.lgamma(t), 1.0
    near = round(t)
    if abs(t - near) < 1e-13:
        return -math.inf, 0.0
    # reflection: 1/Gamma(t) = Gamma(1-t) * sin(pi t) / pi, with the sine
    # argument reduced exactly so precision survives large |t|
    r = t - near
    s = math.sin(math.pi * r)
    if near % 2:
        s = -s
    return math.lgamma(1.0 - t) + math.log(abs(s)) - math.log(math.pi), math.copysign(1.0, s)


def _reference_asym_table(alpha: float, beta: float, kmax: int):
    """_asym_table as it was built from _inv_gamma_log_sign's (-inf, 0) poles."""
    logs, signs = np.empty(kmax), np.empty(kmax)
    for i in range(kmax):
        lg, sg = _inv_gamma_log_sign(beta - alpha * (i + 1))
        logs[i] = math.inf if sg == 0.0 else lg
        signs[i] = sg * (-1.0 if i % 2 else 1.0)
    return logs, signs, np.flatnonzero(signs)


_KMAX = st.sampled_from((64, 256))
_ASYM_ARGS = st.one_of(
    st.tuples(st.floats(1e-3, 1.0), st.floats(-300.0, 200.0), _KMAX),  # large negative t too
    st.tuples(st.sampled_from((0.5, 1.0)), st.integers(-40, 60).map(float), _KMAX),  # exact poles
    st.tuples(  # t within ~1e-13 of an integer, either side of the pole test
        st.sampled_from((0.25, 0.5, 1.0)),
        st.integers(-40, 60).flatmap(lambda n: st.floats(n - 2e-13, n + 2e-13)),
        _KMAX,
    ),
)


class TestAsymTable:
    @settings(max_examples=200)
    @given(args=_ASYM_ARGS)
    @example(args=(0.5, 1.0, 64))
    @example(args=(1.0, 3.0, 256))
    @example(args=(1.0, 1.0 + 5e-14, 64))
    @example(args=(1.0, -250.5, 256))
    def test_table_matches_the_reference_bit_for_bit(self, args):
        # the table owns log|1/Gamma| and its pole form itself; logs, signs
        # (a pole's +-0 included, by signbit) and live keep every bit
        got = special._asym_table.__wrapped__(*args)  # unwrapped: no memo entry
        want = _reference_asym_table(*args)
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(np.signbit(got[1]), np.signbit(want[1]))
        assert np.array_equal(got[2], want[2])


def _reference_asym_vec(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """_asym_vec as it was before its blocks shared one buffer and skipped the
    cut mask on rows cut at the last column; the body is kept verbatim."""
    lx = np.log(np.abs(x))
    reach = math.ceil(2.0 / alpha)
    out = np.empty_like(x)
    omitted = np.full_like(x, -np.inf)  # no live term past the cut: no error estimate
    rows = np.arange(len(x))
    kmax = 64
    while len(rows):
        logs, signs, live = special._asym_table(alpha, beta, kmax)
        if len(live) == 0:  # all kmax terms vanish on poles, yet E != 0: no value to give
            raise NumericalError(f"ml_array: all asymptotic terms on Gamma poles, {alpha=}, {beta=}")
        ks = np.arange(1, kmax + 1)
        regrow = []
        height = max(1, special._ASYM_BLOCK * 64 // kmax)
        for start in range(0, len(rows), height):
            blk = rows[start:start + height]
            # logmag[i, j] = -k_j*log|x_i| + log|1/Gamma(beta - alpha*k_j)|
            logmag = np.multiply.outer(-lx[blk], ks)
            logmag += logs
            kopt = np.argmin(logmag, axis=1)
            if kmax < 65536:
                # a tail already ~e^-45 below the leading term cannot matter
                tail_big = logmag[:, live[-1]] > logmag[:, live[0]] - 45.0
                grow = (kopt >= kmax - 1 - reach) & tail_big
                if np.any(grow):
                    regrow.append(blk[grow])
                    blk, logmag, kopt = blk[~grow], logmag[~grow], kopt[~grow]
            # the first omitted non-pole term estimates the truncation error
            pos = np.searchsorted(live, kopt, side="right")
            has_next = np.flatnonzero(pos < len(live))
            omitted[blk[has_next]] = logmag[has_next, live[pos[has_next]]]
            # numpy's SIMD exp is ~5x slower on a vector holding an infinity, so
            # the log-magnitudes are capped before it; cut terms get a zero weight
            # after it, a pole's zero sign zeroes its e^700, a kept term raises
            np.minimum(logmag, special._ASYM_CLAMP, out=logmag)
            terms = np.exp(logmag, out=logmag)
            terms *= signs
            terms *= ks <= ks[kopt][:, None]
            if max(terms.max(initial=0.0), -terms.min(initial=0.0)) >= math.exp(special._ASYM_CLAMP):
                raise NumericalError(
                    f"ml_array: asymptotic term reaches e^{special._ASYM_CLAMP:g} for "
                    f"alpha={alpha!r}, beta={beta!r}"
                )
            out[blk] = np.sum(terms, axis=1)
        rows = np.concatenate(regrow) if regrow else rows[:0]
        kmax *= 4
    # refuse to return values the series cannot actually support
    bad = np.exp(omitted) > 3e-10 * np.abs(out)
    if np.any(bad):
        raise NumericalError(
            f"ml_array: asymptotic series cannot reach the accuracy "
            f"target for alpha={alpha!r}, beta={beta!r}, x={x[np.argmax(bad)]!r}"
        )
    return out


@st.composite
def _asym_batches(draw):
    """(alpha, beta, x): up to 700 arguments, so that a batch spans several
    blocks, from y = |x|**(1/alpha) just above y_asym (interior minima, rows that
    regrow their table) or far above it (rows cut at the last column), or below
    it, or at a tiny |x|, where the series raises."""
    alpha, beta = draw(st.one_of(
        st.sampled_from([(0.5, 1.0), (0.2, 0.2), (1.0, 2.0), (0.2, 1.0), (0.4, 0.4), (0.8, 1.0)]),
        st.tuples(st.floats(0.05, 1.0), st.floats(0.05, 3.0)),
    ))
    y_a = special._regime_bounds(alpha, beta)[1]
    lo, hi = draw(st.sampled_from([(1.0, 1.5), (1.0, 30.0), (30.0, 1e6), (1.0, 1e300), (0.5, 1.0)]))
    n = draw(st.integers(1, 700))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = -(y_a * lo * (hi / lo) ** rng.random(n)) ** alpha
    if draw(st.integers(0, 7)) == 7:
        x[rng.integers(0, n)] = -1e-305  # the kept term's e^700 check
    return alpha, beta, x


def _asym_outcome(fn, alpha, beta, x):
    # a RuntimeWarning is an error under this suite's filterwarnings: a first
    # omitted term past e^709 at a tiny |x|, which ml_array never passes here
    try:
        return fn(alpha, beta, x).tobytes()
    except (NumericalError, RuntimeWarning) as exc:
        return type(exc).__name__, str(exc)


class TestAsymBlocks:
    @settings(max_examples=120)
    @given(batch=_asym_batches())
    @example(batch=(0.5, 1.0, -np.geomspace(28.0**0.5, 1e3, 600)))
    @example(batch=(0.2, 0.2, -np.geomspace(36.0**0.2, 40.0**0.2, 700)))
    @example(batch=(1.0, 2.0, -np.geomspace(28.0, 1e8, 300)))
    @example(batch=(0.2, 1.0, -np.geomspace(1e10, 1e300, 500) ** 0.2))
    @example(batch=(0.5, 1.0, np.array([-40.0, -1e-305])))  # a kept term past e^700
    @example(batch=(0.25, 0.3125, np.array([-1e-305])))  # an omitted one past e^709
    def test_blocks_match_the_reference_bit_for_bit(self, batch):
        # the shared buffer and the skipped cut mask keep every bit and every
        # error of the earlier block body, which wrote each block anew and
        # multiplied every row by its cut mask
        assert _asym_outcome(special._asym_vec, *batch) == _asym_outcome(_reference_asym_vec, *batch)

    def test_examples_cover_each_kind_of_row(self, monkeypatch):
        # the @examples above hold rows with an interior minimum, rows that
        # regrow their table across blocks and rows cut at the last column
        seen = set()
        argmin = np.argmin

        def recording(a, axis=None):
            k = argmin(a, axis=axis)
            if a.ndim == 2:
                seen.update(("last" if v == a.shape[1] - 1 else "interior") for v in k.tolist())
                seen.update(["regrow"] if a.shape[1] > 64 and a.shape[0] > 1 else [])
            return k

        monkeypatch.setattr(special.np, "argmin", recording)
        for batch in ((0.2, 0.2, -np.geomspace(36.0**0.2, 40.0**0.2, 700)),
                      (0.2, 1.0, -np.geomspace(1e10, 1e300, 500) ** 0.2)):
            special._asym_vec(*batch)
        assert seen == {"last", "interior", "regrow"}


_PAIRS =tuple((a, b) for a in (0.1, 0.2, 0.4, 0.6, 0.8) for b in (a, 1.0))
_TAYLOR_ALPHAS = tuple(i / 10 for i in range(1, 11))


def _taylor_betas(alpha: float) -> tuple[float, ...]:
    return (alpha, 1.0, alpha + 1.0, 0.05, 2.0, 3.3, 0.7)


def _past_taylor(alpha: float, beta: float, u: np.ndarray) -> np.ndarray:
    """Arguments whose y = |x|**(1/alpha) runs log-uniformly over the gap and
    asymptotic bands, from 1.001 y_taylor to 1e3, as u runs over [0, 1]."""
    lo = math.log(1.001 * special._regime_bounds(alpha, beta)[0])
    return -(np.exp(lo + u * (math.log(1e3) - lo)) ** alpha)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBatchInvariance:
    @given(
        u=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_value_depends_on_the_argument_only(self, u, data):
        perm = np.array(data.draw(st.permutations(range(len(u)))))
        dup = np.array(data.draw(st.lists(st.integers(0, len(u) - 1), min_size=1)))
        for alpha, beta in _PAIRS:
            x = _past_taylor(alpha, beta, np.array(u))
            out = ml_array(alpha, beta, x)
            alone = np.array([ml_array(alpha, beta, x[i : i + 1])[0] for i in range(len(x))])
            assert _same_bits(out, alone), (alpha, beta)
            assert _same_bits(ml_array(alpha, beta, x[perm]), out[perm]), (alpha, beta)
            assert _same_bits(
                ml_array(alpha, beta, np.concatenate([x, x[dup]])),
                np.concatenate([out, out[dup]]),
            ), (alpha, beta)

    def test_kernel_build_evaluates_distinct_arguments(self, monkeypatch):
        # truncation 30 has 900 modes but 387 distinct eigenvalues; a kernel
        # build asks for E at 16 memory nodes and at t itself
        cfg = ExperimentConfig()
        ms = ModeSet(dimension=2, truncation=cfg.truncation)
        assert len(np.unique(ms.eigenvalues)) == 387
        counted = []

        def counting(fn):
            def wrapper(*args):
                counted.append(len(args[-1]))
                return fn(*args)

            return wrapper

        # fit the gap band first, so its 16 check points are not counted
        special._gap_fit(0.6, 0.6)
        special._gap_fit(0.6, 1.0)
        monkeypatch.setattr(special, "_taylor_vec", counting(special._taylor_vec))
        monkeypatch.setattr(special, "_asym_vec", counting(special._asym_vec))
        monkeypatch.setattr(special, "_clenshaw", counting(special._clenshaw))
        solver._terms_at(0.6, cfg.tau, ms, cfg.quad_config(), cfg.temporal_subintervals)
        assert 0 < sum(counted) <= 387 * 17


def _unretired_taylor(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """The Taylor kernel's sums with no row taken out: every row summed on the
    kernel's coefficients, to twice the term count at which the last row froze
    plus 16 terms, or to the coefficient cut; a row retired early differs."""
    ax = np.abs(x).astype(np.longdouble)
    acc, pw, k, kmax, stop = np.zeros_like(ax), np.ones_like(ax), 0, 64, math.inf
    while k < stop:
        while kmax < min(k + 2, special._TAYLOR_CAP + 1):  # the kernel's tables, as it grows them
            kmax = min(4 * kmax, special._TAYLOR_CAP + 1)
        coeffs = special._taylor_coeffs(alpha, beta, kmax)
        if k == len(coeffs):
            break
        term = pw * coeffs[k]
        acc = acc - term if k % 2 else acc + term
        pw = pw * ax
        if stop == math.inf and (
            k + 1 == len(coeffs)
            or np.all((term < np.abs(acc) * (special._LD_EPS / 8)) & (ax * coeffs[k + 1] < coeffs[k]))
        ):
            stop = 2 * k + 16
        k += 1
    return acc.astype(np.float64)


@st.composite
def _taylor_batches(draw):
    """(alpha, beta, x): Taylor-band arguments, with ulp clusters at the top,
    zeros and subnormals; beta past 171.6 puts 1/Gamma(beta) below the
    double range, so only the extended-precision sum keeps it."""
    alpha = draw(st.one_of(st.sampled_from(_TAYLOR_ALPHAS), st.floats(0.05, 1.0)))
    beta = draw(st.one_of(st.sampled_from(_taylor_betas(alpha)), st.floats(171.7, 400.0)))
    y_t = special._regime_bounds(alpha, beta)[0]
    u = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16))
    x = list(-((np.array(u) * y_t) ** alpha))
    below = min(x)
    for _ in range(draw(st.integers(0, 3))):
        below = np.nextafter(below, 0.0)
        x.append(below)
    x += draw(st.lists(st.sampled_from([0.0, -0.0, -5e-324, -1e-310]), max_size=3))
    return alpha, beta, np.array(x)


# E_{1,1}(x) with x**4/24 just under 1e-2 eps: a row frozen by its fifth term,
# at the first freeze check
_FIRST_BOUND_EDGE = -((24.0 * special._LD_EPS * 1e-2) ** 0.25) * (1.0 - 1e-7)


def _taylor_examples(test):
    """The inputs that each property test of the Taylor kernel also runs."""
    for batch in (
        (1.0, 1.0, np.array([_FIRST_BOUND_EDGE])),
        (0.6, 1.0, np.array([-(6.3**0.6), -0.25, -(6.3**0.6)])),  # the top twice
        # the runner-up one ulp below the top, first
        (1.0, 1.0, np.array([np.nextafter(_FIRST_BOUND_EDGE, 0.0), _FIRST_BOUND_EDGE])),
        (0.1, 172.0, np.array([-1.13346158])),  # the top of the band, beta past 171.6
    ):
        test = example(batch=batch)(test)
    return test


class TestTaylorStop:
    @settings(max_examples=300)
    @given(batch=_taylor_batches())
    @_taylor_examples
    def test_batched_row_is_the_lone_row(self, batch):
        alpha, beta, x = batch
        out = special._taylor_vec(alpha, beta, x)
        alone = np.concatenate([special._taylor_vec(alpha, beta, x[i : i + 1]) for i in range(len(x))])
        assert _same_bits(out, alone)

    @settings(max_examples=100)
    @given(batch=_taylor_batches())
    @_taylor_examples
    def test_retired_rows_match_the_unretired_sums(self, batch):
        alpha, beta, x = batch
        assert _same_bits(special._taylor_vec(alpha, beta, x), _unretired_taylor(alpha, beta, x))

    @given(u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12))
    def test_taylor_band_value_depends_on_the_argument_alone(self, u):
        for alpha, beta in _PAIRS:
            y_t = special._regime_bounds(alpha, beta)[0]
            x = -((0.99 * y_t * np.array(u)) ** alpha)
            out = ml_array(alpha, beta, x)
            for i in range(len(x)):
                assert _same_bits(out[i : i + 1], ml_array(alpha, beta, x[i : i + 1])), (alpha, beta, x[i])

    def test_rows_at_a_zero_crossing_stop_long_before_the_cut(self, monkeypatch):
        # E_{0.1,0.05} changes sign at x ~ -0.944, in the Taylor band.  An 80-bit
        # sum cannot stay 0 while its terms are not (0 + t = t), so the two doubles
        # either side of the sign change hold the smallest sums, and freeze last:
        # they must stop within 1,024 terms, where the coefficient cut is ~17,500
        # terms away and an unfrozen row would run into it
        alpha, beta = 0.1, 0.05
        lo, hi = -0.95, -0.94
        while (mid := 0.5 * (lo + hi)) not in (lo, hi):
            lo, hi = (mid, hi) if ml(alpha, beta, mid) < 0.0 else (lo, mid)
        x = np.array([lo, hi, -0.5, 0.0])
        sizes = []
        coeffs = special._taylor_coeffs
        monkeypatch.setattr(special, "_taylor_coeffs", lambda a, b, n: sizes.append(n) or coeffs(a, b, n))
        out = special._taylor_vec(alpha, beta, x)
        assert out[0] < 0.0 < out[1]
        assert max(sizes) <= 1024
        assert _same_bits(out, _unretired_taylor(alpha, beta, x))

    def test_a_row_frozen_at_a_table_end_builds_no_longer_table(self, monkeypatch):
        # E_{0.5,1}(-1.6) freezes at the check after term 63, the first table's
        # last: a stop on the term test alone builds no 256-term table there
        x = np.array([-1.6])
        sizes = []
        coeffs = special._taylor_coeffs
        monkeypatch.setattr(special, "_taylor_coeffs", lambda a, b, n: sizes.append(n) or coeffs(a, b, n))
        out = special._taylor_vec(0.5, 1.0, x)
        assert sizes == [64]
        assert _same_bits(out, _unretired_taylor(0.5, 1.0, x))

    def test_cap_raises_in_bounded_memory(self):
        # alpha = 1e-300 makes every coefficient 1/Gamma(1 + ~0) = 1, so at
        # x = -1 no term shrinks and the rule runs into the cap
        tracemalloc.start()
        try:
            with pytest.raises(NumericalError, match="did not converge within 50000 terms"):
                ml(1e-300, 1.0, -1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        # the coefficient tables stop growing at the cap, which bounds the memo
        longest = special._taylor_coeffs(1e-300, 1.0, special._TAYLOR_CAP + 1)
        assert len(longest) == special._TAYLOR_CAP + 1
        assert special._taylor_coeffs.cache_info().maxsize * longest.nbytes <= 32 * 2**20

    def test_asymptotic_blocks_bounded_at_every_width(self):
        # at alpha = 0.02 rows near y_asym grow their table to thousands of
        # columns; a block of 1,024 rows would hold ~32 MB per temporary.
        # At (0.8, 0.8) most rows stay at 64 columns, where blocks of 1,024
        # rows held 512 KB per temporary (a 1.5 MB peak)
        for alpha, beta, n, bound in ((0.02, 1.0, 3000, 8 * 2**20), (0.8, 0.8, 6000, 2**20)):
            y_a = special._regime_bounds(alpha, beta)[1]
            x = -(np.geomspace(y_a, 3 * y_a, n) ** alpha)
            tracemalloc.start()
            try:
                special._asym_vec(alpha, beta, x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (alpha, beta)


def _term_count(alpha, beta, x, full=False):
    # the first k of 1, 2, ..., k + max(1, k // 8), ... whose term is below
    # 10**-(D + 8) min(1, 1/Gamma(beta)), D = _digits(alpha, |x|**(1/alpha)), and
    # past the peak, (alpha*k + beta)**alpha > |x|, and the largest log term
    # of the k = 0 and the visited ones: one x at a time
    d = special._digits(alpha, abs(x) ** (1.0 / alpha), full)
    lx, target, k = math.log(-x), -(d + 8) * math.log(10.0) - max(0.0, math.lgamma(beta)), 1
    peak = -math.lgamma(beta)
    while True:
        logt = k * lx - math.lgamma(alpha * k + beta)
        peak = max(peak, logt)
        if logt < target and (alpha * k + beta) ** alpha > -x:
            return k, peak
        k = k + max(1, k // 8)


@st.composite
def _gap_batches(draw):
    """(alpha, beta, xs, full): up to 8 x across the fit's band, at either budget."""
    alpha = draw(st.floats(0.01, 1.0))
    beta = draw(st.one_of(st.sampled_from([alpha, 1.0]), st.floats(0.05, 80.0)))
    y_t, y_a = special._regime_bounds(alpha, beta)
    vs = st.floats(math.log(y_t / special._MARGIN), math.log(y_a * special._MARGIN))
    xs = [-math.exp(alpha * v) for v in draw(st.lists(vs, min_size=1, max_size=8))]
    return alpha, beta, xs, draw(st.booleans())


_Chunk = namedtuple("_Chunk", "alpha beta prec j entries")


def _chunks(n):
    # the _rgamma_table chunks j that hold k < n
    return list(range(-(-n // special._CHUNK)))


class TestGapFit:
    def test_cold_fit_on_threads_gives_the_serial_bits(self):
        # the gap fit is built on first use, so four threads that all find it
        # missing build it at once; each must see the serial values
        alpha = beta = 0.3
        y_t, y_a = special._regime_bounds(alpha, beta)
        x = -(np.geomspace(1.01 * y_t, 0.99 * y_a, 20) ** alpha)
        special._gap_fit.cache_clear()
        want = ml_array(alpha, beta, x)
        special._gap_fit.cache_clear()
        with ThreadPoolExecutor(max_workers=4) as pool:
            got = list(pool.map(lambda _: ml_array(alpha, beta, x), range(4), timeout=60))
        assert all(_same_bits(g, want) for g in got)

    @staticmethod
    def _cold_coeffs(pairs):
        return [special._gap_fit.__wrapped__(alpha, beta)[2] for alpha, beta in pairs]

    @pytest.mark.pin
    def test_frozen_gap_fits(self):
        # every coefficient of five cold fits, taken before the 1/Gamma table
        # moved from Spouge to Stirling, over all three _regime_bounds
        # branches: beta = alpha, beta in [0.5, 2.5], beta < 0.5 or > 2.5
        pairs = ((0.2, 0.2), (0.5, 0.5), (0.8, 1.0), (0.4, 0.45), (0.9, 3.3))
        check_pin("fit.branches", self._cold_coeffs(pairs))

    @pytest.mark.pin
    def test_frozen_off_grid_gap_fits(self, fresh_fits):
        # every coefficient of ten cold fits off the tables' (alpha, beta) grid,
        # six with beta outside {alpha, 1}, taken before the 1/Gamma table
        # moved to integer fixed point
        check_pin("fit.off_grid", self._cold_coeffs((
            (0.15, 0.5), (0.35, 2.0), (0.7, 1.6), (0.9, 3.3), (0.25, 0.25),
            (0.55, 1.0), (0.45, 0.7), (0.12, 1.0), (0.65, 0.65), (0.85, 2.7),
        )))

    @pytest.mark.pin
    def test_frozen_near_one_gap_fits(self):
        # every coefficient of eight cold fits near (alpha, beta) = (1, 1), where
        # E falls toward e**-y and the Taylor sum cancels the most digits, taken
        # before the nodes were first summed at a lean digit budget
        check_pin("fit.near_one", self._cold_coeffs((
            (0.999, 1.0), (0.999, 0.999), (0.9999, 1.0), (1.0, 1.5),
            (1.0, 1.000001), (0.995, 1.3), (0.97, 0.97), (1.0, 2.0),
        )))

    @staticmethod
    def _nodes(alpha, beta, every=1):
        # the x of the fit's 65 nodes, the largest |x| first, then its 16 checks
        y_t, y_a = special._regime_bounds(alpha, beta)
        lo, hi = math.log(y_t / special._MARGIN), math.log(y_a * special._MARGIN)
        vs = [*(0.5 * (lo + hi) + 0.5 * (hi - lo) * special._cheb_cos(65)[1][::every])]
        vs += [] if every > 1 else [*(lo + (hi - lo) * (np.arange(16) + 0.5) / 16.0)]
        return [-math.exp(alpha * v) for v in vs]

    @pytest.mark.parametrize("full", [False, True])
    @pytest.mark.parametrize("alpha, beta", [(0.2, 0.2), (0.9, 3.3), (1.0, 1.000001)])
    def test_term_counts_follow_the_scalar_rule(self, alpha, beta, full):
        xs = self._nodes(alpha, beta)
        digits = [special._digits(alpha, abs(x) ** (1.0 / alpha), full) for x in xs]
        counts, peaks = special._term_counts(alpha, beta, xs, digits)
        assert list(zip(counts, peaks)) == [_term_count(alpha, beta, x, full) for x in xs]

    @settings(max_examples=200)
    @given(batch=_gap_batches())
    def test_term_counts_follow_the_scalar_rule_anywhere(self, batch):
        alpha, beta, xs, full = batch
        digits = [special._digits(alpha, abs(x) ** (1.0 / alpha), full) for x in xs]
        counts, peaks = special._term_counts(alpha, beta, xs, digits)
        assert list(zip(counts, peaks)) == [_term_count(alpha, beta, x, full) for x in xs]

    @pytest.mark.parametrize("alpha, beta", [(0.2, 0.2), (0.8, 1.0), (0.999, 1.0), (1.0, 1.000001)])
    def test_nodes_are_the_correctly_rounded_log(self, alpha, beta):
        # the largest |x| and every 8th node: E from mpmath's series at 0.87 y
        # + 40 digits, which resolves E ~ e**-y near (1, 1)
        xs = self._nodes(alpha, beta, every=8)
        got = special._decimal_log_ml(alpha, beta, xs)
        for x, v in zip(xs, got):
            dps = int(0.87 * abs(x) ** (1.0 / alpha)) + 40
            e = ml_taylor(alpha, beta, -x, dps=dps)
            with mp.workdps(dps):
                assert v == float(mp.log(e)), x

    def test_full_budget_redo_only_near_one_one(self, redone):
        for alpha in (0.2, 0.4, 0.6, 0.8):
            special._gap_fit.__wrapped__(alpha, alpha)
            special._gap_fit.__wrapped__(alpha, 1.0)
        assert redone == []  # every table pair node keeps _KEPT digits at the lean budget
        special._gap_fit.__wrapped__(1.0, 1.000001)
        assert (1.0, 1.000001, self._nodes(1.0, 1.000001)[0]) in redone

    def test_no_full_budget_redo_at_small_alpha(self, redone):
        # sum |c_k x**k| ~ e**y / alpha: the lean budget's digit per decade of
        # alpha below 0.1 pays for the 1/alpha, which summed 11 of this fit's
        # nodes twice, and 56 of the (0.01, 0.01) fit's
        special._gap_fit.__wrapped__(0.02, 0.02)
        assert redone == []

    def test_cold_fit_ignores_the_callers_decimal_context(self):
        # the fit once worked in a copy of the caller's context: under
        # ROUND_FLOOR the atanh loop of _rgamma_table moved by one ulp a pass
        # and never ended, and an Inexact trap raised at once
        want = special._gap_fit.__wrapped__(0.8, 1.0)[2].tobytes()
        with decimal.localcontext() as ctx:
            ctx.rounding = decimal.ROUND_FLOOR
            ctx.traps[decimal.Inexact] = True
            got = special._gap_fit.__wrapped__(0.8, 1.0)[2].tobytes()
        assert got == want

    def test_reciprocal_gamma_table_matches_mpmath(self, tables):
        # the shared chunks of a real (0.2, 0.2) fit, at the precision it chose,
        # the beta = alpha coefficients read from them and a beta of its own
        # hold 10**-(D + 10) relative, D the digits of the fit's largest |x|,
        # y = 1.02 * 36: no worse than the Spouge bound it replaced
        d = special._digits(0.2, 36.0 * special._MARGIN)
        special._gap_fit.__wrapped__(0.2, 0.2)
        prec = d + 17
        assert [(c.beta, c.prec, c.j) for c in tables] == [(1.0, prec, j) for j in range(len(tables))]
        unit = [e for c in tables for e in c.entries]
        n = len(unit)
        derived = special._series_coeffs(0.2, 0.2, n - 1, prec)
        assert len(tables) == len(_chunks(n))  # the derived coefficients built no chunk
        low = special._series_coeffs(0.2, 0.05, 64, prec)  # w = 0.05 + 0.2k < 13
        assert [(c.beta, c.prec) for c in tables[-2:]] == [(0.05, prec)] * 2
        tol = mp.mpf(10) ** -(d + 10)
        # Stirling's series starts at z = 26 here: k < 125 are shifted up to
        # it, larger k are not; the largest k has the largest |log Gamma|
        ks = [*range(0, n - 1, 29), n - 2]
        cases = [(k, 1.0, unit[k]) for k in [*ks, n - 1]]  # 1/Gamma(0.2k + 1)
        cases += [(k + 1, 0.0, derived[k]) for k in ks]  # 1/Gamma(0.2(k + 1))
        cases += [(k, 0.05, c) for k, c in enumerate(low)]
        with mp.workdps(prec + 30):
            for k, beta, c in cases:
                want = mp.rgamma(mp.mpf(0.2) * k + mp.mpf(beta))
                assert abs(mp.mpf(str(c)) / want - 1) <= tol, (beta, k)

    @pytest.mark.parametrize("alpha, beta", [(0.05, 0.05), (0.99, 0.99), (0.9, 3.3)])
    def test_reciprocal_gamma_tables_match_mpmath_at_more_pairs(self, tables, alpha, beta):
        # the table a real fit builds, at small and near-one alpha and at the
        # frozen pair's beta = 3.3, at the precision the fit chose, D + 17
        # digits, holds 10**-(D + 10) relative at every 24th entry and the last
        special._gap_fit.__wrapped__(alpha, beta)
        (b, prec), = {(c.beta, c.prec) for c in tables}
        assert b == (1.0 if beta == alpha else beta)
        assert [c.j for c in tables] == list(range(len(tables)))  # each chunk once, in order
        got = [e for c in tables for e in c.entries]
        tol = mp.mpf(10) ** -(prec - 17 + 10)
        with mp.workdps(prec + 30):
            for k in [*range(0, len(got), 24), len(got) - 1]:
                want = mp.rgamma(mp.mpf(alpha) * k + mp.mpf(b))
                assert abs(mp.mpf(str(got[k])) / want - 1) <= tol, k

    def test_pi_literal_rounds_like_mpmath(self):
        # the Stirling constant ln sqrt(2 pi) reads pi to ~100 digits
        with mp.workdps(130):
            ref = decimal.Decimal(mp.nstr(mp.pi, 120))
        for prec in range(10, 101):
            with decimal.localcontext() as ctx:
                ctx.prec = prec
                assert +special._PI == +ref, prec

    @staticmethod
    def _memo(f, like):
        # a private memo of f, bounded as the module's memo `like`
        return lru_cache(maxsize=like.cache_parameters()["maxsize"])(f)

    @pytest.fixture()
    def fresh_fits(self, monkeypatch):
        # private memos, so a fit or a 1/Gamma chunk another test cached
        # (or patched) cannot skip the code or leak into this one
        for name in ("_gap_fit", "_rgamma_table"):
            memo = getattr(special, name)
            monkeypatch.setattr(special, name, self._memo(memo.__wrapped__, memo))

    @pytest.fixture()
    def tables(self, monkeypatch, fresh_fits):
        # every 1/Gamma chunk built, in the order built: each miss of a private memo
        built, table = [], special._rgamma_table.__wrapped__

        def spy(alpha, beta, prec, j):
            built.append(_Chunk(alpha, beta, prec, j, table(alpha, beta, prec, j)))
            return built[-1].entries

        monkeypatch.setattr(special, "_rgamma_table", self._memo(spy, special._rgamma_table))
        return built

    @pytest.fixture()
    def redone(self, monkeypatch, fresh_fits):
        # (alpha, beta, x) of every node summed again at the full digit budget
        nodes, log_ml = [], special._decimal_log_ml

        def spy(alpha, beta, xs, full=False):
            nodes.extend((alpha, beta, x) for x in xs if full)
            return log_ml(alpha, beta, xs, full)

        monkeypatch.setattr(special, "_decimal_log_ml", spy)
        return nodes

    # the eight table pairs and three more alphas, (alpha, alpha) first as in
    # the solver; their cold coefficients' pin was taken before the (alpha, 1)
    # and (alpha, alpha) fits shared one 1/Gamma table
    _COLD_PAIRS = [(a, b) for a in (0.05, 0.2, 0.3, 0.4, 0.6, 0.8, 0.99) for b in (a, 1.0)]

    @pytest.mark.pin
    @pytest.mark.parametrize("order", ["solver", "reverse", "threads"])
    def test_cold_fits_keep_their_bits_in_any_order(self, fresh_fits, order):
        pairs, fit = self._COLD_PAIRS, special._gap_fit.__wrapped__
        if order == "threads":
            with ThreadPoolExecutor(max_workers=4) as pool:
                fits = dict(zip(pairs, pool.map(lambda p: fit(*p), pairs, timeout=120)))
        else:
            fits = {p: fit(*p) for p in (pairs if order == "solver" else pairs[::-1])}
        check_pin("fit.cold_any_order", [fits[p][2] for p in pairs])

    def test_alpha_fits_share_one_table_sized_by_need(self, monkeypatch, tables):
        asked, coeffs = [], special._series_coeffs
        monkeypatch.setattr(special, "_series_coeffs", lambda a, b, n, p: asked.append(n) or coeffs(a, b, n, p))
        special._gap_fit(0.4, 0.4)
        special._gap_fit(0.4, 1.0)
        # each fit asks for its largest term count; the beta = 1 chunks to one
        # entry past the (alpha, alpha) count, each built once, serve both
        n_aa, n_a1 = asked
        assert [(c.beta, c.j) for c in tables] == [(1.0, j) for j in _chunks(n_aa + 1)]
        # a lone (alpha, 1) fit builds only the chunks of its own, shorter, length
        special._rgamma_table.cache_clear()
        tables.clear()
        special._gap_fit.__wrapped__(0.4, 1.0)
        assert [(c.beta, c.j) for c in tables] == [(1.0, j) for j in _chunks(n_a1)]
        assert len(tables) < len(_chunks(n_aa + 1))

    def test_reverse_order_extends_the_table_from_its_end(self, tables):
        # an (alpha, 1) fit before its (alpha, alpha) fit: the longer fit
        # builds only the chunks past the shorter one's, each once, all at the
        # shared precision the (alpha, alpha) fit sets
        special._gap_fit(0.4, 1.0)
        n1 = len(tables)
        special._gap_fit(0.4, 0.4)
        prec = special._digits(0.4, 36.0 * special._MARGIN) + 17
        assert [(c.beta, c.prec, c.j) for c in tables] == [(1.0, prec, j) for j in range(len(tables))]
        assert 0 < n1 < len(tables)

    def test_sourced_problem_builds_one_table_per_alpha(self, monkeypatch, tables):
        monkeypatch.setattr(solver, "_tau_terms", lru_cache(maxsize=16)(solver._tau_terms.__wrapped__))
        # one entry past the (alpha, alpha) fit's term count at its largest |x|
        size = _term_count(0.4, 0.4, -(36.0 * special._MARGIN) ** 0.4)[0] + 1
        want = [(0.4, 1.0, j) for j in _chunks(size)]
        pp = paper_problem(ExperimentConfig(alphas=(0.4,), truncation=8))
        # at tau only the kernel has gap arguments
        assert [(c.alpha, c.beta, c.j) for c in tables] == want
        # at t = 1e-2 E_{alpha,1} has gap arguments too: its fit reads the
        # chunks of the kernel's (alpha, alpha) fit, and none is built twice
        special._gap_fit.cache_clear()
        special._rgamma_table.cache_clear()
        tables.clear()
        pp.reconstruct(0.4, 1e-2)
        assert [(c.alpha, c.beta, c.j) for c in tables] == want

    def test_stirling_coeffs_match_the_bernoulli_recurrence(self):
        b = [Fraction(1)]  # Bernoulli numbers: sum_{j <= n} C(n + 1, j) B_j = 0
        for n in range(1, 2 * special._STIRLING_TERMS + 3):
            b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
        want = tuple(b[2 * m] / (2 * m * (2 * m - 1)) for m in range(1, special._STIRLING_TERMS + 2))
        assert special._stirling_coeffs() == want

    @staticmethod
    def _fails(capsys, alpha, y, message):
        x = -(y**alpha)
        with pytest.raises(NumericalError, match=message):
            ml(alpha, 1.0, x)
        assert main(["ml", "--alpha", repr(alpha), "--beta", "1", "--x", repr(x)]) == 4
        assert re.search(message, capsys.readouterr().err)

    def test_series_length_cap_raises_before_decimal_work(self, monkeypatch, fresh_fits, capsys):
        # alpha = 1e-4: the terms shrink only once alpha*k + 1 > y, which at
        # the fit's first node (y = 1.02 * 28) takes k > 275,000, past the cap
        def table(*args):
            raise AssertionError("decimal work started")

        monkeypatch.setattr(special, "_rgamma_table", table)
        self._fails(capsys, 1e-4, 10.0, "series length cap exceeded")

    def test_non_positive_sum_raises(self, monkeypatch, fresh_fits, capsys):
        table = special._rgamma_table
        monkeypatch.setattr(special, "_rgamma_table", lambda *args: [-c for c in table(*args)])
        self._fails(capsys, 0.9, 10.0, "extended-precision sum non-positive")

    def test_fit_that_misses_the_target_at_257_nodes_raises(self, monkeypatch, fresh_fits, capsys):
        sizes = []
        clenshaw = special._clenshaw

        def off(fit, v):
            sizes.append(len(fit[2]))
            return clenshaw(fit, v) + 1e-10

        monkeypatch.setattr(special, "_clenshaw", off)
        self._fails(capsys, 0.9, 10.0, r"failed to reach 1e-11 .* \(best 1\.00e-10\)")
        assert sizes == [65, 129, 257] * 2


def _immutable(v) -> bool:
    # an immutable value, or a frozen container of them whose arrays are read-only
    if isinstance(v, np.ndarray):
        return not v.flags.writeable
    if isinstance(v, tuple):
        return all(map(_immutable, v))
    if dataclasses.is_dataclass(v):
        fields = dataclasses.fields(v)
        return v.__dataclass_params__.frozen and all(_immutable(getattr(v, f.name)) for f in fields)
    return isinstance(v, (int, float, decimal.Decimal, Fraction))


class TestMemos:
    def test_every_memo_hands_out_read_only_values(self):
        # a memoized value is shared by every caller of its key, so none may
        # write through it: each memo returns read-only arrays in frozen containers
        samples = {
            "_taylor_coeffs": (0.5, 1.0, 64), "_asym_table": (0.5, 1.0, 64),
            "_stirling_coeffs": (), "_fixed_consts": (64,), "_rgamma_table": (0.5, 1.0, 30, 1),
            "_cheb_cos": (65,), "_gap_fit": (0.5, 1.0),
        }
        memos = {n: v for n, v in vars(special).items() if hasattr(v, "cache_info")}
        memos.update(_tau_terms=solver._tau_terms, _project=spectral._project)
        samples.update(
            _tau_terms=(0.4, 1.0, ModeSet(1, 8), QuadConfig(), 4, True),
            _project=(math.sin, ModeSet(1, 8), QuadConfig()),
        )
        # a memo with no sample here fails too, so a new one is checked from the
        # start; each is called unwrapped, so no test finds an entry of this one
        bad = [n for n, m in memos.items() if n not in samples or not _immutable(m.__wrapped__(*samples[n]))]
        assert bad == []
        assert sorted(memos) == sorted(samples)
