"""Experiments tests: benchmark setup, noise recipes, table runs, fits, emits.

Value pins marked "frozen" are this implementation's measured outputs,
recorded to catch regressions; benchmark-fidelity assertions live in the
acceptance suite.
"""

from __future__ import annotations

import hashlib
import math
import sys
import tracemalloc

import numpy as np
import pytest

from fracback import (
    ChoiceRule,
    DomainError,
    ErrorTable,
    ExperimentConfig,
    ModeSet,
    NoiseMode,
    NumericalError,
    ParameterChoiceError,
    QuadConfig,
    RegularizationChoice,
    SingularMode,
    Source,
    SpectralField,
    choose_t,
    emit_table,
    fit_rate,
    ml_array,
    noise_audit,
    noisy_data,
    noisy_source,
    paper_problem,
    reconstruct_noisy,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
    singular_nodes,
)
from fracback import experiments
from _benchmark_oracle import direct_rule_error, exact_error
from _pins import check_pin

PI = math.pi

REDUCED = ExperimentConfig(
    alphas=(0.4, 0.8), truncation=8, sweep=(1e-3, 1e-4, 1e-5)
)


def small_config(**kw) -> ExperimentConfig:
    base = dict(alphas=(0.5,), truncation=4)
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_defaults_match_benchmark(self):
        cfg = ExperimentConfig()
        assert cfg.alphas == (0.2, 0.4, 0.6, 0.8)
        assert cfg.tau == 1.0
        assert cfg.truncation == 30
        assert cfg.subintervals == 4
        assert cfg.points == 4
        assert cfg.temporal_subintervals == 4
        assert cfg.sweep is None
        assert cfg.noise_mode is NoiseMode.PAPER_CONSTANT
        assert cfg.seed == 0
        assert cfg.singular_mode is SingularMode.PAPER_DIRECT

    def test_alphas_coerced_and_validated(self):
        assert ExperimentConfig(alphas=(1,)).alphas == (1.0,)
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=())
        with pytest.raises(DomainError):
            ExperimentConfig(alphas=(0.5, 1.5))
        # equal alphas would give identical columns, and lookups find the first
        for alphas in ((0.5, 0.5), (0.2, 1, 1.0)):
            with pytest.raises(DomainError, match="alphas must be distinct"):
                ExperimentConfig(alphas=alphas)

    def test_scalar_alphas_is_not_a_sequence(self):
        with pytest.raises(DomainError, match=r"alphas must be a sequence, got 0\.5$"):
            ExperimentConfig(alphas=0.5)
        for value in ("0.5", b"0.5", {0.5: 1}):
            with pytest.raises(DomainError, match=r"alphas must be a sequence, got "):
                ExperimentConfig(alphas=value)
        with pytest.raises(DomainError, match=r"sweep must be a sequence, got '1e-3'$"):
            ExperimentConfig(sweep="1e-3")

    def test_tau_and_seed_validation(self):
        for tau in (0.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                ExperimentConfig(tau=tau)
        with pytest.raises(DomainError, match="finite and positive"):
            ExperimentConfig(tau=True)
        with pytest.raises(DomainError):
            ExperimentConfig(seed=True)
        with pytest.raises(DomainError, match="singular mode"):
            ExperimentConfig(singular_mode="bogus")
        # numpy's generators reject a negative seed only when noise is drawn
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            ExperimentConfig(seed=-1, noise_mode="seeded_random")
        with pytest.raises(DomainError, match="unknown noise mode"):
            ExperimentConfig(noise_mode="bogus")

    def test_empty_sweep_rejected(self):
        # an empty sweep used to fall back silently to the default levels
        for sweep in ((), []):
            with pytest.raises(DomainError):
                ExperimentConfig(sweep=sweep)

    @pytest.mark.parametrize(
        "sweep",
        [
            (1e-4, 1e-3),
            (1e-3, 1e-3),
            (1e-2, 0.0),
            (1e-2, -1e-3),
            (math.inf, 1e-3),
            (1e-2, math.nan),
        ],
    )
    def test_sweep_not_positive_decreasing_rejected(self, sweep):
        # these used to run the whole table and fail only in ErrorTable
        with pytest.raises(DomainError, match="sweep"):
            ExperimentConfig(sweep=sweep)

    def test_enum_coercion_from_strings(self):
        cfg = ExperimentConfig(
            noise_mode="seeded_random", singular_mode="graded_substitution"
        )
        assert cfg.noise_mode is NoiseMode.SEEDED_RANDOM
        assert cfg.singular_mode is SingularMode.GRADED_SUBSTITUTION

    def test_quad_config_mirror(self):
        cfg = ExperimentConfig(points=6, subintervals=2, singular_mode="graded_substitution")
        quad = cfg.quad_config()
        assert quad.points == 6
        assert quad.subintervals == 2
        assert quad.singular_mode is SingularMode.GRADED_SUBSTITUTION


class TestErrorTable:
    def table(self, **kw):
        base = dict(
            table_id="table1",
            config=small_config(sweep=(1e-1, 1e-2, 1e-3)),
            rows=((1e-1,), (1e-2,), (1e-3,)),
        )
        base.update(kw)
        return ErrorTable(**base)

    def test_unknown_id(self):
        with pytest.raises(DomainError):
            self.table(table_id="table9")

    def test_row_count_mismatch(self):
        with pytest.raises(DomainError):
            self.table(rows=((1e-1,), (1e-2,)))

    def test_ragged_row(self):
        with pytest.raises(DomainError):
            self.table(rows=((1e-1,), (1e-2, 3.0), (1e-3,)))

    def test_errors_finite_nonnegative(self):
        with pytest.raises(DomainError):
            self.table(rows=((1e-1,), (-1e-2,), (1e-3,)))
        with pytest.raises(DomainError):
            self.table(rows=((1e-1,), (math.nan,), (1e-3,)))

    def test_content_hash_autofill(self):
        tab = self.table()
        assert len(tab.content_hash) == 64
        want = hashlib.sha256(tab.to_csv().encode("utf-8")).hexdigest()
        assert tab.content_hash == want
        # derived from the CSV only; a caller cannot set it
        with pytest.raises(TypeError):
            self.table(content_hash="bogus")

    def test_content_hash_falls_back_to_hashlib(self, monkeypatch):
        # without CPython's built-in module (_sha2 on 3.12+, _sha256 before it)
        # the digest comes from hashlib, with the same bytes
        real, used = hashlib.sha256, []

        def spy(data):
            used.append(data)
            return real(data)

        monkeypatch.setattr(hashlib, "sha256", spy)
        want = self.table().content_hash
        assert not used  # the built-in module serves by default
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        tab = self.table()
        assert len(used) == 1
        assert tab.content_hash == want == real(tab.to_csv().encode("utf-8")).hexdigest()

    def test_column_lookup(self):
        tab = self.table()
        assert tab.column(0.5) == (1e-1, 1e-2, 1e-3)
        with pytest.raises(DomainError):
            tab.column(0.9)

    def test_csv_shape_and_header(self):
        tab = self.table()
        text = tab.to_csv()
        lines = text.splitlines()
        assert lines[0] == "level,alpha_0.5"
        assert len(lines) == 4
        assert lines[1] == "0.1,0.1"


class TestPaperProblem:
    def test_u0_single_mode(self, benchmark_problem):
        pp = benchmark_problem
        i11 = pp.modeset.index_of(1, 1)
        assert pp.u0.coeff(1, 1) == pytest.approx(PI / 2.0, rel=1e-14)
        off = np.delete(np.abs(pp.u0.coeffs), i11)
        assert float(off.max()) < 1e-9  # frozen measurement: 5.87e-16

    def test_g_single_mode(self, benchmark_problem):
        pp = benchmark_problem
        i11 = pp.modeset.index_of(1, 1)
        for a, g in pp.finals.items():
            off = np.delete(np.abs(g.coeffs), i11)
            assert float(off.max()) < 1e-9, a  # frozen: <= 1.23e-17
            assert g.coeff(1, 1) > 0.0

    def test_problems_share_modeset_and_quad(self, benchmark_problem):
        pp = benchmark_problem
        for a, prob in pp.problems.items():
            assert prob.alpha == a
            assert prob.modeset is pp.modeset
            assert prob.quad is pp.quad
        with pytest.raises(DomainError, match="alpha=0.3"):
            pp.reconstruct(0.3, 0.1)  # not a KeyError

    def test_alpha_one_diagnostic_final_value(self):
        cfg = ExperimentConfig(
            alphas=(1.0,),
            truncation=8,
            temporal_subintervals=256,
            singular_mode=SingularMode.GRADED_SUBSTITUTION,
        )
        pp = paper_problem(cfg)
        got = pp.finals[1.0].coeff(1, 1)
        want = (PI / 2.0) * math.exp(-PI * PI)
        assert got == pytest.approx(want, rel=1e-6)  # frozen rel err 4.6e-13

    def test_cold_request_in_bounded_memory(self):
        # the work of one cold `fracback backward --alpha 0.2 --eps --delta`
        # request after its decimal gap fits, which are built first and kept
        # out of the trace; projecting u0 pointwise once held a 480 x 480
        # list of lists (9.1 MB traced), and the 480 x 480 grid of node
        # values with 512 KB asymptotic-series blocks peaked at 2.28 MB
        import fracback.solver as solver
        import fracback.special as special
        import fracback.spectral as spectral

        for beta in (0.2, 1.0):
            special._gap_fit(0.2, beta)
        spectral._project.cache_clear()
        solver._tau_terms.cache_clear()
        tracemalloc.start()
        try:
            pp = paper_problem(ExperimentConfig(alphas=(0.2,)))
            pp.reconstruct(0.2, pp.paper_t(0.2, 1e-5), 1e-5, 1e-5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 2**20


class TestNoise:
    MS = ModeSet(dimension=2, truncation=6)
    QUAD = QuadConfig()

    def base_source(self):
        return paper_problem(small_config(truncation=6)).problems[0.5].source

    def test_zero_levels_are_identity(self):
        src = self.base_source()
        assert noisy_source(src, 0.0, self.MS) is src
        pp = paper_problem(small_config())
        g = pp.finals[0.5]
        assert noisy_data(g, 0.0, self.QUAD) is g

    def test_noisy_source_shares_base_terms(self):
        src = self.base_source()
        for mode in NoiseMode:
            noisy = noisy_source(src, 1e-3, self.MS, mode=mode)
            assert len(noisy.terms) == len(src.terms) + 1
            assert all(a is b for a, b in zip(noisy.terms, src.terms))

    def test_negative_levels_rejected(self):
        src = self.base_source()
        pp = paper_problem(small_config())
        with pytest.raises(DomainError):
            noisy_source(src, -1e-3, self.MS)
        with pytest.raises(DomainError):
            noisy_data(pp.finals[0.5], -1e-3, self.QUAD)

    def test_mode_strings_coerced_and_bad_recipes_rejected(self):
        # a mode given by its value takes the enum's recipe, bit for bit
        pp = paper_problem(small_config(truncation=6))
        g, src, s = pp.finals[0.5], self.base_source(), np.array([0.5])
        for mode in NoiseMode:
            want = noisy_data(g, 1e-3, pp.quad, mode=mode, seed=7)
            got = noisy_data(g, 1e-3, pp.quad, mode=mode.value, seed=7)
            assert got.coeffs.tobytes() == want.coeffs.tobytes(), mode
            want = noisy_source(src, 1e-3, self.MS, mode=mode, seed=7)
            got = noisy_source(src, 1e-3, self.MS, mode=mode.value, seed=7)
            assert np.array_equal(
                got.coefficient_batch(self.MS, self.QUAD, s),
                want.coefficient_batch(self.MS, self.QUAD, s),
            ), mode
        for kwargs in ({"mode": "bogus"}, {"seed": -1}, {"mode": "seeded_random", "seed": -1}):
            with pytest.raises(DomainError):
                noisy_data(g, 1e-3, pp.quad, **kwargs)
            with pytest.raises(DomainError):
                noisy_source(src, 1e-3, self.MS, **kwargs)

    def test_constant_data_shift_mode_13(self):
        pp = paper_problem(small_config(truncation=6))
        g = pp.finals[0.5]
        delta = 0.1
        shifted = noisy_data(g, delta, pp.quad)
        added = shifted.coeff(1, 3) - g.coeff(1, 3)
        assert added == pytest.approx(4.0 * delta / (3.0 * PI), rel=1e-10)
        added11 = shifted.coeff(1, 1) - g.coeff(1, 1)
        assert added11 == pytest.approx(4.0 * delta / PI, rel=1e-10)

    def test_constant_data_shift_even_modes_vanish(self):
        pp = paper_problem(small_config(truncation=6))
        g = pp.finals[0.5]
        shifted = noisy_data(g, 0.1, pp.quad)
        for idx in ((2, 1), (1, 2), (2, 2), (4, 3)):
            added = shifted.coeff(*idx) - g.coeff(*idx)
            assert abs(added) < 1e-10, idx

    def test_constant_source_shift_matches_and_is_static(self):
        eps = 0.01
        # pure shift: a shift over the zero source exposes it exactly
        shift_only = noisy_source(Source(), eps, self.MS)
        cols = shift_only.coefficient_batch(self.MS, self.QUAD, np.array([0.1, 0.9]))
        assert np.array_equal(cols[:, 0], cols[:, 1])  # time-independent
        k13 = self.MS.index_of(1, 3)
        assert cols[k13, 0] == pytest.approx(4.0 * eps / (3.0 * PI), rel=1e-10)

    def test_seeded_source_norm_and_determinism(self):
        src = self.base_source()
        eps = 1e-3
        s = np.array([0.5])
        a = noisy_source(src, eps, self.MS, mode=NoiseMode.SEEDED_RANDOM, seed=7)
        b = noisy_source(src, eps, self.MS, mode=NoiseMode.SEEDED_RANDOM, seed=7)
        c = noisy_source(src, eps, self.MS, mode=NoiseMode.SEEDED_RANDOM, seed=8)
        base = src.coefficient_batch(self.MS, self.QUAD, s)
        va = a.coefficient_batch(self.MS, self.QUAD, s) - base
        vb = b.coefficient_batch(self.MS, self.QUAD, s) - base
        vc = c.coefficient_batch(self.MS, self.QUAD, s) - base
        assert np.array_equal(va, vb)
        assert not np.array_equal(va, vc)
        assert float(np.sqrt(np.sum(va**2))) == pytest.approx(eps, rel=1e-12)

    def test_seeded_data_norm_and_stream_separation(self):
        pp = paper_problem(small_config(truncation=6))
        g = pp.finals[0.5]
        delta = 1e-3
        shifted = noisy_data(g, delta, pp.quad, mode=NoiseMode.SEEDED_RANDOM, seed=7)
        dshift = shifted.coeffs - g.coeffs
        assert float(np.sqrt(np.sum(dshift**2))) == pytest.approx(delta, rel=1e-12)
        src = self.base_source()
        sshift = (
            noisy_source(src, delta, g.modeset, mode=NoiseMode.SEEDED_RANDOM, seed=7)
            .coefficient_batch(g.modeset, pp.quad, np.array([0.0]))[:, 0]
            - src.coefficient_batch(g.modeset, pp.quad, np.array([0.0]))[:, 0]
        )
        assert not np.array_equal(dshift, sshift)  # independent streams

    def test_noise_audit(self):
        ms = ModeSet(dimension=2, truncation=30)
        aud = noise_audit(0.01, ms, QuadConfig())
        assert aud.nominal == 0.01
        assert aud.function_norm == (0.01 / 2.0) * PI
        assert aud.function_norm > aud.nominal  # recipe exceeds nominal level
        assert 0.95 * aud.function_norm < aud.truncated_norm < aud.function_norm
        # in d = 1 the constant's L2 norm on (0, pi) is sqrt(pi)
        aud = noise_audit(0.01, ModeSet(dimension=1, truncation=30), QuadConfig())
        assert aud.function_norm == pytest.approx((0.01 / 2.0) * math.sqrt(PI), rel=1e-15)
        assert 0.95 * aud.function_norm < aud.truncated_norm < aud.function_norm

    def test_constant_recipe_in_one_dimension(self):
        # the shift delta/2 projects to (delta/2) sqrt(2/pi) (2/m) on odd modes
        ms = ModeSet(dimension=1, truncation=6)
        delta = 0.1
        want = [(delta / 2.0) * math.sqrt(2.0 / PI) * (2.0 / m if m % 2 else 0.0)
                for m in range(1, 7)]
        shifted = noisy_data(SpectralField(ms, np.zeros(6)), delta, self.QUAD)
        assert shifted.coeffs == pytest.approx(want, rel=1e-10, abs=1e-12)
        cols = noisy_source(Source(), delta, ms).coefficient_batch(ms, self.QUAD, np.array([0.5]))
        assert cols[:, 0].tobytes() == shifted.coeffs.tobytes()

    def test_overflowing_data_noise_raises(self):
        # (delta/2) times the constant's (1, 1) coefficient 8/pi overflowed: a
        # RuntimeWarning and a DomainError on the SpectralField, and two inf norms
        g = SpectralField(self.MS, np.zeros(self.MS.size))
        with pytest.raises(NumericalError, match=r"shifted data is not finite for mode \(1, 1\)"):
            noisy_data(g, 1.7e308, self.QUAD)
        with pytest.raises(NumericalError, match="noise_audit: the norms of level=1.7e"):
            noise_audit(1.7e308, self.MS, self.QUAD)

    def test_noise_audit_rejects_negative(self):
        with pytest.raises(DomainError):
            noise_audit(-0.1, self.MS, self.QUAD)

    def test_wrong_argument_types_rejected(self):
        # each once failed with a bare AttributeError
        src, g = Source(), SpectralField(self.MS, np.zeros(self.MS.size))
        for call in (
            lambda: noisy_source(src, 0.01, "x"),
            lambda: noisy_source("x", 0.01, self.MS),
            lambda: noisy_data("x", 0.01, self.QUAD),
            lambda: noisy_data(g, 0.01, "x"),
            lambda: noise_audit(0.01, "x", self.QUAD),
            lambda: noise_audit(0.01, self.MS, "x"),
        ):
            with pytest.raises(DomainError, match="must be a [A-Za-z]+, got 'x'"):
                call()

    def test_noise_levels_share_tau_terms_and_unit_projection(self, monkeypatch):
        import fracback.solver as solver

        pp = paper_problem(small_config(truncation=6))  # g fills the tau memo
        prob, g = pp.problems[0.5], pp.finals[0.5]
        unit_points = []

        def unit(v):
            unit_points.append(v)
            return 1.0

        ml_args = []

        def recording_ml_array(alpha, beta, x):
            ml_args.append(np.array(x, dtype=np.float64).ravel())
            return ml_array(alpha, beta, x)

        monkeypatch.setattr(experiments, "_one", unit)  # the recipe's constant is (_one,) * d
        monkeypatch.setattr(solver, "ml_array", recording_ml_array)
        for eta in (1e-3, 1e-5):
            t = choose_t(RegularizationChoice(ChoiceRule.PAPER_TABLE2, eta=eta), 0.5)
            f_eta = noisy_source(prob.source, eta, pp.modeset)
            reconstruct_noisy(prob, noisy_data(g, eta, pp.quad), f_eta, t)
            noise_audit(eta, pp.modeset, pp.quad)
        lam = pp.modeset.eigenvalues
        _, _, z = singular_nodes(
            prob.tau, prob.alpha, pp.quad, subintervals=prob.temporal_subintervals
        )
        e1_at_tau = -lam * prob.tau**prob.alpha
        kernel_at_tau = -np.outer(lam, z).ravel()
        at_tau = np.concatenate([e1_at_tau, kernel_at_tau])
        assert ml_args  # the terms at t < tau are still evaluated
        assert not any(np.isin(x, at_tau).any() for x in ml_args)
        per_direction = pp.quad.subintervals * pp.modeset.truncation * pp.quad.points
        assert len(unit_points) == 2 * per_direction  # one projection of 1


class TestTableRuns:
    def test_table1_structure(self, table1_run):
        tab, _ = table1_run
        assert tab.table_id == "table1"
        assert tab.levels == tuple(10.0 ** -(i + 1) for i in range(1, 9))
        assert tab.alphas == (0.2, 0.4, 0.6, 0.8)
        assert len(tab.rows) == 8

    def test_table23_structure(self, table2_run, table3_run):
        for tab, _ in (table2_run, table3_run):
            assert tab.levels == tuple(10.0 ** -(i + 2) for i in range(1, 8))
            assert len(tab.rows) == 7
        assert table2_run[0].table_id == "table2"
        assert table3_run[0].table_id == "table3"

    def test_columns_strictly_decreasing(self, table1_run, table2_run, table3_run):
        for tab, _ in (table1_run, table2_run, table3_run):
            for a in tab.alphas:
                col = tab.column(a)
                assert all(b < a_ for a_, b in zip(col, col[1:])), (tab.table_id, a)

    @pytest.mark.pin
    def test_frozen_entries(self, table1_run, table2_run, table3_run):
        t1, t2, t3 = table1_run[0], table2_run[0], table3_run[0]
        check_pin("entry.tables", (
            t1.column(0.8)[0], t1.column(0.2)[0], t1.column(0.6)[3], t2.column(0.8)[0], t3.column(0.8)[0],
        ))

    @pytest.mark.pin
    @pytest.mark.parametrize(
        "name",
        ["hash.table1", "hash.table2", "hash.table3",
         "hash.table1_six_point", "hash.table2_six_point", "hash.table3_six_point"],
    )
    def test_frozen_hashes(self, name, request):
        # every byte of the table's CSV, its content_hash's input; the run
        # is the session fixture named after the pin (hash.table1 -> table1_run)
        table = request.getfixturevalue(name.removeprefix("hash.") + "_run")[0]
        check_pin(name, [table.to_csv()])

    def test_config_echo(self, table1_run, default_config):
        assert table1_run[0].config is default_config

    def test_table2_table3_proximity_at_tiny_levels(self, table2_run, table3_run):
        # frozen worst relative gap at levels <= 1e-6: 2.97e-4
        t2, t3 = table2_run[0], table3_run[0]
        for a in t2.alphas:
            for lv, x2, x3 in zip(t2.levels, t2.column(a), t3.column(a)):
                if lv <= 1e-6:
                    assert abs(x2 - x3) / x3 < 1e-2, (a, lv)

    def test_direct_rule_oracle_matches_default_table1(self, table1_run, default_config):
        # the independent single-mode oracle reproduces the default rule too
        tab, cfg = table1_run[0], default_config
        for a in tab.alphas:
            for t, got in zip(tab.levels, tab.column(a)):
                want = direct_rule_error(a, t, cfg.points, cfg.temporal_subintervals)
                assert got == pytest.approx(want, rel=1e-9), (a, t)

    def test_graded_rule_converges_to_closed_form(self):
        # graded substitution solves the continuous problem: its table-1
        # errors match the closed form, closer as the rule is refined.  That
        # needs the kernel's (t-s)^alpha taken from the graded node: from s
        # it cancels near s = t (5.3e-8 at 64, 4.1e-7 at 256; measured
        # 4.6e-10 and 2.6e-10 from the node)
        for subintervals, rel in ((16, 1e-6), (64, 5e-9), (256, 5e-9)):
            cfg = ExperimentConfig(
                alphas=(0.2, 0.6, 0.8),
                truncation=4,
                singular_mode=SingularMode.GRADED_SUBSTITUTION,
                temporal_subintervals=subintervals,
                sweep=(1e-2, 1e-5, 1e-9),
            )
            tab = run_table1(cfg)
            for a in tab.alphas:
                for t, got in zip(tab.levels, tab.column(a)):
                    assert got == pytest.approx(exact_error(a, t), rel=rel), (subintervals, a, t)

    def test_determinism_across_threads_and_reruns(self):
        tabs = [
            run_table2(REDUCED, threads=th) for th in (1, 4, 1)
        ]
        assert tabs[0].content_hash == tabs[1].content_hash == tabs[2].content_hash
        assert tabs[0].to_csv() == tabs[1].to_csv()

    def test_parameter_choice_failure_propagates(self):
        cfg = small_config(sweep=(1.0,))
        with pytest.raises(ParameterChoiceError):
            run_table2(cfg, threads=1)

    def test_run_fig4_structure(self):
        fig, C = run_fig4(REDUCED, threads=1)
        assert fig.table_id == "fig4"
        t3 = run_table3(REDUCED, threads=1)
        assert fig.rows == t3.rows
        assert C == experiments._fig4_C(fig)

    def test_fig4_short_sweep_rejected_before_any_solve(self, monkeypatch):
        import fracback.solver as solver

        calls = []
        monkeypatch.setattr(solver, "ml_array", lambda *args: calls.append(args))
        cfg = ExperimentConfig(alphas=(0.8,), truncation=4, sweep=(1e-3, 1e-4))
        with pytest.raises(DomainError, match="at least 3 levels"):
            run_fig4(cfg)
        assert calls == []  # it used to run a whole table 3 first


class TestFitRate:
    def synthetic(self, rows, levels=(1e-1, 1e-2, 1e-3)):
        return ErrorTable("table1", small_config(sweep=levels), rows)

    def test_power_law_synthetic_slope_one(self):
        tab = self.synthetic(((1e-1,), (1e-2,), (1e-3,)))
        fit = fit_rate(tab)
        assert fit[0.5] == pytest.approx(1.0, abs=1e-12)

    def test_sqrt_const_synthetic(self):
        rows = tuple((2.0 * math.sqrt(lv),) for lv in (1e-1, 1e-2, 1e-3))
        tab = self.synthetic(rows)
        assert experiments._fig4_C(tab) == pytest.approx(2.0, rel=1e-14)

    def test_benchmark_slopes_last_three(self, table1_run):
        # frozen: 0.18722 / 0.39941 / 0.59998 / 0.80000
        fit = fit_rate(table1_run[0], last=3)
        want = {
            0.2: 0.18721669945671052,
            0.4: 0.3994063963737302,
            0.6: 0.5999786644225459,
            0.8: 0.799999211032445,
        }
        for a, v in fit.items():
            assert v == pytest.approx(want[a], rel=1e-10)

    def test_benchmark_sqrt_const(self, table3_run):
        C = experiments._fig4_C(table3_run[0])
        assert C == pytest.approx(15.069658096591725, rel=1e-12)

    def test_needs_three_rows(self):
        tab = self.synthetic(((1.0,), (0.5,)), levels=(1e-1, 1e-2))
        with pytest.raises(DomainError):
            fit_rate(tab)

    def test_last_needs_two(self, table1_run):
        with pytest.raises(DomainError):
            fit_rate(table1_run[0], last=1)
        # a window wider than the table is an error, not the whole table
        tab = self.synthetic(((1e-1,), (1e-2,), (1e-3,)))
        assert fit_rate(tab, last=3) == fit_rate(tab)
        with pytest.raises(DomainError, match="last"):
            fit_rate(tab, last=50)

    def test_zero_error_breaks_power_law(self):
        tab = self.synthetic(((1e-1,), (0.0,), (1e-3,)))
        with pytest.raises(NumericalError):
            fit_rate(tab)


class TestEmit:
    def test_emit_csv_bytes_and_reemit(self, table1_run, tmp_path):
        tab = table1_run[0]
        assert emit_table(tab, tmp_path) == (tmp_path / "table1.csv", tmp_path / "table1.gp")
        p = tmp_path / "table1.csv"
        data = p.read_bytes()
        assert data == tab.to_csv().encode("utf-8")
        lines = data.decode("utf-8").splitlines()
        assert lines[0] == "level,alpha_0.2,alpha_0.4,alpha_0.6,alpha_0.8"
        assert len(lines) == 9
        emit_table(tab, tmp_path)
        assert p.read_bytes() == data

    def test_emit_csv_bad_path(self, table1_run, tmp_path):
        with pytest.raises(OSError, match="emit_table: cannot write"):
            emit_table(table1_run[0], tmp_path / "no" / "such" / "dir")

    def test_plot_script_table(self, table1_run, tmp_path):
        _, gp_path = emit_table(table1_run[0], tmp_path)
        text = gp_path.read_text(encoding="utf-8")
        assert "set logscale xy" in text
        assert "'table1.csv'" in text
        for a in (0.2, 0.4, 0.6, 0.8):
            assert f"alpha={a!r}" in text

    def test_plot_script_fig4_overlay(self, tmp_path):
        fig, C = run_fig4(REDUCED, threads=1)
        _, gp_path = emit_table(fig, tmp_path)
        text = gp_path.read_text(encoding="utf-8")
        assert f"C = {C!r}" in text
        assert "C*sqrt(x)" in text

