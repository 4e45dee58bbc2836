"""Acceptance gate: the nine primary criteria, one verdict line each.

Every test measures its criterion at the stated tolerance, records a
one-line verdict (shown in the terminal summary section "acceptance
criteria"), and then asserts it.

Criteria 1 and 2 compare tables 1-3 with the printed values (REF_* in
conftest) and meet two causes of deviation:

* A, the discretization.  The printed tables were made with a 6-point
  Gauss rule on 4 temporal subintervals, not the default 4-point rule, so
  these criteria run ExperimentConfig(points=6).  The default rule is
  2-6 % off at alpha <= 0.4 and breaks the alpha = 0.2 anchor.
* B, 43 printed entries (GROUP_B in conftest, with the evidence) are not
  the error of this method on this problem: they are 1.10-1.79x the
  closed-form error, which no direct rule reproduces, and they contradict
  the other printed tables.  These entries are checked against the
  independent direct-rule oracle of tests/_benchmark_oracle.py at the same
  tolerances; for tables 2 and 3 the oracle is taken at t_eta with exact
  data, whose noise term is below 2.4e-4 relative.

The verdict lines still report the worst deviation from the printed
values over all entries.
"""

from __future__ import annotations

import math
import time
from typing import NamedTuple

import numpy as np
import pytest

from conftest import GROUP_B, REF_T1, REF_T2, REF_T3, record_acceptance
from _benchmark_oracle import direct_rule_error

from fracback import (
    ModeSet,
    QuadConfig,
    SingularMode,
    Source,
    SpectralField,
    Term,
    TimeFractionalProblem,
    backward_reconstruct,
    final_value,
    fit_rate,
    forward_solve,
    gamma_fn,
    ml,
    ml_array,
    project,
    run_fig4,
    run_table1,
    run_table2,
    run_table3,
)

PI2 = math.pi**2


@pytest.fixture(scope="session")
def fig4_run(default_config):
    start = time.perf_counter()
    fig, C = run_fig4(default_config, threads=1)
    return fig, C, time.perf_counter() - start


def _bench_source() -> Source:
    return Source(
        Term(
            lambda x, y: math.sin(x) * math.sin(y),
            lambda s: (2.0 - PI2) * math.exp(-PI2 * s),
        )
    )


class _Entry(NamedTuple):
    alpha: float
    level: float
    vs_printed: float  # relative deviation from the printed value
    checked: float  # from the printed value, or from the oracle in group B
    group_b: bool


def _entries(table, ref) -> list[_Entry]:
    """Every table entry with its deviations; group B is checked by the oracle."""
    cfg = table.config
    out = []
    for a in table.alphas:
        for lv, ours, printed in zip(table.levels, table.column(a), ref[a]):
            vs_printed = abs(ours - printed) / printed
            group_b = (table.table_id, a, lv) in GROUP_B
            checked = vs_printed
            if group_b:
                t = lv if table.table_id == "table1" else lv ** (1.0 / (2.0 * a))
                want = direct_rule_error(a, t, cfg.points, cfg.temporal_subintervals)
                checked = abs(ours - want) / want
            out.append(_Entry(a, lv, vs_printed, checked, group_b))
    return out


def _worst(entries, field, keep=lambda e: True) -> tuple[float, _Entry]:
    """Largest ``field`` deviation among the kept entries, and its entry."""
    worst = max(filter(keep, entries), key=lambda e: getattr(e, field))
    return getattr(worst, field), worst


def _at(entry, level_name) -> str:
    return f"(alpha={entry.alpha}, {level_name}={entry.level:g})"


def _group_b_report(table, entries, level_name) -> tuple[bool, str]:
    """Whether group B was found whole in the table, and its verdict clause."""
    in_b = lambda e: e.group_b
    found = sum(map(in_b, entries))
    whole = found == sum(1 for key in GROUP_B if key[0] == table.table_id)
    oracle, o_at = _worst(entries, "checked", in_b)
    printed, p_at = _worst(entries, "vs_printed")
    return whole, (
        f"group B ({found} entries) vs oracle worst {oracle:.1e} at "
        f"{_at(o_at, level_name)}; "
        f"vs printed worst {printed:.1%} at {_at(p_at, level_name)} over all entries"
    )


def test_criterion_1(table1_six_point_run):
    tab, wall = table1_six_point_run
    entries = _entries(tab, REF_T1)
    worst, where = _worst(entries, "checked")
    worst_small, where_small = _worst(entries, "checked", lambda e: e.level <= 1e-4)
    whole, group_b = _group_b_report(tab, entries, "t")
    anchor_devs = (
        abs(tab.column(0.8)[0] - 3.8800e-1) / 3.8800e-1,
        abs(tab.column(0.2)[0] - 2.3039) / 2.3039,
        abs(tab.column(0.6)[3] - 1.7109e-2) / 1.7109e-2,
    )
    anchors_ok = (
        anchor_devs[0] <= 0.05 and anchor_devs[1] <= 0.05 and anchor_devs[2] <= 0.01
    )
    ok = worst <= 0.05 and worst_small <= 0.01 and anchors_ok and whole and wall < 30.0
    record_acceptance(
        f"criterion 1 (table 1 fidelity, 6-point rule): {'PASS' if ok else 'FAIL'} — "
        f"worst {worst:.2%} at {_at(where, 't')} vs 5%; "
        f"t<=1e-4 worst {worst_small:.2%} at {_at(where_small, 't')} vs 1%; "
        f"{group_b}; anchors {'ok' if anchors_ok else 'violated'}; "
        f"runtime {wall:.1f}s (<30s)"
    )
    assert ok


def test_criterion_2(table2_six_point_run, table3_six_point_run):
    t2, wall2 = table2_six_point_run
    t3, wall3 = table3_six_point_run
    e2, e3 = _entries(t2, REF_T2), _entries(t3, REF_T3)
    worst2, where2 = _worst(e2, "checked")
    worst3, where3 = _worst(e3, "checked")
    whole2, group_b2 = _group_b_report(t2, e2, "eta")
    whole3, group_b3 = _group_b_report(t3, e3, "eta")
    anchors_ok = (
        abs(t2.column(0.8)[0] - 4.7844e-1) / 4.7844e-1 <= 0.05
        and abs(t3.column(0.8)[0] - 4.7320e-1) / 4.7320e-1 <= 0.05
    )
    ok = (
        worst2 <= 0.05
        and worst3 <= 0.05
        and anchors_ok
        and whole2
        and whole3
        and max(wall2, wall3) < 120.0
    )
    record_acceptance(
        f"criterion 2 (tables 2-3 fidelity, 6-point rule): {'PASS' if ok else 'FAIL'} — "
        f"table2 worst {worst2:.2%} at {_at(where2, 'eta')}, "
        f"table3 worst {worst3:.2%} at {_at(where3, 'eta')} vs 5%; "
        f"table2 {group_b2}; table3 {group_b3}; "
        f"anchors {'ok' if anchors_ok else 'violated'}; "
        f"runtimes {wall2:.1f}s/{wall3:.1f}s (<120s)"
    )
    assert ok


def test_criterion_3(fig4_run):
    _, C, _ = fig4_run
    ok = 13.7 <= C <= 16.7
    record_acceptance(
        f"criterion 3 (figure 4 sqrt fit): {'PASS' if ok else 'FAIL'} — "
        f"C = {C:.4f} vs [13.7, 16.7]"
    )
    assert ok


def test_criterion_4(table1_run):
    s = fit_rate(table1_run[0], "power_law", last=3)
    ok = 0.75 <= s[0.8] <= 0.85 and abs(s[0.6] - 0.6) <= 0.07 and abs(s[0.4] - 0.4) <= 0.07
    record_acceptance(
        f"criterion 4 (rate slopes, last two decades): {'PASS' if ok else 'FAIL'} — "
        f"alpha 0.8 -> {s[0.8]:.3f} vs [0.75, 0.85]; "
        f"0.6 -> {s[0.6]:.3f}, 0.4 -> {s[0.4]:.3f} vs +/-0.07"
    )
    assert ok


def test_criterion_5(erfc_refs, ml_ref_triples):
    # (a) closed forms on [-30, 0]
    xs = np.linspace(-30.0, 0.0, 601)
    worst_exp = float(np.max(np.abs(ml_array(1.0, 1.0, xs) - np.exp(xs)) / np.exp(xs)))
    xs_h, wants = erfc_refs
    worst_erfc = 0.0
    for got, want in zip(ml_array(0.5, 1.0, xs_h), wants):
        worst_erfc = max(worst_erfc, abs(got - want) / want)
    # (b) 200 random triples against the extended-precision oracle
    worst_oracle = 0.0
    for alpha, beta, x, want in ml_ref_triples:
        got = ml(alpha, beta, x)
        worst_oracle = max(worst_oracle, abs(got - want) / max(abs(want), 1e-300))
    # (c) monotonicity and bound properties, zero violations on the grid
    # (alpha = 1 capped at x = 700: e^-x is an exact IEEE zero past ~745,
    # so positivity is unsatisfiable in doubles beyond that point)
    violations = 0
    for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
        hi = 700.0 if alpha == 1.0 else 1e4
        grid = np.concatenate(([0.0], np.geomspace(1e-3, hi, 160)))
        for beta in (alpha, 1.0, alpha + 1.0, 2.0):
            v = ml_array(alpha, beta, -grid)
            cap = 1.0 / gamma_fn(beta)
            if np.any(np.diff(v) > 1e-14 * np.abs(v[:-1])):
                violations += 1
            if np.any(v <= 0.0) or np.any(v > cap * (1.0 + 1e-12)):
                violations += 1
    ok = worst_exp <= 1e-10 and worst_erfc <= 1e-10 and worst_oracle <= 1e-10 and violations == 0
    record_acceptance(
        f"criterion 5 (Mittag-Leffler suite): {'PASS' if ok else 'FAIL'} — "
        f"closed forms {max(worst_exp, worst_erfc):.1e} vs 1e-10; "
        f"200-triple oracle {worst_oracle:.1e} vs 1e-10; "
        f"{violations} property violations"
    )
    assert ok


def test_criterion_6():
    ms = ModeSet(dimension=2, truncation=8)
    probs = {
        a: TimeFractionalProblem(
            alpha=a,
            tau=1.0,
            modeset=ms,
            source=_bench_source(),
            quad=QuadConfig(),
            temporal_subintervals=4,
        )
        for a in (0.2, 0.4, 0.6, 0.8)
    }
    rng = np.random.default_rng(20240819)
    worst = 0.0
    for _ in range(50):
        mags = rng.uniform(0.5, 1.5, size=ms.size)
        signs = rng.choice((-1.0, 1.0), size=ms.size)
        u0 = SpectralField(ms, mags * signs)
        for prob in probs.values():
            g = final_value(prob, u0)
            for t in (1.0, 0.5, 1e-3):
                back = backward_reconstruct(prob, g, t)
                fwd = forward_solve(prob, u0, t)
                rel = float(np.max(np.abs(back.coeffs - fwd.coeffs) / np.abs(fwd.coeffs)))
                worst = max(worst, rel)
    ok = worst <= 1e-10
    record_acceptance(
        f"criterion 6 (round trip): {'PASS' if ok else 'FAIL'} — "
        f"worst coefficientwise rel {worst:.1e} vs 1e-10 (50 fields, 4 alphas, 3 times)"
    )
    assert ok


def test_criterion_7():
    ms = ModeSet(dimension=2, truncation=8)
    prob = TimeFractionalProblem(
        alpha=1.0,
        tau=1.0,
        modeset=ms,
        source=_bench_source(),
        quad=QuadConfig(singular_mode=SingularMode.GRADED_SUBSTITUTION),
        temporal_subintervals=256,
    )
    u0 = project(lambda x, y: math.sin(x) * math.sin(y), ms, QuadConfig())
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        got = forward_solve(prob, u0, t).coeff(1, 1)
        want = (math.pi / 2.0) * math.exp(-PI2 * t)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-6
    record_acceptance(
        f"criterion 7 (classical-heat oracle): {'PASS' if ok else 'FAIL'} — "
        f"worst rel {worst:.1e} vs 1e-6 at t in {{0.1, 0.5, 1}}"
    )
    assert ok


def test_criterion_8(table1_run):
    tab, _ = table1_run
    strict = all(
        all(b < a for a, b in zip(tab.column(alpha), tab.column(alpha)[1:]))
        for alpha in tab.alphas
    )
    col = tab.column(0.8)
    span = col[0] / col[-1]
    ok = strict and span >= 1e4
    record_acceptance(
        f"criterion 8 (monotone convergence): {'PASS' if ok else 'FAIL'} — "
        f"columns strictly decreasing: {strict}; alpha=0.8 span {span:.2e} vs >= 1e4"
    )
    assert ok


def test_criterion_9(table1_run, table2_run, table3_run, fig4_run, default_config):
    redo = (
        run_table1(default_config, threads=4),
        run_table2(default_config, threads=4),
        run_table3(default_config, threads=4),
    )
    firsts = (table1_run[0], table2_run[0], table3_run[0])
    tables_ok = all(
        a.to_csv() == b.to_csv() and a.content_hash == b.content_hash
        for a, b in zip(firsts, redo)
    )
    fig_redo, _ = run_fig4(default_config, threads=4)
    fig_ok = fig4_run[0].to_csv() == fig_redo.to_csv()
    ok = tables_ok and fig_ok
    record_acceptance(
        f"criterion 9 (determinism): {'PASS' if ok else 'FAIL'} — "
        f"tables 1-3 and fig4 byte-identical across reruns and thread counts"
    )
    assert ok
