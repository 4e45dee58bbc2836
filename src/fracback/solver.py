"""Forward/backward solver for the time-fractional heat problem on (0, pi)^d.

The weak solution of  D_t^alpha u - Laplace(u) = f,  u(0) = u0  has mode
coefficients

    u_n(t) = E_{alpha,1}(-lambda_n t^alpha) u0_n + F_n(t),
    F_n(t) = int_0^t (t-s)^(alpha-1) E_{alpha,alpha}(-lambda_n (t-s)^alpha)
             (f(s), phi_n) ds,

and knowing the final value g = u(tau) the (regularized) backward
reconstruction at time t is

    R_t g_n = E_{alpha,1}(-lambda_n t^alpha)
              [g_n - F_n(tau)] / E_{alpha,1}(-lambda_n tau^alpha) + F_n(t).

The memory integral F is a weighted sum over the nodes and weights of
:func:`fracback.quadrature.singular_nodes` for the problem's quadrature
config (default: 4-point composite rule on 4 subintervals applied
directly to the weakly singular integrand); a graded high-subinterval
config serves as the verification oracle.

Memo policy: a time step gives E_{alpha,1}(-lambda t^alpha) and F(t).  At t =
tau its source-free part (E_{alpha,1} and the memory nodes, weights and kernel
E_{alpha,alpha}(-lambda (tau-s)^alpha)) is memoized: the read-only kernel
builder itself, under a bounded LRU cache keyed by its arguments (alpha, tau,
modeset, quad, temporal_subintervals, kernel) and shared by the problems of all
noise levels.  A time t < tau is not memoized: a batch of requests (a table
column) builds the kernel at each t in one ml_array call per time, and all its
E_{alpha,1} rows in one call; F is summed from the problem's own source.  With
no source terms, kernel=False memoizes the E_{alpha,1} row alone, and F is +0.0.

All per-mode reductions happen in fixed ModeSet order, so results are
bit-identical across runs and thread counts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import (
    NONNEGATIVE,
    POSITIVE,
    UNIT,
    DomainError,
    NumericalError,
    ParameterChoiceError,
    check_enum,
    check_floats,
    check_int,
    check_real,
    check_type,
    refuse,
)
from .quadrature import QuadConfig, singular_nodes
from .special import ml_array
from .spectral import ModeSet, SpectralField, project

__all__ = [
    "Term",
    "Source",
    "TimeFractionalProblem",
    "ChoiceRule",
    "RegularizationChoice",
    "SolvabilityReport",
    "forward_solve",
    "final_value",
    "backward_reconstruct",
    "reconstruct_noisy",
    "solvability_diagnostic",
    "choose_t",
]


class Term:
    """One separable source term: spatial(point) * temporal(s).

    ``spatial`` is a pointwise function of the modeset's d coordinates, a
    tuple of d per-axis factors whose product is one, or a coefficient
    vector in mode order.  A function or tuple goes through the value-keyed
    memo of :func:`fracback.spectral.project`, so every term holding it
    shares one projection per (modeset, quad), in any d the modeset allows.
    """

    def __init__(
        self,
        spatial: Callable[..., float] | tuple[Callable[[float], float], ...] | np.ndarray,
        temporal: Callable[[float], float],
    ):
        if isinstance(spatial, tuple):
            if not all(map(callable, spatial)):
                raise DomainError(f"Term: spatial factors must be callable, got {spatial!r}")
        elif not callable(spatial):
            spatial = check_floats("Term", "spatial", spatial)
            bad = ~np.isfinite(spatial)
            if bad.any():
                raise DomainError(f"Term: spatial must be finite, got {float(spatial[bad][0])!r}")
        if not callable(temporal):
            raise DomainError(f"Term: temporal must be callable, got {temporal!r}")
        self.spatial = spatial
        self.temporal = temporal


class Source:
    """Time-dependent source f = sum of separable terms; Source() is f = 0."""

    def __init__(self, *terms: Term):
        self.terms = tuple(check_type("Source", "term", term, Term) for term in terms)

    def coefficient_batch(
        self, modeset: ModeSet, quad: QuadConfig, s: np.ndarray
    ) -> np.ndarray:
        """(f(., s_j), phi_k) for every mode k and time s_j; shape (modes, len(s))."""
        out = np.zeros((modeset.size, len(s)))
        for term in self.terms:
            if not isinstance(term.spatial, np.ndarray):
                spatial = project(term.spatial, modeset, quad).coeffs
            elif term.spatial.shape != (modeset.size,):
                raise DomainError("Term: coefficient count != modeset size")
            else:
                spatial = term.spatial
            tvals = np.array([float(term.temporal(float(sj))) for sj in s])
            if not np.isfinite(tvals).all():
                raise NumericalError("Term: temporal factor returned a non-finite value")
            with np.errstate(over="ignore", invalid="ignore"):  # checked next
                out = out + spatial[:, None] * tvals[None, :]
        refuse("Source: a coefficient of f is not finite", ~np.isfinite(out), modeset)
        return out


@dataclass(frozen=True, eq=False)
class TimeFractionalProblem:
    """Problem data: order alpha, horizon tau, modes, source, quadrature.

    alpha = 1 is admitted as the classical-heat limit so solutions can be
    checked against the closed-form exponential solution.
    """

    alpha: float
    tau: float
    modeset: ModeSet
    source: Source
    quad: QuadConfig = field(default_factory=QuadConfig)
    temporal_subintervals: int = 4

    def __post_init__(self) -> None:
        check_real("TimeFractionalProblem", "alpha", self.alpha, *UNIT)
        check_real("TimeFractionalProblem", "tau", self.tau, *POSITIVE)
        check_int("TimeFractionalProblem", "temporal_subintervals", self.temporal_subintervals)
        for name, cls in (("modeset", ModeSet), ("source", Source), ("quad", QuadConfig)):
            check_type("TimeFractionalProblem", name, getattr(self, name), cls)


class ChoiceRule(str, Enum):
    """Parameter-choice rules for t_eta; PAPER_TABLE2 is SOURCE_CONDITION at p = 1."""

    SOURCE_CONDITION = "source_condition"
    PAPER_TABLE2 = "paper_table2"


@dataclass(frozen=True)
class RegularizationChoice:
    """A rule plus its noise level eta and its source-condition order p."""

    rule: ChoiceRule
    eta: float
    p: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "rule", check_enum("RegularizationChoice", "rule", ChoiceRule, self.rule)
        )
        check_real("RegularizationChoice", "eta", self.eta, *NONNEGATIVE)
        check_real("RegularizationChoice", "p", self.p, *UNIT)


@dataclass(frozen=True)
class SolvabilityReport:
    """Partial sums of the inverted series and an advisory growth verdict."""

    partial_sums: tuple[float, ...]
    classification: str  # "bounded" or "growing"


def _check_field(what: str, prob: TimeFractionalProblem, name: str, f, t: float = 0.0) -> float:
    """t, checked to lie in [0, tau], once the problem and the field are checked."""
    check_type(what, "prob", prob, TimeFractionalProblem)
    if check_type(what, name, f, SpectralField).modeset != prob.modeset:
        raise DomainError(f"{what}: field modeset does not match the problem's")
    return check_real(what, "t", t, lambda v: 0.0 <= v <= prob.tau, f"in [0, {prob.tau}]")


def _kernel_at(alpha: float, t: float, modeset: ModeSet, quad: QuadConfig, subintervals: int):
    """Memory nodes s, weights w and kernel E_{alpha,alpha}(-lambda (t-s)^alpha) for every
    mode at time t, evaluated once per distinct eigenvalue (387 of 900 at truncation 30)."""
    lam, inv = np.unique(modeset.eigenvalues, return_inverse=True)
    pts, wts, z = singular_nodes(t, alpha, quad, subintervals=subintervals)
    X = -np.outer(lam, z)
    return pts, wts, ml_array(alpha, alpha, X.ravel()).reshape(X.shape)[inv]


def _e1_rows(alpha: float, modeset: ModeSet, ts: list[float]) -> list[np.ndarray]:
    """E_{alpha,1}(-lambda t^alpha) for every mode at each t, from one ml_array call over
    the distinct eigenvalues at every t; a value depends on its argument alone."""
    lam, inv = np.unique(modeset.eigenvalues, return_inverse=True)
    e = ml_array(alpha, 1.0, np.concatenate([-lam * t**alpha for t in ts]))
    return [row[inv] for row in e.reshape(len(ts), len(lam))]


def _terms_at(alpha: float, t: float, modeset: ModeSet, quad: QuadConfig, subintervals: int,
              kernel: bool = True) -> tuple[np.ndarray, ...]:
    """E_{alpha,1}(-lambda t^alpha) and, with ``kernel``, the memory terms of :func:`_kernel_at`,
    built first.  The arrays are read-only, so a memoized row can be shared."""
    memory = _kernel_at(alpha, t, modeset, quad, subintervals) if kernel else ()
    terms = (*_e1_rows(alpha, modeset, [t]), *memory)
    for arr in terms:
        arr.flags.writeable = False
    return terms


# ~0.1 MB per entry at the benchmark size; 16 holds every alpha of a few configurations.
_tau_terms = lru_cache(maxsize=16)(_terms_at)


def _step(prob: TimeFractionalProblem, t: float, e1: bool = True) -> tuple:
    """E_{alpha,1}(-lambda t^alpha), None without ``e1`` (the kernel alone is built), and F_n(t)
    from the problem's own source; F = +0.0, as a zero source's sum gives, with no terms."""
    kernel = bool(prob.source.terms)  # f = 0 needs none; its tau row is memoized on its own key
    key = (prob.alpha, t, prob.modeset, prob.quad, prob.temporal_subintervals)
    e, *memory = (_tau_terms if t == prob.tau else _terms_at)(*key, kernel) if e1 else (None,)
    if not kernel:
        return e, 0.0
    pts, wts, E = memory or _kernel_at(*key)
    C = prob.source.coefficient_batch(prob.modeset, prob.quad, pts)
    with np.errstate(over="ignore", invalid="ignore"):  # checked next
        F = np.einsum("ns,s->n", E * C, wts, optimize=False)
    refuse(f"the memory term F(t={t!r}) is not finite", ~np.isfinite(F), prob.modeset)
    return e, F


def _field(prob: TimeFractionalProblem, t: float, e1, start, F) -> SpectralField:
    """E_{alpha,1}(-lambda t^alpha) start + F(t), for a time t > 0."""
    with np.errstate(over="ignore"):  # checked next
        u = e1 * start + F
    refuse(f"u(t={t!r}) is not finite", ~np.isfinite(u), prob.modeset)
    return SpectralField(prob.modeset, u)


def _inverted(prob: TimeFractionalProblem, g: SpectralField) -> np.ndarray:
    """(g_n - F_n(tau)) / E_{alpha,1}(-lambda_n tau^alpha): the naive inversion."""
    etau, Ftau = _step(prob, prob.tau)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked next
        base = (g.coeffs - Ftau) / etau
    for bad, why in ((etau == 0.0, "E_{alpha,1}(-lambda tau^alpha) underflowed to zero"),
                     (~np.isfinite(base), "the quotient overflowed")):
        refuse(f"backward_reconstruct: {why}", bad, prob.modeset)
    return base


def forward_solve(prob: TimeFractionalProblem, u0: SpectralField, t: float) -> SpectralField:
    """Mode coefficients of the forward solution at time t."""
    t = _check_field("forward_solve", prob, "u0", u0, t)
    if t == 0.0:
        return SpectralField(prob.modeset, u0.coeffs)
    e1, F = _step(prob, t)
    return _field(prob, t, e1, u0.coeffs, F)


def final_value(prob: TimeFractionalProblem, u0: SpectralField) -> SpectralField:
    """g = forward solution at the horizon tau."""
    _check_field("final_value", prob, "u0", u0)
    return forward_solve(prob, u0, prob.tau)


def backward_reconstruct(prob: TimeFractionalProblem, g: SpectralField, t: float) -> SpectralField:
    """Regularized backward value at time t from final data g.

    t = tau returns g itself (the ratio is identically 1 and the memory
    terms cancel algebraically).  t = 0 is the unregularized inversion: it
    exposes the ill-posedness and is not the reconstruction method.
    """
    return _reconstruct_batch([(prob, g, t)])[0]


def _reconstruct_batch(requests: Sequence[tuple]) -> list[SpectralField]:
    """backward_reconstruct of each (prob, g, t), in order; requests holding the same problem
    and data objects share one inversion.  Each t < tau kernel is built in turn and dropped
    once its F is summed; then all E_{alpha,1} rows come from one call per (alpha, modeset)."""
    reqs = [(p, g, _check_field("backward_reconstruct", p, "g", g, t)) for p, g, t in requests]
    steps = {i: (p.alpha, p.modeset) for i, (p, _, t) in enumerate(reqs) if 0.0 < t < p.tau}
    bases = {pg: _inverted(*pg) for pg in dict.fromkeys((p, g) for p, g, t in reqs if t < p.tau)}
    F = {i: _step(reqs[i][0], reqs[i][2], e1=False)[1] for i in steps}
    groups = {key: [i for i in steps if steps[i] == key] for key in steps.values()}
    rows = {i: row for key, ids in groups.items()
            for i, row in zip(ids, _e1_rows(*key, [reqs[i][2] for i in ids]))}
    return [_field(p, t, rows[i], bases[p, g], F[i]) if i in steps else
            SpectralField(p.modeset, g.coeffs if t == p.tau else bases[p, g])
            for i, (p, g, t) in enumerate(reqs)]


def reconstruct_noisy(
    prob: TimeFractionalProblem,
    g_noisy: SpectralField,
    noisy_source: Source,
    t: float,
) -> SpectralField:
    """backward_reconstruct with the memory term built from a noisy source."""
    check_type("reconstruct_noisy", "prob", prob, TimeFractionalProblem)
    return backward_reconstruct(dataclasses.replace(prob, source=noisy_source), g_noisy, t)


def solvability_diagnostic(
    prob: TimeFractionalProblem, g: SpectralField
) -> SolvabilityReport:
    """Partial sums S_K of the inverted-coefficient squares, lambda-sorted.

    The backward problem has an L2 solution iff the full series converges;
    a truncation cannot prove that, so the verdict is advisory: "growing"
    when the last lambda-quartile still contributes more than 1% of the
    total (a convergent series has a vanishing tail share), else "bounded".
    """
    _check_field("solvability_diagnostic", prob, "g", g)
    base = _inverted(prob, g)
    order = np.argsort(prob.modeset.eigenvalues, kind="stable")
    with np.errstate(over="ignore"):  # checked next
        sums = np.cumsum(base[order] ** 2)
    if np.isinf(sums[-1]):
        k = order[int(np.argmax(np.isinf(sums)))]
        raise NumericalError(f"solvability_diagnostic: S_K overflowed at mode {prob.modeset.modes[k]}")
    L = len(sums)
    q = max((3 * L) // 4, 1)
    tail = float(sums[-1] - sums[q - 1]) if L > 1 else float(sums[-1])
    verdict = "growing" if tail > 0.01 * float(sums[-1]) else "bounded"
    return SolvabilityReport(tuple(float(v) for v in sums), verdict)


def choose_t(
    choice: RegularizationChoice, alpha: float, tau: float = 1.0
) -> float:
    """Regularization time t_eta = eta^(1/((p+1) alpha)); must land in (0, tau)."""
    check_type("choose_t", "choice", choice, RegularizationChoice)
    check_real("choose_t", "alpha", alpha, *UNIT)
    check_real("choose_t", "tau", tau, *POSITIVE)
    if choice.eta <= 0.0:
        raise ParameterChoiceError(
            f"choose_t: rule needs a positive noise level, got eta={choice.eta!r}"
        )
    p = 1.0 if choice.rule is ChoiceRule.PAPER_TABLE2 else choice.p
    t = choice.eta ** (1.0 / ((p + 1.0) * alpha))
    if not 0.0 < t < tau:  # t = 0: eta's root underflowed, an unregularized inversion
        raise ParameterChoiceError(
            f"choose_t: rule {choice.rule.value} with eta={choice.eta} gives "
            f"t={t} outside (0, tau={tau}); change eta or pick another rule"
        )
    return t
