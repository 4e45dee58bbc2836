"""Gamma and Mittag-Leffler evaluation on the non-positive real axis.

The Mittag-Leffler function E_{a,b}(x) = sum_k x^k / Gamma(a*k + b) is
evaluated for a in (0, 1], b > 0 and x <= 0 with a three-regime scheme
keyed to y = |x|**(1/a):

* small y: truncated Taylor series in extended (80-bit) precision,
  summed over |x|**k with the odd terms subtracted, which rounds exactly
  as the signed series, in one loop over k that also decides a term-ratio
  stopping rule on the rows at the batch's largest |x|;
* large y: the divergent asymptotic series sum_{k>=1} (-1)**(k+1)
  x**(-k) / Gamma(b - a*k), truncated at its globally smallest term
  (Gorenflo, Kilbas, Mainardi & Rogosin 2014, sec. 4.7), with the
  reciprocal gamma handled in log space through the reflection formula;
  each argument's term table grows until that term lies over two periods
  (2/a terms) of the reflection factor's |sin| before the table's end,
  and rows are summed in cache-sized blocks, each over its own width;
* the intermediate band, where both of the above lose accuracy to
  cancellation: a Chebyshev surrogate of log E fitted to the Taylor series
  summed in decimal arithmetic, its coefficients 1/Gamma(a*k + b) one table
  from Stirling's series.  The fit is a pure, memoized function of (a, b),
  safe to call from threads.

All paths are deterministic and pure, and no cached value is ever mutated.
A value depends on its argument and at most on the batch's largest |x|
(the Taylor stopping rule takes a batch maximum), never on the other
arguments, their order or count.
"""

from __future__ import annotations

import itertools
import math
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import POSITIVE, UNIT, DomainError, NumericalError, check_floats, check_real

_LD = np.longdouble
_LD_EPS = float(np.finfo(np.longdouble).eps)

__all__ = ["gamma_fn", "ml", "ml_array"]


# ---------------------------------------------------------------------------
# gamma
# ---------------------------------------------------------------------------

_GAMMA_OVERFLOW = 171.624376956302725


def gamma_fn(x: float) -> float:
    """Gamma function for positive (and negative non-integer) arguments.

    Relative error is a few ulps on (0, 170].  Raises DomainError at the
    poles (non-positive integers) and OverflowError once the result
    exceeds the double range (x > ~171.62).
    """
    x = check_real("gamma_fn", "argument", x, math.isfinite, "finite")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn: pole at non-positive integer {x!r}")
    if x > _GAMMA_OVERFLOW:
        raise OverflowError(f"gamma_fn: overflow for x = {x!r} (max ~171.62)")
    return math.gamma(x)


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


# ---------------------------------------------------------------------------
# regime map
# ---------------------------------------------------------------------------


def _regime_bounds(alpha: float, beta: float) -> tuple[float, float]:
    """(y_taylor, y_asym) thresholds in y = |x|**(1/alpha).

    Calibrated against an arbitrary-precision reference: the Taylor
    path holds 1e-11 up to the first bound and the asymptotic series
    from the second.  b == a is the weakest case on both sides because
    the leading asymptotic term vanishes there.
    """
    if abs(beta - alpha) <= 1e-9:
        return 4.0, 36.0
    if 0.5 <= beta <= 2.5:
        return 7.0, 28.0
    return 3.5, 40.0


# ---------------------------------------------------------------------------
# Taylor regime (extended double precision)
# ---------------------------------------------------------------------------

_TAYLOR_CAP = 50_000


@lru_cache(maxsize=32)  # <= 32 tables of <= _TAYLOR_CAP + 1 terms: 26 MB at most
def _taylor_coeffs(alpha: float, beta: float, kmax: int) -> np.ndarray:
    """1/Gamma(alpha*k + beta) in extended precision for k < kmax, cut
    before the first k whose term underflows even extended precision."""
    logs = np.array([math.lgamma(alpha * k + beta) for k in range(kmax)])
    cut = np.flatnonzero(logs > 11300.0)
    coeffs = np.exp(-logs[: cut[0] if len(cut) else kmax].astype(_LD))
    coeffs.flags.writeable = False
    return coeffs


def _taylor_vec(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Taylor sum for a batch of non-positive x with small |x|**(1/alpha).

    Sums |x|**k/Gamma(alpha*k + beta) and subtracts the odd terms: rounding
    to nearest is sign-symmetric (fl(|p|*|x|) = |fl(p*x)|, acc - |t| = acc + t),
    so each partial sum has the bits of the signed series.  Every row gets
    the n terms of a batch-wide stopping rule on the largest ratio
    term_k / max(1e-300, term_0..term_k), decided in the sum loop itself.
    With c_k = 1/Gamma(alpha*k + beta) that ratio is min(|x|**k c_k/1e-300,
    min_j |x|**(k-j) c_k/c_j), which grows with |x|, and is computed to
    (2k+3)*2**-64 < 1e-14 relative: rows below (1 - 1e-13) max|x| cannot
    hold the maximum (a ratio of exactly 1 ties), so the rule reads only the
    few rows above, as scalars, and n follows from the batch's largest |x|.
    """
    ax = np.abs(x).astype(_LD)
    top = np.flatnonzero(ax >= ax.max() * (1.0 - 1e-13)).tolist()
    runs = [_LD(1e-300)] * len(top)
    acc, pw, term = np.zeros_like(ax), np.ones_like(ax), np.empty_like(ax)
    kmax, prev = 64, math.inf
    coeffs = _taylor_coeffs(alpha, beta, kmax)
    for k in itertools.count():
        if k == kmax:
            if kmax > _TAYLOR_CAP:
                raise NumericalError(
                    f"ml_array: Taylor series did not converge within {_TAYLOR_CAP} "
                    f"terms for alpha={alpha!r}, beta={beta!r}"
                )
            kmax = min(4 * kmax, _TAYLOR_CAP + 1)
            coeffs = _taylor_coeffs(alpha, beta, kmax)
        if k == len(coeffs):  # the next term underflows
            break
        np.multiply(pw, coeffs[k], out=term)
        (np.subtract if k % 2 else np.add)(acc, term, out=acc)
        pw *= ax
        bound = 0.0
        for j, i in enumerate(top):
            t = term[i]
            if t > runs[j]:
                runs[j] = t
            bound = max(bound, float(t / runs[j]))
        if k >= 4:  # the rule starts at k = 4, where prev = inf makes the ratio 0
            ratio = min(bound / prev if prev > 0.0 else 0.0, 0.999)
            if bound / max(1.0 - ratio, 1e-3) < _LD_EPS * 1e-2:
                break
            prev = bound
    return acc.astype(np.float64)


# ---------------------------------------------------------------------------
# asymptotic regime
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _asym_table(alpha: float, beta: float, kmax: int) -> tuple[np.ndarray, np.ndarray]:
    """log|1/Gamma(beta - alpha*k)| and its parity-adjusted sign, k = 1..kmax."""
    logs = np.empty(kmax)
    signs = np.empty(kmax)
    for i in range(kmax):
        k = i + 1
        lg, sg = _inv_gamma_log_sign(beta - alpha * k)
        logs[i] = lg
        signs[i] = sg * (1.0 if k % 2 else -1.0)
    return logs, signs


_ASYM_BLOCK = 1024  # rows x 64 columns x 8 B = 512 KB per temporary: fits in L2


def _asym_vec(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Asymptotic series truncated at the globally smallest term.

    Term magnitudes decrease and then grow factorially; cutting at the
    global minimum leaves an error of the order of the first omitted
    term.  Bracketing that minimum can take ~|x|**(1/alpha)/alpha terms
    near the regime boundary, so the term table grows geometrically,
    row by row, until either the minimum is interior or the tail is
    negligible.  1/Gamma(beta - alpha*k) carries a |sin(pi*(beta - alpha*k))|
    factor of period 1/alpha in k, so a minimum within two periods of the
    table's end may be a dip of that factor, not interior.  Terms past the
    cut and on poles are exact zeros, and a row's width is set by its own
    growth alone, so a row's value does not depend on the rest of the batch
    and rows are summed in blocks of _ASYM_BLOCK, bit for bit.
    """
    lx = np.log(np.abs(x))
    # Gamma(beta - alpha*k) sits on a pole for every k >= beta when alpha = 1
    # and beta is an integer: the series terminates and is exact up to an
    # exponentially small remainder, so there is never a reason to grow it.
    terminates = alpha >= 1.0 - 1e-12 and abs(beta - round(beta)) < 1e-12
    reach = math.ceil(2.0 / alpha)
    out = np.empty_like(x)
    rows = np.arange(len(x))
    kmax = 64
    while len(rows):
        logs, signs = _asym_table(alpha, beta, kmax)
        pole = signs == 0.0
        live = np.flatnonzero(~pole)
        if len(live) == 0:
            # every term sits on a Gamma pole; the algebraic part vanishes
            out[rows] = 0.0
            break
        ks = np.arange(1, kmax + 1)
        # poles are the only non-finite logs: +inf keeps them out of the
        # argmin, and a rank past every k keeps them out of the sum
        logs = np.where(pole, np.inf, logs)
        rank = np.where(pole, kmax + 1, ks)
        regrow = []
        for start in range(0, len(rows), _ASYM_BLOCK):
            blk = rows[start:start + _ASYM_BLOCK]
            # logmag[i, j] = -k_j*log|x_i| + log|1/Gamma(beta - alpha*k_j)|
            logmag = np.multiply.outer(-lx[blk], ks)
            logmag += logs
            kopt = np.argmin(logmag, axis=1)
            if not terminates and kmax < 65536:
                # a tail already ~e^-45 below the leading term cannot matter
                tail_big = logmag[:, live[-1]] > logmag[:, live[0]] - 45.0
                grow = (kopt >= kmax - 1 - reach) & tail_big
                if np.any(grow):
                    regrow.append(blk[grow])
                    blk, logmag, kopt = blk[~grow], logmag[~grow], kopt[~grow]
            vals = np.where(rank <= ks[kopt][:, None], logmag, -np.inf)
            np.exp(vals, out=vals)
            vals *= signs
            out[blk] = np.sum(vals, axis=1)
            # the first omitted non-pole term estimates the truncation error;
            # refuse to return values the series cannot actually support
            pos = np.searchsorted(live, kopt, side="right")
            has_next = np.flatnonzero(pos < len(live))
            floor = np.zeros(len(blk))
            floor[has_next] = np.exp(logmag[has_next, live[pos[has_next]]])
            bad = floor > 3e-10 * np.abs(out[blk])
            if np.any(bad):
                raise NumericalError(
                    f"ml_array: asymptotic series cannot reach the accuracy "
                    f"target for alpha={alpha!r}, beta={beta!r}, x={x[blk[np.argmax(bad)]]!r}"
                )
        rows = np.concatenate(regrow) if regrow else rows[:0]
        kmax *= 4
    return out


# ---------------------------------------------------------------------------
# gap regime: decimal-precision Taylor feeding a Chebyshev surrogate
# ---------------------------------------------------------------------------


# pi to 102 digits, correctly rounded; unary + rounds it to the context
# precision, which the gap fit keeps below 83 digits
_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798"
)


_STIRLING_TERMS = 30


@lru_cache(maxsize=1)
def _stirling_coeffs() -> tuple[Fraction, ...]:
    """B_2m / (2m (2m - 1)) for m = 1.._STIRLING_TERMS + 1, exactly: the terms
    of Stirling's series log Gamma(z) ~ (z - 1/2) log z - z + log sqrt(2 pi)
    + sum_m B_2m / (2m (2m - 1) z**(2m - 1))."""
    b = [Fraction(1)]  # Bernoulli numbers: sum_{j <= n} C(n + 1, j) B_j = 0
    for n in range(1, 2 * _STIRLING_TERMS + 3):
        b.append(-sum(math.comb(n + 1, j) * b[j] for j in range(n)) / (n + 1))
    return tuple(b[2 * m] / (2 * m * (2 * m - 1)) for m in range(1, _STIRLING_TERMS + 2))


def _rgamma_table(alpha: float, beta: float, n: int) -> list[Decimal]:
    """1/Gamma(beta + alpha*k) for k < n in the current decimal context.

    Stirling's series at z = w + s >= Z, where Z puts the first omitted term
    below 10**-prec, and 1/Gamma(w) = w (w + 1) ... (w + s - 1) / Gamma(z).
    log z is carried from one z to the next, log z = log z' + 2 atanh(u) with
    u = (z - z')/(z + z') and |u| <= max(alpha, 1)/(2Z), so the table calls
    Decimal.ln once and each coefficient costs one exp.
    """
    prec = getcontext().prec
    cs = _stirling_coeffs()
    zmin = math.ceil(10.0 ** ((prec + math.log10(abs(cs[-1]))) / (2 * _STIRLING_TERMS + 1)))
    cs = [Decimal(c.numerator) / c.denominator for c in reversed(cs[:-1])]
    half, scale = Decimal("0.5"), 1 / (2 * +_PI).sqrt()
    da, db = Decimal(alpha), Decimal(beta)
    out = []
    for k in range(n):
        w = da * k + db
        s = max(0, math.ceil(zmin - w))
        z = w + s
        if k == 0:
            lz = z.ln()
        else:
            u = (z - prev) / (z + prev)
            u2, t, j, acc, last = u * u, u, 1, u, 0
            while acc != last:
                last = acc
                t *= u2
                j += 2
                acc += t / j
            lz += 2 * acc
        r, h = 1 / (z * z), Decimal(0)
        for c in cs:
            h = h * r + c
        g = (z - (z - half) * lz - h / z).exp() * scale
        for i in range(s):
            g *= w + i
        out.append(g)
        prev = z
    return out


def _decimal_log_ml(alpha: float, beta: float, xs: list[float]) -> list[float]:
    """log E_{a,b}(x) for every x <= 0 in xs, by the Taylor series in decimal.

    The worst cancellation, at the largest |x|, sets the working precision
    of the whole batch and of its coefficients 1/Gamma(a*k + b); each x is
    summed over the number of terms its own accuracy target needs.
    """
    digits = [int(0.87 * abs(x) ** (1.0 / alpha)) + 30 for x in xs]
    nterms = []
    for x, d in zip(xs, digits):
        lx, target, k = math.log(-x), -(d + 8) * math.log(10.0), 1
        while k * lx - math.lgamma(alpha * k + beta) >= target or (alpha * k + beta) ** alpha <= -x:
            k = k + max(1, k // 8)
            if k > 200_000:
                raise NumericalError(
                    f"ml_array: series length cap exceeded for "
                    f"alpha={alpha!r}, beta={beta!r}, |x|={abs(x)!r}"
                )
        nterms.append(k)
    out = []
    with localcontext() as ctx:
        ctx.prec = max(digits) + 17  # coefficients to 10**-(max(digits) + 10) relative
        coeffs = _rgamma_table(alpha, beta, max(nterms))
        for x, n in zip(xs, nterms):
            xd, s = Decimal(x), Decimal(0)
            for c in reversed(coeffs[:n]):
                s = s * xd + c
            if s <= 0:
                raise NumericalError(
                    f"ml_array: extended-precision sum non-positive for "
                    f"alpha={alpha!r}, beta={beta!r}, x={x!r}"
                )
            out.append(float(s.ln()))
    return out


def _cheb_fit(vals: list[float]) -> np.ndarray:
    """Chebyshev coefficients of the values at the n Chebyshev-Lobatto nodes."""
    n = len(vals)
    coeffs = np.empty(n)
    for k in range(n):
        terms = [(0.5 if j in (0, n - 1) else 1.0) * vals[j] * math.cos(math.pi * k * j / (n - 1))
                 for j in range(n)]
        coeffs[k] = 2.0 * math.fsum(terms) / (n - 1)
    coeffs[[0, n - 1]] *= 0.5
    return coeffs


def _clenshaw(fit: tuple[float, float, np.ndarray], v: np.ndarray) -> np.ndarray:
    """The fitted series (log E) at every v, by Clenshaw's recurrence."""
    lo, hi, coeffs = fit
    t = (2.0 * v - lo - hi) / (hi - lo)
    b1 = b2 = np.zeros_like(t)
    for c in coeffs[:0:-1]:
        b1, b2 = 2.0 * t * b1 - b2 + c, b1
    return t * b1 - b2 + coeffs[0]


@lru_cache(maxsize=128)
def _gap_fit(alpha: float, beta: float) -> tuple[float, float, np.ndarray]:
    """Chebyshev fit (lo, hi, coeffs) of v -> log E_{a,b}(-exp(a*v)) on the gap band.

    v = log y runs over [lo, hi]; coeffs is read-only.  The fit grows from
    65 to 257 nodes until 16 check points agree with the decimal series.
    """
    y_t, y_a = _regime_bounds(alpha, beta)
    margin = 1.02  # overlap the fit domain slightly past both thresholds
    lo, hi = math.log(y_t / margin), math.log(y_a * margin)
    checks = lo + (hi - lo) * (np.arange(16) + 0.5) / 16.0
    for n in (65, 129, 257):
        nodes = [0.5 * (lo + hi) + 0.5 * (hi - lo) * math.cos(math.pi * j / (n - 1))
                 for j in range(n)]
        vals = _decimal_log_ml(alpha, beta, [-math.exp(alpha * v) for v in nodes + list(checks)])
        fit = (lo, hi, _cheb_fit(vals[:n]))
        fit[2].flags.writeable = False
        err = max(abs(fv - f) for fv, f in zip(_clenshaw(fit, checks), vals[n:]))
        if err < 1e-11:
            return fit
    raise NumericalError(
        f"ml_array: gap surrogate failed to reach 1e-11 for "
        f"alpha={alpha!r}, beta={beta!r} (best {err:.2e})"
    )


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------


def ml_array(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of non-positive arguments."""
    check_real("ml_array", "alpha", alpha, *UNIT)
    check_real("ml_array", "beta", beta, *POSITIVE)
    x = check_floats("ml_array", "x", x)
    if x.ndim == 0:
        x = x[None]
    bad = ~np.isfinite(x) | (x > 0.0)
    if np.any(bad):
        raise DomainError(
            f"ml_array: arguments must be finite and <= 0, got {float(x[bad][0])!r}"
        )
    if alpha == 1.0 and beta == 1.0:
        return np.exp(x)
    out = np.empty_like(x)
    with np.errstate(over="ignore"):  # y = inf is a valid asymptotic-band argument
        y = np.abs(x) ** (1.0 / alpha)
    y_t, y_a = _regime_bounds(alpha, beta)
    m_t = y <= y_t
    m_a = y >= y_a
    m_g = ~(m_t | m_a)
    if np.any(m_t):
        out[m_t] = _taylor_vec(alpha, beta, x[m_t])
    if np.any(m_a):
        out[m_a] = _asym_vec(alpha, beta, x[m_a])
    if np.any(m_g):
        if beta < alpha - 1e-12:
            # E(a,b;x) can change sign when b < a, which defeats the
            # log-domain surrogate.  Shift onto the completely monotone
            # range via E(a,b;x) = 1/Gamma(b) + x * E(a,a+b;x).
            out[m_g] = 1.0 / math.gamma(beta) + x[m_g] * ml_array(
                alpha, alpha + beta, x[m_g]
            )
        else:
            out[m_g] = np.exp(_clenshaw(_gap_fit(alpha, beta), np.log(y[m_g])))
    if not np.all(np.isfinite(out)):
        raise NumericalError(
            f"ml_array: non-finite value for alpha={alpha!r}, beta={beta!r}"
        )
    return out


def ml(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) at one argument; see the module docstring."""
    return float(ml_array(alpha, beta, np.array([x]))[0])
