"""Gamma and Mittag-Leffler evaluation on the non-positive real axis.

The Mittag-Leffler function E_{a,b}(x) = sum_k x^k / Gamma(a*k + b) is
evaluated for a in (0, 1], any b > 0 and x <= 0 with a three-regime scheme
keyed to y = |x|**(1/a):

* small y: truncated Taylor series in extended (80-bit) precision,
  summed over |x|**k with the odd terms subtracted, which rounds exactly
  as the signed series, each row until its sum can no longer change;
* large y: the divergent asymptotic series sum_{k>=1} (-1)**(k+1)
  x**(-k) / Gamma(b - a*k), truncated at its globally smallest term
  (Gorenflo, Kilbas, Mainardi & Rogosin 2014, sec. 4.7), with the
  reciprocal gamma handled in log space through the reflection formula;
  each argument's term table grows until that term lies two periods (2/a
  terms) of the reflection factor's |sin| before the table's end, which
  also ends a terminating series (a = 1, integer b); rows are summed in
  cache-sized blocks, each over its own width; a first omitted term above
  3e-10 of the sum (as at large b) raises NumericalError, never a guess;
* the intermediate band, where both of the above lose accuracy to
  cancellation: a Chebyshev surrogate of log E fitted to the Taylor series
  summed in decimal arithmetic, each node at a digit budget sized to the
  cancellation of a < 1 and again at twice it where Horner's error bound
  leaves too few digits (toward a = b = 1), its log worked in integer fixed
  point, as are its coefficients 1/Gamma(a*k + b), from Stirling's series,
  in memoized chunks of k that b = 1 and b = a share.  The fit is a pure,
  memoized function of (a, b), safe to call from threads.

All paths are deterministic and pure; a cached value is read-only, never mutated.
A value depends on its argument alone, never on the other arguments, their
order or count.
"""

from __future__ import annotations

import itertools
import math
from decimal import ROUND_HALF_EVEN, Context, Decimal, DivisionByZero, InvalidOperation
from decimal import Overflow, localcontext
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


# ---------------------------------------------------------------------------
# regime map
# ---------------------------------------------------------------------------


def _regime_bounds(alpha: float, beta: float) -> tuple[float, float]:
    """(y_taylor, y_asym) thresholds in y = |x|**(1/alpha).

    Calibrated against an arbitrary-precision reference at the tables'
    (alpha, beta) pairs: the Taylor path holds 1e-11 up to the first bound
    and the asymptotic series from the second.  Near (1, 1) the Taylor path
    does not: E falls toward e^(-y), whose cancellation amplifies the float64
    lgamma error of the coefficients (6.2e-10 at (0.999, 1), y = 7).  b == a
    is the weakest case on both sides: the leading asymptotic term vanishes.
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
    so each partial sum has the bits of the signed series.  A row stops once
    term_k < |acc| eps/8 (under a quarter ulp).  By Gamma's log-convexity the terms
    are log-concave in k: up to a row's largest term |acc| <= (k + 1) term_k, so the
    test passes only past it, where every later term is smaller, every later add a no-op.
    """
    order = np.argsort(x)  # largest |x| first: live rows are a prefix
    ax = -x[order].astype(_LD)
    acc, pw, term = np.zeros_like(ax), np.ones_like(ax), np.empty_like(ax)
    a, p, t, s, kmax = acc, pw, term, ax, 64
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
        np.multiply(p, coeffs[k], out=t)
        (np.subtract if k % 2 else np.add)(a, t, out=a)
        p *= s
        if k % 8 == 7:
            moving = np.flatnonzero(t >= np.abs(a) * (_LD_EPS / 8.0))
            if len(moving) == 0:
                break
            live = moving[-1] + 1
            a, p, t, s = acc[:live], pw[:live], term[:live], ax[:live]
    out = np.empty_like(x)
    out[order] = acc
    return out


# ---------------------------------------------------------------------------
# asymptotic regime
# ---------------------------------------------------------------------------


@lru_cache(maxsize=512)
def _asym_table(alpha: float, beta: float, kmax: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (logs, signs, live) for k = 1..kmax: log|1/Gamma(beta - alpha*k)|, +inf on
    a pole so no argmin picks it; the parity-adjusted sign, +-0 on a pole; the indices off one."""
    logs, signs = np.empty(kmax), np.empty(kmax)
    for i in range(kmax):
        t, parity = beta - alpha * (i + 1), -1.0 if i % 2 else 1.0
        near = round(t)
        if t > 0.0:
            logs[i], signs[i] = -math.lgamma(t), parity
        elif abs(t - near) < 1e-13:
            logs[i], signs[i] = math.inf, 0.0 * parity
        else:  # reflection: 1/Gamma(t) = Gamma(1-t) sin(pi t)/pi, the sine's argument
            s = math.sin(math.pi * (t - near))  # reduced exactly so large |t| keeps precision
            logs[i] = math.lgamma(1.0 - t) + math.log(abs(s)) - math.log(math.pi)
            signs[i] = math.copysign(1.0, -s if near % 2 else s) * parity
    live = np.flatnonzero(signs)
    logs.flags.writeable = signs.flags.writeable = live.flags.writeable = False
    return logs, signs, live


_ASYM_BLOCK = 256  # rows at 64 columns, fewer as the table grows: 128 KB per temporary
_ASYM_CLAMP = 700.0  # a kept term's log-magnitude at or above it raises


def _asym_vec(alpha: float, beta: float, x: np.ndarray) -> np.ndarray:
    """Asymptotic series truncated at the globally smallest term.

    Term magnitudes decrease and then grow factorially; cutting at the
    global minimum leaves an error of the order of the first omitted term.
    Bracketing that minimum can take ~|x|**(1/alpha)/alpha terms near the
    regime boundary, so the term table grows geometrically, row by row,
    until either the minimum is interior or the tail is negligible; a
    terminating series (alpha = 1, integer beta) stops at its last live term.
    1/Gamma(beta - alpha*k) carries a |sin(pi*(beta - alpha*k))| factor of
    period 1/alpha in k, so a minimum within two periods of the table's end
    may be a dip of that factor, not interior.  Terms past the cut and on
    poles are exact zeros, and a row's width is set by its own growth alone,
    so a row's value does not depend on the rest of the batch and rows are
    summed in blocks of _ASYM_BLOCK * 64 // kmax, bit for bit.  Each row's
    log first-omitted term is kept, and the accuracy check runs once on all
    rows after the last block.
    """
    lx = np.log(np.abs(x))
    reach = math.ceil(2.0 / alpha)
    out = np.empty_like(x)
    omitted = np.full_like(x, -np.inf)  # no live term past the cut: no error estimate
    rows = np.arange(len(x))
    kmax = 64
    while len(rows):
        logs, signs, live = _asym_table(alpha, beta, kmax)
        if len(live) == 0:  # all kmax terms vanish on poles, yet E != 0: no value to give
            raise NumericalError(f"ml_array: all asymptotic terms on Gamma poles, {alpha=}, {beta=}")
        ks = np.arange(1, kmax + 1)
        regrow = []
        height = max(1, _ASYM_BLOCK * 64 // kmax)
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
            np.minimum(logmag, _ASYM_CLAMP, out=logmag)
            terms = np.exp(logmag, out=logmag)
            terms *= signs
            terms *= ks <= ks[kopt][:, None]
            if max(terms.max(initial=0.0), -terms.min(initial=0.0)) >= math.exp(_ASYM_CLAMP):
                raise NumericalError(
                    f"ml_array: asymptotic term reaches e^{_ASYM_CLAMP:g} for "
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


# ---------------------------------------------------------------------------
# gap regime: decimal-precision Taylor feeding a Chebyshev surrogate
# ---------------------------------------------------------------------------


# pi to 102 digits, correctly rounded; unary + rounds it to the context
# precision.  The gap fit keeps that below 83 digits, whose 1/Gamma tables
# read pi to 2**-313 < 10**-94
_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "582097494459230781640628620899862803482534211706798"
)


_STIRLING_TERMS = 30


@lru_cache(maxsize=1)
def _stirling_coeffs() -> tuple[Fraction, ...]:
    """B_2m / (2m (2m - 1)) for m = 1.._STIRLING_TERMS + 1, exactly: the terms of Stirling's
    series log Gamma(z) ~ (z - 1/2) log z - z + log sqrt(2 pi) + sum_m B_2m / (2m (2m - 1)
    z**(2m - 1)), with B_2m = (-1)**(m-1) 2m T_m / (4**m (4**m - 1)), T_m the tangent numbers."""
    t = [math.factorial(k) for k in range(_STIRLING_TERMS + 1)]  # each t[k] ends as T_(k+1)
    for k, j in itertools.combinations_with_replacement(range(1, len(t)), 2):
        t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction(-(-1) ** m * c, 4**m * (4**m - 1) * (2*m - 1)) for m, c in enumerate(t, 1))


def _atanh(u: int, bits: int) -> int:
    """atanh(u/2**bits) * 2**bits, rounded down, for 0 <= u << 2**bits."""
    u2, t, j, acc = u * u >> bits, u, 1, u
    while t:
        t = t * u2 >> bits
        j += 2
        acc += t // j
    return acc


def _exp(x: int, bits: int) -> int:
    """e**(x/2**bits) * 2**bits, rounded down, for 0 <= x << 2**bits."""
    t = acc = 1 << bits
    for j in itertools.count(1):
        t = (t * x >> bits) // j
        if not t:
            return acc
        acc += t


def _ln(z: int, bits: int, logs: tuple[int, ...]) -> int:
    """ln(z/2**bits) * 2**bits for z >= 2**bits, with logs = _fixed_consts(bits)[0]: z in
    2**e [1 + j/64, 1 + (j + 1)/64) gives e ln 2 + ln(1 + j/64) + 2 atanh(u), u <= 1/128."""
    e = z.bit_length() - 1 - bits
    j = (z >> e + bits - 6) - 64
    zj = 64 + j << e + bits - 6
    return e * logs[64] + logs[j] + 2 * _atanh(((z - zj) << bits) // (z + zj), bits)


@lru_cache(maxsize=8)
def _fixed_consts(bits: int) -> tuple[tuple[int, ...], tuple[int, ...], int, int, tuple[int, ...]]:
    """ln(1 + j/64) (j <= 64), e**(j/64) (j < 148), ln 10, ln sqrt(2 pi) and Stirling's coefficients
    less the last, reversed, each times 2**bits, rounded down; the exponentials are powers of e**(1/64)
    and ln((65 + j)/(64 + j)) = 2 atanh(1/(129 + 2j)) sums the logs, both 16 bits finer."""
    fine = bits + 16
    logs, exps, e64 = [0], [1 << fine], _exp(1 << fine - 6, fine)
    for j in range(64):
        logs.append(logs[-1] + 2 * _atanh((1 << fine) // (129 + 2 * j), fine))
    while len(exps) < 148:
        exps.append(exps[-1] * e64 >> fine)
    with localcontext(Context(int(fine * 0.302) + 5, ROUND_HALF_EVEN, traps=_TRAPS)):
        root = int((2 * _PI).ln() * (1 << fine - 1))
    ln10 = 3 * logs[64] + logs[16]  # 10 = 2**3 * (1 + 16/64)
    cs = tuple((c.numerator << bits) // c.denominator for c in reversed(_stirling_coeffs()[:-1]))
    return tuple(v >> 16 for v in logs), tuple(v >> 16 for v in exps), ln10 >> 16, root >> 16, cs


@lru_cache(maxsize=512)  # ~1.8 KB a chunk at the tables' 53 digits: ~0.9 MB when full
def _rgamma_table(alpha: float, beta: float, prec: int, j: int) -> tuple[Decimal, ...]:
    """1/Gamma(beta + alpha*k) to prec digits for _CHUNK*j <= k < _CHUNK*(j + 1).

    Stirling's series at z = w + s >= Z, where Z puts the first omitted term
    below 10**-prec, and 1/Gamma(w) = w (w + 1) ... (w + s - 1) / Gamma(z),
    worked in integers scaled by 2**B, B = prec digits plus 40 bits.  w and
    the rising product are exact, from the dyadic alpha and beta.  log z is
    _ln's and 1/Gamma(z) = 10**q e**(i/64) e**r with r < 1/64, so Decimal.ln
    and exp run only for the memoized constants.  Each entry is rounded once.
    """
    cs = _stirling_coeffs()
    zmin = math.ceil(10.0 ** ((prec + math.log10(abs(cs[-1]))) / (2 * _STIRLING_TERMS + 1)))
    bits = math.ceil(prec * math.log2(10.0)) + 40
    logs, exps, ln10, root, cs = _fixed_consts(bits)
    (an, ad), (bn, bd) = alpha.as_integer_ratio(), beta.as_integer_ratio()
    den = max(ad, bd)  # both powers of two: w = (an k + bn)/den below
    an, bn, ed = an * (den // ad), bn * (den // bd), den.bit_length() - 1
    one, low, out = Decimal(1 << bits), (1 << bits - 6) - 1, []
    with localcontext(Context(prec, ROUND_HALF_EVEN, traps=_TRAPS)):
        for k in range(_CHUNK * j, _CHUNK * (j + 1)):
            w = an * k + bn
            s = max(0, zmin - (w >> ed))
            z = (w + (s << ed)) << bits >> ed
            lz = _ln(z, bits, logs)
            r, h = (1 << 3 * bits) // (z * z), 0
            for c in cs:
                h = (h * r >> bits) + c
            q, lg = divmod(z - ((z - (1 << bits - 1)) * lz >> bits) - (h << bits) // z - root, ln10)
            g = exps[lg >> bits - 6] * _exp(lg & low, bits)
            for i in range(s):
                g *= w + (i << ed)
            out.append((Decimal(g >> ed * s + bits) / one).scaleb(q))
    return tuple(out)


_MARGIN = 1.02  # the fit domain overlaps both regime thresholds by this factor
_TRAPS = [InvalidOperation, DivisionByZero, Overflow]  # not the caller's, nor its rounding
_CHUNK = 16  # entries per memoized 1/Gamma chunk: the table pairs leave ~2 % of theirs unread
_KEPT = 30  # digits a lean node sum keeps past its cancellation, or it is summed at full budget
_LN_BITS = 128  # the node logs' fixed point: ln S to ~2**-120 before its one rounding to a double


def _digits(alpha: float, y: float, full: bool = False) -> int:
    # digits for the Taylor sum at y = |x|**(1/a).  For a < 1 it cancels ~0.434 y + log10(1/a)
    # digits (sum |c_k x**k| ~ e**y / a; E decays algebraically): the lean budget adds 20 plus
    # floor(log10(1/a)), 0 for a > 0.1.  Toward a = b = 1, E ~ e**-y and it cancels up to 0.87 y:
    # the full budget adds 30, for nodes under _KEPT digits
    return int(0.87 * y) + 30 if full else int(0.44 * y) + 20 + max(0, int(-math.log10(alpha)))


def _series_coeffs(alpha: float, beta: float, n: int, prec: int) -> list[Decimal]:
    """1/Gamma(alpha*k + beta) for k < n or more, to prec digits or more.  beta = 1 and beta = alpha
    (1/Gamma(alpha*k) = alpha k/Gamma(1 + alpha*k), rounded to prec) read the beta = 1 chunks at
    the larger of their fits' lean precisions; any other beta, or a higher prec, reads its own."""
    shared = max(_digits(alpha, _regime_bounds(alpha, b)[1] * _MARGIN) for b in (alpha, 1.0)) + 17
    own = beta not in (1.0, alpha) or prec > shared
    b, p, m = (beta, prec, n) if own else (1.0, shared, n + (beta != 1.0))
    table = [c for j in range(-(-m // _CHUNK)) for c in _rgamma_table(alpha, b, p, j)]
    if own or beta == 1.0:
        return table
    a = Decimal(alpha)  # exact, converted once
    with localcontext(Context(prec, ROUND_HALF_EVEN, traps=_TRAPS)):
        return [a * k * table[k] for k in range(1, m)]


def _term_counts(
    alpha: float, beta: float, xs: list[float], digits: list[int]
) -> tuple[list[int], list[float]]:
    """Per x, the first k of 1, 2, ..., k + max(1, k // 8), ... whose term |x|**k/Gamma(a*k + b)
    is below 10**-(d + 8) min(1, 1/Gamma(b)), as E <= 1/Gamma(b), and the log of the largest term
    visited, k = 0 included; each k's lgamma is computed once for all x.  The terms are log-concave
    in k and the first, 1/Gamma(b), is above that bound, so the test passes only past the largest
    term: every later term is smaller, and the alternating tail is below its first term."""
    lx, k = np.array([math.log(-x) for x in xs]), 1
    target = -(np.array(digits) + 8) * math.log(10.0) - max(0.0, math.lgamma(beta))
    counts, peaks = np.zeros(len(xs), dtype=np.int64), np.full(len(xs), -math.lgamma(beta))
    while (live := counts == 0).any():
        logt = k * lx - math.lgamma(alpha * k + beta)
        np.maximum(peaks, logt, out=peaks, where=live)
        counts[live & (logt < target)] = k
        k = k + max(1, k // 8)
        if k > 200_000 and 0 in counts:
            raise NumericalError(
                f"ml_array: series length cap exceeded for "
                f"alpha={alpha!r}, beta={beta!r}, |x|={abs(xs[counts.tolist().index(0)])!r}"
            )
    return counts.tolist(), peaks.tolist()


def _decimal_log_ml(alpha: float, beta: float, xs: list[float], full: bool = False) -> list[float]:
    """log E_{a,b}(x) for every x <= 0 in xs, by the Taylor series in decimal: each x summed at
    d + 17 digits, d = _digits(a, |x|**(1/a), full), to _term_counts' count, with 1/Gamma(a*k + b)
    shared at the batch's largest d + 17, and log S = log m + e log 10 for S = m 10**e worked in
    _LN_BITS fixed point and rounded once to a double.  Horner's error is at most gamma_2n sum
    |c_k x**k| (Higham 2002, 5.1), that sum at most n times the largest term visited: an x whose
    lean sum keeps fewer than _KEPT digits past this cancellation is summed again at full budget."""
    digits = [_digits(alpha, abs(x) ** (1.0 / alpha), full) for x in xs]
    nterms, peaks = _term_counts(alpha, beta, xs, digits)
    coeffs = _series_coeffs(alpha, beta, max(nterms), max(digits) + 17)  # to 10**-(max(digits) + 10)
    logs, _, ln10, *_ = _fixed_consts(_LN_BITS)
    out, redo = [], []
    for x, n, d, peak in zip(xs, nterms, digits, peaks):
        with localcontext(Context(d + 17, ROUND_HALF_EVEN, traps=_TRAPS)):
            xd, s = Decimal(x), Decimal(0)
            for c in reversed(coeffs[:n]):
                s = s * xd + c
            if s <= 0:
                raise NumericalError(
                    f"ml_array: extended-precision sum non-positive for "
                    f"alpha={alpha!r}, beta={beta!r}, x={x!r}"
                )
            e = s.as_tuple().exponent
            m = int(s.scaleb(-e))
        out.append((_ln(m << _LN_BITS, _LN_BITS, logs) + e * ln10) / (1 << _LN_BITS))
        if not full and d + 17 - (math.log(n) + peak - out[-1]) / math.log(10.0) < _KEPT:
            redo.append(len(out) - 1)
    if redo:
        for i, v in zip(redo, _decimal_log_ml(alpha, beta, [xs[i] for i in redo], True)):
            out[i] = v
    return out


@lru_cache(maxsize=3)  # cos(pi k j / (n - 1)) for k, j < n, one matrix per node count
def _cheb_cos(n: int) -> np.ndarray:
    m = np.array([[math.cos(math.pi * k * j / (n - 1)) for j in range(n)] for k in range(n)])
    m.flags.writeable = False
    return m


def _cheb_fit(vals: list[float]) -> np.ndarray:
    """Chebyshev coefficients of the values at the n Chebyshev-Lobatto nodes."""
    n = len(vals)
    ends = np.r_[0.5, np.ones(n - 2), 0.5]
    return ends * [2.0 * math.fsum(r) / (n - 1) for r in np.array(vals) * ends * _cheb_cos(n)]


def _clenshaw(fit: tuple[float, float, np.ndarray], v: np.ndarray) -> np.ndarray:
    """The fitted series (log E) at every v, by Clenshaw's recurrence, in place."""
    lo, hi, coeffs = fit
    t = (2.0 * v - lo - hi) / (hi - lo)
    t2, b1, b2, b0 = 2.0 * t, np.zeros_like(t), np.zeros_like(t), np.empty_like(t)
    for c in coeffs[:0:-1]:  # b0 = 2 t b1 - b2 + c, rounded in that order
        np.add(np.subtract(np.multiply(t2, b1, out=b0), b2, out=b0), c, out=b0)
        b0, b1, b2 = b2, b0, b1
    return t * b1 - b2 + coeffs[0]


@lru_cache(maxsize=128)
def _gap_fit(alpha: float, beta: float) -> tuple[float, float, np.ndarray]:
    """Chebyshev fit (lo, hi, coeffs) of v -> log E_{a,b}(-exp(a*v)) on the gap band.

    v = log y runs over [lo, hi]; coeffs is read-only.  The fit grows from
    65 to 257 nodes until 16 check points agree with the decimal series.
    """
    y_t, y_a = _regime_bounds(alpha, beta)
    lo, hi = math.log(y_t / _MARGIN), math.log(y_a * _MARGIN)
    checks = lo + (hi - lo) * (np.arange(16) + 0.5) / 16.0
    for n in (65, 129, 257):
        nodes = list(0.5 * (lo + hi) + 0.5 * (hi - lo) * _cheb_cos(n)[1])  # cos(pi j / (n - 1))
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
