"""Independent extended-precision Mittag-Leffler reference for the tests.

Evaluates E_{alpha,beta}(x) for x <= 0 with mpmath only (no code shared
with the library under test): a high-precision Taylor sum for moderate
|x|^(1/alpha), and the optimally truncated asymptotic series for large
|x|^(1/alpha).  The two branches agree on an overlap window, which the
test suite cross-checks.
"""

from __future__ import annotations

import mpmath as mp


def ml_taylor(alpha: float, beta: float, y: float, dps: int | None = None) -> mp.mpf:
    """E_{alpha,beta}(-y), y >= 0, by the defining series at high precision.

    The series for negative arguments loses roughly 0.4343 * y^(1/alpha)
    digits to cancellation, so the working precision scales with it.
    """
    ya = float(y) ** (1.0 / float(alpha)) if y > 0 else 0.0
    if dps is None:
        dps = int(ya * 0.4343) + 40
    with mp.workdps(dps):
        ma, mb, mx = mp.mpf(alpha), mp.mpf(beta), -mp.mpf(y)
        s = mp.mpf(0)
        k = 0
        while True:
            term = mx**k / mp.gamma(ma * k + mb)
            s += term
            if k > 4 and abs(term) < mp.mpf(10) ** (-dps) * abs(s):
                break
            k += 1
            if k > 200000:
                raise RuntimeError("reference Taylor sum did not converge")
        return s


def ml_asymptotic(alpha: float, beta: float, y: float, kmax: int = 512) -> mp.mpf:
    """E_{alpha,beta}(-y) by the asymptotic series, optimally truncated.

    Sum_{k>=1} (-1)^(k+1) y^(-k) / Gamma(beta - alpha k), cut at the
    global minimum of |term|.  Terms hitting Gamma poles vanish.  The
    table grows geometrically until the minimum is interior (the optimal
    index scales like y^(1/alpha)/alpha, not like a fixed constant) or
    the tail is negligibly small relative to the leading term.
    """
    with mp.workdps(50):
        ma, mb, my = mp.mpf(alpha), mp.mpf(beta), mp.mpf(y)
        tiny = mp.mpf(10) ** (-30)
        while True:
            terms = []
            for k in range(1, kmax + 1):
                arg = mb - ma * k
                if arg <= 0 and abs(arg - mp.nint(arg)) < mp.mpf(10) ** (-40):
                    terms.append(mp.mpf(0))
                    continue
                terms.append((-1) ** (k + 1) * my ** (-k) / mp.gamma(arg))
            nonzero = [(abs(t), i) for i, t in enumerate(terms) if t != 0]
            if not nonzero:
                return mp.mpf(0)
            kmin = min(nonzero)[1]
            interior = kmin < nonzero[-1][1]
            negligible_tail = nonzero[-1][0] < tiny * nonzero[0][0]
            if interior or negligible_tail or kmax >= 65536:
                return mp.fsum(terms[: kmin + 1])
            kmax *= 4


def ml_ref_mp(alpha: float, beta: float, x) -> mp.mpf:
    """E_{alpha,beta}(x) for x <= 0, 0 < alpha <= 1, beta > 0, as an mpf."""
    y = -x
    if y == 0:
        return 1 / mp.gamma(beta)
    ya = float(y) ** (1.0 / float(alpha))
    if ya <= 80.0:
        return ml_taylor(alpha, beta, y)
    return ml_asymptotic(alpha, beta, y)


def ml_ref(alpha: float, beta: float, x: float) -> float:
    """E_{alpha,beta}(x) for x <= 0, 0 < alpha <= 1, beta > 0, as a float."""
    return float(ml_ref_mp(alpha, beta, float(x)))
