"""Exception types shared across the package, and the argument checks.

The CLI maps these onto stable exit codes: domain and parameter-choice
errors exit 2, I/O errors exit 3, numerical failures exit 4.

Counts, real parameters, enum tokens, arrays of reals and argument types
are checked by :func:`check_int`, :func:`check_real`, :func:`check_enum`,
:func:`check_floats` and :func:`check_type`, which raise :class:`DomainError`
(a ``ValueError``) with the message ``"<where>: <name> must be <want>, got
<value>"``, or ``"<where>: unknown <name> <value>, must be one of [...]"``
for an enum token.  A bool is not a number, and NaN fails every range.
The result check :func:`refuse` raises ``"<what> for mode (m, n)"``.
"""

import math
from numbers import Integral, Real

import numpy as np

__all__ = ["DomainError", "NumericalError", "ParameterChoiceError"]


class DomainError(ValueError):
    """An argument lies outside the documented domain of an operation."""


class NumericalError(ArithmeticError):
    """A computation failed to converge or produced a non-finite value.

    Raised instead of returning a silently wrong value; the message
    carries a diagnostic of where the failure occurred.
    """


class ParameterChoiceError(DomainError):
    """A parameter-choice rule produced an unusable regularization time.

    The message names the offending noise level so the caller can reduce
    eta or switch rules.
    """


# (ok, want) ranges for check_real, shared by every module
UNIT = (lambda v: 0.0 < v <= 1.0, "in (0, 1]")
POSITIVE = (lambda v: 0.0 < v < math.inf, "finite and positive")
NONNEGATIVE = (lambda v: 0.0 <= v < math.inf, "finite and >= 0")


def check_int(where: str, name: str, v, lo: int = 1, hi: float = math.inf) -> int:
    """v as an int in [lo, hi]; a bool or a non-integer is a DomainError."""
    if isinstance(v, bool) or not isinstance(v, Integral) or not lo <= v <= hi:
        want = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
        raise DomainError(f"{where}: {name} must be {want}, got {v!r}")
    return int(v)


def check_real(where: str, name: str, v, ok, want: str) -> float:
    """float(v) for a real number v with ok(float(v)); a bool, a non-number
    or NaN is a DomainError."""
    if isinstance(v, bool) or not isinstance(v, Real) or math.isnan(v) or not ok(float(v)):
        raise DomainError(f"{where}: {name} must be {want}, got {v!r}")
    return float(v)


def check_type(where: str, name: str, v, cls):
    """v itself if it is an instance of cls, a class or a tuple of classes;
    anything else is a DomainError."""
    if not isinstance(v, cls):
        want = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        raise DomainError(f"{where}: {name} must be a {want}, got {v!r}")
    return v


def check_enum(where: str, name: str, cls, v):
    """v as a member of the enum cls: cls(v), so by member, by value or by cls._missing_.
    A bad v's message lists the values and each value's first word cls._missing_ takes."""
    try:
        return cls(v)
    except ValueError:
        values = [m.value for m in cls]
        words = [t.partition("_")[0] for t in values]
        tokens = [w for w in words if cls._missing_(w) is not None] + values
        raise DomainError(f"{where}: unknown {name} {v!r}, must be one of {tokens}") from None


def check_floats(where: str, name: str, v) -> np.ndarray:
    """v as a new float64 array; a value numpy cannot convert is a DomainError."""
    try:
        return np.array(v, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{where}: {name} must be real numbers ({exc})") from None


def refuse(what: str, bad, modeset) -> None:
    """Raise NumericalError naming the first mode where bad (mode axis first) holds, if any."""
    if np.any(bad):
        k = int(np.unravel_index(np.argmax(bad), np.shape(bad))[0])
        raise NumericalError(f"{what} for mode {modeset.modes[k]}")
