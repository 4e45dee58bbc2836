"""Exception types shared across the package.

The CLI maps these onto stable exit codes: domain and parameter-choice
errors exit 2, I/O errors exit 3, numerical failures exit 4.
"""

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
