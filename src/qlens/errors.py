"""Exception hierarchy shared by all qlens modules.

The CLI maps these onto exit codes: input errors exit 2, budget
errors exit 3, and InvariantViolationError and NonIntegerResultError
(a verification mismatch) exit 4.
"""

__all__ = [
    "QlensError",
    "InputError",
    "BadModulusError",
    "NonUnitError",
    "NotPrimeError",
    "InvalidParamsError",
    "DimensionMismatchError",
    "IndexOutOfRangeError",
    "HypothesisUnmetError",
    "BudgetExceededError",
    "TooLargeError",
    "NonIntegerResultError",
    "InvariantViolationError",
]


class QlensError(Exception):
    """Base class for all qlens errors."""


class InputError(QlensError, ValueError):
    """Invalid input supplied by the caller (CLI exit code 2)."""


class BadModulusError(InputError):
    """Modulus is too small (r <= 1, or r <= 2 where r > 2 is required)."""


class NonUnitError(InputError):
    """Residue is not invertible modulo the given modulus."""


class NotPrimeError(InputError):
    """A prime was required but a composite (or < 2) was given."""


class InvalidParamsError(InputError):
    """Lens parameters (r, m) violate their invariants."""


class DimensionMismatchError(InputError):
    """Matrix or vector dimensions do not agree."""


class IndexOutOfRangeError(InputError):
    """A submatrix block does not fit inside the matrix."""


class HypothesisUnmetError(InputError):
    """A congruence was requested whose divisibility hypothesis fails."""


class BudgetExceededError(QlensError):
    """An enumeration cap would be exceeded, or a pool worker died or never started (exit 3)."""


class TooLargeError(BudgetExceededError):
    """Brute-force path enumeration exceeded its visit budget."""


class NonIntegerResultError(QlensError):
    """An exact division failed; indicates a broken closed form."""


class InvariantViolationError(QlensError):
    """A proven invariant failed at runtime; always a bug, never input."""
