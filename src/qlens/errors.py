"""Exception hierarchy shared by all qlens modules.

Every class but QlensError descends from one of three roots, one per CLI
exit code: InputError 2, BudgetExceededError 3, InvariantViolationError 4.
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
    "BudgetExceededError",
    "TooLargeError",
    "InvariantViolationError",
    "HypothesisUnmetError",
    "NonIntegerResultError",
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


class BudgetExceededError(QlensError):
    """An enumeration cap would be exceeded, or a pool worker died or never started (exit 3)."""


class TooLargeError(BudgetExceededError):
    """Brute-force path enumeration exceeded its visit budget."""


class InvariantViolationError(QlensError):
    """A check of a proven statement failed at runtime; always a bug, never input (exit 4)."""


class HypothesisUnmetError(InvariantViolationError):
    """An entry that the odd-prime-power window law makes divisible by p^alpha is not."""


class NonIntegerResultError(InvariantViolationError):
    """A division that is exact for every r left a remainder; the closed form is broken."""
