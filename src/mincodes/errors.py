"""Exception types raised across the package, and the checks that raise
them for every module: integers (``_int``, ``_ints``), iterables
(``_list``) and budgets (``_spend``, the only place that raises
``BudgetExceeded``)."""

import operator


class MinCodesError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimePower(MinCodesError):
    """The requested field order is not a prime power >= 2."""


class FieldMismatch(MinCodesError):
    """Operands live over different fields."""


class DimensionMismatch(MinCodesError):
    """Operand shapes are incompatible."""


class RankDeficient(MinCodesError):
    """A generator matrix does not have full row rank."""


class TrivialDual(MinCodesError):
    """The dual code is zero-dimensional (n == k)."""


class NotInCode(MinCodesError):
    """A vector claimed to be a codeword is not in the code."""


class BudgetExceeded(MinCodesError):
    """A stage would exceed its budget; raised only by ``_spend``.

    unit names what the budget counts: codewords by default, coalitions
    for the access-structure search, points for the function codes,
    generator entries for the constructions, dealing entries for the
    perfectness checks.
    """

    def __init__(self, needed: int, budget: int, *, unit: str = "words"):
        self.needed = needed
        self.budget = budget
        self.unit = unit
        super().__init__(f"needs {needed} {unit}, budget is {budget}")


class BadParams(MinCodesError):
    """Construction or operation parameters are out of range."""


def _int(value, what: str) -> int:
    """value as a Python int; a numpy integer passes, a float, a string or
    anything else is BadParams."""
    try:
        return operator.index(value)
    except TypeError:
        raise BadParams(f"{what} must be an integer, got {value!r}") from None


def _spend(needed: int, budget, unit: str) -> None:
    """The one budget gate: budget as an int (else BadParams), and
    BudgetExceeded when a stage needs more than it, the limit inclusive."""
    budget = _int(budget, "budget")
    if needed > budget:
        raise BudgetExceeded(needed, budget, unit=unit)


def _ints(values, what: str, optional: bool = False) -> list:
    """values as Python ints (None stays None when optional); numpy integers
    pass, floats, strings or a bare number for a sequence are BadParams."""
    try:
        return [None if optional and v is None else operator.index(v)
                for v in values]
    except TypeError:
        raise BadParams(
            f"{what} must be a sequence of integers, got {values!r}") from None


def _list(values, what: str, items: str) -> list:
    """values as a list; anything that is not iterable is BadParams."""
    try:
        return list(values)
    except TypeError:
        raise BadParams(f"{what} must be an iterable of {items}, "
                        f"got {values!r}") from None


class PreconditionFailed(MinCodesError):
    """An operation's verified precondition does not hold for its input."""


class Unauthorized(MinCodesError):
    """A participant subset is not authorized to reconstruct the secret."""


class InconsistentShares(MinCodesError):
    """Submitted shares do not match any codeword of the scheme."""


class ZeroColumn(MinCodesError):
    """A generator column is the zero vector where a nonzero one is required."""
