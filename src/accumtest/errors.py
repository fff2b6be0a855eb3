"""Exception types shared across the package.

Three failure categories are distinguished so that callers (and the
command line front end) can map them to distinct exit statuses:

* :class:`DomainError` for arguments outside their mathematical domain,
  such as a level ``alpha`` not in ``(0, 1)`` or an evaluation point
  outside ``[0, 1]``.
* :class:`ValidationError` for data that fails structural checks, such
  as a malformed table or an off-grid discrete p-value.
* :class:`ContractError` for calls that violate a documented
  precondition, such as asking for power when no ground-truth labels
  are available.

:func:`whole_number` refuses a count that is not a finite whole number
with whichever of these its caller documents.
"""

__all__ = [
    "AccumTestError",
    "DomainError",
    "ValidationError",
    "ContractError",
]

# Bytes the arrays of one unit of work may take (a design's partition table,
# one simulated trial).  ``_require_budget`` refuses more before anything is
# allocated, instead of failing on an allocation far beyond the host's memory.
_MEMORY_BUDGET = 128 * 2**20


class AccumTestError(ValueError):
    """Base class for all errors raised by this package."""


class DomainError(AccumTestError):
    """An argument lies outside the mathematical domain of an operation."""


class ValidationError(AccumTestError):
    """Input data failed a structural or consistency check."""


class ContractError(AccumTestError):
    """A documented precondition of an operation was violated."""


def whole_number(name: str, value, error: type[AccumTestError]) -> int:
    """``value`` as an int; raises ``error``, naming ``name``, unless
    ``value`` is a finite whole number."""
    try:
        number = int(value)
    except (OverflowError, TypeError, ValueError):
        number = None
    if number is None or number != value:
        raise error(f"{name} must be a whole number, got {value!r}")
    return number


def _require_budget(
    what: str, needed: int, advice: str, per: str = "", budget: int = _MEMORY_BUDGET
) -> None:
    """Raise ``ContractError`` "<what> needs N MiB<per>, over the B MiB
    budget; <advice>" when ``needed`` bytes exceed ``budget``."""
    if needed > budget:
        raise ContractError(
            f"{what} needs {needed / 2**20:.0f} MiB{per}, over the "
            f"{budget // 2**20} MiB budget; {advice}"
        )
