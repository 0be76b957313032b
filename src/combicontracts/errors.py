"""Exception hierarchy shared by all modules.

Every error the package raises is a ``ContractError`` subclass, the CLI's
usage errors and the validators' refusals included (``tests/test_source.py``
checks this).  The CLI maps these onto exit codes: validation problems and
bad usage exit 1, resource limits exit 2, and internal invariant breaches
exit 3.
"""


class ContractError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(ContractError, ValueError):
    """An argument violates an operation's precondition."""


class UnsupportedClassError(ContractError):
    """Greedy machinery was asked to run on a non-certified function class."""


class ResourceLimitError(ContractError):
    """The instance exceeds a fixed size or precision limit."""


class PrecisionError(ContractError):
    """A declared bit precision is missing or the instance violates it."""


class DegenerateInstanceError(ContractError):
    """The instance admits no meaningful contract (e.g. zero top reward)."""


class InvariantError(ContractError):
    """An internal invariant failed; indicates a bug, never bad user input."""
