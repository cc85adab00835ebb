"""Exception taxonomy shared by every module.

The split mirrors how callers (and the CLI exit codes) need to react:
bad input (DomainError / PreconditionError), a size refused by the byte
budget (CapacityError), and floating-point trouble (NumericError).
"""


class KposiError(Exception):
    """Base class for all library errors."""


class DomainError(KposiError, ValueError):
    """Input is outside the mathematical domain of an operation."""


class PreconditionError(KposiError, ValueError):
    """A stated operation precondition does not hold for the inputs."""


class CapacityError(KposiError, RuntimeError):
    """A path's priced peak exceeds the byte budget; refusing to run."""


class NumericError(KposiError, RuntimeError):
    """A numerical routine failed or an internal consistency check broke."""
