"""Exception types shared across the package."""


class PermPatError(Exception):
    """Base class for all domain errors raised by permpat."""


class MalformedPermutationError(PermPatError, ValueError):
    """Input is not a rearrangement of 1..n."""


class PatternSyntaxError(PermPatError, ValueError):
    """Pattern notation could not be parsed.

    Carries the character position where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvalidBasisError(PermPatError, ValueError):
    """A basis was not an antichain under containment."""


class IterationCapError(PermPatError, ValueError):
    """A full-iteration request exceeded the configured size cap."""


class InsufficientPrefixError(PermPatError, ValueError):
    """A series prefix is too short for the requested fit degrees.

    Carries the minimum prefix degree that would be needed.
    """

    def __init__(self, message: str, required_degree: int):
        super().__init__(message)
        self.required_degree = required_degree


class UnknownStatisticError(PermPatError):
    """A statistic name is not in the registry."""
