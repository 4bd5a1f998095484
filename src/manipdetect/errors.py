"""Exception types shared across the package."""


class ElectionError(Exception):
    """Base class for all errors raised by this package."""


class RosterError(ElectionError):
    """A candidate id or name does not belong to the roster."""


class ValidationError(ElectionError):
    """A value violates a structural invariant (bad ballot, bad margin table, ...)."""


class ConfigError(ElectionError):
    """A rule or vector is malformed or does not fit the roster."""


class DegenerateRosterError(ConfigError):
    """The operation needs at least two candidates."""


class InvalidQueryError(ElectionError):
    """A detection query is self-contradictory (e.g. target equals the current winner)."""


class BudgetExceededError(ElectionError):
    """An exhaustive search would exceed its configured budget."""

    def __init__(self, message: str, cost: int, budget: int):
        super().__init__(message)
        self.cost = cost
        self.budget = budget


class ParseError(ElectionError):
    """A ballot file could not be parsed; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
