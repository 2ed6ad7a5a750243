"""Shared exception types, mapped to structured errors by the CLI."""


class DomainError(Exception):
    """Base for errors that are the caller's problem, not a bug."""

    code = "domain-error"


class EndpointMismatch(DomainError):
    code = "endpoint-mismatch"


class NotExactSequence(DomainError):
    code = "not-exact"


class BudgetExceeded(DomainError):
    code = "budget-exceeded"


class ParseError(DomainError):
    code = "parse-error"

    def __init__(self, message: str, position: int):
        super().__init__(message)
        self.position = position
