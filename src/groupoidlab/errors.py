"""Shared error types."""


class BudgetExceededError(RuntimeError):
    """A configured DP, enumeration or basis budget was exhausted.

    Carries whatever partial result was assembled so callers can emit
    it with a truncation flag instead of discarding the work.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial
