"""Shared error types, and the refusal the immutable value types raise."""


class BudgetExceededError(RuntimeError):
    """A configured DP, enumeration or basis budget was exhausted.

    Carries whatever partial result was assembled so callers can emit
    it with a truncation flag instead of discarding the work.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


def frozen(self, name, *value):
    """``__setattr__`` and ``__delattr__`` of the immutable value types,
    whose ``__init__`` sets each field once through ``object.__setattr__``."""
    raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")
