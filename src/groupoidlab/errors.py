"""Shared error types, the default budgets, and the base of the immutable
value types."""

from operator import attrgetter

_setattr = object.__setattr__

# default budgets of the word and DP enumerations (moments) and of the
# operator oracle's basis (operators); the CLI's flags default to them
ENUM_BUDGET = 10_000_000
BASIS_BUDGET = 100_000


class GraphError(ValueError):
    """Structurally invalid graph input."""


class ParseError(ValueError):
    """Input that json cannot decode: not UTF-8, not JSON, nested too
    deep, or holding an integer too long to convert."""


class SchemaError(ValueError):
    """Input parses as JSON but violates the graph schema."""


class BudgetExceededError(RuntimeError):
    """A configured DP, enumeration or basis budget was exhausted.

    Carries whatever partial result was assembled so callers can emit
    it with a truncation flag instead of discarding the work.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class VerificationMismatch(RuntimeError):
    """Two routes to one quantity disagree.

    Carries the result the command had built, to report with the
    mismatch, or None when there is none: the message then says what
    disagreed.
    """

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class Value:
    """Base of the immutable value types.

    A subclass declares its fields as ``__slots__`` and gets, from the
    fields of every class along its MRO (base classes first, a
    ``__dict__`` slot skipped):

    * a constructor taking the fields by position or keyword;
    * equality with objects of exactly the same class, by the tuple of
      its fields, and the hash of that tuple (a class with one field
      compares and hashes by that field alone);
    * the repr ``Name(field=value, ...)``;
    * ``AttributeError`` on setting or deleting any attribute.

    Fields named in the class attribute ``_unkeyed`` are left out of
    equality, hash and repr.
    """

    __slots__ = ()
    _unkeyed = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(
            name
            for klass in reversed(cls.__mro__)
            for name in klass.__dict__.get("__slots__", ())
            if name != "__dict__"
        )
        cls._keyed = tuple(f for f in cls._fields if f not in cls._unkeyed)
        cls._key = staticmethod(attrgetter(*cls._keyed))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _setattr(self, name, value)

    @classmethod
    def _bind(cls, args, kwargs) -> tuple:
        """The field values in order, from the arguments of a call that
        is not one positional argument per field."""
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__name__}() takes {len(fields)} arguments but {len(args)} were given"
            )
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__}() got an unexpected keyword argument {name!r}")
            if fields.index(name) < len(args):
                raise TypeError(f"{cls.__name__}() got multiple values for argument {name!r}")
        missing = [name for name in fields[len(args) :] if name not in kwargs]
        if missing:
            raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
        return args + tuple(kwargs[name] for name in fields[len(args) :])

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._keyed)
        return f"{type(self).__name__}({fields})"
