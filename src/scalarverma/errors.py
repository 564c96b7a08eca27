"""Error types and the frozen record base shared across the package."""


class InvariantError(RuntimeError):
    """An internal consistency check failed.

    Raised only when the library detects that one of its own structural
    invariants is broken (never for bad user input).  The CLI maps this to
    exit code 3.
    """


class InsufficientWindowError(ValueError):
    """A scan window is too small to support the requested summary."""


# Record's constructor sets each field with this, and a record's own
# __init__ any attribute it keeps outside `_fields`, past the record's own
# __setattr__, as a frozen dataclass's __init__ does.  Filling
# `self.__dict__` instead builds each instance a dict, which made every
# later attribute read about twice as slow (2 cores, CPython 3.11.7).
set_field = object.__setattr__


class Record:
    """An immutable record whose fields are the names in its class's `_fields`.

    Its one constructor takes the fields in `_fields` order, positionally
    or by keyword, and raises TypeError for a missing field, an extra
    positional argument, an unknown keyword or a field given twice.  Its
    repr is `Name(field=value, ...)` over those fields; it equals only a
    record of the same class with equal fields, and hashes by them.  Any
    assignment or deletion raises AttributeError.  A subclass declares
    `_fields`; one that keeps an attribute outside them sets it with
    `set_field` after calling this constructor, and that attribute takes
    no part in repr, equality or hash.  Records are plain classes rather
    than frozen dataclasses: creating a dataclass took 0.9-1.8 ms of every
    process's import each (2 cores, CPython 3.11.7).
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{type(self).__qualname__}() takes {len(fields)} fields, got {len(args)} positionally"
            )
        for name, value in zip(fields, args):
            set_field(self, name, value)
        for name in fields[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__}() missing field {name!r}")
            set_field(self, name, kwargs.pop(name))
        for name in kwargs:
            problem = "a second value for field" if name in fields else "an unknown keyword"
            raise TypeError(f"{type(self).__qualname__}() got {problem} {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
