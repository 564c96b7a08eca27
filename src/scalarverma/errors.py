"""Error types and the frozen record base shared across the package."""


class InvariantError(RuntimeError):
    """An internal consistency check failed.

    Raised only when the library detects that one of its own structural
    invariants is broken (never for bad user input).  The CLI maps this to
    exit code 3.
    """


class InsufficientWindowError(ValueError):
    """A scan window is too small to support the requested summary."""


# A record's __init__ sets each field with this, past the record's own
# __setattr__, as a frozen dataclass's __init__ does.
set_field = object.__setattr__


class Record:
    """An immutable record whose fields are the names in its class's `_fields`.

    Its repr is `Name(field=value, ...)` over those fields; it equals only
    a record of the same class with equal fields, and hashes by them.  Any
    assignment or deletion raises AttributeError.  Each subclass declares
    `_fields` and an __init__ that sets them with `set_field`; an attribute
    it keeps outside `_fields` takes no part in repr, equality or hash.
    Records are plain classes rather than frozen dataclasses: creating a
    dataclass took 0.9-1.8 ms of every process's import each (2 cores,
    CPython 3.11.7).
    """

    _fields: tuple[str, ...] = ()

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
