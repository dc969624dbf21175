"""The base of the package's plain records.

A record names its fields, in constructor order, in __slots__, and its own
__init__ checks its arguments and stores them with set_field. Record gives
a repr, pickling through the constructor (so a copy passes the same checks)
and immutability: assigning or deleting an attribute raises AttributeError.
A Record compares by identity; a Value compares and hashes by its fields,
equal only to a record of its own class.

Each record's methods are written out rather than generated when its
module is imported, so importing the package generates no code.
"""

# Stores one field of a record under construction, past Record.__setattr__.
set_field = object.__setattr__


class Record:
    """An immutable record compared by identity."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__qualname__}")


class Value(Record):
    """An immutable record compared and hashed by its fields."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())
