"""The base of the package's plain records.

A record names its fields, in constructor order, in __slots__, its one
field list. Record's constructor binds positional and keyword arguments to
those fields in order and stores them; a wrong call raises the TypeError
that an explicit signature would, naming the class and the field. A record
that checks or converts its arguments has its own __init__, which passes
the checked values on to Record's. Record gives a repr, pickling through
the constructor (so a copy passes the same checks) and immutability:
assigning or deleting an attribute raises AttributeError. Every record of
the package is a Record, so every one is immutable; a field that holds a
dict or an array can still change inside. A Record compares by identity; a
Value compares and hashes by its fields, equal only to a record of its own
class.

Nothing is generated when a module is imported: the constructor reads
__slots__ at each call.
"""

# Stores one field of a record under construction, past Record.__setattr__.
set_field = object.__setattr__


def _bind(cls, fields: tuple, values: tuple, named: dict) -> tuple:
    """values followed by the named fields after them, in field order, or
    the TypeError that a signature of the fields would raise."""
    if len(values) + len(named) == len(fields):
        try:
            return values + tuple([named[name] for name in fields[len(values):]])
        except KeyError:
            pass
    # the first check that fails, in the order Python checks a signature
    where = cls.__qualname__
    if len(values) > len(fields):
        raise TypeError(
            f"{where}() takes {len(fields)} fields ({', '.join(fields)}) "
            f"but {len(values)} were given"
        )
    for name in named:
        if name not in fields:
            raise TypeError(f"{where}() got an unexpected field {name!r}")
        if fields.index(name) < len(values):
            raise TypeError(f"{where}() got multiple values for field {name!r}")
    # no field is extra, and the count is not the fields', so one is missing
    missing = next(name for name in fields[len(values):] if name not in named)
    raise TypeError(f"{where}() missing field {missing!r}")


class Record:
    """An immutable record compared by identity."""

    __slots__ = ()

    def __init__(self, *values, **named):
        fields = self.__slots__
        if named or len(values) != len(fields):
            values = _bind(type(self), fields, values, named)
        for name, value in zip(fields, values):
            set_field(self, name, value)

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
