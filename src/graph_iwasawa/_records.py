"""The package's one record class: the dataclass ``==`` and ``repr``
without importing ``dataclasses``, which loads ``inspect``.

A subclass names its fields once, in ``__slots__``, and ``Record.__init__``
takes them in that order, by position and then by name, each exactly once.
A subclass that judges its input or keeps a default writes an ``__init__``
that ends in ``super().__init__``: one place sets a field.  A ``Record``
is frozen: it refuses to assign or delete a field, hashes its fields, and
copies and pickles through ``__init__``, so a check that its constructor
made of an immutable value holds for the record's whole life.
"""

from __future__ import annotations

import operator


class InputError(ValueError):
    """A value from outside the package, refused where it is judged."""


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # the field values as one tuple, read in C
            cls._fields = property(operator.attrgetter(*cls.__slots__))

    def __init__(self, *values, **named):
        fields = self.__slots__
        values += tuple(named.pop(name) for name in fields[len(values):]
                        if name in named)
        if named or len(values) != len(fields):
            raise TypeError(f"{self.__class__.__qualname__} takes each of "
                            f"its fields {', '.join(fields)} exactly once")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __hash__(self):
        return hash(self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields))
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        # pickle and copy rebuild through __init__, the one place that sets
        return self.__class__, self._fields


def integer(value, what: str) -> int:
    # an int or a numpy integer; never a bool, and no float or str is read
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise InputError(f"{what} {value!r} is not an integer")


def json_int(value) -> int:
    # via str: int() would truncate a float and take a bool as 0 or 1.  Its
    # ValueError names int(), and the loader that calls it refuses the file
    return int(str(value))
