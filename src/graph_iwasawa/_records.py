"""Records with the dataclass ``==`` and ``repr``, without importing
``dataclasses``, which loads ``inspect``: a large share of a CLI process's
start.

A subclass names its fields in ``__slots__``, in constructor order, and
its ``__init__`` passes their values to ``_set``.  A ``Record`` is mutable
and unhashable; a ``FrozenRecord`` refuses assignment once built and
hashes its fields, so it can key a cache.
"""

from __future__ import annotations

import operator


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            # the field values as one tuple, read in C
            cls._fields = property(operator.attrgetter(*cls.__slots__))

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields == other._fields

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self.__slots__, self._fields))
        return f"{self.__class__.__qualname__}({fields})"


class FrozenRecord(Record):
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __hash__(self):
        return hash(self._fields)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, the one place that sets
        return self.__class__, self._fields
