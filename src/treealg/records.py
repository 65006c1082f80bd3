"""The base of treealg's immutable records.

A record lists its fields in __slots__ and assigns them in its own
__init__ through object.__setattr__, since assignment through the
instance raises.  From __slots__ alone the base gives equality and hash
over the tuple of the fields (two records are equal only when they
share a class), the repr Name(field=value, ...), and pickling by the
fields in order.  A record declared with eq=False, as in
`class Tower(Record, eq=False)`, compares and hashes by identity
instead.  The base builds no source code at import.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        if len(names) == 1:
            # attrgetter of one name gives the bare value, not a 1-tuple.
            one = attrgetter(*names)
            fields = lambda record: (one(record),)
        else:
            fields = attrgetter(*names) if names else lambda record: ()
        cls._fields = property(fields, doc="The values of the fields, in the order of __slots__.")
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields == other._fields
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._fields))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return type(self), self._fields
