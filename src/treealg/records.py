"""The base of treealg's immutable records.

A record lists its fields in __slots__, and the base does the rest
without building source code.  Its constructor binds positional and
keyword arguments to the fields by the rules of a dataclass's __init__,
raising TypeError for a missing, extra, duplicate or unknown argument,
and sets them through the slot descriptors, since assignment through
the instance raises.  A record declared with defaults, as in
`class RelationCheck(Record, defaults=("",))`, fills its trailing fields
with them when they are not given.  A record that checks its arguments
writes its own __init__ and sets its fields through object.__setattr__.

From __slots__ alone the base also gives equality and hash over the
tuple of the fields (two records are equal only when they share a
class), the repr Name(field=value, ...), and pickling by the fields in
order.  A record declared with eq=False, as in
`class Tower(Record, eq=False)`, compares and hashes by identity
instead; one declared with order=True orders records of its class as
the tuples of their fields.
"""

from __future__ import annotations

import operator


class Record:
    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, order: bool = False, defaults: tuple = ()) -> None:
        super().__init_subclass__()
        names = cls.__slots__
        if len(names) == 1:
            # attrgetter of one name gives the bare value, not a 1-tuple.
            one = operator.attrgetter(*names)
            fields = lambda record: (one(record),)
        else:
            fields = operator.attrgetter(*names) if names else lambda record: ()
        cls._fields = property(fields, doc="The values of the fields, in the order of __slots__.")
        if names and "__init__" not in vars(cls):
            cls.__init__ = _constructor(cls, defaults)
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__
        if order:
            for op in (operator.lt, operator.le, operator.gt, operator.ge):
                # Records of one class compare as the tuples of their fields.
                setattr(cls, f"__{op.__name__}__", lambda a, b, op=op: (
                    op(a._fields, b._fields) if b.__class__ is a.__class__ else NotImplemented))

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


def _constructor(cls: type, defaults: tuple):
    """The __init__ of a record class: one call of each field's slot
    descriptor, after _bind unless the call gives every field by
    position."""
    names = cls.__slots__
    setters = tuple(vars(cls)[name].__set__ for name in names)
    fallback = dict(zip(names[len(names) - len(defaults):], defaults))
    owner = f"{cls.__qualname__}.__init__()"

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = _bind(owner, names, fallback, args, kwargs)
        for put, value in zip(setters, args):
            put(self, value)

    __init__.__qualname__ = f"{cls.__qualname__}.__init__"
    return __init__


def _bind(owner: str, names: tuple, fallback: dict, args: tuple, kwargs: dict) -> list:
    """The field values of one call, in the order of names: each field
    given once, by position or by keyword, or else taken from fallback,
    the defaults by name."""
    given = {**fallback, **dict(zip(names, args)), **kwargs}
    twice = not kwargs.keys().isdisjoint(names[: len(args)])
    if len(args) > len(names) or twice or given.keys() != set(names):
        takes = ", ".join(n + (f"={fallback[n]!r}" if n in fallback else "") for n in names)
        got = ", ".join([*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())])
        raise TypeError(f"{owner} takes ({takes}), each once, not ({got})")
    return [given[name] for name in names]
