"""Immutable result records without `dataclasses`.

`dataclasses` imports `inspect` (and with it `ast`, `dis` and `tokenize`),
which a cold CLI call would compile only to build two small result classes;
`level.LevelVerdict` and `verify.ResidualReport` derive from `Record`
instead.
"""

from __future__ import annotations

__all__ = ["Record"]


class Record:
    """An immutable record whose fields are its `__slots__`, in order.

    A subclass sets every field in `__init__` through `_init`.  Records
    compare and hash as the tuple of their fields, but only with a record
    of the same class, so none equals a plain tuple.  The fields named in
    `_hidden` are left out of the repr.
    """

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r of a %s" % (name, type(self).__name__))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r of a %s" % (name, type(self).__name__))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):
        return type(self), self._values()

    def __repr__(self) -> str:
        shown = ("%s=%r" % (n, getattr(self, n)) for n in self.__slots__ if n not in self._hidden)
        return "%s(%s)" % (type(self).__name__, ", ".join(shown))
