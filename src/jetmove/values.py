"""The one base of the package's record classes.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, checks included; a frozen one (``class P(Value,
frozen=True)``) sets each field there with ``object.__setattr__``.  The
base adds what a dataclass would: equality between two values of one
class whose fields are equal, a ``Name(field=value, ...)`` repr and
``replace``.  A frozen value refuses to set or delete a field and hashes
by its fields, so it hashes exactly when they all do; any other value
does not hash.  The ``dataclasses`` module is not used: it imports
``inspect`` and ``ast``, which a CLI call has no other use for, and
builds each class's methods at import time.
"""

from __future__ import annotations

from operator import attrgetter


def _no_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _hash_fields(self):
    return hash(self._field_values(self))


class Value:
    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, frozen: bool = False):
        # every field in one C call: jets and points are compared while
        # a word is verified
        cls._field_values = attrgetter(*cls.__slots__)
        if frozen:
            cls.__setattr__, cls.__delattr__ = _no_assign, _no_delete
            cls.__hash__ = _hash_fields

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._field_values
        return values(self) == values(other)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy with the named fields changed, built by the class's own
        constructor and so checked as any new value is."""
        for f in self.__slots__:
            if f not in changes:
                changes[f] = getattr(self, f)
        return type(self)(**changes)
