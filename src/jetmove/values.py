"""The one base of the package's record classes.

A record class lists its fields in ``__slots__`` and writes its own
``__init__``, checks included, setting each field there with
``object.__setattr__``: every record is frozen.  The base adds what a
dataclass would: equality between two values of one class whose fields
are equal, a ``Name(field=value, ...)`` repr and ``replace``.  A value
refuses to set or delete a field and hashes by its fields, so it hashes
exactly when they all do.  The ``dataclasses`` module is not used: it
imports ``inspect`` and ``ast``, which a CLI call has no other use for,
and builds each class's methods at import time.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls):
        # every field in one C call: jets and points are compared while
        # a word is verified
        cls._field_values = attrgetter(*cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self):
        return hash(self._field_values(self))

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
