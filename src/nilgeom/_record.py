"""Immutable value records.

The report and model types behave like frozen dataclasses: fields set once
by the constructor, field-wise ``==``, ``hash`` and ``repr``.  They are
written out here because importing ``dataclasses`` pulls in ``inspect`` and
``ast`` and makes ``import nilgeom.cli`` several times slower.
"""

from __future__ import annotations


class Record:
    """Base for immutable records.

    The fields are the names in ``__slots__``, in order; ``_defaults`` maps
    trailing field names to their default values.  ``__post_init__`` runs
    after every field is set and may raise to reject the values.
    """

    __slots__ = ()
    _defaults = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        cls = type(self).__name__
        if len(args) > len(names):
            raise TypeError(f"{cls} takes at most {len(names)} arguments ({len(args)} given)")
        values = dict(self._defaults)
        values.update(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{cls} got an unexpected keyword argument {name!r}")
            if names.index(name) < len(args):
                raise TypeError(f"{cls} got multiple values for argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError(f"{cls} missing required argument {name!r}")
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self):
        pass

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return (type(self), self._fields())
