"""Immutable records, written out once, so that no code is generated at
import (the standard library's frozen records compile their methods from
source each time).

A subclass names its fields as class annotations, in order; a field with a
class-level value has that value as its default. Construction takes the
fields positionally or by keyword and then runs ``__post_init__``. Records
compare equal only to records of the same class with equal field tuples,
hash their field tuple, print as ``Name(field=value, ...)``, and refuse any
assignment or deletion with ``AttributeError``. A ``cached_property`` still
works, because it writes the instance ``__dict__`` directly.
"""

from __future__ import annotations

# Sets a field past Record.__setattr__, which refuses every assignment.
_set = object.__setattr__


class Record:
    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # cls.__annotations__ is this class's own annotations on every
        # version, lazily evaluated ones (PEP 649) included.
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {name: cls.__dict__[name] for name in cls._fields if name in cls.__dict__}

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__}() takes {len(fields)} fields, {len(args)} given")
        for name, value in zip(fields, args):
            _set(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing field {name!r}")
            _set(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated fields {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
