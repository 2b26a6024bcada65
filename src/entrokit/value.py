"""The base of the package's value classes, in place of ``dataclasses``, whose
import (with ``inspect``) every CLI call would otherwise pay."""


class Value:
    """A subclass's ``__slots__`` are set in ``__init__`` by ``_set``; the first
    of them, ``_fields``, are its fields.  Equality (within one class) and hash
    follow ``_key()``, the fields unless a subclass narrows it, and the repr
    lists the fields.  Assignment raises, unless a mutable subclass sets
    ``__setattr__ = object.__setattr__`` and ``__hash__ = None``."""

    __slots__ = ("__weakref__",)

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._fields)})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __setstate__(self, state: tuple) -> None:  # pickle and copy restore the slots through this
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
