"""Immutable value records without dataclass machinery.

`dataclasses` imports inspect, ast and dis, and each decoration execs
generated methods: together about 25 ms of every CLI command. A record
instead names its fields in `_fields`, in order, keeps them (and any value
it derives from them) in `__slots__`, and stores them from its own
`__init__` through `setfield`. Equality, hash and repr then follow the
fields, as a frozen dataclass's do, and assignment raises AttributeError.
"""

# stores a field past the frozen __setattr__; for __init__ only
setfield = object.__setattr__


class Record:
    __slots__ = ()
    _fields = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        args = ", ".join([f"{name}={getattr(self, name)!r}"
                          for name in self._fields])
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    # pickle and copy restore the slots past the frozen __setattr__
    def __getstate__(self):
        return [getattr(self, name) for name in self.__slots__]

    def __setstate__(self, state):
        for name, value in zip(self.__slots__, state):
            setfield(self, name, value)
