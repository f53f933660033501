"""Frozen records without ``dataclasses``, whose import of ``inspect`` adds 12 ms to each start."""

set_field = object.__setattr__  # how an __init__ sets a field past the record's own __setattr__


class Record:
    """A value whose fields are its class's ``__slots__``: ``repr``, ``==`` and ``hash`` read them
    in order as a frozen dataclass's do, and assigning or deleting one raises AttributeError. An
    ``__init__`` sets them in slot order with ``_fill``, or with ``set_field`` where speed counts."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            set_field(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copy and pickle rebuild through __init__, not through __setattr__
        return type(self), self._values()

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__
