"""Immutable records without ``dataclasses``: the one record base.

Importing ``dataclasses`` pulls in ``inspect``, which cost a cold CLI start
more than chainrad's own modules together. Every record, of the
configuration, rate and emission layers alike, needs only fixed fields, a
write guard, equality, hashing and a repr, which this base class gives.
"""


class Frozen:
    """Base of the immutable records.

    A subclass names its fields in ``__slots__`` and its ``__init__``
    validates the arguments, then hands the final values, in slot order,
    to ``super().__init__``. After that, assigning or deleting a field
    raises AttributeError. Two records of the same class are equal, and
    hash alike, when their fields are equal.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"{type(self).__name__} is immutable; cannot delete {name!r}"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values())
        )
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()
