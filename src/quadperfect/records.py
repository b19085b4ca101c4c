"""The base of the library's immutable values: the result records and the
ring element QuadInt.

A record is a plain class whose fields are its __slots__; it is cheaper to
import and to define than a dataclass, which pulls in inspect and ast and
compiles code for each class.  QuadInt is a Record with its own __init__,
which sets its three slots directly, since elements are built far more
often than any other record.
"""


class Record:
    """Fields are the subclass's __slots__, each one required, set in order
    from positional arguments, then by keyword.  A record is built once and
    refuses assignment and deletion; it copies and pickles by its field
    values.  A subclass may replace __init__ with a faster one that takes
    the same fields, as QuadInt does."""

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args) :]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(f"unexpected or repeated fields {sorted(kwargs)}")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)
