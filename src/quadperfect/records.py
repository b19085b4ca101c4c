"""The base of the library's result records.

A record is a plain class whose fields are its __slots__; it is cheaper to
import and to define than a dataclass, which pulls in inspect and ast and
compiles code for each class.
"""


class Record:
    """Fields are the subclass's __slots__, set in order from positional
    arguments, then by keyword, then from _defaults.  A frozen record
    refuses assignment after construction."""

    __slots__ = ()
    _frozen = False
    # Zero-argument factories for the fields a caller may leave out.
    _defaults: dict = {}

    def __init__(self, *args, **kwargs) -> None:
        fields = self.__slots__
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args) :]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]()
            else:
                raise TypeError(f"{type(self).__name__} is missing field {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"unexpected or repeated fields {sorted(kwargs)}")

    def __setattr__(self, name, value):
        if self._frozen:
            raise AttributeError(f"{type(self).__name__} is immutable")
        object.__setattr__(self, name, value)
