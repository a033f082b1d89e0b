"""Value semantics shared by the slotted record classes.

A record's fields are the ``__slots__`` of the class that declares them, in
order; a subclass that declares ``__slots__ = ()`` keeps its parent's.  Two
records are equal when they have the same class and equal fields (never
equal to a tuple or to a subclass), a record hashes as the tuple of its
fields, and its repr is ``Name(field=value, ...)``.  Records with mutable
fields set ``__hash__ = None``.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = cls.__dict__.get("__slots__")
        if names:
            # One getter per class: hashing sits on every diagram lookup.
            get = attrgetter(*names)
            cls._field_names = tuple(names)
            cls._field_values = get if len(names) > 1 else \
                staticmethod(lambda record: (get(record),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self) == self._field_values(other)

    def __hash__(self):
        return hash(self._field_values(self))

    def __repr__(self):
        body = ", ".join(f"{name}={value!r}" for name, value in
                         zip(self._field_names, self._field_values(self)))
        return f"{self.__class__.__qualname__}({body})"

