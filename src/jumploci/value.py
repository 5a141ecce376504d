"""The one kind of record: every record in jumploci is a ``Value``.

A subclass names its compared fields in ``_fields``, in declaration
order.  ``Value.__init__`` stores one argument per field, so a record
that only stores its fields has no constructor; one that checks,
normalizes or computes has its own ``__init__``, which stores every
attribute through ``__dict__``.
Equality needs the same class and equal compared fields, and the hash is
hash(tuple of compared fields), so the order of sets and dicts of
records, and with it every report, follows from the field values alone.
Attributes outside ``_fields`` are kept out of equality, hash and repr.
"""


class Value:
    """Immutable record compared by the fields named in ``_fields``."""

    _fields = ()

    def __init__(self, *args):
        if len(args) != len(self._fields):
            raise TypeError(f"{type(self).__qualname__} takes "
                            f"{len(self._fields)} arguments, {len(args)} given")
        self.__dict__.update(zip(self._fields, args))

    def _key(self):
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._key()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign {name!r}: records are frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: records are frozen")
