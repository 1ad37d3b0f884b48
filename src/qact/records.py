"""Read-only records.

A record class is a plain class with its ``__init__`` written out; those
that must not change after construction derive from ReadOnly and set their
fields through ``self.__dict__``.  functools.cached_property writes there
too, so a cached value still works on a read-only record.
"""


class ReadOnly:
    """Refuses every assignment and deletion of an attribute."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of read-only "
                             f"{type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of read-only "
                             f"{type(self).__name__}")
