"""Immutable value classes that generate no code at import.

A subclass names its fields, in order, in __slots__, adding "__dict__"
when it also keeps state that is not a field (a cached_property, say).
Its __init__ stores every field with one set_fields(self, ...) call, in
__slots__ order, and then checks its arguments; nothing else stores one.
Instances compare equal when of the same class with equal fields, hash and
print by their fields, refuse assignment and deletion, and
replace(**changes) rebuilds one through __init__, so its checks run again.
set_fields also keeps _values, the tuple that == and hash read.
"""

# object.__setattr__: sets an attribute past the frozen __setattr__ below
set_field = object.__setattr__


class Value:
    __slots__ = ("_values",)

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")
        # each slot's own setter, which stores without set_field's name lookup
        cls._setters = tuple(getattr(cls, f).__set__ for f in cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r} of an immutable "
                             f"{type(self).__qualname__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r} of an immutable "
                             f"{type(self).__qualname__}")

    def replace(self, **changes):
        code = type(self).__init__.__code__
        params = code.co_varnames[1:code.co_argcount]
        kept = {name: getattr(self, name) for name in params
                if name not in changes}
        return type(self)(**kept, **changes)


_set_values = Value._values.__set__


def set_fields(obj, *values):
    """Store values as obj's fields, in its _fields order, and as _values."""
    _set_values(obj, values)
    for setter, value in zip(obj._setters, values):
        setter(obj, value)
