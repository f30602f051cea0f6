"""Immutable value classes that generate no code at import.

A subclass names its fields, in order, in __slots__, adding "__dict__"
when it also keeps state that is not a field (a cached_property, say).  Its
__init__ sets _values, the tuple of all its fields, and then each field
with set_field, and checks its arguments.  Instances compare equal when of
the same class with equal fields, hash and print by their fields, refuse
assignment and deletion, and replace(**changes) rebuilds one through
__init__ from its parameters, so its checks run again.  Keeping _values
makes == and hash read one tuple in place of every field.
"""

# object.__setattr__: sets a field past the frozen __setattr__ below
set_field = object.__setattr__


class Value:
    __slots__ = ("_values",)

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if f != "__dict__")

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
