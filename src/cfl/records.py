"""``Record``, the base class of every solver's result type: its fields are
its class annotations, in order, each with an optional default.  A default
is shared by every instance, so no field has a mutable one.  Records
construct, compare, repr, refuse bad arguments and keep ``vars`` in field
order as dataclasses do, but defining one generates and compiles no code."""

from __future__ import annotations


class Record:
    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)     # this class's own, in order
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._complete(args, kwargs)
        for key, value in zip(fields, args):
            setattr(self, key, value)     # not via __dict__, which slows reads

    def _complete(self, args, kwargs) -> list:
        """Each field's value, in order, for a call not all by position."""
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} positional arguments "
                            f"but {len(args)} were given")
        given = dict(zip(fields, args))
        for key in kwargs:
            if key in given or key not in fields:
                raise TypeError(f"{name}() got " + (
                    f"multiple values for argument {key!r}" if key in given
                    else f"an unexpected keyword argument {key!r}"))
        given.update(kwargs)
        for key in fields:
            if key not in given:
                if key not in self._defaults:
                    raise TypeError(f"{name}() missing required argument {key!r}")
                given[key] = self._defaults[key]
        return [given[key] for key in fields]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ([getattr(self, f) for f in self._fields]
                == [getattr(other, f) for f in self._fields])

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"
