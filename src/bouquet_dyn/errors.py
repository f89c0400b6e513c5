"""Exception types and the record base shared across the package."""

from operator import itemgetter


class InputError(ValueError):
    """Invalid user input (bad word, bad map description, bad argument)."""


class LiftConstructionError(InputError):
    """The piecewise-linear lift cannot be built for this action."""


class DegenerateMapError(LiftConstructionError):
    """The lift would have a slope of modulus 1 at a fixed point."""


class InconsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed (internal bug trap)."""


class Record(tuple):
    """An immutable tuple with named fields, declared in one class
    statement that compiles no code, unlike `collections.namedtuple`:
    ``class X(Record, fields="a b", defaults=(2,))`` reads `a` and `b`
    through properties, and `b` defaults to 2.  `_make` and `_replace` go
    through the constructor, so a subclass's own `__new__` validates them
    too."""

    __slots__ = ()

    def __init_subclass__(cls, *, fields: str, defaults: tuple = ()) -> None:
        cls._fields = names = tuple(fields.split())
        cls._field_defaults = dict(zip(names[len(names) - len(defaults):],
                                       defaults))
        for i, name in enumerate(names):
            setattr(cls, name, property(itemgetter(i), doc=f"Field {i}"))

    def __new__(cls, *args, **kwargs):
        fields = cls._fields
        if kwargs or len(args) != len(fields):
            try:
                args += tuple(kwargs.pop(name) if name in kwargs
                              else cls._field_defaults[name]
                              for name in fields[len(args):])
            except KeyError as name:
                raise TypeError(f"{cls.__name__}() misses field {name}") from None
            if kwargs or len(args) > len(fields):
                raise TypeError(f"{cls.__name__}() takes the fields {fields}; "
                                f"left over: {args[len(fields):] + tuple(kwargs)}")
        return tuple.__new__(cls, args)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        body = ", ".join(map("{}={!r}".format, self._fields, self))
        return f"{type(self).__name__}({body})"

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self), **changes))
