"""Exception types, the record base, the caps on digits and iterates,
and the one int check, `check_int`, whose refusal names the value by
`shown`, as every refusal does."""

import math
from operator import itemgetter

#: the most decimal digits an int may have to be printed as itself, and
#: so in a report.  CPython 3.11+ refuses by default to print an int of
#: more than 4 300 digits; the cap sits below that, the same everywhere.
DIGIT_CAP = 4000

#: the most iterates a report or a library count may reach; DIGIT_CAP
#: alone does not bound a map whose single-letter images grow no digits
ITERATE_CAP = 10_000


class InputError(ValueError):
    """Invalid user input (bad word, bad map description, bad argument)."""


class LiftConstructionError(InputError):
    """The piecewise-linear lift cannot be built for this action."""


class DegenerateMapError(LiftConstructionError):
    """The lift would have a slope of modulus 1 at a fixed point."""


class InconsistencyError(RuntimeError):
    """Two routes that must agree exactly disagreed (internal bug trap)."""


def digit_count(value: int) -> int:
    """The decimal digits of the int |value|, counted without printing it."""
    size = abs(value) or 1
    low = int(math.log10(size))  # floor(log10(size)), give or take one
    return low + 1 + (size >= 10 ** (low + 1)) - (size < 10 ** low)


def shown(value) -> str:
    """`repr(value)`, but an int of more than DIGIT_CAP digits, alone or
    in a tuple, is written by its digit count: ``-<int of 5001 digits>``."""
    if type(value) is tuple:
        return "(" + ", ".join(map(shown, value)) + "," * (len(value) == 1) + ")"
    if type(value) is not int or digit_count(value) <= DIGIT_CAP:
        return repr(value)
    return "-" * (value < 0) + f"<int of {digit_count(value)} digits>"


def check_int(value, what: str, lo=-math.inf, hi=math.inf) -> int:
    """`value` if it is an int, never a bool, in lo..hi; else an
    `InputError` naming `what` and the value."""
    if type(value) is int and lo <= value <= hi:
        return value
    wanted = ("an int" if type(value) is not int
              else f">= {lo}" if hi == math.inf else f"in {lo}..{hi}")
    raise InputError(f"{what} must be {wanted}, got {shown(value)}")


def check_ints(values, what: str) -> None:
    """Refuse, by `check_int`, the first of `values` that is not an int."""
    for value in values:
        if type(value) is not int:
            check_int(value, what)


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
                                f"left over: {shown(args[len(fields):] + tuple(kwargs))}")
        return tuple.__new__(cls, args)

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        body = ", ".join(map("{}={}".format, self._fields, map(shown, self)))
        return f"{type(self).__name__}({body})"

    @classmethod
    def _make(cls, values):
        return cls(*values)

    def _replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self), **changes))
