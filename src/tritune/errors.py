"""Exception types shared across the package, the input contract that every
public count, index, ratio and real argument passes through, and the frozen
record every module declares its values with."""

import sys
from fractions import Fraction

_DERIVED = object()  # a record field's default where __post_init__, not __init__, sets it


def _values(self) -> tuple:
    return tuple([getattr(self, f) for f in self._fields])


def _eq(self, other):
    return _values(self) == _values(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_values(self))


def _repr(self) -> str:
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, _values(self)))
    return f"{type(self).__qualname__}({shown})"


def _frozen(self, name, *value):
    raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _reduce(self):
    return self.__class__, tuple([getattr(self, f) for f in self.__match_args__])


def _record(cls):
    """``cls`` made a frozen record of its annotated fields, as by ``dataclass(frozen=True,
    slots=True)``: ``__init__`` takes the fields not ``_DERIVED``, sets each in its slot and runs
    ``__post_init__``; ``==``, ``hash`` and ``repr`` read every field unless the class defines
    its own (an implicit None does not).  A record has no ``__dict__`` and no weak references;
    copy and pickle rebuild it through ``__init__``, so its checks run again."""
    own, fields = vars(cls), tuple(cls.__annotations__)
    init = [f for f in fields if own.get(f) is not _DERIVED]
    kept = {k: v for k, v in own.items() if k not in (*fields, "__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__, {**kept, "__slots__": fields, "_fields": fields})
    body = "".join(f"\n  _set_{f}(self, {f})" for f in init)
    body += "\n  self.__post_init__()" if hasattr(cls, "__post_init__") else ""
    args, sets = ", ".join(init), ", ".join(f"_set_{f}" for f in init)
    module, scope = vars(sys.modules[cls.__module__]), {}  # the globals of __init__
    exec(f"def make({sets}):\n def __init__(self, {args}):{body}\n return __init__", module, scope)
    init_fn = cls.__init__ = scope["make"](*[vars(cls)[f].__set__ for f in init])
    init_fn.__qualname__ = f"{cls.__qualname__}.__init__"
    init_fn.__defaults__ = tuple(own[f] for f in init if f in own)
    init_fn.__annotations__ = {**{f: cls.__annotations__[f] for f in init}, "return": None}
    for name, method in ("__hash__", _hash), ("__eq__", _eq), ("__repr__", _repr):
        if name not in own or name == "__hash__" and own[name] is None and "__eq__" in own:
            setattr(cls, name, method)
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _frozen, _frozen, _reduce
    cls.__match_args__ = tuple(init)
    return cls


class TuningError(ValueError):
    """Base class for all domain errors raised by this package."""


class ExponentBoundError(TuningError):
    """A prime exponent fell outside the configured safety bound."""


class CoverageError(TuningError):
    """A degree of the reference equal scale did not receive exactly two approximants."""

    def __init__(self, degree: int, count: int):
        self.degree = degree
        self.count = count
        noun = "approximant" if count == 1 else "approximants"
        super().__init__(f"degree {degree} has {count} {noun}, expected 2")


class PropositionViolationError(TuningError):
    """An exhaustive search did not confirm a uniqueness claim it was asked to verify."""


def _shown(value) -> str:
    """``repr(value)`` for an error message, or its size when repr raises: an
    int past the interpreter's int-to-str digit limit cannot be printed."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, (int, Fraction)):
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            return f"<{type(value).__name__} of {bits} bits>"
        return f"<{type(value).__name__} too long to print>"


def check_int(
    what: str, value, lo: int | None, hi: int | None = None, error=TuningError
) -> int:
    """``value`` if it is an int, not a bool, with lo <= value <= hi (a bound
    of None is no bound); ``error`` otherwise."""
    if type(value) is int and (lo is None or lo <= value) and (hi is None or value <= hi):
        return value
    span = "" if lo is None else f" from {lo} to {hi}" if hi is not None else f" >= {lo}"
    raise error(f"{what} must be an integer{span}, got {_shown(value)}")


def check_instance(what: str, value, kind: type):
    """``value`` if it is an instance of ``kind``; a TuningError otherwise."""
    if isinstance(value, kind):
        return value
    raise TuningError(f"{what} must be of type {kind.__name__}, got {_shown(value)}")


def positive_fraction(x, what: str) -> Fraction:
    """``x`` as a Fraction if it is an int or Fraction, not a bool, with a
    positive numerator; a TuningError otherwise, floats and strings included."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool) and x.numerator > 0:
        return x if isinstance(x, Fraction) else Fraction(x)
    raise TuningError(f"{what} must be a positive int or Fraction, got {_shown(x)}")


def finite_real(x, what: str) -> float:
    """``x`` as a float if it is an int, float or Fraction, not a bool, within
    the finite float range; a TuningError otherwise, nan and inf included."""
    real = isinstance(x, (int, float, Fraction)) and not isinstance(x, bool)
    if real and abs(x) <= sys.float_info.max:
        return float(x)
    raise TuningError(f"{what} must be a finite int, float or Fraction, got {_shown(x)}")
