"""Exception types shared across the package, the one integer, token and division
rules, and the base of the immutable value types."""


class InvcensusError(Exception):
    """Base class for all errors raised by this package."""


class PartitionParseError(InvcensusError, ValueError):
    """Malformed partition text."""


class WeightMismatchError(InvcensusError, ValueError):
    """Partitions that must partition the same integer do not."""


class ConsistencyError(InvcensusError, RuntimeError):
    """An exactness check failed; signals a bug, not bad input."""


class ResourceLimitError(InvcensusError, RuntimeError):
    """A computation was refused because it exceeds a configured size limit."""


class SeriesFormatError(InvcensusError, ValueError):
    """Malformed series document or file."""


_KINDS = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}


def require_int(name: str, value, least: int | None = None) -> None:
    """Raise ValueError unless value is a plain int (not a bool or a float) >= least.

    least is None (any integer), 0 or 1.
    """
    if type(value) is not int or (least is not None and value < least):
        raise ValueError(f"{name} must be {_KINDS[least]}, got {value!r}")


def parse_int(text: str) -> int:
    """Read an optional '-' and ASCII digits, after strip(); int() also takes '+3' and '1_0'."""
    digits = text.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid integer {text!r}")
    return int(text)


def exact_quotient(total: int, divisor: int, what: str, *args) -> int:
    """total // divisor, or ConsistencyError "<what> is <total>/<divisor>, not an integer".

    The label what.format(*args) is built only on failure, since hot loops call this.
    """
    quotient, remainder = divmod(total, divisor)
    if remainder:
        raise ConsistencyError(f"{what.format(*args)} is {total}/{divisor}, not an integer")
    return quotient


class Frozen:
    """Base of the immutable value types, whose fields are their __slots__.

    Each subclass sets its fields in its own __init__ with object.__setattr__.
    An instance equals only an instance of its own class with equal fields,
    hashes and pickles as the tuple of its fields, and raises AttributeError
    on assignment and deletion.  These are written by hand, not as dataclasses,
    because importing dataclasses (and with it inspect and ast) would add to
    the start-up of every process.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()
