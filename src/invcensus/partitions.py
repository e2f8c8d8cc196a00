"""Integer partitions: enumeration, conjugation, centralizer orders, dimensions.

A partition is stored as a tuple of weakly decreasing positive integers; the
empty tuple is the unique partition of 0.  Partitions double as cycle types
when indexing conjugacy classes of the symmetric group.  Every public function
that takes a partition passes it through as_partition, the one place its rules
are checked, and every function that needs partitions of one integer checks
them with common_weight.
"""

from collections import Counter
from functools import lru_cache
from math import factorial

from .errors import PartitionParseError, WeightMismatchError
from .errors import exact_quotient, parse_int, require_int

Partition = tuple[int, ...]


def as_partition(parts) -> Partition:
    """Validate an iterable of parts and return it as a canonical tuple."""
    p = tuple(parts)
    for i, part in enumerate(p):
        if type(part) is not int or part < 1:
            raise PartitionParseError(f"parts must be positive integers, got {part!r}")
        if i > 0 and part > p[i - 1]:
            raise PartitionParseError(
                f"parts must be weakly decreasing, got {part!r} after {p[i - 1]!r}"
            )
    return p


def common_weight(first: Partition, *rest: Partition) -> int:
    """The integer that first and every one of rest partition.

    Raises WeightMismatchError at the first partition of another weight.
    """
    n = sum(first)
    for p in rest:
        if sum(p) != n:
            raise WeightMismatchError(f"weights differ: {p} partitions {sum(p)}, not {n}")
    return n


@lru_cache(maxsize=None)
def _partitions(n: int, max_parts) -> tuple[Partition, ...]:
    out: list[Partition] = []
    slots = n if max_parts is None else max_parts

    def rec(remaining: int, largest: int, prefix: list[int], room: int) -> None:
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if room == 0:
            return
        top = min(largest, remaining)
        # smallest admissible first part: room parts of size `part` must cover
        # `remaining`
        for part in range(top, 0, -1):
            if part * room < remaining:
                break
            prefix.append(part)
            rec(remaining - part, part, prefix, room - 1)
            prefix.pop()

    rec(n, n, [], slots)
    return tuple(out)


def partitions_of(n: int, max_parts: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in reverse-lexicographic order, (n) first.

    With max_parts, only partitions with at most that many parts are listed.
    """
    require_int("n", n, 0)
    if max_parts is not None:
        require_int("max_parts", max_parts, 0)
    return _partitions(n, max_parts)


def conjugate(p: Partition) -> Partition:
    """Transpose of the Young diagram."""
    p = as_partition(p)
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > i) for i in range(p[0]))


def z_order(p: Partition) -> int:
    """Centralizer order of a permutation of cycle type p.

    The conjugacy class of cycle type p in S_n has n!/z_order(p) elements.
    """
    z = 1
    for size, mult in Counter(as_partition(p)).items():
        z *= size**mult * factorial(mult)
    return z


@lru_cache(maxsize=None)
def class_sizes(n: int) -> tuple[tuple[Partition, int], ...]:
    """(cycle type, n!/z_order) for each conjugacy class of S_n, in partitions_of order."""
    order = factorial(n)
    return tuple((rho, order // z_order(rho)) for rho in partitions_of(n))


def dimension(p: Partition) -> int:
    """Dimension of the symmetric-group irreducible labeled by p (hook lengths)."""
    p = as_partition(p)
    if not p:
        return 1
    conj = conjugate(p)
    hooks = 1
    for i, row in enumerate(p):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return exact_quotient(factorial(sum(p)), hooks, "dimension of {}", p)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition; the literal '-' is the empty partition."""
    s = text.strip()
    if s == "-":
        return ()
    parts: list[int] = []
    for token in s.split(","):
        try:
            parts.append(parse_int(token))
        except ValueError:
            raise PartitionParseError(f"invalid part {token.strip()!r}") from None
    return as_partition(parts)


def format_partition(p: Partition) -> str:
    """Inverse of parse_partition."""
    return ",".join(str(part) for part in p) if p else "-"
