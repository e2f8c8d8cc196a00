"""Irreducible characters of the symmetric group via border-strip recursion.

The recursion removes strips of the largest remaining cycle length first and
is memoized on (shape, remaining cycle type), so a full table for one n shares
almost all of its work.
"""

from functools import lru_cache

from .errors import ResourceLimitError, WeightMismatchError
from .partitions import Partition, as_partition, partitions_of

# Hard safety cap: tables grow like p(n)^2 and the recursion behind them much
# faster; anything past this needs an explicit override.
DEFAULT_MAX_TABLE_N = 16

_tables: dict[int, "CharTable"] = {}


def _strip_removals(shape: Partition, length: int):
    """Yield (reduced shape, height) for each removable border strip.

    Strips are enumerated by their starting (topmost) row; at most one strip
    of a given length starts in each row.  Height is rows spanned minus one.
    """
    rows = len(shape)
    for start in range(rows):
        for end in range(start, rows):
            # cells left in the last strip row after removal
            leftover = shape[start] + (end - start) - length
            if leftover > shape[end] - 1:
                break
            below = shape[end + 1] if end + 1 < rows else 0
            if leftover < below:
                continue
            reduced = (
                shape[:start]
                + tuple(shape[k + 1] - 1 for k in range(start, end))
                + (leftover,)
                + shape[end + 1 :]
            )
            while reduced and reduced[-1] == 0:
                reduced = reduced[:-1]
            yield reduced, end - start
            break


@lru_cache(maxsize=None)
def _character(shape: Partition, cycles: Partition) -> int:
    if not cycles:
        return 1 if not shape else 0
    total = 0
    for reduced, height in _strip_removals(shape, cycles[0]):
        value = _character(reduced, cycles[1:])
        total += -value if height % 2 else value
    return total


def character(irrep: Partition, cycle_type: Partition) -> int:
    """Character of the S_n irreducible `irrep` on the class `cycle_type`."""
    irrep = as_partition(irrep)
    cycle_type = as_partition(cycle_type)
    if sum(irrep) != sum(cycle_type):
        raise WeightMismatchError(
            f"weights differ: {irrep} partitions {sum(irrep)}, "
            f"{cycle_type} partitions {sum(cycle_type)}"
        )
    return _character(irrep, cycle_type)


class CharTable:
    """Dense character table of S_n.

    Rows are irreducibles and columns conjugacy classes, both in the canonical
    order of partitions_of(n).
    """

    __slots__ = ("n", "partitions", "values", "_index")

    def __init__(self, n: int, partitions: tuple[Partition, ...], values):
        self.n = n
        self.partitions = partitions
        self.values = tuple(tuple(row) for row in values)
        self._index = {p: i for i, p in enumerate(partitions)}

    def value(self, irrep: Partition, cycle_type: Partition) -> int:
        return self.values[self._index[tuple(irrep)]][self._index[tuple(cycle_type)]]

    def __eq__(self, other):
        return (
            isinstance(other, CharTable)
            and self.n == other.n
            and self.partitions == other.partitions
            and self.values == other.values
        )

    def __repr__(self):
        return f"CharTable(n={self.n}, {len(self.partitions)}x{len(self.partitions)})"


def _compute_table(n: int) -> CharTable:
    parts = partitions_of(n)
    values = [[_character(lam, mu) for mu in parts] for lam in parts]
    return CharTable(n, parts, values)


def char_table(n: int, max_n: int = DEFAULT_MAX_TABLE_N) -> CharTable:
    """Full character table of S_n, memoized in memory."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > max_n:
        raise ResourceLimitError(
            f"character table too large: n={n} exceeds the limit {max_n}"
        )
    table = _tables.get(n)
    if table is None:
        table = _tables[n] = _compute_table(n)
    return table


def clear_caches() -> None:
    """Drop all in-memory character state (tables and recursion memo)."""
    _tables.clear()
    _character.cache_clear()
