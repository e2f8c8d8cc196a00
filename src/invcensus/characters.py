"""Irreducible characters of the symmetric group via border-strip recursion.

The Murnaghan-Nakayama recursion removes strips of the largest remaining
cycle length first, working on shifted beta-numbers, and is memoized on
(shape, remaining cycle type), so a full table for one n shares almost all of
its work.  Each row of values chi_shape over the classes of S_n is memoized
as a tuple too; the character tables and the Kronecker layer share these rows.
"""

from functools import lru_cache

from .errors import ResourceLimitError, WeightMismatchError
from .partitions import Partition, as_partition, partitions_of, require_int

# Hard safety cap: tables grow like p(n)^2 and the recursion behind them much
# faster; anything past this needs an explicit override.
DEFAULT_MAX_TABLE_N = 16

_tables: dict[int, "CharTable"] = {}


def _strip_removals(shape: Partition, length: int):
    """Yield (reduced shape, height) for each removable border strip.

    In shifted beta-numbers shape[k] - k, removing a strip that starts in row
    i moves that row's bead down by `length` to t = shape[i] - i - length.
    The move is legal when t + len(shape) - 1 >= 0 and no row holds t; the
    rows i+1..j-1 whose beads lie between move up one row (losing a cell
    each), and the height is the number of beads jumped.  Strips come out in
    order of their starting (topmost) row.
    """
    rows = len(shape)
    for i in range(rows):
        t = shape[i] - i - length
        if t + rows - 1 < 0:
            break  # shape[k] - k falls with k, so no lower row fits either
        j = i + 1
        while j < rows and shape[j] - j > t:
            j += 1
        if j < rows and shape[j] - j == t:
            continue
        moved = tuple(part - 1 for part in shape[i + 1 : j])
        reduced = shape[:i] + moved + (t + j - 1,) + shape[j:]
        while reduced and not reduced[-1]:
            reduced = reduced[:-1]
        yield reduced, j - i - 1


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
        irrep, cycle_type = as_partition(irrep), as_partition(cycle_type)
        for p in (irrep, cycle_type):
            if sum(p) != self.n:
                raise WeightMismatchError(
                    f"weights differ: {p} partitions {sum(p)}, the table is of S_{self.n}"
                )
        return self.values[self._index[irrep]][self._index[cycle_type]]

    def __eq__(self, other):
        return (
            isinstance(other, CharTable)
            and self.n == other.n
            and self.partitions == other.partitions
            and self.values == other.values
        )

    def __repr__(self):
        return f"CharTable(n={self.n}, {len(self.partitions)}x{len(self.partitions)})"


@lru_cache(maxsize=None)
def _row(shape: Partition) -> tuple[int, ...]:
    """chi_shape on every class of S_n, in the order of partitions_of(n)."""
    return tuple(_character(shape, rho) for rho in partitions_of(sum(shape)))


def _compute_table(n: int) -> CharTable:
    parts = partitions_of(n)
    return CharTable(n, parts, [_row(lam) for lam in parts])


def char_table(n: int, max_n: int = DEFAULT_MAX_TABLE_N) -> CharTable:
    """Full character table of S_n, memoized in memory."""
    require_int("n", n)
    require_int("max_n", max_n)
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
    """Drop all in-memory character state (tables, rows and recursion memo)."""
    _tables.clear()
    _row.cache_clear()
    _character.cache_clear()
