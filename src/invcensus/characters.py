"""Irreducible characters of the symmetric group: one Murnaghan-Nakayama kernel.

A shape with at most K rows is its K-bead beta-set, largest bead first, and
adding a border strip of length r moves a bead from b to a free b + r, with
sign (-1)^(beads jumped).  The walk appends the parts of each cycle type rho
in nondecreasing order, depth-first, carrying chi(rho) over a family of shapes
of each size: the census keeps those with at most max(N1, N2) rows, and the
rows of S_n are read off a walk over the shapes inside the irreducibles asked
for (all of them for a table).  A point value adds the strips of rho to the
empty shape inside lambda, memoized.
"""

from functools import cache, lru_cache
from operator import le

from .errors import ResourceLimitError, require_int
from .partitions import Partition, as_partition, common_weight, partitions_of

# Hard safety cap: tables grow like p(n)^2; past it needs an explicit override.
DEFAULT_MAX_TABLE_N = 16


def _beads(shape: tuple[int, ...], rows: int) -> tuple[int, ...]:
    """The rows-bead beta-set of a shape with at most `rows` rows, largest first."""
    padded = shape + (0,) * (rows - len(shape))
    return tuple(part + rows - 1 - i for i, part in enumerate(padded))


def _strip_additions(beads: tuple[int, ...], length: int):
    """Yield (grown beads, sign) for each border strip of `length` added to a shape.

    The strip moves bead b to a free b + length; its height is the beads jumped.
    """
    for i, bead in enumerate(beads):
        target = bead + length
        j = i
        while j and beads[j - 1] < target:
            j -= 1
        if j and beads[j - 1] == target:
            continue
        grown = beads[:j] + (target,) + beads[j:i] + beads[i + 1 :]
        yield grown, -1 if (i - j) % 2 else 1


def _walk(shapes: list[list[tuple[int, ...]]], visit) -> None:
    """Call visit(m, z, chars) once for each cycle type rho of each m < len(shapes).

    chars[i] is chi(rho) of shapes[m][i], the kept bead tuples of size m, and z
    is rho's centralizer order.  A strip leaving the kept shapes is dropped,
    exact when they are closed under strip removal.  Parts are appended in
    nondecreasing order, so S_m's classes come in lexicographic order of rho[::-1].
    """
    top = len(shapes) - 1
    # (source, target) index pairs of the +1 and -1 strip moves, by (size, length)
    moves = {}
    for m, sources in enumerate(shapes):
        for length in range(1, top - m + 1):
            index = {beads: i for i, beads in enumerate(shapes[m + length])}
            plus, minus = moves[m, length] = [], []
            for source, beads in enumerate(sources):
                for grown, sign in _strip_additions(beads, length):
                    if grown in index:
                        (plus if sign > 0 else minus).append((source, index[grown]))

    def grow(m: int, chars: list[int], last: int, repeats: int, z: int) -> None:
        visit(m, z, chars)
        for length in range(last, top - m + 1):
            plus, minus = moves[m, length]
            grown = [0] * len(shapes[m + length])
            for source, target in plus:
                grown[target] += chars[source]
            for source, target in minus:
                grown[target] -= chars[source]
            count = repeats + 1 if length == last else 1
            grow(m + length, grown, length, count, z * length * count)

    grow(0, [1], 1, 0, 1)  # the empty class: parts start at 1, none repeated yet


@lru_cache(maxsize=None)
def _character(shape: Partition, cycles: Partition) -> int:
    outline = _beads(shape, len(shape))
    values = {_beads((), len(shape)): 1}
    for length in cycles:
        grown_values = {}
        for beads, value in values.items():
            for grown, sign in _strip_additions(beads, length):
                if all(map(le, grown, outline)):
                    grown_values[grown] = grown_values.get(grown, 0) + sign * value
        values = grown_values
    return values.get(outline, 0)


def character(irrep: Partition, cycle_type: Partition) -> int:
    """Character of the S_n irreducible `irrep` on the class `cycle_type`."""
    irrep, cycle_type = as_partition(irrep), as_partition(cycle_type)
    common_weight(irrep, cycle_type)
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
        common_weight(self.partitions[0], irrep, cycle_type)  # (n), or () for n = 0
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


def _walk_rows(irreps) -> dict[Partition, tuple[int, ...]]:
    """chi of each of `irreps` (all of one size n) on every class of S_n.

    One unmemoized walk over the shapes inside one of `irreps`, listed from the
    top by removing a box at a time (a bead b moves to a free b - 1).  Removing
    a strip only shrinks a shape, so these shapes are closed under it and the
    walk is exact.  Each row is in the order of partitions_of(n).
    """
    top = list(dict.fromkeys(irreps))
    n = sum(top[0])
    rows = max(map(len, top))
    levels = [[_beads(shape, rows) for shape in top]]
    for _ in range(n):
        smaller = (
            beads[:i] + (bead - 1,) + beads[i + 1 :]
            for beads in levels[-1]
            for i, bead in enumerate(beads)
            if bead and bead - 1 not in beads
        )
        levels.append(list(dict.fromkeys(smaller)))
    found = []
    _walk(levels[::-1], lambda m, z, chars: m == n and found.append(chars))
    # the walk reaches the classes of S_n in lexicographic order of rho[::-1]
    by_class = dict(zip(sorted(partitions_of(n), key=lambda rho: rho[::-1]), found))
    return dict(zip(top, zip(*(by_class[rho] for rho in partitions_of(n)))))


def _rows(irreps) -> dict[Partition, tuple[int, ...]]:
    """The rows of `irreps` (all of one size n): table rows up to the table cap.

    Past the cap one walk serves all of them, built for this call alone.
    """
    n = sum(irreps[0])
    if n > DEFAULT_MAX_TABLE_N:
        return _walk_rows(irreps)
    table = _table(n)
    return {shape: table.values[table._index[shape]] for shape in irreps}


@cache
def _table(n: int) -> CharTable:
    """The memoized table of S_n, from one walk over all shapes."""
    return CharTable(n, partitions_of(n), _walk_rows(partitions_of(n)).values())


def char_table(n: int, max_n: int = DEFAULT_MAX_TABLE_N) -> CharTable:
    """Full character table of S_n, memoized in memory."""
    require_int("n", n, 0)
    require_int("max_n", max_n)
    if n > max_n:
        raise ResourceLimitError(
            f"character table too large: n={n} exceeds the limit {max_n}"
        )
    return _table(n)
