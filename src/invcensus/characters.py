"""Irreducible characters of the symmetric group: one Murnaghan-Nakayama kernel.

A shape with at most K rows is its K-bead beta-set, a bit mask with bit b set
for each bead b, and removing a border strip of length r moves a bead from b
to a free b - r, with sign (-1)^(beads jumped).  The walk appends the parts of
each cycle type rho in nondecreasing order, depth-first, carrying chi(rho) over
a family of shapes of each size: the census keeps those with at most
max(N1, N2) rows, and the rows of S_n are read off a walk over the shapes
inside the irreducibles asked for (all of them for a table).  Its moves pair
each kept shape with the kept shapes one strip smaller.  A point value removes
the strips of the parts of rho larger than 1 from lambda, memoized, and reads
the 1-cycles off the hook-length dimensions of the shapes that remain:
chi_lam(rho' u 1^k) = sum over nu of k of chi^(lam/nu)(rho') f^nu.
"""

from functools import cache, lru_cache

from .errors import Frozen, ResourceLimitError, require_int
from .partitions import Partition, as_partition, common_weight, dimension, partitions_of

# Hard safety cap: tables grow like p(n)^2, and none past it is memoized.
DEFAULT_MAX_TABLE_N = 16
# A point value is refused once one part's strips leave more shapes than this.
MAX_LIVE_SHAPES = 10_000


def _beads(shape: tuple[int, ...], rows: int) -> int:
    """The rows-bead beta-set of a shape with at most `rows` rows, as a bit mask."""
    padded = shape + (0,) * (rows - len(shape))
    return sum(1 << (part + rows - 1 - i) for i, part in enumerate(padded))


def _shape(beads: int, rows: int) -> Partition:
    """The shape whose rows-bead beta-set is the mask beads (inverse of _beads)."""
    positions = [b for b in range(beads.bit_length()) if beads >> b & 1]
    # the i-th lowest bead sits at its row's part + i
    return tuple(part for part in (b - i for i, b in enumerate(positions)) if part)[::-1]


def _strip_removals(beads: int, length: int):
    """Yield (smaller beads, sign) for each border strip of `length` removed.

    The strip moves a bead from b to a free b - length; its height is the
    beads jumped, those strictly between the two.
    """
    free = (beads >> length) & ~beads  # bit t: a bead at t + length, none at t
    while free:
        slot = free & -free
        free ^= slot
        jumped = (beads >> slot.bit_length()) & ((1 << (length - 1)) - 1)
        yield beads ^ slot ^ (slot << length), -1 if jumped.bit_count() % 2 else 1


def _walk(shapes: list[list[int]], visit) -> None:
    """Call visit(m, z, chars) once for each cycle type rho of each m < len(shapes).

    chars[i] is chi(rho) of shapes[m][i], the kept beta-sets of size m, and z
    is rho's centralizer order.  The kept shapes must be closed under strip
    removal, so that each strip move pairs a kept shape with a kept shape one
    strip smaller.  Parts are appended in nondecreasing order, so S_m's classes
    come in lexicographic order of rho[::-1].
    """
    top = len(shapes) - 1
    indexes = [{beads: i for i, beads in enumerate(level)} for level in shapes]
    # (source, target) index pairs of the +1 and -1 strip moves, by (size, length)
    moves = {}
    for size, targets in enumerate(shapes):
        for length in range(1, size + 1):
            index = indexes[size - length]
            plus, minus = moves[size - length, length] = [], []
            for target, beads in enumerate(targets):
                for smaller, sign in _strip_removals(beads, length):
                    (plus if sign > 0 else minus).append((index[smaller], target))

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
    rows = len(shape)
    values = {_beads(shape, rows): 1}
    for length in cycles:
        if length == 1:
            break  # parts are nonincreasing: the rest are 1-cycles, read off below
        smaller_values = {}
        for beads, value in values.items():
            for smaller, sign in _strip_removals(beads, length):
                smaller_values[smaller] = smaller_values.get(smaller, 0) + sign * value
        values = smaller_values
        if len(values) > MAX_LIVE_SHAPES:
            raise ResourceLimitError(
                f"character too large: {len(values)} shapes remain after a strip of length "
                f"{length}, past the bound of {MAX_LIVE_SHAPES}"
            )
    return sum(value * dimension(_shape(beads, rows)) for beads, value in values.items())


def character(irrep: Partition, cycle_type: Partition) -> int:
    """Character of the S_n irreducible `irrep` on the class `cycle_type`."""
    irrep, cycle_type = as_partition(irrep), as_partition(cycle_type)
    common_weight(irrep, cycle_type)
    return _character(irrep, cycle_type)


class CharTable(Frozen):
    """Dense character table of S_n.

    Rows are irreducibles and columns conjugacy classes, both in the canonical
    order of partitions_of(n).  Its fields are n, partitions and values; the
    index of partitions is derived from them.
    """

    __slots__ = ("n", "partitions", "values", "_index")

    def __init__(self, n: int, partitions: tuple[Partition, ...], values):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "partitions", tuple(partitions))
        object.__setattr__(self, "values", tuple(tuple(row) for row in values))
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(self.partitions)})

    def _fields(self) -> tuple:
        return self.n, self.partitions, self.values

    def value(self, irrep: Partition, cycle_type: Partition) -> int:
        irrep, cycle_type = as_partition(irrep), as_partition(cycle_type)
        common_weight(self.partitions[0], irrep, cycle_type)  # (n), or () for n = 0
        return self.values[self._index[irrep]][self._index[cycle_type]]

    def __repr__(self):
        return f"CharTable(n={self.n}, {len(self.partitions)}x{len(self.partitions)})"


def _walk_rows(irreps) -> dict[Partition, tuple[int, ...]]:
    """chi of each of `irreps` (all of one size n) on every class of S_n.

    One unmemoized walk over the shapes inside one of `irreps`, listed from the
    top by removing a box (a strip of length 1) at a time.  Removing a strip
    only shrinks a shape, so these shapes are closed under it and the walk is
    exact.  Each row is in the order of partitions_of(n).
    """
    top = list(dict.fromkeys(irreps))
    n = sum(top[0])
    rows = max(map(len, top))
    levels = [[_beads(shape, rows) for shape in top]]
    for _ in range(n):
        smaller = (less for beads in levels[-1] for less, _ in _strip_removals(beads, 1))
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


def char_table(n: int) -> CharTable:
    """Full character table of S_n, memoized in memory, for n up to the cap."""
    require_int("n", n, 0)
    if n > DEFAULT_MAX_TABLE_N:
        raise ResourceLimitError(
            f"character table too large: n={n} exceeds the limit {DEFAULT_MAX_TABLE_N}"
        )
    return _table(n)
