"""Degree-by-degree census of local unitary invariants of a bipartite system.

For subsystem dimensions (N1, N2) the count at degree n is one class-function
inner product over the cycle types rho of S_n:

    F_n = (1/n!) sum_rho |C_rho| Phi_N1(rho) Phi_N2(rho),
    Phi_k(rho) = sum over kappa with at most k parts of chi_kappa(rho)^2.

This equals the bounded pair sum of g(kappa,kappa,sigma) g(lam,lam,sigma) over
l(kappa) <= N1, l(lam) <= N2 and l(sigma) <= min(N1^2, N2^2): the cap on sigma
never binds, since g(kappa,kappa,sigma) = 0 once l(sigma) > l(kappa)^2 (Dvir,
J. Algebra 154, 1993), so orthonormality of the characters collapses the sum
over sigma.

All degrees up to D come from one depth-first pass over cycle types.  The pass
keeps v(rho), the characters chi_kappa(rho) of every shape kappa with at most
K = max(N1, N2) rows, each shape stored as a K-bead beta-set.  Appending a part
r to rho applies the Murnaghan-Nakayama strip-adding operator to v: a bead
moves from b to a free position b + r, with sign (-1)^(beads jumped).  Cutting
the shapes at K rows is exact, because removing a strip never adds a row.
Parts are appended in nondecreasing order, so every class of every S_m with
m <= D is visited once, and the walk holds at most D + 1 vectors.  The
strip-adding moves are built once per call; the pass fills no memo.
"""

from dataclasses import dataclass
from math import factorial
from operator import mul

from .errors import ConsistencyError, ResourceLimitError
from .partitions import partitions_of
from .partitions import require_int as _require_degree
from .series import Series

# Default cap on the degree, so that a long run is asked for explicitly.  The
# census builds no character table, so the table-size limit does not bound it.
DEFAULT_DEGREE_LIMIT = 12


@dataclass(frozen=True)
class CensusProblem:
    """A bipartite system with subsystem dimensions n1 x n2."""

    n1: int
    n2: int

    def __post_init__(self):
        if type(self.n1) is not int or type(self.n2) is not int:  # rejects bool too
            raise ValueError(
                f"subsystem dimensions must be integers, got {self.n1!r}x{self.n2!r}"
            )
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.n1}x{self.n2}")


def _beads(shape: tuple[int, ...], rows: int) -> tuple[int, ...]:
    """The rows-bead beta-set of a shape with at most `rows` rows, largest first."""
    padded = shape + (0,) * (rows - len(shape))
    return tuple(part + rows - 1 - i for i, part in enumerate(padded))


def _strip_additions(beads: tuple[int, ...], length: int):
    """Yield (grown beads, sign) for each border strip of `length` added to a shape.

    The strip moves bead b to b + length, which must be free; the beads jumped
    are those between, and their count is the strip's height.
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


def _census(problem: CensusProblem, max_degree: int) -> list[int]:
    """F_0 .. F_max_degree, each one exact division of its class sum by m!."""
    rows = max(problem.n1, problem.n2)
    narrow = min(problem.n1, problem.n2)
    # shapes of each size as bead tuples, those with at most `narrow` rows first
    shapes = [
        [_beads(p, rows) for p in sorted(partitions_of(m, rows), key=len)]
        for m in range(max_degree + 1)
    ]
    cuts = [len(partitions_of(m, narrow)) for m in range(max_degree + 1)]
    orders = [factorial(m) for m in range(max_degree + 1)]
    # (source, target) index pairs of the +1 and -1 strip moves, by (size, length)
    moves = {}
    for m, sources in enumerate(shapes):
        for length in range(1, max_degree - m + 1):
            index = {beads: i for i, beads in enumerate(shapes[m + length])}
            plus, minus = moves[m, length] = [], []
            for source, beads in enumerate(sources):
                for grown, sign in _strip_additions(beads, length):
                    (plus if sign > 0 else minus).append((source, index[grown]))
    totals = [0] * (max_degree + 1)

    def visit(m: int, chars: list[int], last: int, repeats: int, z: int) -> None:
        squares = list(map(mul, chars, chars))
        totals[m] += orders[m] // z * sum(squares[: cuts[m]]) * sum(squares)
        for length in range(max(last, 1), max_degree - m + 1):
            plus, minus = moves[m, length]
            grown = [0] * len(shapes[m + length])
            for source, target in plus:
                grown[target] += chars[source]
            for source, target in minus:
                grown[target] -= chars[source]
            count = repeats + 1 if length == last else 1
            visit(m + length, grown, length, count, z * length * count)

    visit(0, [1], 0, 0, 1)
    counts = []
    for m, (total, order) in enumerate(zip(totals, orders)):
        # every term is nonnegative, so only a remainder can expose a wrong character
        quotient, remainder = divmod(total, order)
        if remainder:
            raise ConsistencyError(
                f"class sum for F_{m} of {problem.n1}x{problem.n2} is "
                f"{total}/{order}, not an integer"
            )
        counts.append(quotient)
    return counts


def invariant_count(
    problem: CensusProblem, degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of linearly independent invariants of the given degree."""
    _require_degree("degree", degree)
    _require_degree("degree_limit", degree_limit)
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > degree_limit:
        raise ResourceLimitError(
            f"degree {degree} exceeds the configured limit {degree_limit}"
        )
    return _census(problem, degree)[degree]


def generating_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Counts for degrees 0 .. max_degree as a truncated series."""
    _require_degree("max_degree", max_degree)
    _require_degree("degree_limit", degree_limit)
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if max_degree > degree_limit:
        # the message names the first degree past the limit
        raise ResourceLimitError(
            f"degree {max(degree_limit + 1, 0)} exceeds the configured limit {degree_limit}"
        )
    return Series(_census(problem, max_degree))
