"""Degree-by-degree census of local unitary invariants of a bipartite system.

For subsystem dimensions (N1, N2) the count at degree n sums, over partition
pairs bounded by the subsystem dimensions, the joint multiplicities of their
self-products; the internal labels are capped at min(N1^2, N2^2) parts.
"""

from dataclasses import dataclass

from .errors import ResourceLimitError
from .kronecker import pair_weight
from .partitions import partitions_of
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
        if self.n1 < 1 or self.n2 < 1:
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.n1}x{self.n2}")

    @property
    def part_bound(self) -> int:
        return min(self.n1**2, self.n2**2)


def invariant_count(
    problem: CensusProblem, degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of linearly independent invariants of the given degree."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    if degree > degree_limit:
        raise ResourceLimitError(
            f"degree {degree} exceeds the configured limit {degree_limit}"
        )
    bound = problem.part_bound
    total = 0
    for kappa in partitions_of(degree, problem.n1):
        for lam in partitions_of(degree, problem.n2):
            total += pair_weight(kappa, lam, bound)
    return total


def generating_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Counts for degrees 0 .. max_degree as a truncated series."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    return Series(
        invariant_count(problem, n, degree_limit) for n in range(max_degree + 1)
    )
