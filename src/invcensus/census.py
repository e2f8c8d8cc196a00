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
"""

from dataclasses import dataclass
from math import factorial

from .characters import _character
from .errors import ConsistencyError, ResourceLimitError
from .partitions import class_sizes, partitions_of
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
    left = partitions_of(degree, problem.n1)
    right = partitions_of(degree, problem.n2)
    order = factorial(degree)
    total = 0
    for rho, size in class_sizes(degree):
        phi1 = sum(_character(kappa, rho) ** 2 for kappa in left)
        phi2 = sum(_character(lam, rho) ** 2 for lam in right)
        total += size * phi1 * phi2
    # every term is nonnegative, so only a remainder can expose a wrong character
    quotient, remainder = divmod(total, order)
    if remainder:
        raise ConsistencyError(
            f"class sum for F_{degree} of {problem.n1}x{problem.n2} is "
            f"{total}/{order}, not an integer"
        )
    return quotient


def generating_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Counts for degrees 0 .. max_degree as a truncated series."""
    _require_degree("max_degree", max_degree)
    _require_degree("degree_limit", degree_limit)
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    return Series(
        invariant_count(problem, n, degree_limit) for n in range(max_degree + 1)
    )
