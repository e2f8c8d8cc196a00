"""Degree-by-degree census of local unitary invariants of a bipartite system.

For subsystem dimensions (N1, N2) the count at degree n is one class-function
inner product over the cycle types rho of S_n:

    F_n = (1/n!) sum_rho |C_rho| Phi_N1(rho) Phi_N2(rho),
    Phi_k(rho) = sum over kappa with at most k parts of chi_kappa(rho)^2.

This equals the bounded pair sum of g(kappa,kappa,sigma) g(lam,lam,sigma) over
l(kappa) <= N1, l(lam) <= N2 and l(sigma) <= min(N1^2, N2^2): the cap on sigma
never binds, since g(kappa,kappa,sigma) = 0 once l(sigma) > |kappa & kappa'|,
the number of boxes kappa shares with its conjugate, which is at most
l(kappa)^2 (Y. Dvir, "On the Kronecker product of S_n characters", J. Algebra
154 (1993) 125-140), so orthonormality of the characters collapses the sum
over sigma.

All degrees up to D come from one pass of the Murnaghan-Nakayama walk of
characters.py over the shapes with at most K = min(max(N1, N2), D) rows, which
is exact because removing a strip never adds a row and no shape of size at
most D has more than D rows.  Each class rho of S_m adds
(m!/z_rho) Phi_N1(rho) Phi_N2(rho) to the class sum of degree m, and each
F_m is errors.exact_quotient of its class sum by m!.  The pass holds at most
D + 1 vectors and fills no character, Kronecker or class-size memo.
"""

from math import factorial
from operator import mul

from .characters import _beads, _walk
from .errors import Frozen, ResourceLimitError, exact_quotient, require_int
from .partitions import partitions_of
from .series import Series

# Default cap on the degree, so that a long run is asked for explicitly.  The
# census builds no character table, so the table-size limit does not bound it.
DEFAULT_DEGREE_LIMIT = 12


class CensusProblem(Frozen):
    """A bipartite system with subsystem dimensions n1 x n2."""

    __slots__ = ("n1", "n2")

    def __init__(self, n1: int, n2: int):
        require_int("n1", n1, 1)
        require_int("n2", n2, 1)
        object.__setattr__(self, "n1", n1)
        object.__setattr__(self, "n2", n2)


def _require_degree(name: str, degree: int, degree_limit: int) -> None:
    """Reject a degree that is not an int, is negative or is past degree_limit."""
    require_int(name, degree, 0)
    require_int("degree_limit", degree_limit)
    if degree > degree_limit:
        raise ResourceLimitError(
            f"degree {degree} exceeds the configured limit {degree_limit}"
        )


def _census(problem: CensusProblem, max_degree: int) -> list[int]:
    """F_0 .. F_max_degree, each one exact division of its class sum by m!."""
    rows = min(max(problem.n1, problem.n2), max_degree)
    narrow = min(problem.n1, problem.n2, max_degree)
    degrees = range(max_degree + 1)
    # shapes of each size as beta-set masks, those with at most `narrow` rows first
    shapes = [
        [_beads(p, rows) for p in sorted(partitions_of(m, rows), key=len)]
        for m in degrees
    ]
    cuts = [len(partitions_of(m, narrow)) for m in degrees]
    orders = [factorial(m) for m in degrees]
    totals = [0] * len(degrees)

    def visit(m: int, z: int, chars: list[int]) -> None:
        squares = list(map(mul, chars, chars))
        totals[m] += orders[m] // z * sum(squares[: cuts[m]]) * sum(squares)

    _walk(shapes, visit)
    # every term is nonnegative, so only a remainder can expose a wrong character
    return [
        exact_quotient(total, order, "class sum for F_{} of {}x{}", m, problem.n1, problem.n2)
        for m, (total, order) in enumerate(zip(totals, orders))
    ]


def invariant_count(
    problem: CensusProblem, degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of linearly independent invariants of the given degree."""
    _require_degree("degree", degree, degree_limit)
    return _census(problem, degree)[degree]


def generating_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Counts for degrees 0 .. max_degree as a truncated series."""
    _require_degree("max_degree", max_degree, degree_limit)
    return Series(_census(problem, max_degree))
