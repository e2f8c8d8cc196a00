"""Molien-series route to the invariant counts.

The density matrix of an (N1, N2) system transforms under the adjoint torus
action with eigenvalues (a_i/a_j)(b_k/b_l).  The number of degree-n invariants
is the Haar average of the complete homogeneous function h_n of those
eigenvalues, which Weyl integration reduces to an exact constant-term
extraction against the torus measure.  This recomputes the census counts by a
route that shares no code with the character-theoretic one.
"""

from functools import lru_cache
from math import factorial

from .census import DEFAULT_DEGREE_LIMIT, CensusProblem
from .errors import ConsistencyError, ResourceLimitError
from .laurent import LaurentPoly
from .series import Series


def _nvars(problem: CensusProblem) -> int:
    return problem.n1 + problem.n2


def _ratio_power(nvars: int, i: int, j: int, m: int) -> LaurentPoly:
    """(x_i / x_j)^m as a monomial; indices are absolute variable slots."""
    exponents = [0] * nvars
    exponents[i] += m
    exponents[j] -= m
    return LaurentPoly.monomial(nvars, exponents)


def _block_power_sum(nvars: int, offset: int, size: int, m: int) -> LaurentPoly:
    total = LaurentPoly(nvars)
    for i in range(size):
        for j in range(size):
            total = total + _ratio_power(nvars, offset + i, offset + j, m)
    return total


@lru_cache(maxsize=None)
def power_sum(problem: CensusProblem, m: int) -> LaurentPoly:
    """Trace of the m-th power of the adjoint torus element on the rho-space."""
    if m < 1:
        raise ValueError(f"power sum index must be positive, got {m}")
    nvars = _nvars(problem)
    a_part = _block_power_sum(nvars, 0, problem.n1, m)
    b_part = _block_power_sum(nvars, problem.n1, problem.n2, m)
    return a_part * b_part


@lru_cache(maxsize=None)
def complete_homogeneous(problem: CensusProblem, n: int) -> LaurentPoly:
    """h_n of the adjoint eigenvalue multiset via the Newton recursion."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    nvars = _nvars(problem)
    if n == 0:
        return LaurentPoly.constant(nvars, 1)
    total = LaurentPoly(nvars)
    for m in range(1, n + 1):
        total = total + power_sum(problem, m) * complete_homogeneous(problem, n - m)
    result = LaurentPoly(nvars)
    for exponents, coeff in total.terms.items():
        quotient, remainder = divmod(coeff, n)
        if remainder:
            raise ConsistencyError(
                f"Newton recursion at degree {n} produced coefficient {coeff} "
                f"not divisible by {n}"
            )
        result.terms[exponents] = quotient
    # Exponent support of h_n is bounded; a violation means corrupt arithmetic.
    bound = n * max(problem.n1, problem.n2)
    if result.max_abs_exponent() > bound:
        raise ConsistencyError(f"h_{n} has an exponent past the bound {bound}")
    return result


def _block_weyl(nvars: int, offset: int, size: int) -> LaurentPoly:
    product = LaurentPoly.constant(nvars, 1)
    for i in range(size):
        for j in range(size):
            if i == j:
                continue
            factor = LaurentPoly.constant(nvars, 1) - _ratio_power(
                nvars, offset + i, offset + j, 1
            )
            product = product * factor
    return product


@lru_cache(maxsize=None)
def _weyl_factor(problem: CensusProblem) -> LaurentPoly:
    """Delta(a)·Delta(b) with Delta = prod over ordered pairs i != j."""
    nvars = _nvars(problem)
    a_block = _block_weyl(nvars, 0, problem.n1)
    b_block = _block_weyl(nvars, problem.n1, problem.n2)
    return a_block * b_block


def haar_constant_term(f: LaurentPoly, problem: CensusProblem) -> int:
    """Haar average of a torus class function, as an exact integer.

    Negative results are returned verbatim: a genuine character always
    averages to a nonnegative multiplicity, so a negative value diagnoses a
    bad input rather than an arithmetic fault.
    """
    nvars = _nvars(problem)
    if f.nvars != nvars:
        raise ValueError(
            f"polynomial has {f.nvars} variables, problem needs {nvars}"
        )
    numerator = f.constant_term_of_product(_weyl_factor(problem))
    order = factorial(problem.n1) * factorial(problem.n2)
    quotient, remainder = divmod(numerator, order)
    if remainder:
        raise ConsistencyError(
            f"constant term {numerator} is not divisible by the Weyl "
            f"normalization {order}"
        )
    return quotient


def molien_coefficient(
    problem: CensusProblem, n: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of degree-n invariants, by the constant-term route."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    if n > degree_limit:
        raise ResourceLimitError(
            f"degree {n} exceeds the configured limit {degree_limit}"
        )
    value = haar_constant_term(complete_homogeneous(problem, n), problem)
    if value < 0:
        raise ConsistencyError(
            f"Molien coefficient at degree {n} came out negative ({value})"
        )
    return value


def molien_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Molien series of the problem through max_degree."""
    return Series(
        molien_coefficient(problem, n, degree_limit)
        for n in range(max_degree + 1)
    )


def clear_caches() -> None:
    power_sum.cache_clear()
    complete_homogeneous.cache_clear()
    _weyl_factor.cache_clear()
