"""Molien-series route to the invariant counts.

The density matrix of an (N1, N2) system transforms under the adjoint torus
action with eigenvalues x^w = (a_i/a_j)(b_k/b_l).  The number of degree-n
invariants is the Haar average of the complete homogeneous function h_n of
those eigenvalues, which Weyl integration reduces to an exact constant-term
extraction against the torus measure.  All h_n come from one pass over the
product sum_n h_n t^n = prod_w 1/(1 - t x^w), with no division.  This
recomputes the census counts by a route that shares no code with the
character-theoretic one.

Laurent polynomials here are plain dicts from exponent tuples to integers.
"""

from itertools import permutations
from math import factorial
from operator import add

from .census import DEFAULT_DEGREE_LIMIT, CensusProblem
from .errors import ConsistencyError, ResourceLimitError
from .laurent import LaurentPoly
from .series import Series


def _nvars(problem: CensusProblem) -> int:
    return problem.n1 + problem.n2


def _ratio(nvars: int, i: int, j: int) -> tuple:
    """Exponents of x_i / x_j; indices are absolute variable slots."""
    exponents = [0] * nvars
    exponents[i] += 1
    exponents[j] -= 1
    return tuple(exponents)


def _weights(problem: CensusProblem) -> list:
    """The N1^2 * N2^2 adjoint torus weights, repeats included."""
    nvars, n1, n2 = _nvars(problem), problem.n1, problem.n2
    a_part = [_ratio(nvars, i, j) for i in range(n1) for j in range(n1)]
    b_part = [_ratio(nvars, n1 + k, n1 + l) for k in range(n2) for l in range(n2)]
    return [tuple(map(add, a, b)) for a in a_part for b in b_part]


def _complete_homogeneous_levels(problem: CensusProblem, max_degree: int) -> list:
    """h_0 .. h_max_degree, multiplying in 1/(1 - t x^w) for each weight w."""
    levels = [{(0,) * _nvars(problem): 1}] + [{} for _ in range(max_degree)]
    for w in _weights(problem):
        for k in range(1, max_degree + 1):
            level = levels[k]
            for e, c in levels[k - 1].items():
                key = tuple(map(add, e, w))
                level[key] = level.get(key, 0) + c
    # Exponent support of h_n is bounded; a violation means corrupt arithmetic.
    for n, level in enumerate(levels):
        bound = n * max(problem.n1, problem.n2)
        if any(abs(x) > bound for e in level for x in e):
            raise ConsistencyError(f"h_{n} has an exponent past the bound {bound}")
    return levels


def _weyl_factor(problem: CensusProblem) -> dict:
    """Delta(a)·Delta(b) with Delta = prod over ordered pairs i != j of (1 - x_i/x_j)."""
    nvars, n1 = _nvars(problem), problem.n1
    product = {(0,) * nvars: 1}
    for offset, size in ((0, n1), (n1, problem.n2)):
        for i, j in permutations(range(offset, offset + size), 2):
            root = _ratio(nvars, i, j)
            out = dict(product)
            for e, c in product.items():
                key = tuple(map(add, e, root))
                out[key] = out.get(key, 0) - c
            product = out
    return {e: c for e, c in product.items() if c}


def _haar_average(terms: dict, weyl: dict, problem: CensusProblem) -> int:
    """(1/N1!N2!) · constant term of terms · weyl, as an exact integer.

    The roots come in pairs ±r, so the Weyl factor is invariant under
    inverting the variables and the constant term is sum_e terms[e]·weyl[e].
    """
    small, large = sorted((terms, weyl), key=len)
    numerator = sum(c * large.get(e, 0) for e, c in small.items())
    order = factorial(problem.n1) * factorial(problem.n2)
    quotient, remainder = divmod(numerator, order)
    if remainder:
        raise ConsistencyError(
            f"constant term {numerator} is not divisible by the Weyl "
            f"normalization {order}"
        )
    return quotient


def power_sum(problem: CensusProblem, m: int) -> LaurentPoly:
    """Trace of the m-th power of the adjoint torus element on the rho-space."""
    if m < 1:
        raise ValueError(f"power sum index must be positive, got {m}")
    terms = {}
    for w in _weights(problem):
        key = tuple(m * x for x in w)
        terms[key] = terms.get(key, 0) + 1
    return LaurentPoly(_nvars(problem), terms)


def complete_homogeneous(problem: CensusProblem, n: int) -> LaurentPoly:
    """h_n of the adjoint eigenvalue multiset."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return LaurentPoly(_nvars(problem), _complete_homogeneous_levels(problem, n)[n])


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
    return _haar_average(f.terms, _weyl_factor(problem), problem)


def molien_coefficient(
    problem: CensusProblem, n: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> int:
    """Number of degree-n invariants, by the constant-term route."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    return molien_series(problem, n, degree_limit)[n]


def molien_series(
    problem: CensusProblem, max_degree: int, degree_limit: int = DEFAULT_DEGREE_LIMIT
) -> Series:
    """Molien series of the problem through max_degree."""
    if max_degree < 0:
        raise ValueError(f"max_degree must be nonnegative, got {max_degree}")
    if max_degree > degree_limit:
        raise ResourceLimitError(
            f"degree {max_degree} exceeds the configured limit {degree_limit}"
        )
    weyl = _weyl_factor(problem)
    coeffs = []
    for n, level in enumerate(_complete_homogeneous_levels(problem, max_degree)):
        value = _haar_average(level, weyl, problem)
        if value < 0:
            raise ConsistencyError(
                f"Molien coefficient at degree {n} came out negative ({value})"
            )
        coeffs.append(value)
    return Series(coeffs)
