"""Kronecker (inner) products of symmetric-group irreducibles.

Multiplicities come from the class-sum form of character orthogonality,
accumulated exactly over integer class sizes so that a wrong character value
surfaces as a loud non-integrality failure instead of a silently wrong count.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .characters import _character
from .errors import ConsistencyError, WeightMismatchError
from .partitions import Partition, as_partition, class_sizes, partitions_of


@dataclass(frozen=True)
class SchurExpansion:
    """A Kronecker product decomposed into irreducibles with multiplicities.

    `terms` maps each constituent partition of `weight` to its positive
    multiplicity, keyed in the canonical order of partitions_of(weight).
    """

    weight: int
    terms: dict[Partition, int]

    def __iter__(self):
        return iter(self.terms.items())


def _check_weights(*parts: Partition) -> int:
    n = sum(parts[0])
    for p in parts[1:]:
        if sum(p) != n:
            raise WeightMismatchError(
                f"weights differ: {parts[0]} partitions {n}, {p} partitions {sum(p)}"
            )
    return n


@lru_cache(maxsize=None)
def _kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    n = sum(lam)
    order = factorial(n)
    total = 0
    for rho, size in class_sizes(n):
        prod = _character(lam, rho) * _character(mu, rho) * _character(nu, rho)
        if prod:
            total += prod * size
    quotient, remainder = divmod(total, order)
    if remainder or quotient < 0:
        raise ConsistencyError(
            f"class sum for g{lam, mu, nu} is {total}/{order}, not a nonnegative integer"
        )
    return quotient


def kronecker_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of nu in the Kronecker product lam * mu."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    _check_weights(lam, mu, nu)
    return _kron(lam, mu, nu)


def inner_product_expansion(lam: Partition, mu: Partition) -> SchurExpansion:
    """Full decomposition of the Kronecker product lam * mu."""
    lam, mu = as_partition(lam), as_partition(mu)
    n = _check_weights(lam, mu)
    terms = {}
    for nu in partitions_of(n):
        g = _kron(lam, mu, nu)
        if g:
            terms[nu] = g
    return SchurExpansion(n, terms)


def pair_weight(lam: Partition, mu: Partition, part_bound: int) -> int:
    """Joint multiplicity sum linking two self-products.

    Sums g(lam,lam,sigma) * g(mu,mu,sigma) over all sigma with at most
    part_bound parts; the bound is applied while enumerating sigma, not by
    truncating full expansions.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    n = _check_weights(lam, mu)
    if part_bound < 1:
        raise ValueError(f"part_bound must be positive, got {part_bound}")
    total = 0
    for sigma in partitions_of(n, part_bound):
        left = _kron(lam, lam, sigma)
        if left:
            total += left * _kron(mu, mu, sigma)
    return total


def clear_caches() -> None:
    _kron.cache_clear()
