"""Kronecker (inner) products of symmetric-group irreducibles.

Multiplicities come from the class-sum form of character orthogonality,
g(lam, mu, nu) = (1/n!) sum_rho |C_rho| chi_lam(rho) chi_mu(rho) chi_nu(rho).
The weights |C_rho| chi_lam chi_mu are built once per (lam, mu) from the
character rows, and each coefficient is their exact dot product with the row
of nu.  Each call takes all the rows it needs at once: table rows up to the
table cap, and past it one walk over the shapes inside those irreducibles.
Every coefficient then passes errors.exact_quotient by n! and a sign check, so
a wrong character value surfaces as a loud non-integrality (or negativity)
failure instead of a silently wrong count.
Expansions and pair weights reuse one weight vector for all their nu and do
not fill the coefficient memo behind kronecker_coefficient.  An expansion
needs every row of S_n, so weights past MAX_EXPANSION_N are refused.

A pair weight sums g(lam,lam,sigma) g(mu,mu,sigma) over sigma with at most a
given number of parts.  By Dvir's theorem (J. Algebra 154, 1993) the longest
constituent of lam * mu has |lam & mu'| parts, the boxes lam shares with the
conjugate of mu.  Once the bound reaches min(|lam & lam'|, |mu & mu'|) it
excludes no nonzero term, and orthonormality of the characters collapses the
sum over sigma to one class sum, (1/n!) sum_rho |C_rho| chi_lam(rho)^2
chi_mu(rho)^2, which reads only the rows of lam and mu.  Below that, the
coefficients are summed over the sigma within the bound.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from operator import mul

from .characters import _rows
from .errors import ConsistencyError, ResourceLimitError, exact_quotient, require_int
from .partitions import Partition, as_partition, class_sizes, common_weight
from .partitions import conjugate, partitions_of

# Each step in n costs an expansion about 1.6 times the last in time and
# memory; a whole `kron` process at n = 24 takes about 1 s and 84 MB.
MAX_EXPANSION_N = 24


@dataclass(frozen=True, slots=True)
class SchurExpansion:
    """A Kronecker product decomposed into irreducibles with multiplicities.

    `terms` maps each constituent partition of `weight` to its positive
    multiplicity, keyed in the canonical order of partitions_of(weight).
    """

    weight: int
    terms: dict[Partition, int]

    def __iter__(self):
        return iter(self.terms.items())


def _weights(rows, lam: Partition, mu: Partition) -> list[int]:
    """|C_rho| * chi_lam(rho) * chi_mu(rho) over the classes of S_n."""
    return [
        size * a * b
        for (_, size), a, b in zip(class_sizes(sum(lam)), rows[lam], rows[mu])
    ]


def _coefficient(
    weights: list[int], rows, lam: Partition, mu: Partition, nu: Partition
) -> int:
    """g(lam, mu, nu) from the weights of (lam, mu): one exact division by n!."""
    total = sum(map(mul, weights, rows[nu]))
    order = factorial(sum(nu))
    g = exact_quotient(total, order, "class sum for g({}, {}, {})", lam, mu, nu)
    if g < 0:
        raise ConsistencyError(
            f"class sum for g{lam, mu, nu} is {total}/{order}, not a nonnegative integer"
        )
    return g


@lru_cache(maxsize=None)
def _kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    rows = _rows([lam, mu, nu])
    return _coefficient(_weights(rows, lam, mu), rows, lam, mu, nu)


def kronecker_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of nu in the Kronecker product lam * mu."""
    lam, mu, nu = as_partition(lam), as_partition(mu), as_partition(nu)
    common_weight(lam, mu, nu)
    return _kron(lam, mu, nu)


def inner_product_expansion(lam: Partition, mu: Partition) -> SchurExpansion:
    """Full decomposition of the Kronecker product lam * mu."""
    lam, mu = as_partition(lam), as_partition(mu)
    n = common_weight(lam, mu)
    if n > MAX_EXPANSION_N:
        raise ResourceLimitError(
            f"Kronecker expansion too large: n={n} exceeds the limit {MAX_EXPANSION_N}"
        )
    rows = _rows(partitions_of(n))
    weights = _weights(rows, lam, mu)
    terms = {}
    for nu in partitions_of(n):
        g = _coefficient(weights, rows, lam, mu, nu)
        if g:
            terms[nu] = g
    return SchurExpansion(n, terms)


def _overlap(lam: Partition, mu: Partition) -> int:
    """|lam & mu'|, the number of boxes lam shares with the conjugate of mu."""
    return sum(map(min, lam, conjugate(mu)))


def pair_weight(lam: Partition, mu: Partition, part_bound: int) -> int:
    """Joint multiplicity sum linking two self-products.

    Sums g(lam,lam,sigma) * g(mu,mu,sigma) over all sigma with at most
    part_bound parts.  When part_bound >= min(|lam & lam'|, |mu & mu'|) no
    sigma is excluded (Dvir's bound), and the sum is one class sum over the rows
    of lam and mu; otherwise each g is computed for the sigma within the bound.
    """
    lam, mu = as_partition(lam), as_partition(mu)
    n = common_weight(lam, mu)
    require_int("part_bound", part_bound, 1)
    if part_bound >= min(_overlap(lam, lam), _overlap(mu, mu)):
        rows = _rows([lam, mu])
        total = sum(
            size * (a * b) ** 2
            for (_, size), a, b in zip(class_sizes(n), rows[lam], rows[mu])
        )
        # every term is nonnegative, so only a remainder can expose a wrong character
        return exact_quotient(
            total, factorial(n), "class sum for the pair weight of {} and {}", lam, mu
        )
    sigmas = partitions_of(n, part_bound)
    rows = _rows([lam, mu, *sigmas])
    left_weights = _weights(rows, lam, lam)
    right_weights = _weights(rows, mu, mu)
    total = 0
    for sigma in sigmas:
        left = _coefficient(left_weights, rows, lam, lam, sigma)
        if left:
            total += left * _coefficient(right_weights, rows, mu, mu, sigma)
    return total
