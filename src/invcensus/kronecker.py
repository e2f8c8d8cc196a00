"""Kronecker (inner) products of symmetric-group irreducibles.

Multiplicities come from the class-sum form of character orthogonality,
g(lam, mu, nu) = (1/n!) sum_rho |C_rho| chi_lam(rho) chi_mu(rho) chi_nu(rho).
Each call takes all the rows it needs at once: table rows up to the table
cap, and past it one walk over the shapes inside those irreducibles, for
that call alone.  Up to the cap the table is also kept packed by class: the
integer of class rho holds |C_rho| chi_nu(rho) in one digit per nu, so an
expansion or a pair weight reads the class sums of every nu as the digits
of one sum, sum_rho chi_lam(rho) chi_mu(rho) times the integer of rho.  A
single coefficient, and every call past the cap, takes the weights
|C_rho| chi_lam chi_mu and their exact dot product with the row of each nu.
Every coefficient then passes errors.exact_quotient by n! and a sign check, so
a wrong character value surfaces as a loud non-integrality (or negativity)
failure instead of a silently wrong count.
Expansions and pair weights do not fill the coefficient memo behind
kronecker_coefficient.  An expansion needs every row of S_n, so weights past
MAX_EXPANSION_N are refused.

A pair weight sums g(lam,lam,sigma) g(mu,mu,sigma) over sigma with at most a
given number of parts.  By Dvir's theorem (J. Algebra 154, 1993) the longest
constituent of lam * mu has |lam & mu'| parts, the boxes lam shares with the
conjugate of mu.  Once the bound reaches min(|lam & lam'|, |mu & mu'|) it
excludes no nonzero term, and orthonormality of the characters collapses the
sum over sigma to one class sum, (1/n!) sum_rho |C_rho| chi_lam(rho)^2
chi_mu(rho)^2, which reads only the rows of lam and mu.  Below that, the
coefficients are summed over the sigma within the bound.
"""

import struct
from functools import lru_cache
from math import factorial
from operator import mul

from .characters import DEFAULT_MAX_TABLE_N, _rows
from .errors import ConsistencyError, Frozen, ResourceLimitError, exact_quotient, require_int
from .partitions import Partition, as_partition, class_sizes, common_weight
from .partitions import conjugate, partitions_of

# Each step in n costs an expansion about 1.6 times the last in time and
# memory; a whole `kron` process at n = 24 takes about 1 s and 84 MB.
MAX_EXPANSION_N = 24


class SchurExpansion(Frozen):
    """A Kronecker product decomposed into irreducibles with multiplicities.

    `terms` maps each constituent partition of `weight` to its positive
    multiplicity, keyed in the canonical order of partitions_of(weight).
    Being a dict, it leaves the expansion unhashable.
    """

    __slots__ = ("weight", "terms")

    def __init__(self, weight: int, terms: dict[Partition, int]):
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "terms", terms)

    def __iter__(self):
        return iter(self.terms.items())


def _weights(rows, lam: Partition, mu: Partition) -> list[int]:
    """|C_rho| * chi_lam(rho) * chi_mu(rho) over the classes of S_n."""
    return [
        size * a * b
        for (_, size), a, b in zip(class_sizes(sum(lam)), rows[lam], rows[mu])
    ]


def _coefficient(total: int, order: int, lam: Partition, mu: Partition, nu: Partition) -> int:
    """g(lam, mu, nu) from its class sum: one exact division by order = n!."""
    g = exact_quotient(total, order, "class sum for g({}, {}, {})", lam, mu, nu)
    if g < 0:
        raise ConsistencyError(
            f"class sum for g{lam, mu, nu} is {total}/{order}, not a nonnegative integer"
        )
    return g


@lru_cache(maxsize=None)
def _kron(lam: Partition, mu: Partition, nu: Partition) -> int:
    rows = _rows([lam, mu, nu])
    total = sum(map(mul, _weights(rows, lam, mu), rows[nu]))
    return _coefficient(total, factorial(sum(nu)), lam, mu, nu)


# struct codes of the signed entries, by size in bytes
_CODES = {1: "b", 2: "h", 4: "i", 8: "q"}


@lru_cache(maxsize=None)
def _packed(n: int) -> tuple:
    """(rows, index, columns, width, bias): S_n's rows and its classes packed.

    For n <= DEFAULT_MAX_TABLE_N.  columns[j] is sum_nu |C_rho| chi_nu(rho)
    2^(index[nu] W) for the j-th class rho, in digits of W = 8 width bits,
    and bias holds 2^(W-1) in every digit.  For rows a, b of the table, each
    class sum sum_rho |C_rho| a(rho) b(rho) chi_nu(rho) is at most bound =
    sum_rho |C_rho| max_nu |chi_nu(rho)|^3 in size, and a digit holds the
    bound and a sign bit.  So bias + sum_rho a(rho) b(rho) columns[rho]
    carries nothing between digits, and its digit index[nu], less 2^(W-1), is
    the class sum of nu.  struct packs each entry in the largest code not
    wider than a digit (|chi| is at most the cube root of the bound), with
    that code's top bit flipped, which adds 2^(8 code - 1) to every entry.
    """
    parts = partitions_of(n)
    rows = _rows(parts)
    table = [rows[nu] for nu in parts]
    sizes = [size for _, size in class_sizes(n)]
    # each pass transposes the table afresh: no list of all its columns at once
    bound = sum(size * max(max(chis), -min(chis)) ** 3 for size, chis in zip(sizes, zip(*table)))
    width = (bound.bit_length() + 8) // 8
    code = max(c for c in _CODES if c <= width)
    entries = struct.Struct("<" + f"{_CODES[code]}{width - code}x" * len(parts))
    ones = int.from_bytes((b"\1" + bytes(width - 1)) * len(parts), "little")
    flips = ones << (8 * code - 1)
    columns = tuple(
        size * ((int.from_bytes(entries.pack(*chis), "little") ^ flips) - flips)
        for size, chis in zip(sizes, zip(*table))
    )
    index = {nu: i for i, nu in enumerate(parts)}
    return rows, index, columns, width, ones << (8 * width - 1)


def _class_sums(n: int, pairs, nus) -> list[list[int]]:
    """sum_rho |C_rho| chi_lam chi_mu chi_nu for each (lam, mu) of pairs, by nu of nus.

    Up to the table cap the sums of one pair are the digits of one sum over
    the packed columns.  Past it the rows are built for this call alone, and
    packing them would cost more than their dot products (11 against 7 ms
    for an expansion at n = 18).
    """
    if n > DEFAULT_MAX_TABLE_N:
        rows = _rows([*(shape for pair in pairs for shape in pair), *nus])
        weights = [_weights(rows, lam, mu) for lam, mu in pairs]
        return [[sum(map(mul, w, rows[nu])) for nu in nus] for w in weights]
    rows, index, columns, width, bias = _packed(n)
    half = 1 << (8 * width - 1)
    offsets = [width * index[nu] for nu in nus]
    sums = []
    for lam, mu in pairs:
        total = sum(map(mul, map(mul, rows[lam], rows[mu]), columns)) + bias
        digits = total.to_bytes(width * len(columns), "little")
        sums.append([int.from_bytes(digits[i : i + width], "little") - half for i in offsets])
    return sums


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
    parts = partitions_of(n)
    (sums,) = _class_sums(n, [(lam, mu)], parts)
    order = factorial(n)
    terms = {}
    for nu, total in zip(parts, sums):
        g = _coefficient(total, order, lam, mu, nu)
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
    lefts, rights = _class_sums(n, [(lam, lam), (mu, mu)], sigmas)
    order = factorial(n)
    total = 0
    for sigma, left_sum, right_sum in zip(sigmas, lefts, rights):
        left = _coefficient(left_sum, order, lam, lam, sigma)
        if left:
            total += left * _coefficient(right_sum, order, mu, mu, sigma)
    return total
