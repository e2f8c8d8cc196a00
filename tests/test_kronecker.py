import random
from itertools import permutations
from math import factorial
from operator import mul

import pytest

import invcensus
from invcensus import kronecker
from invcensus.characters import _rows, character
from invcensus.errors import ConsistencyError, ResourceLimitError, WeightMismatchError
from invcensus.kronecker import (
    SchurExpansion,
    inner_product_expansion,
    kronecker_coefficient,
    pair_weight,
)
from invcensus.partitions import class_sizes, conjugate, dimension, partitions_of, z_order

# Degree-8 golden expansions, term for term.
SQUARE_62 = {
    (8,): 1,
    (7, 1): 1,
    (6, 2): 2,
    (6, 1, 1): 1,
    (5, 3): 1,
    (5, 2, 1): 2,
    (5, 1, 1, 1): 1,
    (4, 4): 1,
    (4, 3, 1): 1,
    (4, 2, 2): 1,
}
SQUARE_53 = {
    (8,): 1,
    (7, 1): 1,
    (6, 2): 2,
    (6, 1, 1): 1,
    (5, 3): 1,
    (5, 2, 1): 2,
    (5, 1, 1, 1): 1,
    (4, 4): 1,
    (4, 3, 1): 2,
    (4, 2, 2): 2,
    (4, 2, 1, 1): 1,
    (3, 3, 2): 1,
    (3, 3, 1, 1): 1,
    (3, 2, 2, 1): 1,
}


def test_golden_coefficients():
    assert kronecker_coefficient((8,), (6, 2), (6, 2)) == 1
    assert kronecker_coefficient((6, 2), (6, 2), (6, 2)) == 2
    assert kronecker_coefficient((5, 3), (5, 3), (4, 3, 1)) == 2
    assert kronecker_coefficient((1, 1), (1, 1), (1, 1)) == 0
    assert kronecker_coefficient((1, 1), (1, 1), (2,)) == 1


def test_golden_expansions():
    assert inner_product_expansion((6, 2), (6, 2)).terms == SQUARE_62
    assert inner_product_expansion((5, 3), (5, 3)).terms == SQUARE_53


def test_expansion_keys_in_canonical_order():
    exp = inner_product_expansion((5, 3), (5, 3))
    order = {p: i for i, p in enumerate(partitions_of(8))}
    keys = list(exp.terms)
    assert keys == sorted(keys, key=order.__getitem__)


def test_pair_weight_golden():
    assert pair_weight((6, 2), (5, 3), 4) == 18
    assert pair_weight((5, 3), (6, 2), 4) == 18


def test_pair_weight_trivia():
    for n in range(1, 7):
        for bound in (1, 2, n):
            assert pair_weight((n,), (n,), bound) == 1
    assert pair_weight((1, 1), (1, 1), 4) == 1


def _shared_boxes(lam, mu):
    # |lam & mu'| = sum_i min(lam_i, mu'_i), written here apart from kronecker._overlap
    return sum(min(a, b) for a, b in zip(lam, conjugate(mu)))


def test_pair_weight_equals_the_bounded_sigma_sum():
    # the paper's form: sum over sigma with at most `bound` parts of
    # g(lam,lam,sigma) g(mu,mu,sigma), read off the two self-expansions
    runs = {True: 0, False: 0}
    for n in range(10):
        parts = partitions_of(n)
        squares = {lam: inner_product_expansion(lam, lam).terms for lam in parts}
        for lam in parts:
            for mu in parts:
                left, right = squares[lam], squares[mu]
                for bound in range(1, n + 2):
                    expected = sum(
                        g * right.get(sigma, 0)
                        for sigma, g in left.items()
                        if len(sigma) <= bound
                    )
                    assert pair_weight(lam, mu, bound) == expected, (lam, mu, bound)
                    runs[bound >= min(_shared_boxes(lam, lam), _shared_boxes(mu, mu))] += 1
    # both the class-sum shortcut and the sigma loop were exercised
    assert runs[True] > 5000 and runs[False] > 5000, runs


def test_dvir_bound_is_the_longest_constituent():
    # Dvir: the longest nu in lam * mu has |lam & mu'| parts
    def longest(lam, mu):
        return max(len(nu) for nu in inner_product_expansion(lam, mu).terms)

    for n in range(9):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                assert longest(lam, mu) == _shared_boxes(lam, mu), (lam, mu)
    for n in range(9, 11):
        for lam in partitions_of(n):
            assert longest(lam, lam) == _shared_boxes(lam, lam), lam


def test_trivial_factor_is_identity():
    for n in range(7):
        for mu in partitions_of(n):
            exp = inner_product_expansion((n,) if n else (), mu)
            assert exp.terms == {mu: 1}


def test_sign_factor_conjugates():
    for n in range(1, 9):
        ones = tuple([1] * n)
        for lam in partitions_of(n):
            exp = inner_product_expansion(lam, ones)
            assert exp.terms == {conjugate(lam): 1}


def test_full_symmetry_small():
    for n in range(7):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    base = kronecker_coefficient(lam, mu, nu)
                    for a, b, c in permutations((lam, mu, nu)):
                        assert kronecker_coefficient(a, b, c) == base


def test_full_symmetry_sampled_n9():
    triples = [
        ((5, 4), (6, 2, 1), (3, 3, 3)),
        ((7, 2), (4, 4, 1), (5, 2, 2)),
        ((9,), (5, 4), (5, 4)),
        ((3, 3, 2, 1), (6, 3), (4, 3, 2)),
    ]
    for lam, mu, nu in triples:
        base = kronecker_coefficient(lam, mu, nu)
        for a, b, c in permutations((lam, mu, nu)):
            assert kronecker_coefficient(a, b, c) == base


def test_conjugation_covariance():
    for n in range(6):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                for nu in parts:
                    assert kronecker_coefficient(lam, mu, nu) == kronecker_coefficient(
                        conjugate(lam), conjugate(mu), nu
                    )
    # spot checks at n = 8
    for lam, mu, nu in [
        ((6, 2), (5, 3), (4, 2, 2)),
        ((5, 3), (5, 3), (4, 3, 1)),
        ((4, 4), (6, 2), (2, 2, 2, 2)),
    ]:
        assert kronecker_coefficient(lam, mu, nu) == kronecker_coefficient(
            conjugate(lam), conjugate(mu), nu
        )


def test_dimension_sum_rule():
    cases = [((6, 2), (6, 2)), ((5, 3), (5, 3)), ((6, 2), (5, 3)), ((4, 3, 1), (4, 4))]
    for n in range(7):
        cases.extend((lam, mu) for lam in partitions_of(n) for mu in partitions_of(n))
    for lam, mu in cases:
        exp = inner_product_expansion(lam, mu)
        total = sum(mult * dimension(nu) for nu, mult in exp)
        assert total == dimension(lam) * dimension(mu)


def test_pair_weight_symmetry():
    for n in range(1, 8):
        parts = partitions_of(n, 3)
        for lam in parts:
            for mu in parts:
                for bound in (1, 2, 4):
                    assert pair_weight(lam, mu, bound) == pair_weight(mu, lam, bound)


def test_unbounded_pair_weight_is_scalar_product():
    # <lam . lam, mu . mu> == <lam . mu, lam . mu> once no sigma is excluded
    for n in range(1, 9):
        parts = partitions_of(n, 2) if n > 6 else partitions_of(n)
        for lam in parts:
            for mu in parts:
                lhs = pair_weight(lam, mu, n)
                rhs = sum(
                    kronecker_coefficient(lam, mu, nu) ** 2
                    for nu in partitions_of(n)
                )
                assert lhs == rhs


def test_weight_mismatch_rejected():
    with pytest.raises(WeightMismatchError, match="weights differ"):
        kronecker_coefficient((3,), (2, 1), (2, 2))
    with pytest.raises(WeightMismatchError):
        inner_product_expansion((3,), (2, 2))
    with pytest.raises(WeightMismatchError):
        pair_weight((3,), (2, 2), 4)


def test_part_bound_must_be_positive():
    with pytest.raises(ValueError):
        pair_weight((2, 1), (2, 1), 0)


def test_empty_weight_zero_product():
    exp = inner_product_expansion((), ())
    assert exp == SchurExpansion(0, {(): 1})


@pytest.mark.parametrize("bound", [True, False, 2.0, "2", None])
def test_part_bound_must_be_an_integer(bound):
    with pytest.raises(ValueError, match="must be a positive integer"):
        pair_weight((2, 1), (2, 1), bound)


def test_expansion_matches_class_sum_up_to_n7():
    # g(lam, mu, nu) = (1/n!) sum_rho (n!/z_rho) chi_lam chi_mu chi_nu, written
    # from point queries and centralizer orders alone
    for n in range(8):
        parts = partitions_of(n)
        for lam in parts:
            for mu in parts:
                expected = {}
                for nu in parts:
                    total = sum(
                        factorial(n)
                        // z_order(rho)
                        * character(lam, rho)
                        * character(mu, rho)
                        * character(nu, rho)
                        for rho in parts
                    )
                    g, remainder = divmod(total, factorial(n))
                    assert remainder == 0
                    if g:
                        expected[nu] = g
                assert inner_product_expansion(lam, mu).terms == expected, (lam, mu)


# ---------------------------------------------------------------------------
# The packed class sums: every digit is the dot product it replaces, and a digit
# holds the largest sum the table's own values allow.


def _dot_products(rows, lam, mu, nus):
    weights = kronecker._weights(rows, lam, mu)
    return [sum(map(mul, weights, rows[nu])) for nu in nus]


def test_packed_class_sums_equal_the_dot_products():
    for n in range(10):
        parts = partitions_of(n)
        rows = _rows(parts)
        for lam in parts:
            for mu in parts:
                expected = _dot_products(rows, lam, mu, parts)
                assert kronecker._class_sums(n, [(lam, mu)], parts) == [expected], (lam, mu)


def test_packed_class_sums_equal_the_dot_products_at_n16():
    # the widest packed table; two pairs at once, and the nu of a part bound
    n = kronecker.DEFAULT_MAX_TABLE_N
    parts = partitions_of(n)
    rows = _rows(parts)
    rng = random.Random(16)
    for _ in range(6):
        pairs = [tuple(rng.sample(parts, 2)), (rng.choice(parts),) * 2]
        for nus in (parts, partitions_of(n, 3)):
            expected = [_dot_products(rows, lam, mu, nus) for lam, mu in pairs]
            assert kronecker._class_sums(n, pairs, nus) == expected, pairs


@pytest.mark.parametrize("sign", [1, -1])
def test_class_sums_at_the_width_bound(monkeypatch, cold_caches, sign):
    # rows holding each class's largest |chi| make every class sum the bound
    # sum_rho |C_rho| max|chi(rho)|^3 (with the sign of the rows), the largest a
    # digit of that table can hold
    for n in range(1, kronecker.DEFAULT_MAX_TABLE_N + 1):
        parts = partitions_of(n)
        largest = [max(map(abs, chis)) for chis in zip(*_rows(parts).values())]
        bound = sign * sum(size * m**3 for (_, size), m in zip(class_sizes(n), largest))
        row = tuple(sign * m for m in largest)
        monkeypatch.setattr(kronecker, "_rows", lambda irreps: dict.fromkeys(irreps, row))
        invcensus.clear_caches()
        assert kronecker._class_sums(n, [(parts[0], parts[-1])], parts) == [[bound] * len(parts)]
        order = factorial(n)
        if bound % order == 0 and bound > 0:
            terms = inner_product_expansion(parts[0], parts[-1]).terms
            assert terms == {nu: bound // order for nu in parts}, n
        else:
            with pytest.raises(ConsistencyError, match=f"is {bound}/{order}, not a"):
                inner_product_expansion(parts[0], parts[-1])


# ---------------------------------------------------------------------------
# Exactness: corrupt the character rows the coefficients are built from and
# check that every entry point raises instead of returning a number.


def _identity_only_row(irreps):
    # nonzero on the identity class only: each class sum is 1, not divisible by 3!
    return {lam: (0,) * (len(partitions_of(sum(lam))) - 1) + (1,) for lam in irreps}


def _negated_row(irreps):
    # flips the sign of every class sum, so a positive coefficient turns negative
    return {lam: tuple(-value for value in row) for lam, row in _rows(irreps).items()}


def _off_by_one_row(irreps):
    # chi_(2,1)(1^3) = 3, not 2: the pair class sum of (2,1) becomes 2 + 81 = 83
    rows = _rows(irreps)
    rows[(2, 1)] = rows[(2, 1)][:-1] + (3,)
    return rows


@pytest.fixture
def cold_caches():
    invcensus.clear_caches()
    yield
    invcensus.clear_caches()


@pytest.mark.parametrize(
    "corrupt,message",
    [(_identity_only_row, "1/6"), (_negated_row, "-6/6")],
)
def test_corrupted_rows_raise(monkeypatch, cold_caches, corrupt, message):
    monkeypatch.setattr(kronecker, "_rows", corrupt)
    with pytest.raises(ConsistencyError, match=message):
        kronecker_coefficient((2, 1), (2, 1), (3,))
    with pytest.raises(ConsistencyError, match=message):
        inner_product_expansion((2, 1), (2, 1))
    # bound 2 < |(2,1) & (2,1)'| = 3, so this one sums g over sigma
    with pytest.raises(ConsistencyError, match=message):
        pair_weight((2, 1), (2, 1), 2)


# bound 3 >= |(2,1) & (2,1)'| = 3, so the next two take the class-sum shortcut
@pytest.mark.parametrize(
    "corrupt,message", [(_identity_only_row, "1/6"), (_off_by_one_row, "83/6")]
)
def test_corrupted_rows_raise_in_the_pair_class_sum(monkeypatch, cold_caches, corrupt, message):
    monkeypatch.setattr(kronecker, "_rows", corrupt)
    with pytest.raises(ConsistencyError, match=message):
        pair_weight((2, 1), (2, 1), 3)


def test_negated_rows_leave_the_pair_class_sum_true(monkeypatch, cold_caches):
    # a sum of squares cannot see the sign, so it returns the true value
    monkeypatch.setattr(kronecker, "_rows", _negated_row)
    assert pair_weight((2, 1), (2, 1), 3) == 3


# ---------------------------------------------------------------------------
# Past the character-table cap.  chi_(n-1,1) is the number of fixed points
# minus one, so g(lam, mu, (n-1,1)) counts the shapes nu of n-1 inside both lam
# and mu, less delta(lam, mu); the trivial irrep gives delta(lam, mu) and the
# sign irrep delta(mu, lam').  None of this uses characters.


def _minus_a_box(shape):
    return {
        tuple(part for part in shape[:i] + (shape[i] - 1,) + shape[i + 1 :] if part)
        for i in range(len(shape))
        if i + 1 == len(shape) or shape[i] > shape[i + 1]
    }


PAST_THE_CAP = {18: ((7, 6, 5), (7, 6, 4, 1)), 20: ((8, 7, 5), (8, 6, 5, 1))}


@pytest.mark.parametrize("n", sorted(PAST_THE_CAP))
def test_coefficients_past_the_table_cap(n):
    a, b = PAST_THE_CAP[n]
    for lam, mu in [(a, a), (a, b), (b, conjugate(b))]:
        common = len(_minus_a_box(lam) & _minus_a_box(mu))
        standard = kronecker_coefficient(lam, mu, (n - 1, 1))
        assert standard == common - (lam == mu), (lam, mu)
        assert kronecker_coefficient(lam, mu, (n,)) == (lam == mu), (lam, mu)
        sign = kronecker_coefficient(lam, mu, (1,) * n)
        assert sign == (mu == conjugate(lam)), (lam, mu)


@pytest.mark.parametrize("n", sorted(PAST_THE_CAP))
def test_expansion_and_pair_weight_past_the_table_cap(n):
    # the expansion holds the oracle's (n) and (n-1,1) terms and sums to the
    # hook-length dimensions; the unbounded pair weight is the sum of squares of
    # that expansion, and with one part it is g(lam,lam,(n)) g(mu,mu,(n)) = 1
    lam, mu = PAST_THE_CAP[n]
    terms = inner_product_expansion(lam, mu).terms
    common = len(_minus_a_box(lam) & _minus_a_box(mu))
    assert (n,) not in terms
    assert terms.get((n - 1, 1), 0) == common
    dimensions = sum(g * dimension(nu) for nu, g in terms.items())
    assert dimensions == dimension(lam) * dimension(mu)
    assert pair_weight(lam, mu, n) == sum(g * g for g in terms.values())
    assert pair_weight(lam, mu, 1) == 1


def test_expansion_refuses_a_weight_past_its_bound(monkeypatch):
    # the bound is checked before any row of S_n is built
    def no_rows(irreps):
        raise AssertionError("a row was built")

    monkeypatch.setattr(kronecker, "_rows", no_rows)
    n = kronecker.MAX_EXPANSION_N + 1
    with pytest.raises(ResourceLimitError, match=f"n={n} exceeds the limit {n - 1}"):
        inner_product_expansion((n,), (n - 1, 1))
