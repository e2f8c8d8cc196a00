import importlib
import pkgutil
from math import factorial

import pytest

import invcensus
from invcensus import census, characters, kronecker, partitions
from invcensus.census import CensusProblem, generating_series, invariant_count
from invcensus.errors import ConsistencyError, ResourceLimitError
from invcensus.factorizer import RationalForm, expand
from invcensus.kronecker import kronecker_coefficient, pair_weight
from invcensus.partitions import partitions_of
from invcensus.series import Series

TWO_BY_TWO = [1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 396, 583]


def test_two_by_two_golden_counts():
    problem = CensusProblem(2, 2)
    assert invariant_count(problem, 2) == 4
    assert invariant_count(problem, 8) == 150


def test_two_by_two_series_through_degree_11():
    assert generating_series(CensusProblem(2, 2), 11) == Series(TWO_BY_TWO)


def test_single_site_is_all_ones():
    assert generating_series(CensusProblem(1, 1), 5) == Series([1] * 6)
    assert invariant_count(CensusProblem(1, 1), 9) == 1


def test_degree_zero():
    assert generating_series(CensusProblem(2, 2), 0) == Series([1])
    for dims in [(1, 1), (2, 1), (3, 2)]:
        assert invariant_count(CensusProblem(*dims), 0) == 1


def test_qubit_times_trivial_counts():
    # single-subsystem invariants: one generator each at degrees 1 and 2
    expected = [n // 2 + 1 for n in range(9)]
    assert list(generating_series(CensusProblem(2, 1), 8)) == expected
    assert list(generating_series(CensusProblem(1, 2), 8)) == expected


def test_degree_one_count_is_always_one():
    for n1 in range(1, 4):
        for n2 in range(1, 4):
            assert invariant_count(CensusProblem(n1, n2), 1) == 1


def test_swap_symmetry():
    for n1, n2 in [(1, 2), (1, 3), (2, 3)]:
        for n in range(6):
            assert invariant_count(CensusProblem(n1, n2), n) == invariant_count(
                CensusProblem(n2, n1), n
            )


def test_monotone_in_dimensions():
    for n in range(7):
        f11 = invariant_count(CensusProblem(1, 1), n)
        f21 = invariant_count(CensusProblem(2, 1), n)
        f22 = invariant_count(CensusProblem(2, 2), n)
        f32 = invariant_count(CensusProblem(3, 2), n)
        assert f11 <= f21 <= f22 <= f32


def test_degree_limit_enforced():
    problem = CensusProblem(2, 2)
    with pytest.raises(ResourceLimitError, match="exceeds"):
        invariant_count(problem, 13)
    with pytest.raises(ResourceLimitError):
        generating_series(problem, 13)
    # explicit override allows it
    assert invariant_count(CensusProblem(1, 1), 13, degree_limit=13) == 1


def test_invalid_problems_rejected():
    with pytest.raises(ValueError):
        CensusProblem(0, 2)
    with pytest.raises(ValueError):
        invariant_count(CensusProblem(1, 1), -1)
    with pytest.raises(ValueError):
        generating_series(CensusProblem(1, 1), -1)


@pytest.mark.parametrize("n1, n2", [(2.5, 2), (2, 2.0), (True, 2), (2, False), ("2", 2)])
def test_non_integer_dimensions_rejected(n1, n2):
    with pytest.raises(ValueError, match="must be integers"):
        CensusProblem(n1, n2)


@pytest.mark.parametrize(
    "call",
    [
        lambda p: invariant_count(p, True),
        lambda p: invariant_count(p, 2.0),
        lambda p: invariant_count(p, 2, degree_limit=True),
        lambda p: invariant_count(p, 2, degree_limit=12.0),
        lambda p: generating_series(p, True),
        lambda p: generating_series(p, 2.0),
        lambda p: generating_series(p, 1, degree_limit=True),
        lambda p: generating_series(p, 1, degree_limit="12"),
    ],
)
def test_non_integer_degrees_rejected(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(CensusProblem(2, 2))


def paper_pair_sum(problem, n):
    """The paper's form: pair weights over l(kappa) <= N1, l(lam) <= N2, capped sigma."""
    bound = min(problem.n1**2, problem.n2**2)
    return sum(
        pair_weight(kappa, lam, bound)
        for kappa in partitions_of(n, problem.n1)
        for lam in partitions_of(n, problem.n2)
    )


@pytest.mark.parametrize("n1", [1, 2, 3])
@pytest.mark.parametrize("n2", [1, 2, 3])
def test_class_function_form_equals_paper_pair_sum(n1, n2):
    problem = CensusProblem(n1, n2)
    for n in range(10 if (n1, n2) == (2, 2) else 7):
        assert invariant_count(problem, n) == paper_pair_sum(problem, n), n


def test_sigma_cap_is_vacuous():
    # g(kappa, kappa, sigma) = 0 once l(sigma) > l(kappa)^2
    for n in range(9):
        for kappa in partitions_of(n):
            for sigma in partitions_of(n):
                if len(sigma) > len(kappa) ** 2:
                    assert kronecker_coefficient(kappa, kappa, sigma) == 0, (kappa, sigma)


@pytest.mark.parametrize("n2", [1, 2, 3, 4])
def test_one_by_n_closed_form(n2):
    # a 1 x N system has the ring generated by tr rho^k, k = 1..N
    closed = expand(RationalForm((), tuple(range(1, n2 + 1))), 10)
    assert generating_series(CensusProblem(1, n2), 10) == closed


def test_stable_range_is_the_sum_of_centralizer_orders():
    # for N1, N2 >= n, Phi_N(rho) = z_rho by column orthogonality, so
    # F_n = (1/n!) sum_rho (n!/z_rho) z_rho^2 = sum_{rho |- n} z_rho
    sums_of_z = [1, 1, 4, 11, 43, 161, 901]
    assert list(generating_series(CensusProblem(6, 6), 6)) == sums_of_z


def test_half_stable_range_is_the_partition_count():
    # with one block of size 1, Phi_1 = 1 and Phi_N(rho) = z_rho for N >= n,
    # so F_n = (1/n!) sum_rho (n!/z_rho) z_rho = p(n)
    partition_counts = [1, 1, 2, 3, 5, 7, 11]
    assert list(generating_series(CensusProblem(6, 1), 6)) == partition_counts
    assert list(generating_series(CensusProblem(1, 6), 6)) == partition_counts


def test_inexact_class_sum_raises(monkeypatch):
    # flip the sign of the box added to (2) in its second row, so that
    # chi_(2,1)(1,1,1) = chi_(1,1)(1,1) - chi_(2)(1,1) = 0; the 3x3 class sum at
    # degree 3 becomes 1*2*2 + 3*2*2 + 2*3*3 = 34, which is not divisible by 3!
    real = characters._strip_additions
    flipped_move = (characters._beads((2,), 3), characters._beads((2, 1), 3))

    def flipped(beads, length):
        for grown, sign in real(beads, length):
            yield grown, -sign if (beads, grown) == flipped_move else sign

    monkeypatch.setattr(characters, "_strip_additions", flipped)
    with pytest.raises(ConsistencyError, match="F_3 of 3x3 is 34/6, not an integer"):
        invariant_count(CensusProblem(3, 3), 3)
    with pytest.raises(ConsistencyError, match="not an integer"):
        generating_series(CensusProblem(3, 3), 5)
    monkeypatch.undo()
    # no memo keeps the wrong values
    assert invariant_count(CensusProblem(3, 3), 3) == 11


def class_sum(problem, n):
    """The 0.7.0 census: one class sum per degree from point character queries."""
    total = 0
    for rho, size in partitions.class_sizes(n):
        phi1 = sum(characters.character(k, rho) ** 2 for k in partitions_of(n, problem.n1))
        phi2 = sum(characters.character(k, rho) ** 2 for k in partitions_of(n, problem.n2))
        total += size * phi1 * phi2
    quotient, remainder = divmod(total, factorial(n))
    assert remainder == 0
    return quotient


@pytest.mark.parametrize("n1", [1, 2, 3, 4])
@pytest.mark.parametrize("n2", [1, 2, 3, 4])
def test_strip_adding_pass_equals_class_sum(n1, n2):
    problem = CensusProblem(n1, n2)
    max_degree = 16 if (n1, n2) == (2, 2) else 10
    expected = Series(class_sum(problem, n) for n in range(max_degree + 1))
    assert generating_series(problem, max_degree, max_degree) == expected


def test_census_fills_no_character_memo():
    invcensus.clear_caches()
    series = generating_series(CensusProblem(3, 3), 16, 16)
    assert series[16] == 260034659
    assert characters._character.cache_info().currsize == 0
    assert partitions.class_sizes.cache_info().currsize == 0
    assert characters._tables == {}


def test_clear_caches_empties_every_memo():
    generating_series(CensusProblem(2, 2), 8)
    characters.char_table(6)
    characters.character((2, 1), (3,))
    kronecker.kronecker_coefficient((2, 1), (2, 1), (2, 1))
    memos = {
        id(obj): obj
        for info in pkgutil.iter_modules(invcensus.__path__)
        if info.name != "__main__"
        for obj in vars(importlib.import_module(f"invcensus.{info.name}")).values()
        if hasattr(obj, "cache_info")
    }.values()
    assert len(memos) == 4
    assert all(memo.cache_info().currsize > 0 for memo in memos)
    invcensus.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    assert characters._tables == {}
