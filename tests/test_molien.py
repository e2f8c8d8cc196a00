from itertools import product
from math import comb

import pytest

import invcensus.molien as molien
from invcensus.census import CensusProblem, generating_series
from invcensus.errors import ConsistencyError, ResourceLimitError
from invcensus.factorizer import RationalForm, expand
from invcensus.laurent import LaurentPoly
from invcensus.molien import (
    complete_homogeneous,
    haar_constant_term,
    molien_coefficient,
    molien_series,
    power_sum,
)
from invcensus.series import Series


@pytest.mark.parametrize("m", [1, 2, 5])
def test_power_sum_trivial_system(m):
    assert power_sum(CensusProblem(1, 1), m) == LaurentPoly.constant(2, 1)


def test_power_sum_one_qubit_structure():
    # eigenvalue multiset {1, 1, a1/a2, a2/a1}
    expected = LaurentPoly(3, {(0, 0, 0): 2, (1, -1, 0): 1, (-1, 1, 0): 1})
    assert power_sum(CensusProblem(2, 1), 1) == expected


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_power_sum_constant_term_counts_unit_eigenvalues(m):
    assert power_sum(CensusProblem(2, 2), m).constant_term() == 4


@pytest.mark.parametrize(
    "problem", [CensusProblem(1, 1), CensusProblem(2, 1), CensusProblem(2, 2), CensusProblem(3, 2)]
)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_sum_total_eigenvalue_count(problem, m):
    # evaluating every variable at 1 must count all N1^2 * N2^2 eigenvalues
    total = sum(power_sum(problem, m).terms.values())
    assert total == problem.n1**2 * problem.n2**2


def test_power_sum_rejects_nonpositive_index():
    with pytest.raises(ValueError, match="must be positive"):
        power_sum(CensusProblem(2, 2), 0)


@pytest.mark.parametrize("m", [True, 2.0, "2", None])
def test_power_sum_rejects_non_integer_index(m):
    with pytest.raises(ValueError, match="must be an integer"):
        power_sum(CensusProblem(2, 1), m)


def test_complete_homogeneous_degree_zero():
    assert complete_homogeneous(CensusProblem(2, 2), 0) == LaurentPoly.constant(4, 1)


@pytest.mark.parametrize("n", range(7))
def test_complete_homogeneous_trivial_system(n):
    assert complete_homogeneous(CensusProblem(1, 1), n) == LaurentPoly.constant(2, 1)


def test_complete_homogeneous_degree_one_is_power_sum():
    problem = CensusProblem(2, 2)
    h1 = complete_homogeneous(problem, 1)
    assert h1 == power_sum(problem, 1)
    assert h1.constant_term() == 4


@pytest.mark.parametrize(
    "problem,top",
    [
        (CensusProblem(2, 1), 6),
        (CensusProblem(2, 2), 6),
        (CensusProblem(3, 1), 4),
    ],
)
def test_complete_homogeneous_inversion_symmetric(problem, top):
    # the eigenvalue multiset is closed under x -> 1/x, so h_n must be too
    for n in range(top + 1):
        h = complete_homogeneous(problem, n)
        assert h.invert_variables() == h


@pytest.mark.parametrize(
    "problem", [CensusProblem(2, 1), CensusProblem(2, 2), CensusProblem(3, 2)]
)
def test_complete_homogeneous_counts_multisets(problem):
    # at x = 1, h_n counts the degree-n multisets of the N1^2 * N2^2 eigenvalues
    dim = problem.n1**2 * problem.n2**2
    for n in range(7):
        assert sum(complete_homogeneous(problem, n).terms.values()) == comb(dim + n - 1, n)


def test_complete_homogeneous_rejects_negative_degree():
    with pytest.raises(ValueError, match="nonnegative"):
        complete_homogeneous(CensusProblem(2, 2), -1)


@pytest.mark.parametrize("n", [True, 2.0, "2", None])
def test_complete_homogeneous_rejects_non_integer_degree(n):
    with pytest.raises(ValueError, match="must be an integer"):
        complete_homogeneous(CensusProblem(2, 1), n)


@pytest.mark.parametrize(
    "problem", [CensusProblem(1, 1), CensusProblem(2, 1), CensusProblem(2, 2), CensusProblem(3, 1)]
)
def test_haar_normalization(problem):
    one = LaurentPoly.constant(problem.n1 + problem.n2, 1)
    assert haar_constant_term(one, problem) == 1


def test_haar_one_qubit_trace_invariant():
    # the only linear invariant of a single-qubit rho is its trace
    problem = CensusProblem(2, 1)
    assert haar_constant_term(power_sum(problem, 1), problem) == 1


def test_haar_negative_value_surfaced():
    # a1/a2 + a2/a1 is not a character; its Haar average is exactly -1
    problem = CensusProblem(2, 1)
    f = LaurentPoly(3, {(1, -1, 0): 1, (-1, 1, 0): 1})
    assert haar_constant_term(f, problem) == -1


def test_haar_inexact_division_rejected():
    problem = CensusProblem(2, 1)
    f = LaurentPoly(3, {(1, -1, 0): 1})
    with pytest.raises(ConsistencyError, match="not divisible"):
        haar_constant_term(f, problem)


def test_complete_homogeneous_rejects_exponent_past_bound(monkeypatch):
    problem = CensusProblem(2, 1)
    monkeypatch.setattr(molien, "_weights", lambda problem: [(5, -5, 0)])
    with pytest.raises(ConsistencyError, match="past the bound"):
        complete_homogeneous(problem, 1)
    with pytest.raises(ConsistencyError, match="past the bound"):
        molien_series(problem, 1)


def test_negative_molien_coefficient_rejected(monkeypatch):
    weyl = molien._weyl_factor
    monkeypatch.setattr(
        molien,
        "_weyl_factor",
        lambda problem, off: {e: -c for e, c in weyl(problem, off).items()},
    )
    with pytest.raises(ConsistencyError, match="came out negative"):
        molien_series(CensusProblem(2, 1), 2)


@pytest.mark.parametrize("n1, n2", [(1, 1), (1, 3), (3, 1), (2, 3)])
def test_pack_unpack_round_trip_over_the_box(n1, n2):
    problem = CensusProblem(n1, n2)
    off = molien._offset(problem, 2)
    base, ndigits = 2 * off + 1, n1 + n2 - 2
    keys = []
    for coords in product(range(-off, off + 1), repeat=ndigits):
        key = molien._packed([c + off for c in coords], base)
        assert molien._unpacked(key, off, ndigits) == coords
        e = molien._a_coordinates(problem, coords)
        assert len(e) == n1 + n2 and molien._root_coordinates(problem, e) == coords
        keys.append(key)
    # the box fills 0 .. B^r - 1 exactly once, so no two vectors share a key
    assert sorted(keys) == list(range(base**ndigits))


def test_trivial_system_levels_are_empty_above_zero():
    # 1x1 has r = 0 root coordinates and only its one zero weight
    levels, zeros, off = molien._complete_homogeneous_levels(CensusProblem(1, 1), 4)
    assert zeros == 1
    assert levels == [{0: 1}, {}, {}, {}, {}]


def test_carrying_weight_rejected_before_packing(monkeypatch):
    # root coordinates (3, -1) with off = 1, B = 3 would pack to 3 - 3 = 0,
    # a zero step that no later check on the levels could tell apart
    monkeypatch.setattr(molien, "_weights", lambda problem: [(3, -3, -1, 1)])
    with pytest.raises(ConsistencyError, match="past the bound 1"):
        molien_series(CensusProblem(2, 2), 1)


@pytest.mark.parametrize("shift", ["above the box", "below the box", "digit past n"])
def test_finished_level_with_key_past_bound_rejected(monkeypatch, shift):
    # the weights are untouched, so only the check on finished levels can fire;
    # a key one box width away has every digit in range and only the box check sees it
    problem = CensusProblem(2, 1)
    base = 2 * molien._offset(problem, 2) + 1
    stray = {"above the box": base, "below the box": -base, "digit past n": 2}[shift]
    product_levels = molien._product_levels

    def corrupted(origin, steps, max_degree):
        levels = product_levels(origin, steps, max_degree)
        levels[1][origin + stray] = 1
        return levels

    monkeypatch.setattr(molien, "_product_levels", corrupted)
    with pytest.raises(ConsistencyError, match="past the bound"):
        molien_series(problem, 2)
    with pytest.raises(ConsistencyError, match="past the bound"):
        complete_homogeneous(problem, 2)


def test_haar_variable_count_mismatch():
    with pytest.raises(ValueError, match="variables"):
        haar_constant_term(LaurentPoly.constant(2, 1), CensusProblem(2, 1))


@pytest.mark.parametrize(
    "problem,top",
    [(CensusProblem(2, 1), 5), (CensusProblem(2, 2), 4)],
)
def test_streamed_haar_matches_materialized_product(problem, top):
    order = 1
    for k in range(1, problem.n1 + 1):
        order *= k
    for k in range(1, problem.n2 + 1):
        order *= k
    # Delta(a)·Delta(b) = prod over ordered pairs i != j in a block of (1 - x_i/x_j)
    nvars = problem.n1 + problem.n2
    weyl = {(0,) * nvars: 1}
    for block in (range(problem.n1), range(problem.n1, nvars)):
        for i in block:
            for j in block:
                if i == j:
                    continue
                out = dict(weyl)
                for e, c in weyl.items():
                    key = tuple(x + (s == i) - (s == j) for s, x in enumerate(e))
                    out[key] = out.get(key, 0) - c
                weyl = out
    for n in range(top + 1):
        h = complete_homogeneous(problem, n)
        full = {}
        for e1, c1 in h.terms.items():
            for e2, c2 in weyl.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                full[key] = full.get(key, 0) + c1 * c2
        constant = full.get((0,) * nvars, 0)
        assert constant % order == 0
        assert haar_constant_term(h, problem) == constant // order


def test_molien_coefficient_two_qubit_values():
    problem = CensusProblem(2, 2)
    assert molien_coefficient(problem, 2) == 4
    assert molien_coefficient(problem, 5) == 23


@pytest.mark.parametrize("n", range(7))
def test_molien_coefficient_trivial_system(n):
    assert molien_coefficient(CensusProblem(1, 1), n) == 1


@pytest.mark.parametrize(
    "problem",
    [CensusProblem(1, 1), CensusProblem(1, 2), CensusProblem(2, 1), CensusProblem(2, 2)],
)
def test_molien_agrees_with_census(problem):
    assert molien_series(problem, 6) == generating_series(problem, 6)


def test_molien_agrees_with_census_two_qubit_stretch():
    problem = CensusProblem(2, 2)
    assert molien_series(problem, 8) == generating_series(problem, 8)


@pytest.mark.parametrize(
    "n1, n2, max_degree",
    [
        (1, 3, 8),
        (2, 3, 8),
        (1, 4, 6),
        (2, 4, 5),
        (3, 3, 5),
        (2, 2, 16),
        (3, 2, 6),
        (3, 3, 9),
        (2, 2, 24),
    ],
)
def test_molien_agrees_with_census_wider_grid(n1, n2, max_degree):
    problem = CensusProblem(n1, n2)
    assert molien_series(problem, max_degree, degree_limit=max_degree) == generating_series(
        problem, max_degree, degree_limit=max_degree
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_molien_one_by_n_closed_form(n):
    # U(1) acts trivially, so F is the Hilbert series of the U(N)-conjugation
    # invariants: prod_{k<=N} 1/(1 - t^k)
    expected = expand(RationalForm((), tuple(range(1, n + 1))), 12)
    assert molien_series(CensusProblem(1, n), 12) == expected


def test_molien_series_two_qubits():
    series = molien_series(CensusProblem(2, 2), 5)
    assert series == Series([1, 1, 4, 6, 16, 23])


def test_molien_series_one_qubit():
    series = molien_series(CensusProblem(2, 1), 6)
    assert list(series) == [1, 1, 2, 2, 3, 3, 4]


def test_molien_degree_limit():
    with pytest.raises(ResourceLimitError, match="exceeds the configured limit"):
        molien_coefficient(CensusProblem(1, 1), 13)
    assert molien_coefficient(CensusProblem(1, 1), 13, degree_limit=13) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda p: molien_series(p, True),
        lambda p: molien_series(p, 2.0),
        lambda p: molien_series(p, 2, degree_limit=True),
        lambda p: molien_series(p, 2, degree_limit=12.0),
        lambda p: molien_coefficient(p, True),
        lambda p: molien_coefficient(p, 2.0),
        lambda p: molien_coefficient(p, 2, degree_limit=True),
        lambda p: molien_coefficient(p, 2, degree_limit="12"),
    ],
)
def test_non_integer_degrees_rejected(call):
    with pytest.raises(ValueError, match="must be an integer"):
        call(CensusProblem(2, 2))
