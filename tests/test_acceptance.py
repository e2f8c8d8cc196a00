"""Acceptance gate: one test per shipping criterion, each printing a verdict line."""

import json
import time
from contextlib import contextmanager
from itertools import permutations

import invcensus
from invcensus.census import CensusProblem, generating_series, invariant_count
from invcensus.characters import char_table
from invcensus.cli import main
from invcensus.factorizer import RationalForm, compare, expand, search_candidates
from invcensus.kronecker import (
    inner_product_expansion,
    kronecker_coefficient,
    pair_weight,
)
from invcensus.molien import molien_coefficient
from invcensus.partitions import conjugate, dimension, partitions_of, z_order
from invcensus.series import Series

TWO_BY_TWO = [1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 396, 583]

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

G_FORM = RationalForm((4, 5, 6, 6, 6, 6, 7, 7, 8, 8, 9, 9), (1, 2, 2, 2, 3, 3, 4, 4, 4))


@contextmanager
def verdict(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\nACCEPTANCE {label}: FAIL", flush=True)
        raise
    with capsys.disabled():
        print(f"\nACCEPTANCE {label}: PASS", flush=True)


def _cold_caches():
    invcensus.clear_caches()


def test_acceptance_1_golden_series(capsys):
    with verdict(capsys, "1 golden series through degree 11"):
        _cold_caches()
        start = time.perf_counter()
        series = generating_series(CensusProblem(2, 2), 11)
        elapsed = time.perf_counter() - start
        assert list(series) == TWO_BY_TWO
        assert elapsed < 60.0


def test_acceptance_2_corrected_degree_twelve(capsys):
    with verdict(capsys, "2 corrected degree-12 count"):
        _cold_caches()
        start = time.perf_counter()
        count = invariant_count(CensusProblem(2, 2), 12)
        elapsed = time.perf_counter() - start
        assert count == 964
        assert elapsed < 600.0


def test_acceptance_3_kronecker_goldens(capsys):
    with verdict(capsys, "3 Kronecker golden expansions and pair weight"):
        assert dict(inner_product_expansion((6, 2), (6, 2)).terms) == SQUARE_62
        assert dict(inner_product_expansion((5, 3), (5, 3)).terms) == SQUARE_53
        assert pair_weight((6, 2), (5, 3), 4) == 18


def test_acceptance_4_oracle_equivalence(capsys):
    with verdict(capsys, "4 census/Molien oracle equivalence"):
        problems = [
            CensusProblem(1, 1),
            CensusProblem(1, 2),
            CensusProblem(2, 1),
            CensusProblem(2, 2),
        ]
        for problem in problems:
            for n in range(7):
                assert molien_coefficient(problem, n) == invariant_count(problem, n)
        for n in range(7, 9):
            assert molien_coefficient(CensusProblem(2, 2), n) == invariant_count(
                CensusProblem(2, 2), n
            )


def test_acceptance_5_factorizer_golden_expansion(capsys):
    with verdict(capsys, "5 saturated-form expansion and mismatch"):
        assert list(expand(G_FORM, 12)) == [
            1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 398, 589, 982,
        ]
        assert compare(Series(TWO_BY_TWO), expand(G_FORM, 11)) == (10, 396, 398)


def test_acceptance_6_bookkeeping(capsys):
    with verdict(capsys, "6 generator bookkeeping"):
        assert G_FORM.free_generator_count == 9
        assert G_FORM.total_invariant_count == 21


def _check_orthogonality(n):
    table = char_table(n)
    classes = table.partitions
    order = 1
    for k in range(2, n + 1):
        order *= k
    sizes = [order // z_order(p) for p in classes]
    for i, lam in enumerate(classes):
        for j in range(i, len(classes)):
            total = sum(
                size * table.values[i][k] * table.values[j][k]
                for k, size in enumerate(sizes)
            )
            assert total == (order if i == j else 0)
    for a in range(len(classes)):
        for b in range(a, len(classes)):
            total = sum(row[a] * row[b] for row in table.values)
            assert total == (z_order(classes[a]) if a == b else 0)


def test_acceptance_7_property_suites(capsys):
    with verdict(capsys, "7 property suites"):
        for n in range(1, 11):
            _check_orthogonality(n)
        for n in range(1, 13):
            order = 1
            for k in range(2, n + 1):
                order *= k
            assert sum(dimension(p) ** 2 for p in partitions_of(n)) == order
        for n in range(1, 7):
            shapes = partitions_of(n)
            for lam in shapes:
                for mu in shapes:
                    for nu in shapes:
                        g = kronecker_coefficient(lam, mu, nu)
                        for p in permutations((lam, mu, nu)):
                            assert kronecker_coefficient(*p) == g
        for n in range(1, 9):
            ones = (1,) * n
            for lam in partitions_of(n):
                assert dict(inner_product_expansion(lam, ones).terms) == {
                    conjugate(lam): 1
                }
        for n in range(2, 6):
            for kappa in partitions_of(n):
                for lam in partitions_of(n):
                    assert pair_weight(kappa, lam, 4) == pair_weight(lam, kappa, 4)
        assert pair_weight((5, 3), (6, 2), 4) == 18
        # byte-identical JSON across repeated CLI runs
        argv = ["census", "--n1", "2", "--n2", "2", "--max-degree", "6", "--format", "json"]
        assert main(list(argv)) == 0
        first = capsys.readouterr().out
        assert main(list(argv)) == 0
        second = capsys.readouterr().out
        first_doc, second_doc = json.loads(first), json.loads(second)
        del first_doc["timing_ms"], second_doc["timing_ms"]
        assert json.dumps(first_doc) == json.dumps(second_doc)


def test_acceptance_8_search_rediscovery(capsys):
    with verdict(capsys, "8 search rediscovers the saturated denominator"):
        _, reports = search_candidates(
            Series(TWO_BY_TWO), free_generators=9, max_factor_degree=9
        )
        denominators = {r.candidate.denominator_degrees for r in reports}
        assert (1, 2, 2, 2, 3, 3, 4, 4, 4) in denominators
