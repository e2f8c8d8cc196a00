import json

import pytest
from cross_routes import CI, JOBS, ROUTES, TIER1, dimension, expand, judge

import invcensus.molien as molien
from invcensus.census import CensusProblem, generating_series


@pytest.mark.parametrize("row", [row for row in ROUTES if row.where == TIER1], ids=str)
def test_cross_route_row(row):
    problem = CensusProblem(row.n1, row.n2)
    census = generating_series(problem, row.degree, row.degree)
    assert molien._joint_series(problem, row.degree) == census
    assert molien._block_series(problem, row.degree) == census
    if row.n1 != row.n2:
        assert generating_series(CensusProblem(row.n2, row.n1), row.degree, row.degree) == census
    if row.closed_form:
        assert list(census) == expand(row.closed_form, row.degree)


def test_table_covers_every_system_up_to_5x5():
    systems = {tuple(sorted((row.n1, row.n2))) for row in ROUTES}
    assert systems == {(n1, n2) for n2 in range(1, 6) for n1 in range(1, n2 + 1)}
    assert {row.where for row in ROUTES} == {TIER1, CI}
    assert all(row.rss_mb for row in ROUTES if row.where == CI)


def job(name):
    (found,) = [job for job in JOBS if job.name == name]
    return found


def canned(**result):
    return json.dumps({"result": result})


FACTOR = "factor 2x2-to-16 cap 12"


@pytest.mark.parametrize(
    "status, stdout, peak_mb",
    [
        (0, canned(candidate_count=75301), 20.0),  # a count off by one
        (0, canned(candidate_count=75302), 30.5),  # a peak RSS above its bound
        (1, "", 20.0),  # a nonzero exit
    ],
    ids=["count off by one", "peak RSS above its bound", "nonzero exit"],
)
def test_runner_fails_a_bad_row(status, stdout, peak_mb):
    assert judge(job(FACTOR), 0, canned(candidate_count=75302), 20.0, {}) == []
    assert judge(job(FACTOR), status, stdout, peak_mb, {})


def test_runner_compares_rows_with_the_rows_before_them():
    # the census 3x3 to 28 row reads the 3x3 to 12 Molien row's series;
    # the coefficients past 12 are not compared
    series = list(generating_series(CensusProblem(3, 3), 12, 12))
    earlier = {}
    molien = canned(coefficients=series, census_agreement="OK")
    assert judge(job("molien 3x3-to-12 --check"), 0, molien, 20.0, earlier) == []
    census = job("census 3x3-to-28")
    assert judge(census, 0, canned(coefficients=series + [0] * 16), 20.0, earlier) == []
    series[12] += 1
    assert judge(census, 0, canned(coefficients=series + [0] * 16), 20.0, earlier)
    assert judge(census, 0, canned(coefficients=series + [0] * 16), 20.0, {})


def test_kron_row_checks_the_dimension_identity():
    assert [dimension(shape) for shape in [(4,), (2, 1), (3, 3), (3, 2, 1)]] == [1, 2, 5, 16]
    kron = job("kron 6,6,6 9,5,4")
    product = dimension((6, 6, 6)) * dimension((9, 5, 4))
    for multiplicity, passes in [(product, True), (product - 1, False)]:
        terms = [{"partition": [18], "multiplicity": multiplicity}]
        assert (judge(kron, 0, canned(terms=terms), 20.0, {}) == []) is passes
