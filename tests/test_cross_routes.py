import json

import cross_routes
import pytest
from cross_routes import (
    CI,
    JOBS,
    ROUTES,
    RULE_ROWS,
    SHOWN_2X2_D16,
    TIER1,
    dimension,
    expand,
    judge,
    stable,
    summarize,
)

import invcensus
import invcensus.molien as molien
from invcensus.census import CensusProblem, generating_series


@pytest.mark.parametrize("row", [row for row in ROUTES if row.where == TIER1], ids=str)
def test_cross_route_row(row):
    problem = CensusProblem(row.n1, row.n2)
    census = generating_series(problem, row.degree, row.degree)
    assert molien._block_series(problem, row.degree) == census
    if max(row.n1, row.n2) <= 5:
        assert molien._joint_series(problem, row.degree) == census
    if row.n1 != row.n2:
        assert generating_series(CensusProblem(row.n2, row.n1), row.degree, row.degree) == census
    if row.closed_form:
        assert list(census) == expand(row.closed_form, row.degree)
    if row.stable():
        assert list(census) == stable(row.degree)


def test_stable_range_sum_is_the_sum_of_z_rho():
    # z_rho over the partitions of 4: (4) 4, (3,1) 3, (2,2) 8, (2,1,1) 4, (1^4) 24
    assert stable(5) == [1, 1, 4, 11, 43, 161]


def test_table_covers_every_system_up_to_5x5():
    systems = {tuple(sorted((row.n1, row.n2))) for row in ROUTES}
    assert systems >= {(n1, n2) for n2 in range(1, 6) for n1 in range(1, n2 + 1)}
    assert {row.where for row in ROUTES} == {TIER1, CI}
    assert all(row.rss_mb for row in ROUTES if row.where == CI)


def job(name):
    (found,) = [job for job in JOBS if job.name == name]
    return found


def canned(**result):
    return json.dumps({"result": result})


FACTOR = "factor 2x2-to-16 cap 12"
SHOWN = [
    {"denominator_degrees": dens, "numerator_degrees": nums, "match_degree": 9}
    for dens, nums in SHOWN_2X2_D16
]


@pytest.mark.parametrize(
    "status, stdout, peak_mb",
    [
        (0, canned(candidate_count=75301, candidates=SHOWN), 20.0),  # a count off by one
        (0, canned(candidate_count=75302, candidates=SHOWN), 30.5),  # a peak RSS above its bound
        (1, "", 20.0),  # a nonzero exit
        (0, canned(candidate_count=75302, candidates=SHOWN[:2]), 20.0),  # a shown row missing
    ],
    ids=["count off by one", "peak RSS above its bound", "nonzero exit", "a shown row missing"],
)
def test_runner_fails_a_bad_row(status, stdout, peak_mb):
    assert judge(job(FACTOR), 0, canned(candidate_count=75302, candidates=SHOWN), 20.0, {}) == []
    assert judge(job(FACTOR), status, stdout, peak_mb, {})


def test_factor_rows_re_expand_each_shown_form():
    # one more factor (1 + t^9) in the last row fails the pinned rows, and the
    # form, expanded, also exceeds the series by one at degree 9
    rows = SHOWN[:2] + [{**SHOWN[2], "numerator_degrees": SHOWN_2X2_D16[2][1] + [9]}]
    failures = judge(job(FACTOR), 0, canned(candidate_count=75302, candidates=rows), 20.0, {})
    assert f"row {SHOWN_2X2_D16[2][0]} differs from the series through degree 9" in failures


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


def test_a_stable_row_checks_the_sum_of_z_rho():
    # census and Molien agree, but on a series one off at degree 12
    check, series = job("molien 12x12-to-12 --check"), stable(12)
    assert judge(check, 0, canned(coefficients=series, census_agreement="OK"), 20.0, {}) == []
    series[12] += 1
    failures = judge(check, 0, canned(coefficients=series, census_agreement="OK"), 20.0, {})
    assert failures == ["series differs from the stable-range sum of z_rho"]


def test_kron_row_checks_the_dimension_identity():
    assert [dimension(shape) for shape in [(4,), (2, 1), (3, 3), (3, 2, 1)]] == [1, 2, 5, 16]
    kron = job("kron 6,6,6 9,5,4")
    product = dimension((6, 6, 6)) * dimension((9, 5, 4))
    for multiplicity, passes in [(product, True), (product - 1, False)]:
        terms = [{"partition": [18], "multiplicity": multiplicity}]
        assert (judge(kron, 0, canned(terms=terms), 20.0, {}) == []) is passes


def test_a_record_row_keeps_the_median_the_range_and_the_largest_peak():
    runs = [(2.5, 20.0, []), (1.0, 24.5, ["a failure"]), (4.0, 21.0, ["a failure"])]
    assert summarize(runs) == {
        "median_s": 2.5,
        "min_s": 1.0,
        "max_s": 4.0,
        "peak_rss_mb": 24.5,
        "failures": ["a failure"],
    }


def test_record_run_from_canned_children(tmp_path, monkeypatch, capsys):
    # no child process: every row gets the same canned output, the judge fails
    # one row on its second of three runs, and git is not found
    calls = []

    def canned_judge(job, status, stdout, peak_mb, earlier):
        calls.append(job.name)
        return ["a failure"] if job.name == FACTOR and calls.count(FACTOR) % 3 == 2 else []

    def no_git(*args, **kwargs):
        raise OSError("no git")

    spawned = []
    monkeypatch.setattr(cross_routes, "run", lambda argv: spawned.append(argv) or (0, canned(), 20.0))
    monkeypatch.setattr(cross_routes, "judge", canned_judge)
    monkeypatch.setattr(cross_routes, "calibrate", lambda: 0.01)
    monkeypatch.setattr(cross_routes.subprocess, "run", no_git)
    path = tmp_path / "BENCH.json"
    for round_ in (1, 2):  # each recording appends one run
        assert cross_routes.main(["--record", str(path), "--repeat", "3"]) == 1
        runs = json.loads(path.read_text())["runs"]
        assert len(runs) == round_
    assert len(calls) == 2 * 3 * len(JOBS)
    assert spawned.count(("--version",)) == 2 * 3  # start-up, once per repeat
    record = runs[-1]
    keys = ["version", "commit", "python", "cpus", "calibration_s", "startup_s", "repeat", "rows"]
    assert list(record) == keys
    assert record["version"] == invcensus.__version__
    assert (record["commit"], record["repeat"]) == ("unknown", 3)
    assert list(record["rows"]) == [job.name for job in JOBS]
    for name, row in record["rows"].items():
        assert row.keys() == {"median_s", "min_s", "max_s", "peak_rss_mb", "failures"}
        assert row["min_s"] <= row["median_s"] <= row["max_s"]
        assert row["peak_rss_mb"] == 20.0
        assert row["failures"] == (["a failure"] if name == FACTOR else [])
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * len(JOBS)
    assert [line for line in out if line.startswith("FAIL")] == [
        line for line in out if line.startswith(f"FAIL {FACTOR}: ") and line.endswith("; a failure")
    ]


def test_rule_times_from_canned_children(tmp_path, monkeypatch, capsys):
    # no child process: every rule row gets canned timings, in which the first
    # row's block engine runs faster than the joint product the rule picks,
    # one block row skips the joint product, another's faster joint product
    # has a key past JOINT_DIGITS digits, and git is not found
    def canned_times(row, repeat):
        assert repeat == 3
        times = {"rule": row[3], "block_s": 0.3 if row[3] == "joint" else 0.1, "joint_s": 0.2}
        if row == RULE_ROWS[0]:
            times["block_s"] = 0.1
        if row == (2, 4, 30, "block"):
            times.update(block_s=40.0, joint_s=None)
        if row == (1, 5, 16, "block"):
            times.update(block_s=0.3, joint_s=0.14)
        return {**times, "joint_digits": 3}

    def no_git(*args, **kwargs):
        raise OSError("no git")

    spawned = []
    monkeypatch.setattr(cross_routes, "time_engines", canned_times)
    monkeypatch.setattr(cross_routes, "run", lambda argv: spawned.append(argv) or (0, "", 20.0))
    monkeypatch.setattr(cross_routes, "calibrate", lambda: 0.01)
    monkeypatch.setattr(cross_routes.subprocess, "run", no_git)
    path = tmp_path / "BENCH.json"
    assert cross_routes.main(["--rule-times", str(path), "--repeat", "3"]) == 0
    assert spawned == [("--version",)] * 3  # start-up only: no CI row ran
    (record,) = json.loads(path.read_text())["runs"]
    keys = ["version", "commit", "python", "cpus", "calibration_s", "startup_s", "repeat"]
    assert list(record) == keys + ["rule_rows"]
    rows = record["rule_rows"]
    assert [(row["system"], row["max_degree"]) for row in rows] == [
        (f"{n1}x{n2}", degree) for n1, n2, degree, _ in RULE_ROWS
    ]
    for row, (_, _, _, engine) in zip(rows, RULE_ROWS):
        assert list(row) == ["system", "max_degree", "block_s", "joint_s", "rule", "faster"]
        assert row["faster"] == ("block" if row is rows[0] else engine)
    assert rows[RULE_ROWS.index((2, 4, 30, "block"))]["joint_s"] is None
    assert rows[RULE_ROWS.index((1, 5, 16, "block"))]["joint_s"] == 0.14
    out = capsys.readouterr().out.splitlines()
    assert out == ["wrong pick 1x3/12: the rule runs joint, block 0.1 s, joint 0.2 s"]
