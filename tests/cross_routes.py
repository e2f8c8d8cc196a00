"""One table of the cross-route checks, and the runner for the long checks.

The census route (S_n characters) and the Molien route (Weyl constant terms)
meet only in CensusProblem, the degree limit, partitions_of and
exact_quotient, so their agreement is what the counts stand on.  That holds
in full for the Molien route's joint product.  Its block engine shares the
census's class-sum reduction, F_n = (1/n!) sum_rho (n!/z_rho) Phi_N1(rho)
Phi_N2(rho), and computes each Phi_N(rho) = sum_kappa chi_kappa(rho)^2 by
Frobenius's formula instead of the border-strip walk, or as z_rho on a
block of at least as many rows as the degree: it checks the characters but
not the reduction, which only the joint product checks.

Each row of ROUTES names a system N1 x N2 and a degree.  Every row compares
the census series, the Molien series and the census series of the swapped
system N2 x N1; a row with a closed form compares that too, and so does a
row whose blocks both have at least as many rows as the degree, against
the stable-range sum F_n = sum_{rho |- n} z_rho, which uses neither route.
A tier-1 row runs in-process in tests/test_cross_routes.py, whichever
engine the rule would pick: every row runs the block engine, and a row
whose blocks both have at most 5 rows also runs the joint product, whose
cost past that grows out of tier-1 reach.  A CI row runs as CLI processes
(`molien --check`, with the engine the rule picks, then `census` on the
swapped system) under a peak-RSS bound, and so do the other long checks in
LONG, each with its pinned expectation.

Run every CI row, one child process and one printed line each:

    python tests/cross_routes.py

It exits nonzero if any row fails.  It uses only the standard library and
puts src/ on the children's PYTHONPATH.  Peak RSS is the child's ru_maxrss
from os.wait4, which Linux reports in KiB.  A child started by os.posix_spawn
shares the runner's memory until exec, and its ru_maxrss keeps that
high-water mark across exec, so a row's figure reads max(runner, child): on
Linux a `--version` child reads about 16.5 MB, and 76.5 MB once the runner
holds 60 MB more.  A bound below the runner's own RSS cannot pass.

Record a performance run of the same rows:

    python tests/cross_routes.py --record BENCH_<version>.json --repeat k

runs each row k times, checking every run as above, and prints the median
seconds.  It appends one run to the record file's "runs" list, creating the
file if needed, so one file can hold a before and an after.  A run holds
the version, the commit (git describe, "-dirty" for uncommitted changes),
the Python version, the CPU count, the median time of a short calibration
loop that uses none of the package, the median start-up time of k
`python -m invcensus --version` children, which every row's time includes,
and per row the median, least and greatest wall seconds, the largest peak
RSS and the failures.

Time the Molien engines on the rows of the engine rule:

    python tests/cross_routes.py --rule-times BENCH_<version>.json --repeat k

runs one child per row of RULE_ROWS.  The child times each engine in-process,
best of k, clearing every memo before each run, and names the engine the
rule picks.  It skips an engine past its own bound in the rule, the joint
product's memory estimate or the block engine's key passes; a skipped
engine counts as the slower one, and so does a joint product whose key has
more than the rule's JOINT_DIGITS digits, for its memory.  The run appends
one record, as --record does, whose "rule_rows" hold per row the system,
the degree, block_s, joint_s, the rule's pick and the faster engine, and it
prints one line per row where the rule picks the slower engine.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from math import factorial, prod
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
TIER1, CI = "tier-1", "CI"


def one_by(n: int) -> tuple:
    """The 1 x N closed form prod_{k<=N} 1/(1 - t^k): U(1) acts trivially and
    the ring is generated by tr rho^k, k = 1..N."""
    return {0: 1}, tuple(range(1, n + 1))


# The exact 2 x 2 Hilbert series:
# (1 - t^2 - t^3 + 2t^4 + 2t^5 + 2t^6 - t^7 - t^8 + t^10)
#   / ((1-t)(1-t^2)^4(1-t^3)^3(1-t^4)^2)
TWO_BY_TWO = (
    {0: 1, 2: -1, 3: -1, 4: 2, 5: 2, 6: 2, 7: -1, 8: -1, 10: 1},
    (1, 2, 2, 2, 2, 3, 3, 3, 4, 4),
)


def expand(form: tuple, top: int) -> list:
    """Coefficients through t^top of numerator(t) / prod_d (1 - t^d)."""
    numerator, denominator = form
    coeffs = [numerator.get(n, 0) for n in range(top + 1)]
    for d in denominator:
        for n in range(d, top + 1):
            coeffs[n] += coeffs[n - d]
    return coeffs


def stable(top: int) -> list:
    """F_0 .. F_top of a system whose blocks both have at least top rows:
    each block integrates |p_rho|^2 to z_rho = prod_i i^m_i·m_i!, so F_n =
    sum_{rho |- n} z_rho, the coefficients of prod_i sum_m i^m·m!·t^(i·m)."""
    coeffs = [1] + [0] * top
    for i in range(1, top + 1):
        coeffs = [
            sum(coeffs[n - i * m] * i**m * factorial(m) for m in range(n // i + 1))
            for n in range(top + 1)
        ]
    return coeffs


def dimension(shape) -> int:
    """f^shape, the number of standard tableaux: n! over the hook lengths."""
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = prod(part - j + columns[j] - i - 1 for i, part in enumerate(shape) for j in range(part))
    return factorial(sum(shape)) // hooks


@dataclass(frozen=True)
class Route:
    """One cross-route row: N1 x N2 to `degree`, in tier-1 or in CI.

    closed_form is a (numerator, denominator degrees) pair or None; rss_mb
    bounds each CI child's peak RSS.
    """

    n1: int
    n2: int
    degree: int
    where: str = TIER1
    closed_form: tuple | None = None
    rss_mb: int | None = None

    def __str__(self):
        return f"{self.n1}x{self.n2}-to-{self.degree}"

    def stable(self) -> bool:
        """Whether both blocks have at least as many rows as the degree."""
        return min(self.n1, self.n2) >= self.degree


# Every 1 <= N1 <= N2 <= 5 has a row.  The 2x1 and 3x2 rows run the Molien
# route with the larger block first, and 2x3 with the smaller; their swaps
# run the census both ways.
# 1x2 runs it with an a-block of no digit, so a joint key is its b-key.  Of
# the rows past 5x5, a block with at least as many rows as the degree reads
# z_rho and grows no p_rho; where both blocks do, the row also compares the
# stable-range sum.  6x6 and 7x7 to 8 (tier-1) and 7x7 and 8x8 to 12 (CI)
# keep Frobenius's formula, at most l(kappa)! terms per shape, on a block of
# 6 to 8 rows narrower than the degree.  2x16 to 16 and 12x12 to 12 are past
# what the block engine answered before a wide block read z_rho.  Of the CI
# rows, 2x3 to 40 runs the joint product with packed levels, which no
# earlier engine reached in CI time.
ROUTES = (
    Route(1, 1, 12, closed_form=one_by(1)),
    Route(1, 2, 12, closed_form=one_by(2)),
    Route(2, 1, 12, closed_form=one_by(2)),
    Route(1, 3, 12, closed_form=one_by(3)),
    Route(1, 4, 12, closed_form=one_by(4)),
    Route(1, 5, 10, closed_form=one_by(5)),
    Route(2, 2, 32, closed_form=TWO_BY_TWO),
    Route(3, 2, 20),
    Route(2, 3, 12),
    Route(2, 4, 8),
    Route(2, 5, 6),
    Route(3, 3, 10),
    Route(3, 4, 5),
    Route(3, 5, 4),
    Route(4, 4, 4),
    Route(6, 6, 4),
    Route(7, 3, 5),
    Route(9, 9, 3),
    Route(3, 9, 6),
    Route(12, 12, 6),
    Route(6, 6, 8),
    Route(7, 7, 8),
    Route(2, 2, 40, CI, TWO_BY_TWO, rss_mb=30),
    Route(2, 3, 24, CI, rss_mb=40),
    Route(2, 3, 40, CI, rss_mb=60),
    Route(3, 3, 12, CI, rss_mb=40),
    Route(4, 5, 3, CI, rss_mb=40),
    Route(5, 5, 3, CI, rss_mb=60),
    Route(4, 4, 12, CI, rss_mb=40),
    Route(5, 5, 8, CI, rss_mb=40),
    Route(2, 5, 16, CI, rss_mb=40),
    Route(1, 5, 16, CI, closed_form=one_by(5), rss_mb=40),
    Route(8, 8, 8, CI, rss_mb=40),
    Route(9, 9, 9, CI, rss_mb=40),
    Route(12, 12, 6, CI, rss_mb=40),
    Route(7, 7, 12, CI, rss_mb=30),
    Route(8, 8, 12, CI, rss_mb=40),
    Route(2, 16, 16, CI, rss_mb=30),
    Route(12, 12, 12, CI, rss_mb=30),
)


# The engine rule's rows: a system N1 x N2, a degree and the engine that ran
# faster there (BENCH_0.33.0.json, `--rule-times` with --repeat 3), counting
# a joint product past JOINT_DIGITS key digits as the slower: 1x5/16, 1x5/17
# and 2x4/30 are the block engine's so.  tests/test_molien.py checks the
# rule's pick on each.
RULE_ROWS = (
    (1, 3, 12, "joint"), (1, 4, 16, "joint"), (1, 5, 12, "block"), (1, 5, 16, "block"),
    (1, 6, 12, "block"), (2, 2, 16, "joint"), (2, 2, 24, "joint"), (2, 3, 11, "joint"),
    (2, 3, 16, "joint"), (2, 3, 20, "joint"), (2, 3, 24, "joint"), (2, 4, 16, "block"),
    (2, 5, 12, "block"), (3, 3, 10, "block"), (3, 4, 8, "block"), (4, 4, 8, "block"),
    (2, 2, 40, "joint"), (2, 2, 90, "joint"), (1, 4, 24, "joint"), (1, 4, 10, "joint"),
    (1, 5, 17, "block"), (2, 4, 30, "block"), (2, 2, 8, "joint"), (2, 2, 12, "joint"),
    (2, 2, 15, "joint"), (1, 3, 5, "joint"), (1, 4, 11, "joint"), (2, 3, 21, "joint"),
)
RULE_CHILD = """
import json, sys, time
import invcensus.molien as molien
from invcensus import clear_caches
from invcensus.census import CensusProblem

n1, n2, degree, repeat = map(int, sys.argv[1:])
problem = CensusProblem(n1, n2)
times = {"rule": molien._engine(problem, degree).__name__.split("_")[1]}
times["joint_digits"] = molien.JOINT_DIGITS
passes, held = molien._block_cost(problem, degree), molien._joint_bytes(problem, degree)
for name, engine, runs in (
    ("block", molien._block_series, passes <= molien.MAX_BLOCK_PASSES),
    ("joint", molien._joint_series, held <= molien.MAX_ENGINE_BYTES),
):
    times[name + "_s"] = None
    for _ in range(repeat if runs else 0):
        clear_caches()
        start = time.perf_counter()
        engine(problem, degree)
        seconds = time.perf_counter() - start
        times[name + "_s"] = min(seconds, times[name + "_s"] or seconds)
print(json.dumps(times))
"""


def child_env() -> dict:
    """The environment of a child: this one, with src/ first on PYTHONPATH."""
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def time_engines(row: tuple, repeat: int) -> dict:
    """The RULE_CHILD timings of one rule row, in a fresh child."""
    n1, n2, degree, _ = row
    argv = [sys.executable, "-c", RULE_CHILD, *map(str, (n1, n2, degree, repeat))]
    child = subprocess.run(argv, env=child_env(), capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def rule_record(row: tuple, times: dict) -> dict:
    """One rule row of a record: its timings, the rule's pick and the faster
    engine, a skipped engine (None) counting as the slower, and so does a
    joint product whose key has more than JOINT_DIGITS digits, N1 + N2 - 2."""
    n1, n2, degree, _ = row
    block, joint, wide = times["block_s"], times["joint_s"], n1 + n2 - 2 > times["joint_digits"]
    slower = joint is None or wide or (block is not None and block < joint)
    return {"system": f"{n1}x{n2}", "max_degree": degree, "block_s": block, "joint_s": joint,
            "rule": times["rule"], "faster": "block" if slower else "joint"}


@dataclass(frozen=True)
class Job:
    """One CI child: `python -m invcensus *argv --format json`.

    expect(result, earlier) lists why the JSON result fails the row; earlier
    maps the names of the rows run before it to their results.
    """

    name: str
    argv: tuple
    rss_mb: int
    expect: Callable


def _degrees(degree: int) -> tuple:
    return "--max-degree", str(degree), "--degree-limit", str(degree)


def _check_name(route: Route) -> str:
    return f"molien {route} --check"


def _prefix_of(name: str, degree: int) -> Callable:
    """The series through `degree` equals that of the earlier row `name`."""

    def expect(result, earlier):
        if name not in earlier:
            return [f"{name} gave no result"]
        if result["coefficients"][: degree + 1] != earlier[name]["coefficients"]:
            return [f"series through degree {degree} differs from {name}"]
        return []

    return expect


def _route_jobs(route: Route) -> list:
    """`molien --check` on the row, and `census` on its swap if N1 != N2."""
    check = _check_name(route)

    def agrees(result, earlier):
        failures = [] if result.get("census_agreement") == "OK" else ["no census agreement"]
        if route.closed_form and result["coefficients"] != expand(route.closed_form, route.degree):
            failures.append("series differs from the closed form")
        if route.stable() and result["coefficients"] != stable(route.degree):
            failures.append("series differs from the stable-range sum of z_rho")
        return failures

    system = ("--n1", str(route.n1), "--n2", str(route.n2))
    argv = ("molien", *system, *_degrees(route.degree), "--check")
    jobs = [Job(check, argv, route.rss_mb, agrees)]
    if route.n1 != route.n2:
        swap = ("--n1", str(route.n2), "--n2", str(route.n1))
        name = f"census {route.n2}x{route.n1}-to-{route.degree} (swap)"
        swapped = _prefix_of(check, route.degree)
        jobs.append(Job(name, ("census", *swap, *_degrees(route.degree)), route.rss_mb, swapped))
    return jobs


def _equals(key: str, value) -> Callable:
    def expect(result, earlier):
        return [] if result[key] == value else [f"{key} is {result[key]}, expected {value}"]

    return expect


def _dimensions_multiply(lam: tuple, mu: tuple) -> Callable:
    """sum_nu g(lam, mu, nu)·f^nu = f^lam·f^mu: chi_lam·chi_mu at the identity."""

    def expect(result, earlier):
        total = sum(t["multiplicity"] * dimension(t["partition"]) for t in result["terms"])
        product = dimension(lam) * dimension(mu)
        if total != product:
            return [f"sum of g·f^nu is {total}, expected f^lam·f^mu = {product}"]
        return []

    return expect


SERIES_2X2_D16 = ROOT / "bench" / "series-2x2-d16.json"
# (denominator, numerator) degrees of the three rows shown at caps 12 and 14, each
# matching the series through degree 9
SHOWN_2X2_D16 = [
    ([1, 2, 2, 2, 3, 3, 4, 4, 4, 6], [4, 5, 6, 6, 6, 7, 7, 8, 8, 9, 9]),
    ([1, 2, 2, 2, 3, 3, 4, 4, 4, 9], [4, 5, 6, 6, 6, 6, 7, 7, 8, 8, 9]),
    ([1, 2, 2, 2, 3, 3, 4, 4, 4, 11], [4, 5, 6, 6, 6, 6, 7, 7, 8, 8, 9, 9]),
]


def _factor(cap: int) -> tuple:
    return ("factor", "--series-file", str(SERIES_2X2_D16), "--free-generators", "10",
            "--max-factor-degree", str(cap), "--limit", "3")


def _factor_rows(count: int) -> Callable:
    """The survivor count and SHOWN_2X2_D16; each shown form, expanded here,
    must equal the series through its match degree."""
    target = json.loads(SERIES_2X2_D16.read_text())["coefficients"]

    def expect(result, earlier):
        failures = _equals("candidate_count", count)(result, earlier)
        rows = result["candidates"]
        shown = [(row["denominator_degrees"], row["numerator_degrees"]) for row in rows]
        if shown != SHOWN_2X2_D16 or any(row["match_degree"] != 9 for row in rows):
            failures.append(f"shown rows are {shown}, expected {SHOWN_2X2_D16} to degree 9")
        for row in rows:
            numerator = {0: 1}
            for a in row["numerator_degrees"]:  # times (1 + t^a)
                for n, c in list(numerator.items()):
                    numerator[n + a] = numerator.get(n + a, 0) + c
            top = row["match_degree"]
            if expand((numerator, row["denominator_degrees"]), top) != target[: top + 1]:
                failures.append(
                    f"row {row['denominator_degrees']} differs from the series through degree {top}"
                )
        return failures

    return expect


def _char_at_identity(shape: tuple) -> Job:
    """chi_shape(1^n) = f^shape, the hook-length count."""
    n = sum(shape)
    argv = ("char", ",".join(map(str, shape)), ",".join(["1"] * n))
    return Job(f"char ({argv[1]}) at 1^{n}", argv, 30, _equals("value", dimension(shape)))


LONG = (
    Job("census 3x3-to-28", ("census", "--n1", "3", "--n2", "3", *_degrees(28)), 30,
        _prefix_of(_check_name(Route(3, 3, 12)), 12)),
    Job("kron 4,4,4,4 5,4,4,3", ("kron", "4,4,4,4", "5,4,4,3"), 30,
        _dimensions_multiply((4, 4, 4, 4), (5, 4, 4, 3))),
    Job("kron 6,6,6 9,5,4", ("kron", "6,6,6", "9,5,4"), 30,
        _dimensions_multiply((6, 6, 6), (9, 5, 4))),
    Job("factor 2x2-to-16 cap 12", _factor(12), 30, _factor_rows(75302)),
    Job("factor 2x2-to-16 cap 14", _factor(14), 40, _factor_rows(257650)),
    _char_at_identity((12, 10, 8, 6, 4)),
    _char_at_identity(tuple(range(15, 0, -1))),  # the staircase with 1^120
)

JOBS = tuple(job for route in ROUTES if route.where == CI for job in _route_jobs(route)) + LONG


def judge(job: Job, status: int, stdout: str, peak_mb: float, earlier: dict) -> list:
    """Why a finished child fails its row, empty if it passes.  A child that
    exits 0 leaves its JSON result in earlier for the rows after it."""
    if status != 0:
        return [f"exit status {status}"]
    result = json.loads(stdout)["result"]
    earlier[job.name] = result
    failures = job.expect(result, earlier)
    if peak_mb > job.rss_mb:
        failures.append(f"peak RSS {peak_mb:.1f} MB above {job.rss_mb} MB")
    return failures


def run(argv: tuple) -> tuple:
    """(exit status, stdout, peak RSS in MB) of one `python -m invcensus` child."""
    env = child_env()
    command = [sys.executable, "-m", "invcensus", *argv, "--format", "json"]
    with tempfile.TemporaryFile() as out:
        stdout_to_out = [(os.POSIX_SPAWN_DUP2, out.fileno(), 1)]
        pid = os.posix_spawn(sys.executable, command, env, file_actions=stdout_to_out)
        _, status, usage = os.wait4(pid, 0)
        out.seek(0)
        return os.waitstatus_to_exitcode(status), out.read().decode(), usage.ru_maxrss / 1024


def calibrate(repeats: int = 9) -> float:
    """Median seconds of a fixed pure-Python loop that uses none of the package."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def startup(repeats: int) -> float:
    """Median wall seconds of a `--version` child: interpreter and package
    start-up, with no count."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        run(("--version",))
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def summarize(runs: list) -> dict:
    """One row of a record from its (seconds, peak RSS in MB, failures) runs."""
    seconds = [s for s, _, _ in runs]
    failures = list(dict.fromkeys(f for _, _, fails in runs for f in fails))
    return {
        "median_s": statistics.median(seconds),
        "min_s": min(seconds),
        "max_s": max(seconds),
        "peak_rss_mb": max(peak for _, peak, _ in runs),
        "failures": failures,
    }


def environment(repeat: int) -> dict:
    """What a record says about the tree and the host it was measured on."""
    pyproject = (ROOT / "pyproject.toml").read_text()
    (version,) = re.findall(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    try:
        describe = ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--abbrev=12"]
        commit = subprocess.run(describe, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "version": version,
        "commit": commit,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "calibration_s": calibrate(),
        "startup_s": startup(repeat),
        "repeat": repeat,
    }


def append_run(path: Path, run_record: dict) -> None:
    """Add one run to the record file's "runs" list, creating the file if needed."""
    document = json.loads(path.read_text()) if path.exists() else {"runs": []}
    document["runs"].append(run_record)
    path.write_text(json.dumps(document, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the CI rows and the long checks.")
    parser.add_argument("--record", type=Path, help="append a performance run to this JSON file")
    parser.add_argument("--rule-times", type=Path, help="append timings of the rule rows instead")
    parser.add_argument("--repeat", type=int, default=1, help="runs of each row (default 1)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    if args.rule_times:
        rows = [rule_record(row, time_engines(row, args.repeat)) for row in RULE_ROWS]
        for row in rows:
            if row["rule"] != row["faster"]:
                where = f"{row['system']}/{row['max_degree']}"
                times = f"block {row['block_s']} s, joint {row['joint_s']} s"
                print(f"wrong pick {where}: the rule runs {row['rule']}, {times}", flush=True)
        append_run(args.rule_times, {**environment(args.repeat), "rule_rows": rows})
        return 0
    earlier, rows = {}, {}
    for job in JOBS:
        runs = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            status, stdout, peak_mb = run(job.argv)
            seconds = time.perf_counter() - start
            runs.append((seconds, peak_mb, judge(job, status, stdout, peak_mb, earlier)))
        row = rows[job.name] = summarize(runs)
        verdict = "FAIL" if row["failures"] else "ok"
        line = f"{verdict:4} {job.name}: {row['median_s']:.1f} s,"
        line += f" peak RSS {row['peak_rss_mb']:.1f} MB (bound {job.rss_mb} MB)"
        print("; ".join([line, *row["failures"]]), flush=True)
    if args.record:
        append_run(args.record, {**environment(args.repeat), "rows": rows})
    return 1 if any(row["failures"] for row in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
