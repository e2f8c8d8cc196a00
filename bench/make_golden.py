"""Regenerate the benchmark's golden answers from the package in src/.

Each series is computed by both counting routes, census and Molien, and
only the leading coefficients on which they agree are kept; the series run
a few degrees past the workloads so that a workload can be resized without
new goldens.  The 2x2 series through degree 16 is also written as the
factor workload's input file, and that workload's own command gives the
stored candidate count and top-ranked form.

Run from the repository root:  python3 bench/make_golden.py
"""

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import invcensus.cli  # noqa: E402,F401  (the factor workload calls it)
from invcensus import CensusProblem, Series, generating_series, molien_series  # noqa: E402
from invcensus import write_series_file  # noqa: E402
from workloads import FACTOR_SERIES_FILE, GOLDEN_FILE, WORKLOADS  # noqa: E402

# The paper's 2x2 coefficients through degree 11 (acceptance criterion 1).
ACCEPTED_2X2 = [1, 1, 4, 6, 16, 23, 52, 77, 150, 224, 396, 583]

# workload -> (n1, n2, highest degree kept)
SERIES = {"census-2x2": (2, 2, 18), "molien-2x3": (2, 3, 12)}


def agreed_series(n1: int, n2: int, degree: int) -> list[int]:
    problem = CensusProblem(n1, n2)
    census = generating_series(problem, degree, degree)
    molien = molien_series(problem, degree, degree)
    agreed = []
    for a, b in zip(census, molien):
        if a != b:
            break
        agreed.append(a)
    return agreed


def main() -> int:
    golden = {name: agreed_series(*spec) for name, spec in SERIES.items()}
    for name, (_, _, degree) in SERIES.items():
        if len(golden[name]) != degree + 1:
            print(f"routes disagree on {name} at degree {len(golden[name])}", file=sys.stderr)
            return 1
    if golden["census-2x2"][: len(ACCEPTED_2X2)] != ACCEPTED_2X2:
        print("2x2 series differs from the accepted coefficients", file=sys.stderr)
        return 1
    write_series_file(FACTOR_SERIES_FILE, Series(golden["census-2x2"][:17]))

    factor = WORKLOADS["factor-2x2"]
    [(_, (code, text))] = factor.run(factor.prepare(0))
    if code != 0:
        print(f"factor command failed with exit status {code}", file=sys.stderr)
        return 1
    result = json.loads(text)["result"]
    top = result["candidates"][0]
    golden["factor-2x2"] = {
        "candidate_count": result["candidate_count"],
        "top": {key: top[key] for key in
                ("numerator_degrees", "denominator_degrees", "match_degree")},
    }
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
