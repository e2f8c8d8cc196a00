"""invcensus benchmark: run one workload (or all four) and check every answer.

Usage, from the repository root:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

A run repeats the workload in fresh single-threaded child processes
(bench/child.py), one at a time, until --seconds have passed; the last
repetition may run past the limit.  Each child starts with cold memos.
With --trace 0 the run reports the end-to-end metrics over its children:
the medians of setup_s and wall_ref_s, and the largest peak_rss_mb.  With
--trace 1 it alternates untraced and traced children and reports the
per-layer metrics of the traced child with the median wall time;
trace.overhead_s is the traced median wall time minus the untraced one.

stdout: an environment line, one line per metric (name, value, unit), and
as its last line one JSON object with the keys correct, attempted, failed
and metrics.  Exit status is 0 when every answer was correct, 1 when some
were not, and 2 when the package source is missing.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("census-2x2", "molien-2x3", "factor-2x2", "query-mix")

# End-to-end metrics, in the JSON result.  wall_ref_s is the job's wall
# time rescaled to the reference machine speed: each child times a fixed
# calibration task around its job, and its wall time is multiplied by
# REFERENCE_CALIBRATION_S / (that child's calibration time).  The raw wall
# time, the query latencies of query-mix and fail_frac are printed as well.
END_TO_END = {
    "setup_s": "s",
    "wall_ref_s": "s",
    "peak_rss_mb": "MB",
}
# A fixed scale: the calibration task's usual time on the 2-core Xeon of the
# first baseline (baseline.json), so that wall_ref_s reads in its seconds.
REFERENCE_CALIBRATION_S = 0.015
# Per-layer metrics: name -> (unit, which direction is better).
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "partitions.z_order.calls": ("count", "lower"),
    "partitions.z_order.self_s": ("s", "lower"),
    "partitions.partitions_of.calls": ("count", "lower"),
    "characters.character.self_s": ("s", "lower"),
    "characters.char_table.self_s": ("s", "lower"),
    "characters.memo_entries": ("count", "lower"),
    "characters.memo_hit_ratio": ("ratio", "higher"),
    "kronecker.pair_weight.calls": ("count", "lower"),
    "kronecker.pair_weight.self_s": ("s", "lower"),
    "kronecker.kronecker_coefficient.self_s": ("s", "lower"),
    "kronecker.inner_product_expansion.self_s": ("s", "lower"),
    "kronecker.memo_entries": ("count", "lower"),
    "kronecker.memo_hit_ratio": ("ratio", "higher"),
    "census.invariant_count.self_s": ("s", "lower"),
    "census.invariant_count.max_s": ("s", "lower"),
    "laurent.mul.calls": ("count", "lower"),
    "laurent.mul.self_s": ("s", "lower"),
    "laurent.mul.term_pairs": ("count", "lower"),
    "laurent.mul.max_terms_out": ("count", "lower"),
    "laurent.add.self_s": ("s", "lower"),
    "laurent.constant_term_of_product.self_s": ("s", "lower"),
    "molien.complete_homogeneous.self_s": ("s", "lower"),
    "molien.power_sum.self_s": ("s", "lower"),
    "molien.haar_constant_term.self_s": ("s", "lower"),
    "molien.h_terms_max": ("count", "lower"),
    "factorizer.numerator_for_denominator.calls": ("count", "lower"),
    "factorizer.fit_denominator.calls": ("count", "lower"),
    "factorizer.survivor_ratio": ("ratio", "higher"),
    "factorizer.numerator_for_denominator.self_s": ("s", "lower"),
    "factorizer.fit_denominator.self_s": ("s", "lower"),
    "factorizer.expand.self_s": ("s", "lower"),
    "factorizer.compare.self_s": ("s", "lower"),
    "factorizer.search_candidates.self_s": ("s", "lower"),
    "series.read_series_file.self_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.unspanned_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}
# Whole runs, set-up included, must end well inside three minutes.
HARD_LIMIT_S = 150.0


def environment(seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "cpu": cpu, "nproc": nproc,
            "commit": commit, "seed": seed}


def run_child(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh process; a crash or timeout is one failed operation."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    env = dict(os.environ, PYTHONHASHSEED="0")
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"timed out after {timeout:.0f} s", "attempted": 1, "failed": 1}
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or report is None:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"crashed": f"exit status {proc.returncode}: {tail[0]}",
                "attempted": 1, "failed": 1}
    report["setup_s"] = report.pop("ready") - launched
    return report


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload until `seconds` have passed and aggregate the children."""
    started = time.monotonic()
    plain, traced, errors = [], [], []
    attempted = failed = 0
    longest = 0.0
    while True:
        elapsed = time.monotonic() - started
        tracing = trace and len(plain) > len(traced)
        if (elapsed >= seconds and plain and (traced or not trace)) \
                or elapsed + longest > HARD_LIMIT_S:
            break
        report = run_child(workload, seed, tracing, HARD_LIMIT_S + 20 - elapsed)
        longest = max(longest, time.monotonic() - started - elapsed)
        attempted += report["attempted"]
        failed += report["failed"]
        if "crashed" in report:
            errors.append(report["crashed"])
            break
        errors += report["errors"]
        (traced if tracing else plain).append(report)

    result = {"attempted": attempted, "failed": failed, "errors": errors[:5],
              "children": len(plain) + len(traced), "printed": {}}
    if not plain or (trace and not traced):
        result["correct"] = False
        result["metrics"] = {}
        return result
    walls = [r["wall_s"] for r in plain]
    if not trace:
        result["metrics"] = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "wall_ref_s": statistics.median(
                r["wall_s"] * REFERENCE_CALIBRATION_S / r["calibration_s"] for r in plain),
            # The largest, since a child's peak varies between two levels.
            "peak_rss_mb": max(r["peak_rss_mb"] for r in plain),
        }
        result["printed"] = {
            "wall_s": (statistics.median(walls), "s"),
            "calibration_s": (statistics.median(r["calibration_s"] for r in plain), "s"),
        }
        if workload == "query-mix":
            latencies = [x for r in plain for x in r["latencies_s"]]
            result["printed"]["query_p50_us"] = (statistics.median(latencies) * 1e6, "us")
            result["printed"]["query_p99_us"] = (percentile(latencies, 99) * 1e6, "us")
        result["correct"] = failed == 0
        return result
    traced.sort(key=lambda r: r["wall_s"])
    chosen = traced[(len(traced) - 1) // 2]
    metrics = dict(chosen["layers"])
    metrics["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                   - statistics.median(walls))
    result["metrics"] = metrics
    # The layers' self times and the unspanned time must account for the wall time.
    unaccounted = [r["accounted_s"] - r["wall_s"] for r in traced]
    result["unaccounted_s"] = max(unaccounted, key=abs)
    result["correct"] = failed == 0 and all(abs(u) <= 1e-6 * max(1.0, r["wall_s"])
                                            for u, r in zip(unaccounted, traced))
    return result


def unit_of(name: str) -> str:
    return END_TO_END[name] if name in END_TO_END else PER_LAYER[name][0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "invcensus" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'invcensus'}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed)), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        for metric, value in result["metrics"].items():
            metrics[prefix + metric] = {"value": value, "unit": unit_of(metric)}
            print(f"{name} {metric} {value:.6g} {unit_of(metric)}")
        for metric, (value, unit) in result["printed"].items():
            print(f"{name} {metric} {value:.6g} {unit}")
        print(f"{name} fail_frac {result['failed'] / max(result['attempted'], 1):.6g} ratio"
              f" ({result['failed']} of {result['attempted']} operations,"
              f" {result['children']} processes)")
        if args.trace and "unaccounted_s" in result:
            print(f"{name} layer self times + unspanned - wall = {result['unaccounted_s']:.3g} s")
        for error in result["errors"]:
            print(f"{name} error: {error}")
        sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
