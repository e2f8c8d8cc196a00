"""One benchmark repetition: a fresh single-threaded process running one workload.

Usage (started by run.py):
    python3 bench/child.py --workload NAME --seed N --trace 0|1

The process imports the package from the checkout's src/, prepares the
inputs, runs the timed job once between two runs of the machine-speed
calibration task (workloads.calibrate), reads its own peak RSS, and only
then checks the answers.  With --trace 1 it first patches the package's
public functions to record spans (see spans.py), and after the job it reports the
per-layer figures and writes the spans under .bench_build/traces/.  The
last line of stdout is a JSON report.  Its `ready` is the time.monotonic()
reading once the inputs are prepared, just before the calibration and the
first timed call; the parent subtracts its launch time to get the set-up
time.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# (module, attribute, span name): the layers' public functions.  Laurent
# operators are patched on the class; everything else in every module that
# imported it by name.
TARGETS = (
    ("partitions", "partitions_of", "partitions.partitions_of"),
    ("partitions", "z_order", "partitions.z_order"),
    ("characters", "character", "characters.character"),
    ("characters", "char_table", "characters.char_table"),
    ("kronecker", "kronecker_coefficient", "kronecker.kronecker_coefficient"),
    ("kronecker", "inner_product_expansion", "kronecker.inner_product_expansion"),
    ("kronecker", "pair_weight", "kronecker.pair_weight"),
    ("census", "invariant_count", "census.invariant_count"),
    ("census", "generating_series", "census.generating_series"),
    ("laurent", "LaurentPoly.__mul__", "laurent.mul"),
    ("laurent", "LaurentPoly.__add__", "laurent.add"),
    ("laurent", "LaurentPoly.constant_term_of_product", "laurent.constant_term_of_product"),
    ("molien", "power_sum", "molien.power_sum"),
    ("molien", "complete_homogeneous", "molien.complete_homogeneous"),
    ("molien", "haar_constant_term", "molien.haar_constant_term"),
    ("molien", "molien_coefficient", "molien.molien_coefficient"),
    ("molien", "molien_series", "molien.molien_series"),
    ("factorizer", "search_candidates", "factorizer.search_candidates"),
    ("factorizer", "fit_denominator", "factorizer.fit_denominator"),
    ("factorizer", "numerator_for_denominator", "factorizer.numerator_for_denominator"),
    ("factorizer", "expand", "factorizer.expand"),
    ("factorizer", "compare", "factorizer.compare"),
    ("series", "read_series_file", "series.read_series_file"),
    ("cli", "main", "cli.main"),
)
LAYERS = ("partitions", "characters", "kronecker", "census", "laurent", "molien",
          "factorizer", "series", "cli")
# (layer, module, memo attribute) for the memos whose size is reported.
MEMOS = (("characters", "characters", "_character"), ("kronecker", "kronecker", "_kron"))


def _terms(poly) -> int:
    return len(getattr(poly, "terms", ()))


def _observers(counters: dict) -> dict:
    """Per-span hooks that count work in arguments and results."""
    counters.update({"term_pairs": 0, "max_terms_out": 0, "h_terms_max": 0})

    def mul(args, result):
        counters["term_pairs"] += _terms(args[0]) * _terms(args[1])
        counters["max_terms_out"] = max(counters["max_terms_out"], _terms(result))

    def complete_homogeneous(args, result):
        counters["h_terms_max"] = max(counters["h_terms_max"], _terms(result))

    return {"laurent.mul": mul, "molien.complete_homogeneous": complete_homogeneous}


def memo_stats() -> dict:
    """Entries and hit ratio of each memo that still exists; absent ones are left out."""
    out = {}
    for layer, module, attr in MEMOS:
        info = getattr(getattr(sys.modules.get(f"invcensus.{module}"), attr, None),
                       "cache_info", None)
        if info is None:
            continue
        stats = info()
        lookups = stats.hits + stats.misses
        out[f"{layer}.memo_entries"] = stats.currsize
        out[f"{layer}.memo_hit_ratio"] = stats.hits / lookups if lookups else 0.0
    return out


def layer_metrics(summary: dict, counters: dict, wall: float, spans: int) -> dict:
    """The per-layer metrics of one traced job, named as in BENCHMARK.json."""
    by_name, calls_from = summary["by_name"], summary["calls_from"]

    def own(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    enumerated = calls_from.get(
        ("factorizer.numerator_for_denominator", "factorizer.search_candidates"), 0)
    survivors = calls_from.get(("factorizer.fit_denominator", "factorizer.search_candidates"), 0)
    metrics = {f"{layer}.self_s": summary["layers"].get(layer, 0.0) for layer in LAYERS}
    metrics.update({
        "partitions.z_order.calls": calls("partitions.z_order"),
        "partitions.z_order.self_s": own("partitions.z_order"),
        "partitions.partitions_of.calls": calls("partitions.partitions_of"),
        "characters.character.self_s": own("characters.character"),
        "characters.char_table.self_s": own("characters.char_table"),
        "kronecker.pair_weight.calls": calls("kronecker.pair_weight"),
        "kronecker.pair_weight.self_s": own("kronecker.pair_weight"),
        "kronecker.kronecker_coefficient.self_s": own("kronecker.kronecker_coefficient"),
        "kronecker.inner_product_expansion.self_s": own("kronecker.inner_product_expansion"),
        "census.invariant_count.self_s": own("census.invariant_count"),
        "census.invariant_count.max_s": by_name.get("census.invariant_count", {}).get("max_s", 0.0),
        "laurent.mul.calls": calls("laurent.mul"),
        "laurent.mul.self_s": own("laurent.mul"),
        "laurent.mul.term_pairs": counters["term_pairs"],
        "laurent.mul.max_terms_out": counters["max_terms_out"],
        "laurent.add.self_s": own("laurent.add"),
        "laurent.constant_term_of_product.self_s": own("laurent.constant_term_of_product"),
        "molien.complete_homogeneous.self_s": own("molien.complete_homogeneous"),
        "molien.power_sum.self_s": own("molien.power_sum"),
        "molien.haar_constant_term.self_s": own("molien.haar_constant_term"),
        "molien.h_terms_max": counters["h_terms_max"],
        "factorizer.numerator_for_denominator.calls": enumerated,
        "factorizer.fit_denominator.calls": survivors,
        "factorizer.survivor_ratio": survivors / enumerated if enumerated else 0.0,
        "factorizer.numerator_for_denominator.self_s": own("factorizer.numerator_for_denominator"),
        "factorizer.fit_denominator.self_s": own("factorizer.fit_denominator"),
        "factorizer.expand.self_s": own("factorizer.expand"),
        "factorizer.compare.self_s": own("factorizer.compare"),
        "factorizer.search_candidates.self_s": own("factorizer.search_candidates"),
        "series.read_series_file.self_s": own("series.read_series_file"),
        "cli.main.self_s": own("cli.main"),
        "trace.wall_s": wall,
        "trace.unspanned_s": summary["unspanned_s"],
        "trace.spans": spans,
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import invcensus
    import invcensus.cli  # noqa: F401  (the CLI workloads call it; the trace patches it)

    if Path(invcensus.__file__).resolve().parent != SRC / "invcensus":
        print(f"imported invcensus from {invcensus.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from spans import Recorder, patch, summarize
    from workloads import WORKLOADS, calibrate

    workload = WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    recorder, counters = None, {}
    if args.trace:
        recorder = Recorder()
        observers = _observers(counters)
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "invcensus"]
        targets = [
            (sys.modules[f"invcensus.{module}"], attr, name, observers.get(name))
            for module, attr, name in TARGETS
        ]
        patch(recorder, targets, modules)

    ready = time.monotonic()
    calibration = calibrate()
    start = time.perf_counter()
    outcomes = workload.run(inputs)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calibration = (calibration + calibrate()) / 2

    report = {
        "ready": ready,
        "wall_s": wall,
        "calibration_s": calibration,
        "peak_rss_mb": peak_rss_mb,
        "latencies_s": [latency for latency, _ in outcomes],
        "layers": memo_stats(),
    }
    if recorder is not None:
        summary = summarize(recorder, wall)
        report["layers"].update(layer_metrics(summary, counters, wall, len(recorder.start)))
        report["accounted_s"] = sum(summary["layers"].values()) + summary["unspanned_s"]
        recorder.write(ROOT / ".bench_build" / "traces" / args.workload)
    failures = workload.check(inputs, outcomes)
    report["attempted"] = len(outcomes)
    report["failed"] = min(len(failures), len(outcomes))
    report["errors"] = failures[:5]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
