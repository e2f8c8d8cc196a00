"""Repeat the benchmark over several seeds and report each metric's median and spread.

Usage, from the repository root:
    python3 bench/spread.py [--workloads A,B] [--seeds N] [--traced] [--out FILE]

Runs `bench/run.py` once per (seed, workload) with the run length from
BENCHMARK.json, seeds 1..N, cycling through the workloads inside each seed.
For every end-to-end metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.
With --traced it also makes one traced run per workload on seed 1.  With
--out it writes all of this, and the environment, as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}")
    env = json.loads(lines[0].removeprefix("env "))
    return env, json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {w: {m: [] for m in bounds} for w in workloads}
    env = None
    for seed in range(1, args.seeds + 1):
        for workload in workloads:
            env, result = run_once(workload, seed, spec["run_seconds"], 0)
            line = []
            for metric in bounds:
                value = result["metrics"][metric]["value"]
                values[workload][metric].append(value)
                line.append(f"{metric}={value:.6g}")
            print(f"seed {seed} {workload} " + " ".join(line), flush=True)

    summary = {}
    print(f"\n{'workload':12} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}")
    for workload in workloads:
        summary[workload] = {}
        for metric, bound in bounds.items():
            vals = values[workload][metric]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            summary[workload][metric] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
            print(f"{workload:12} {metric:14} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.4f} {bound:6.3f}")

    traced = {}
    if args.traced:
        for workload in workloads:
            _, result = run_once(workload, 1, spec["run_seconds"], 1)
            traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    if args.out:
        doc = {"environment": env, "seeds": list(range(1, args.seeds + 1)),
               "run_seconds": spec["run_seconds"], "end_to_end": summary}
        if traced:
            doc["per_layer_seed_1"] = traced
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
