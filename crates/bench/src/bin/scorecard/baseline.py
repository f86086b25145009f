#!/usr/bin/env python3
"""Re-measure BASELINE.json, the benchmark's noise floor.

    python3 baseline.py path/to/release/scorecard

Runs what the benchmark driver's acceptance procedure runs: per workload two
sets of ten end-to-end runs, each run with another seed, and for every metric
the spread of each set (IQR / median) and the shift between the sets' medians,
against the bound in BENCHMARK.json; plus one per-layer run per workload.
Takes about 40 minutes; run nothing else on the box meanwhile.
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[4] / "BENCHMARK.json").read_text())
SETS = [list(range(1000, 1010)), list(range(2000, 2010))]


def run(exe, workload, seed, trace):
    p = subprocess.run(
        [exe, "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True)
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if p.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{p.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q[2] - q[0]) / median if median else 0.0


def main(exe):
    doc = {"note": "noise floor at the parent commit; see README.md",
           "run_seconds": BENCH["run_seconds"], "seeds": SETS, "workloads": {}}
    began = time.time()
    for workload in (w["name"] for w in BENCH["workloads"]):
        sets = []
        for seeds in SETS:
            runs = [run(exe, workload, seed, 0) for seed in seeds]
            sets.append({k: [r[k] for r in runs] for k in runs[0]})
        end_to_end = {}
        for m in BENCH["end_to_end"]:
            a, b = sets[0][m["name"]], sets[1][m["name"]]
            shift = (statistics.median(b) - statistics.median(a)) / statistics.median(a)
            worse = shift if m["better"] == "lower" else -shift
            end_to_end[m["name"]] = {
                "min": min(a + b), "median": statistics.median(a + b), "max": max(a + b),
                "spread_set1": round(spread(a), 4), "spread_set2": round(spread(b), 4),
                "set2_median_worse_by": round(worse, 4), "bound": m["bound"]}
            widest = max(spread(a), spread(b))
            flag = ("" if widest <= m["bound"] / 3 or m["name"] == "setup_s"
                    else "  > bound/3" if widest <= m["bound"] else "  > BOUND")
            print(f"{workload:15s} {m['name']:26s} median {end_to_end[m['name']]['median']:12.6g}"
                  f" spreads {spread(a):.4f} {spread(b):.4f} shift {worse:+.4f}"
                  f" bound {m['bound']}{flag}", file=sys.stderr, flush=True)
        doc["workloads"][workload] = {
            "end_to_end": end_to_end,
            f"per_layer_seed_{SETS[0][0]}": run(exe, workload, SETS[0][0], 1)}
        print(f"-- {workload} done at {time.time() - began:.0f} s", file=sys.stderr, flush=True)
    (HERE / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
