#!/usr/bin/env python3
"""Run the benchmark the way the driver does and print each end-to-end
metric's spread: per workload, two sets of runs (another --seed each run),
the interquartile range over the median within each set, and the gap
between the two sets' medians. Bounds in src/report.rs come from this.

usage: calibrate.py BINARY [RUNS_PER_SET] [WORKLOAD ...]
"""
import json
import pathlib
import statistics
import subprocess
import sys
import time

MANIFEST = json.loads((pathlib.Path(__file__).parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]
HIGHER_IS_BETTER = {m["name"] for m in MANIFEST["end_to_end"] if m["better"] == "higher"}
SECONDS = str(MANIFEST["run_seconds"])


def run(binary, workload, seed):
    done = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", SECONDS, "--trace", "0"],
        capture_output=True, text=True,
    )
    out = done.stdout
    print(out, file=sys.stderr)
    assert done.returncode == 0, out + done.stderr
    result = json.loads(out.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    binary = sys.argv[1]
    runs = int(sys.argv[2]) if len(sys.argv) > 2 else 10
    workloads = sys.argv[3:] or WORKLOADS
    print("| workload | metric | median A | median B | IQR/median A | IQR/median B | B worse by |")
    print("|---|---|---|---|---|---|---|")
    for w in workloads:
        sets = []
        for s in range(2):
            t0 = time.time()
            sets.append([run(binary, w, seed) for seed in range(1, runs + 1)])
            print(f"# {w} set {s}: {time.time() - t0:.0f} s", file=sys.stderr)
        for m in sets[0][0]:
            a, b = ([r[m] for r in rs] for rs in sets)
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (ma - mb) / ma if m in HIGHER_IS_BETTER else (mb - ma) / ma
            print(f"| {w} | {m} | {ma:.6g} | {mb:.6g} | {spread(a):.4f} | {spread(b):.4f} | {worse:+.4f} |", flush=True)


if __name__ == "__main__":
    main()
