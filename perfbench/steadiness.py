#!/usr/bin/env python3
"""Repeats the benchmark over several seeds and reports, per workload and
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles as a share of the median. With more than one set,
it then reports how far each later set's median moved from the first
set's, in the metric's worse direction, as a share of the first.

Run from the repository root:

    python3 perfbench/steadiness.py --workloads solve answer serve \
        --seeds 1 2 3 4 5 6 7 8 9 10 --sets 2

Each run is the `BENCHMARK.json` command with `--trace 0` and that
file's `run_seconds`. The sets run one after the other, each over every
workload. A run that exits non-zero or reports `correct: false` stops
the script.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    cmd = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stdout}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{out.stdout}")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+", default=["solve", "answer", "serve"])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--sets", type=int, default=1)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    declared = {m["name"]: m for m in bench["end_to_end"]}

    # medians[workload][metric] is one median per set
    medians = {w: {} for w in args.workloads}
    for k in range(args.sets):
        for workload in args.workloads:
            runs = []
            for s in args.seeds:
                runs.append(run(bench["command"], workload, s, bench["run_seconds"]))
                print(f"# set {k + 1} {workload} seed {s} done", file=sys.stderr, flush=True)
            print(f"set {k + 1}: {workload} ({len(runs)} seeds)")
            for name, metric in declared.items():
                values = [r[name]["value"] for r in runs]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med if med else float("inf")
                bound = metric["bound"]
                verdict = ("ok" if spread < bound / 3
                           else "within bound" if spread < bound else "TOO WIDE")
                print(f"  {name:<12} median {med:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}"
                      f"  spread {spread:6.3f}  bound {bound}  {verdict}")
                medians[workload].setdefault(name, []).append(med)
            sys.stdout.flush()

    if args.sets > 1:
        print("drift of each set's median from set 1 (positive = worse)")
        for workload in args.workloads:
            for name, metric in declared.items():
                first, *later = medians[workload][name]
                sign = 1 if metric["better"] == "lower" else -1
                drifts = [sign * (m - first) / first for m in later]
                verdict = "ok" if all(d <= metric["bound"] for d in drifts) else "TOO FAR"
                print(f"  {workload:<8} {name:<12} "
                      + " ".join(f"{d:+7.3f}" for d in drifts)
                      + f"  bound {metric['bound']}  {verdict}")


if __name__ == "__main__":
    main()
