#!/usr/bin/env python3
"""Apply BENCHMARK.json's own bounds to two sets of runs.

    perfbench/compare.py <a.jsonl> <b.jsonl>

Each line of a set is {"workload": ..., "seed": ..., "result": <the
benchmark's result line>}, as perfbench/run.sh writes them. Per workload
x end-to-end metric this prints both medians, the quartiles, each set's
spread (inter-quartile distance as a share of the median, by
statistics.quantiles(values, n=4)), the ratio b/a with its base, and a
verdict:

  pass        b's median is no worse than a's by more than the bound and
              both spreads are inside the bound
  unresolved  a spread is wider than the bound, so the sets cannot tell
              (unless every run of b reads better than every run of a)
  regressed   b's median is worse than a's by more than the bound

With one file it prints that set's medians and spreads only. Exit code 1
if any row is not "pass" or any run was incorrect or had failures.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def load(path):
    runs = defaultdict(lambda: defaultdict(list))
    bad = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        row = json.loads(line)
        result = row["result"]
        if not result.get("correct") or result.get("failed", 1) != 0:
            bad += 1
        for name, metric in result.get("metrics", {}).items():
            runs[row["workload"]][name].append(metric["value"])
    return runs, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, _, q3 = quartiles(values)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    a, bad = load(argv[1])
    b, bad_b = load(argv[2]) if len(argv) == 3 else (None, 0)
    bad += bad_b
    worst = 0
    head = f"{'workload':<12} {'metric':<12} {'bound':>5}  {'median a':>12} {'q1..q3 a':>25} {'spread a':>8}"
    if b:
        head += f"  {'median b':>12} {'spread b':>8} {'b/a':>7}  verdict"
    print(head)
    for workload in [w["name"] for w in bench["workloads"]]:
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            va = a.get(workload, {}).get(name)
            if not va:
                continue
            q1, _, q3 = quartiles(va)
            med_a, sp_a = statistics.median(va), spread(va)
            row = f"{workload:<12} {name:<12} {bound:>5.2f}  {med_a:>12.4f} {q1:>12.4f}..{q3:<11.4f} {sp_a:>8.4f}"
            if not b:
                flag = "" if name == "setup_s" or sp_a <= bound / 3 else ("  > bound/3" if sp_a <= bound else "  > BOUND")
                print(row + flag)
                continue
            vb = b[workload][name]
            med_b, sp_b = statistics.median(vb), spread(vb)
            ratio = med_b / med_a if med_a else float("inf")
            worse = ratio - 1 if lower else 1 - ratio
            all_better = (max(vb) < min(va)) if lower else (min(vb) > max(va))
            if worse > bound:
                verdict = "regressed"
            elif name != "setup_s" and max(sp_a, sp_b) > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "pass"
            worst |= verdict != "pass"
            print(row + f"  {med_b:>12.4f} {sp_b:>8.4f} {ratio:>7.4f}  {verdict} (b/a, base a = {med_a:.4f})")
    if bad:
        print(f"{bad} run(s) were incorrect or had failures")
    return 1 if worst or bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
