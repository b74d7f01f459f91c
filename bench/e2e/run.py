#!/usr/bin/env python3
"""Build camp_bench from this checkout and run it, or compare two run sets.

Run one workload (the command line BENCHMARK.json names):

    python3 bench/e2e/run.py --workload serve-small --seed 1 --seconds 20 --trace 0

The first call configures and builds into .bench_build/ at the root of the
checkout; later calls rebuild only what changed. Every argument goes to
camp_bench, whose last line of output is the result JSON.

Compare two sets of runs, each the camp_bench.jsonl that `--out <dir>` fills:

    python3 bench/e2e/run.py --compare A/camp_bench.jsonl B/camp_bench.jsonl

For each (workload, metric) it prints each side's median and quartiles and,
for the end-to-end metrics, a verdict against the bounds in BENCHMARK.json:
pass, regressed, or unresolved when a side's spread is wider than the bound.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bench", "camp_bench")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def build():
    """Configure and bring camp_bench up to date (output on stderr)."""
    subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "camp_bench"],
                   stdout=sys.stderr, check=True)


def load_runs(path):
    """{(workload, metric): [value per run]} from a camp_bench.jsonl."""
    values = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, metric in run["metrics"].items():
                values.setdefault((run["workload"], name), []).append(
                    metric["value"])
    return values


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(q):
    return (q[2] - q[0]) / abs(q[1]) if q[1] else 0.0


def verdict(metric, a, b, qa, qb):
    """pass / regressed / unresolved for a bounded end-to-end metric."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    worse = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
    if not lower:
        worse = -worse
    b_always_better = max(b) < min(a) if lower else min(b) > max(a)
    if max(spread(qa), spread(qb)) > bound and not b_always_better:
        return "unresolved"
    return "regressed" if worse > bound else "pass"


def compare(a_path, b_path):
    with open(SPEC) as f:
        spec = json.load(f)
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    sides = load_runs(a_path), load_runs(b_path)
    regressed = False
    print(f"A = {a_path}\nB = {b_path}")
    header = (f"{'workload':<12} {'metric':<34} {'A median [q1, q3] n':>34} "
              f"{'B median [q1, q3] n':>34} {'change':>8} {'bound':>6}  "
              "verdict")
    print(header)
    for key in sorted(set(sides[0]) | set(sides[1])):
        a, b = sides[0].get(key), sides[1].get(key)
        workload, name = key
        if not a or not b:
            print(f"{workload:<12} {name:<34} missing on side "
                  f"{'A' if not a else 'B'}")
            continue
        qa, qb = quartiles(a), quartiles(b)
        change = (qb[1] - qa[1]) / abs(qa[1]) * 100 if qa[1] else 0.0
        cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {len(v)}"
                 for q, v in ((qa, a), (qb, b))]
        if name in bounded:
            result = verdict(bounded[name], a, b, qa, qb)
            bound = f"{bounded[name]['bound'] * 100:.0f}%"
            regressed = regressed or result == "regressed"
        else:
            result, bound = "-", "-"
        print(f"{workload:<12} {name:<34} {cells[0]:>34} {cells[1]:>34} "
              f"{change:>7.2f}% {bound:>6}  {result}")
    return 1 if regressed else 0


def main(argv):
    if argv and argv[0] == "--compare":
        if len(argv) != 3:
            print("usage: run.py --compare A.jsonl B.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: building camp_bench failed: {e}", file=sys.stderr)
        return 1
    return subprocess.run([BINARY] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
