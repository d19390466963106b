"""Steadiness report: run the benchmark several times per workload, each
time with another seed, and print for every end-to-end metric the median
and quartiles of its values and their spread, (Q3 - Q1) / median.

    python3 perfbench/steady.py --runs 10 --save set1.json
    python3 perfbench/steady.py --compare set1.json set2.json

A spread above the metric's bound in BENCHMARK.json is flagged OVER, one
above a third of it is flagged high. The spread of setup_s is shown but
flagged "exempt": set-up is held only to the change of its median between
two sets. ``--compare`` takes two saved sets of the same code and flags
every metric whose median got worse from the first to the second by
more than its bound. Runs are sequential.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    print(f"{workload} seed {seed}: run took "
          f"{time.perf_counter() - start:.1f} s", file=sys.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n"
                           + done.stderr[-2000:])
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(done.stderr, file=sys.stderr)
    return result


def quartiles(runs, name):
    values = [r["metrics"][name]["value"] for r in runs]
    return statistics.quantiles(values, n=4)


def report(spec, results):
    print(f"{'workload':13} {'metric':14} {'unit':7} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for workload, runs in results.items():
        for m in spec["end_to_end"]:
            q1, med, q3 = quartiles(runs, m["name"])
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if m["name"] == "setup_s":
                flag = "exempt"
            elif spread > m["bound"]:
                flag = "OVER"
            elif spread > m["bound"] / 3:
                flag = "high"
            print(f"{workload:13} {m['name']:14} {m['unit']:7} {med:11.5g} "
                  f"{q1:11.5g} {q3:11.5g} {spread:7.3f} {m['bound']:6.2f} "
                  f"{flag}")
        bad = [r for r in runs if not r["correct"]]
        if bad:
            print(f"{workload}: {len(bad)} of {len(runs)} runs not correct")


def compare(spec, first, second):
    """Change of each median from the first set to the second, as a share
    of the first, signed so that positive is worse."""
    print(f"{'workload':13} {'metric':14} {'median 1':>11} {'median 2':>11} "
          f"{'worse by':>8} {'bound':>6}")
    for workload in first:
        if workload not in second:
            continue
        for m in spec["end_to_end"]:
            a = quartiles(first[workload], m["name"])[1]
            b = quartiles(second[workload], m["name"])[1]
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (b - a) / a if a else float("inf")
            flag = "OVER" if worse > m["bound"] else ""
            print(f"{workload:13} {m['name']:14} {a:11.5g} {b:11.5g} "
                  f"{worse:8.3f} {m['bound']:6.2f} {flag}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--save", help="write every run's result here")
    parser.add_argument("--compare", nargs=2, metavar="SET",
                        help="compare two sets written by --save")
    args = parser.parse_args()

    if args.compare:
        first, second = (json.loads(Path(p).read_text())
                         for p in args.compare)
        compare(spec, first, second)
        return

    results = {}
    for workload in args.workloads:
        results[workload] = []
        for k in range(args.runs):
            result = run_once(spec, workload, args.first_seed + k)
            results[workload].append(result)
            print(f"{workload} seed {args.first_seed + k}: correct="
                  f"{result['correct']} " + " ".join(
                      f"{n}={m['value']:.4g}"
                      for n, m in result["metrics"].items()),
                  file=sys.stderr, flush=True)
    if args.save:
        Path(args.save).write_text(json.dumps(results, indent=1) + "\n")
    report(spec, results)


if __name__ == "__main__":
    main()
