#!/usr/bin/env python3
"""A/A steadiness report for the LEAPS benchmark.

    python3 leapsbench/aa_report.py [--workloads a,b] [--runs N]
                                    [--seconds S] [--traced]

Runs every workload in two interleaved sets of N runs each (A1 B1 A2 B2
..., every run with its own seed, as a regression check would) through
leapsbench/run.py, then prints, per (metric, workload):

  * each set's median and its spread: the distance between the first and
    third quartile (statistics.quantiles(values, n=4)) as a share of the
    median;
  * the gap between the two sets' medians, as a share of set A's, against
    the metric's bound in BENCHMARK.json.

A pair is "ok" when both spreads and the gap stay within the bound,
"tight" when they exceed a third of it. setup_s is judged on the gap alone:
its bound guards against work moved into set-up, which shows in the median
of a set, so its spread within a set is not checked (leapsbench/README.md). With --traced it also
makes one traced run per set and seed and prints the tracing overhead:
the traced runs' traced.* medians against the untraced medians, and the
spread of the unbounded verdict latencies. Exit status 1 when any pair
fails.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (%d): %s" % (done.returncode,
                                                 " ".join(cmd)))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(workloads))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    failed = False
    for workload in args.workloads.split(","):
        sets = {"A": [], "B": []}
        traced = {"A": [], "B": []}
        seed = 1
        for _ in range(args.runs):
            for name in ("A", "B"):
                sets[name].append(run_once(workload, seed, args.seconds, 0))
                if args.traced:
                    traced[name].append(
                        run_once(workload, seed, args.seconds, 1))
                seed += 1
        print("== %s: %d runs per set, %d s each" % (workload, args.runs,
                                                     args.seconds))
        print("%-18s %12s %7s %12s %7s %8s %6s  %s" % (
            "metric", "median A", "IQR A", "median B", "IQR B", "gap",
            "bound", "verdict"))
        for metric, bound in bounds.items():
            a = [r[metric] for r in sets["A"]]
            b = [r[metric] for r in sets["B"]]
            ma, mb = statistics.median(a), statistics.median(b)
            sa, sb = spread(a), spread(b)
            gap = abs(mb - ma) / ma if ma else float("inf")
            worst = max(gap, 0 if metric == "setup_s" else max(sa, sb))
            verdict = ("FAIL" if worst > bound else
                       "tight" if worst > bound / 3 else "ok")
            failed |= verdict == "FAIL"
            print("%-18s %12.6g %6.1f%% %12.6g %6.1f%% %7.1f%% %5.0f%%  %s"
                  % (metric, ma, 100 * sa, mb, 100 * sb, 100 * gap,
                     100 * bound, verdict))
        if args.traced:
            # Verdict latency carries no bound (README.md); its spread is
            # printed to show why.
            for metric in ("serve.verdict_p50_ms", "serve.verdict_p99_ms"):
                for name in ("A", "B"):
                    v = [r[metric] for r in traced[name]]
                    print("unbounded %-22s set %s median %.6g spread %.1f%%"
                          % (metric, name, statistics.median(v),
                             100 * spread(v)))
            for metric in ("setup_s", "train_s", "cpu_ns_per_event"):
                untraced = statistics.median(
                    [r[metric] for s in sets.values() for r in s])
                with_tracing = statistics.median(
                    [r["traced." + metric] for s in traced.values()
                     for r in s])
                print("tracing overhead %-18s %+.1f%% (%.6g traced vs %.6g)"
                      % (metric, 100 * (with_tracing / untraced - 1),
                         with_tracing, untraced))
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
