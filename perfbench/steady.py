#!/usr/bin/env python3
"""Steadiness check: runs every workload repeatedly and prints the spread.

    python3 perfbench/steady.py [--runs 10] [--sets 1] [--workloads a,b]
                                [--seconds S]

Each repetition runs every workload once, with a fresh seed, alternating
the workload order between repetitions so that no workload always runs
first after an idle machine. For each end-to-end metric it prints the
median, the first and third quartile (Python's statistics.quantiles, n=4),
the interquartile spread as a share of the median, and that spread beside
the metric's bound in BENCHMARK.json. With --sets 2 it repeats the whole
thing and also prints how far the second median moved from the first, in
the metric's worse direction. The share of failed operations is printed
per set. Exit code 1 when any run fails or any spread is over its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print("  %s seed %d: exit %d\n    %s" % (workload, seed, proc.returncode,
              "\n    ".join(proc.stderr.strip().splitlines()[-10:])), flush=True)
        return None
    return json.loads(lines[-1])


failed_runs = []


def one_set(workloads, runs, seconds, first_seed):
    """Returns {workload: [result, ...]}; runs that fail go to failed_runs."""
    results = {w: [] for w in workloads}
    for rep in range(runs):
        order = workloads if rep % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = first_seed + rep
            res = run_once(w, seed, seconds)
            if res is None:
                failed_runs.append((w, seed))
                continue
            results[w].append(res)
            print("  run %2d %-11s seed %-5d attempted %-8d failed %d" %
                  (rep + 1, w, seed, res["attempted"], res["failed"]), flush=True)
    return results


def summarize(results, metrics):
    """Per workload and metric: (median, q1, q3, spread)."""
    out = {}
    for w, rs in results.items():
        out[w] = {}
        for name in metrics:
            vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
            if len(vals) < 2:
                continue
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            out[w][name] = (q2, q1, q3, (q3 - q1) / q2 if q2 else 0.0)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    ok = True
    summaries = []
    for s in range(args.sets):
        print("set %d: %d runs per workload, %.0f s each" % (s + 1, args.runs, args.seconds))
        results = one_set(workloads, args.runs, args.seconds, 1 + 1000 * s)
        summary = summarize(results, bounds)
        summaries.append(summary)
        for w in workloads:
            att = sum(r["attempted"] for r in results[w])
            fail = sum(r["failed"] for r in results[w])
            bad = sum(1 for r in results[w] if not r["correct"])
            print("%s: failed share %d/%d, incorrect runs %d" % (w, fail, att, bad))
            ok = ok and bad == 0
            print("  %-30s %14s %14s %14s %8s %6s" % ("metric", "median", "q1", "q3",
                                                       "spread", "bound"))
            for name, (med, q1, q3, spread) in summary[w].items():
                bound = bounds[name]
                flag = ""
                if spread > bound:
                    flag = "  OVER"
                    ok = False
                print("  %-30s %14.6g %14.6g %14.6g %8.4f %6s%s" %
                      (name, med, q1, q3, spread, bound, flag))
    if len(summaries) >= 2:
        print("median shift, set 2 vs set 1 (positive = worse)")
        for w in workloads:
            for name, (m2, _, _, _) in summaries[1][w].items():
                m1 = summaries[0][w][name][0]
                shift = 0.0 if m1 == 0 else (m2 - m1) / m1
                if better[name] == "higher":
                    shift = -shift
                flag = "  OVER" if shift > bounds[name] else ""
                ok = ok and not flag
                print("  %-11s %-30s %+8.4f%s" % (w, name, shift, flag))
    for w, seed in failed_runs:
        print("FAILED RUN: %s seed %d" % (w, seed))
    return 0 if ok and not failed_runs else 1


if __name__ == "__main__":
    sys.exit(main())
