#!/usr/bin/env python3
"""Steadiness runner: repeat the benchmark and check its spread.

    python3 perfbench/steady.py run [--workload W ...] [--runs N]
                                    [--first-seed S] [--seconds T]
                                    [--trace 0|1] [--out set.json]
    python3 perfbench/steady.py compare first.json second.json

`run` runs each workload N times, each with its own seed (S, S+1, ...),
through perfbench/run.py, and prints every metric's median, quartiles
and spread (q3 - q1) / median. Against BENCHMARK.json it marks a spread
above the metric's bound (FAIL; setup_s is exempt) and above a third of
it (WARN). `compare` takes two saved sets and reports, per workload and
metric, how far the second median is worse than the first, failing when
that exceeds the bound. Run from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds(trace):
    s = spec()
    out = {}
    for m in s["per_layer" if trace == "1" else "end_to_end"]:
        out[m["name"]] = (m["better"], m.get("bound"))
    return out


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", trace]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (p.returncode, " ".join(cmd)))
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit("incorrect result: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in res["metrics"].items()}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def cmd_run(args):
    workloads = args.workload or [w["name"] for w in spec()["workloads"]]
    bnd = bounds(args.trace)
    result = {"trace": args.trace, "workloads": {}}
    bad = False
    for w in workloads:
        runs = [one_run(w, args.first_seed + i, args.seconds, args.trace)
                for i in range(args.runs)]
        per = {m: [r[m] for r in runs] for m in runs[0]}
        result["workloads"][w] = per
        print("%s (%d runs)" % (w, args.runs))
        print("  %-28s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for m, vals in per.items():
            med, q1, q3, spread = summary(vals)
            bound = bnd.get(m, (None, None))[1]
            flag = ""
            if bound is not None and m != "setup_s":
                if spread > bound:
                    flag, bad = "FAIL", True
                elif spread > bound / 3:
                    flag = "WARN"
            print("  %-28s %14.6g %14.6g %14.6g %8.4f %6s %s" %
                  (m, med, q1, q3, spread,
                   "-" if bound is None else "%.3g" % bound, flag))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    return 1 if bad else 0


def cmd_compare(args):
    with open(args.first) as f:
        a = json.load(f)
    with open(args.second) as f:
        b = json.load(f)
    bnd = bounds(a["trace"])
    bad = False
    for w, per in a["workloads"].items():
        if w not in b["workloads"]:
            continue
        print(w)
        for m, vals in per.items():
            better, bound = bnd.get(m, ("lower", None))
            m1 = statistics.median(vals)
            m2 = statistics.median(b["workloads"][w][m])
            worse = (m2 - m1) if better == "lower" else (m1 - m2)
            rel = worse / abs(m1) if m1 else (0.0 if worse <= 0 else float("inf"))
            flag = ""
            if bound is not None and rel > bound:
                flag, bad = "FAIL", True
            print("  %-28s %14.6g %14.6g %+9.4f %s" % (m, m1, m2, rel, flag))
    return 1 if bad else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", action="append")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int, default=spec()["run_seconds"])
    r.add_argument("--trace", choices=["0", "1"], default="0")
    r.add_argument("--out")
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    args = ap.parse_args()
    sys.exit(cmd_run(args) if args.cmd == "run" else cmd_compare(args))


if __name__ == "__main__":
    main()
