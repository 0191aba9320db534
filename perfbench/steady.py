#!/usr/bin/env python3
"""Steadiness check for the trel benchmark.

Runs, for each workload in BENCHMARK.json, --sets sets of --runs runs of
run_seconds each (each run with its own seed: set s, run r has seed
SEED_BASE + 1000 * s + r), one run at a time, and prints per set each
end-to-end metric's median and quartiles and its spread: (Q3 - Q1) / median,
with quartiles as statistics.quantiles(values, n=4) gives them.  It then
says whether the sets agree within the bounds in BENCHMARK.json:

  * every spread is within its metric's bound;
  * no set's median differs from the first set's, in either direction, by
    more than the bound;
  * the share of failed operations is the same in every set.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--sets 2] [--workloads a,b]

The full record (each run's metrics, the CPU model and nproc) is written to
.perfbench_out/steady-<time>.json.  Exit status is 0 when every workload
agrees.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED_BASE = 5000


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return {"workload": workload, "seed": seed, "exit": proc.returncode,
            "wall_s": round(time.time() - start, 3), "result": result,
            "stderr_tail": proc.stderr.strip().splitlines()[-5:]}


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": statistics.median(values), "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    metrics = bench["end_to_end"]
    record = {"cpu": cpu_model(), "nproc": len(os.sched_getaffinity(0)),
              "seconds": seconds, "runs": []}
    print("cpu %s, nproc %d, %d set(s) of %d run(s), %d s each" % (
        record["cpu"], record["nproc"], args.sets, args.runs, seconds))
    all_agree = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for r in range(args.runs):
                seed = SEED_BASE + 1000 * s + r
                one = run_once(workload, seed, seconds)
                record["runs"].append(dict(one, set=s))
                runs.append(one)
            sets.append(runs)
        agree = True
        failed_shares = set()
        print("\n== %s" % workload)
        summaries = []
        for s, runs in enumerate(sets):
            good = [r["result"] for r in runs if r["result"] is not None]
            if len(good) != len(runs) or any(not g["correct"] for g in good):
                print("  set %d: %d of %d runs gave no correct result" % (
                    s, len(runs) - sum(1 for g in good if g["correct"]),
                    len(runs)))
                for r in runs:
                    if r["result"] is None:
                        print("    seed %d exit %d: %s" % (
                            r["seed"], r["exit"], " | ".join(r["stderr_tail"])))
                agree = False
                summaries.append(None)
                continue
            for g in good:
                failed_shares.add(g["failed"] / g["attempted"])
            summaries.append({m["name"]: summarize(
                [g["metrics"][m["name"]]["value"] for g in good])
                for m in metrics})
        if len(failed_shares) > 1:
            print("  failed shares differ between runs: %s" % sorted(failed_shares))
            agree = False
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cells = []
            for s, summ in enumerate(summaries):
                if summ is None:
                    cells.append("set %d: -" % s)
                    continue
                x = summ[name]
                ok = x["spread"] <= bound
                base = summaries[0][name]["median"] if summaries[0] else None
                if base is not None:
                    ok = ok and abs(x["median"] - base) / base <= bound
                agree = agree and ok
                cells.append("set %d: %.5g [%.5g, %.5g] spread %.3f%s" % (
                    s, x["median"], x["q1"], x["q3"], x["spread"],
                    "" if ok else " OUT"))
            print("  %-22s bound %.2f  %s" % (name, bound, "  ".join(cells)))
        print("  %s" % ("agree" if agree else "DISAGREE"))
        all_agree = all_agree and agree

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "steady-%d.json" % int(time.time()))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("\nrecord written to %s" % path)
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
