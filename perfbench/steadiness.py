#!/usr/bin/env python3
"""Runs the benchmark in sets of several runs per workload, each run with
another seed, and reports each end-to-end metric's median, quartiles and
spread (the distance between the quartiles as a share of the median) against
its bound, and how far each median moved from the first set to the others.

Run it from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2 [--workloads pace-dense,...] [--out FILE]

Set k runs seeds first-seed + k*runs and on. The script exits non-zero if any
run fails its output checks, any spread exceeds its bound, or any median
gets worse than the first set's by more than its bound.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_set(bench, workloads, seeds, seconds, bounds):
    ok = True
    out = {"seeds": seeds, "workloads": {}}
    for wl in workloads:
        values = {name: [] for name in bounds}
        failed = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            stdout = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
            res = json.loads(stdout.strip().splitlines()[-1])
            if not res["correct"]:
                ok = False
                failed.append({"seed": seed, "failed": res["failed"], "attempted": res["attempted"],
                               "why": [l[len("#   FAIL "):] for l in stdout.splitlines() if l.startswith("#   FAIL ")]})
                print(f"{wl} seed {seed}: {res['failed']} of {res['attempted']} checks failed", file=sys.stderr)
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{wl} seed {seed}: " + " ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        rows = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[name], "values": vs}
            within = spread <= bounds[name]
            ok = ok and within
            print(f"{wl:12s} {name:20s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.2f}{'' if within else '  EXCEEDS'}")
        out["workloads"][wl] = {"metrics": rows, "failed_runs": failed}
    return out, ok


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", help="write the record as JSON here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    record = {"run_seconds": args.seconds, "sets": [], "drift": {}}
    ok = True
    for k in range(args.sets):
        first = args.first_seed + k * args.runs
        s, set_ok = run_set(bench, workloads, list(range(first, first + args.runs)), args.seconds, bounds)
        record["sets"].append(s)
        ok = ok and set_ok
    # How much worse each later set's median is than the first set's, as a
    # share of the first.
    for wl in workloads:
        base = record["sets"][0]["workloads"][wl]["metrics"]
        record["drift"][wl] = {}
        for k, s in enumerate(record["sets"][1:], 1):
            for name, row in s["workloads"][wl]["metrics"].items():
                m0, m = base[name]["median"], row["median"]
                worse = (m - m0) / m0 if better[name] == "lower" else (m0 - m) / m0
                record["drift"][wl].setdefault(name, []).append(worse)
                within = worse <= bounds[name]
                ok = ok and within
                print(f"{wl:12s} {name:20s} set {k} median worse than set 0 by {worse:+.3f}  "
                      f"bound {bounds[name]:.2f}{'' if within else '  EXCEEDS'}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
