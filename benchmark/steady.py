#!/usr/bin/env python3
"""Steadiness check for the benchmark in BENCHMARK.json.

Runs every workload --runs times per set, in alternation (one run of each
workload, then the next round of runs), each run with its own seed, for
--sets sets. For each end-to-end metric it prints the median, the first and
third quartiles, and the spread (Q3 - Q1) / median against the metric's
bound; with two or more sets it also prints how far each later set's median
moved from the first set's. It then makes --trace-runs pairs of runs per
workload, untraced then traced on the same seed, and prints the tracing
overhead (traced minus untraced run_s, median over the pairs) and how much
of the untraced run_s the per-layer self times account for. Each run's line
shows the calibration loop's time before and after it: when both read
slow, the host slowed the run.

Run from the repository root:

    python3 benchmark/steady.py --runs 10 --sets 2 --trace-runs 2

The build happens on the first run; every run's last output line is parsed
as the benchmark's JSON result.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if trace else "0",
    ]
    t0 = time.monotonic()
    out = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["calibration"] = [
        float(l.split("=")[1]) for l in lines if l.startswith("# calibration_")
    ]
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed their checks:\n{out.stderr[-2000:]}")
    return result, wall


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload per set")
    ap.add_argument("--sets", type=int, default=1, help="sets of runs to compare")
    ap.add_argument("--trace-runs", type=int, default=1, help="untraced+traced run pairs per workload")
    ap.add_argument("--seed-base", type=int, default=1, help="seed of the first run")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # results[set][workload] = list of result objects
    results = [{w: [] for w in workloads} for _ in range(args.sets)]
    seed = args.seed_base
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                res, wall = run_once(command, w, seed, seconds, False)
                results[s][w].append(res)
                vals = " ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}" for m in metrics
                )
                cal = "/".join(f"{c:.3f}" for c in res["calibration"])
                print(
                    f"set {s} run {i} {w} seed {seed} ({wall:.0f} s, calibration {cal} s): {vals}",
                    flush=True,
                )
                seed += 1

    ok = True
    print()
    for w in workloads:
        shares = {
            (r["failed"], r["attempted"]) for rs in results for r in rs[w]
        }
        ratios = {f / a for f, a in shares}
        print(f"== {w}: failed/attempted {sorted(shares)[:3]} share(s) {sorted(ratios)}")
        if len(ratios) != 1:
            ok = False
            print("   FAIL: the failed share differs between runs")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            medians = []
            for s in range(args.sets):
                vals = [r["metrics"][name]["value"] for r in results[s][w]]
                q1, med, q3 = quartiles(vals)
                medians.append(med)
                spread = (q3 - q1) / med if med else float("inf")
                verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
                if spread > bound:
                    ok = False
                print(
                    f"   set {s} {name:14s} median {med:.6g} {m['unit']:4s} "
                    f"Q1 {q1:.6g} Q3 {q3:.6g} spread {spread:.3f} bound {bound} -> {verdict}"
                )
            for s in range(1, args.sets):
                worse = medians[s] / medians[0] - 1.0
                if m["better"] == "higher":
                    worse = -worse
                flag = "ok" if worse <= bound else "WORSE THAN BOUND"
                if worse > bound:
                    ok = False
                print(f"   set {s} vs set 0 {name:14s} moved {worse:+.3f} (bound {bound}) -> {flag}")

    if args.trace_runs > 0:
        print()
    for w in workloads:
        pairs = []
        for i in range(args.trace_runs):
            plain, _ = run_once(command, w, seed, seconds, False)
            res, _ = run_once(command, w, seed, seconds, True)
            seed += 1
            pairs.append((plain, res))
        if not pairs:
            continue
        untraced = statistics.median(p["metrics"]["run_s"]["value"] for p, _ in pairs)
        overhead = statistics.median(
            t["metrics"]["trace.run_s"]["value"] - p["metrics"]["run_s"]["value"]
            for p, t in pairs
        )
        self_sum = statistics.median(
            sum(v["value"] for k, v in t["metrics"].items() if k.startswith("self."))
            for _, t in pairs
        )
        print(
            f"== {w} traced: overhead {overhead:+.4f} s ({overhead / untraced * 100:+.1f}% "
            f"of the untraced run_s {untraced:.4f} s, median of {len(pairs)} same-seed pairs); "
            f"self times sum to {self_sum:.4f} s = {self_sum / untraced * 100:.1f}% of untraced run_s"
        )
        top = sorted(
            ((k, v["value"]) for k, v in pairs[0][1]["metrics"].items() if k.startswith("self.")),
            key=lambda kv: -kv[1],
        )
        print("   self times: " + ", ".join(f"{k}={v:.4g}" for k, v in top if v > 0))

    print("\nsteady" if ok else "\nNOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
