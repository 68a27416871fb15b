#!/usr/bin/env python3
"""Steadiness check for the hullbench benchmark.

    python3 hullbench/steady.py [--runs 5] [--sets 2] [--first-seed 1000]

Runs every workload of BENCHMARK.json --runs times per set, for --sets
sets, each run with a fresh seed and run_seconds long, through the
benchmark command (run from the root of the checkout). Workloads alternate
run by run so they see the same host conditions. For every end-to-end
metric it prints, over all runs of a workload: the median, the quartiles
(statistics.quantiles, n=4), the inter-quartile spread as a share of the
median, the min/max spread, and the median of each set with whether the
later sets agree with the first within the metric's bound. The drift
diagnostics of every run (process CPU per hull rep, busy fraction, host
steal, host-speed factor) are summarised per set, so a disagreement can be
traced to the host (wall up, CPU flat, speed factor down) or the code.

The verdict is the benchmark's acceptance rule: every spread but setup_s's
within its bound, and every later set's median no worse than the first's
by more than the bound. It decides the exit status. The tuning target, a
spread below a third of the bound, is reported beside it, metric by metric.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DRIFT = ["parallel.cpu_s", "parallel.busy_frac", "host.steal_frac", "host.speed"]


def run_once(cmd, workload, seed, seconds):
    full = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(full, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(full)} (exit {proc.returncode})")
    result = json.loads(lines[-1])
    diag = {}
    for line in lines[:-1]:
        if line.startswith("diagnostics: "):
            diag = json.loads(line[len("diagnostics: "):])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"run not clean: {workload} seed {seed}: {lines[-1]}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    values.update({k: diag[k]["value"] for k in DRIFT if k in diag})
    return values


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1000)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    e2e = bench["end_to_end"]

    runs = {w: [] for w in workloads}  # workload -> [(set, values)]
    seed = args.first_seed
    for s in range(args.sets):
        for _ in range(args.runs):
            for w in workloads:
                values = run_once(bench["command"], w, seed, seconds)
                runs[w].append((s, values))
                print(f"set {s} {w} seed {seed}: " +
                      " ".join(f"{m['name']}={values[m['name']]:.4g}" for m in e2e),
                      file=sys.stderr, flush=True)
                seed += 1

    ok = True
    missed = []  # workload/metric pairs whose spread misses bound/3
    for w in workloads:
        print(f"\n== {w}: {len(runs[w])} runs, {args.sets} sets, {seconds} s each")
        print(f"{'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} {'iqr/med':>8} "
              f"{'bound':>6} {'min/max':>8}  set medians (agree = within bound)")
        for m in e2e:
            name, bound = m["name"], m["bound"]
            vals = [v[name] for _, v in runs[w]]
            q1, med, q3, iqr = spread(vals)
            minmax = (max(vals) - min(vals)) / med
            sets = [statistics.median([v[name] for s, v in runs[w] if s == k])
                    for k in range(args.sets)]
            worse = [((b - sets[0]) if m["better"] == "lower" else (sets[0] - b)) / sets[0]
                     for b in sets[1:]]
            agree = all(x <= bound for x in worse)
            within = name == "setup_s" or iqr <= bound
            on_target = name == "setup_s" or iqr < bound / 3
            ok &= agree and within
            if not on_target:
                missed.append(f"{w}/{name}")
            print(f"{name:<16} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} {iqr:>8.3f} "
                  f"{bound:>6.2f} {minmax:>8.3f}  " +
                  " ".join(f"{x:.4g}" for x in sets) +
                  ("  agree" if agree else "  DISAGREE") +
                  ("" if within else "  SPREAD>bound") +
                  ("" if on_target or not within else "  spread>bound/3"))
        for name in DRIFT:
            sets = [statistics.median([v[name] for s, v in runs[w] if s == k and name in v])
                    for k in range(args.sets)]
            print(f"  drift {name:<20} set medians " + " ".join(f"{x:.4g}" for x in sets))
    print("\nsteady: every spread within its bound, set medians agree" if ok
          else "\nNOT steady")
    print("target (spread < bound/3): " +
          ("met" if not missed else "missed on " + ", ".join(missed)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
