#!/usr/bin/env python3
"""Noise control for the perf ledger. Run from the repo root.

  python3 benchmark/check.py spread [--runs 10] [--workloads a,b]
      Run every workload at --runs different seeds and print, per
      end-to-end metric, the interquartile range of its values as a
      share of their median (statistics.quantiles, n=4) beside the
      metric's bound from BENCHMARK.json. Fails if a spread (other than
      that of setup_s) exceeds its bound; flags those above a third.

  python3 benchmark/check.py agree [--workloads a,b]
      Run the whole set twice at seed 42, untraced and traced. Fails if
      any end-to-end metric got worse by more than its bound between the
      two sets, or if a sim-time metric or a metric marked `=` differs
      at all.

Both run the command BENCHMARK.json names, exactly as the driver does.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(contract, workload, seed, trace):
    """One run of the driver's command line; returns (result, exact names)."""
    cmd = contract["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(contract["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    began = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)}\nexit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit(f"{workload} seed {seed}: {lines[-1][:120]}")
    # Table lines read `name = value unit ...` for exact metrics.
    table = (l.split() for l in lines[1:-1])
    exact = {parts[0] for parts in table if len(parts) > 1 and parts[1] == "="}
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed} trace {trace}: {time.time() - began:.1f} s", flush=True)
    return values, exact


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    delta = second - first if better == "lower" else first - second
    return delta / abs(first) if first else (0.0 if delta == 0 else float("inf"))


def spread(contract, workloads, runs):
    failed = False
    for w in workloads:
        samples = [run(contract, w, 1000 + 17 * i, 0)[0] for i in range(runs)]
        print(f"{w}: spread over {runs} seeds")
        for m in contract["end_to_end"]:
            values = [s[m["name"]] for s in samples]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            mark = ""
            if share > m["bound"] and m["name"] != "setup_s":
                mark, failed = "  EXCEEDS BOUND", True
            elif share > m["bound"] / 3:
                mark = "  above a third of the bound"
            print(f"  {m['name']:<16} median {med:<12.6g} iqr/median {share:7.4f}  bound {m['bound']}{mark}")
            print(f"  {'':<16} values " + " ".join(f"{v:.6g}" for v in values))
    return failed


def agree(contract, workloads):
    failed = False
    sets = []
    for i in (1, 2):
        print(f"set {i}")
        sets.append({(w, t): run(contract, w, 42, t) for w in workloads for t in (0, 1)})
    bounds = {m["name"]: m for m in contract["end_to_end"]}
    for (w, trace), (first, exact) in sets[0].items():
        second, _ = sets[1][(w, trace)]
        for name, a in first.items():
            b = second[name]
            if name in exact:
                if a != b:
                    print(f"{w} {name}: exact metric differs: {a} vs {b}")
                    failed = True
            elif name in bounds:
                worse = worse_by(a, b, bounds[name]["better"])
                ok = worse <= bounds[name]["bound"]
                print(f"{w} {name:<16} {a:<12.6g} {b:<12.6g} worse by {worse:+.4f} (bound {bounds[name]['bound']}){'' if ok else '  FAIL'}")
                failed |= not ok
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("mode", choices=["spread", "agree"])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    args = ap.parse_args()
    contract = load_contract()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in contract["workloads"]]
    failed = spread(contract, workloads, args.runs) if args.mode == "spread" else agree(contract, workloads)
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
