"""Steadiness check: repeat the benchmark over seeds and summarise the spread.

    python3 bench/steady.py [--sets 2] [--runs 10] [--trace 0|1] [--first-seed 1]

Each set runs bench/run.py once per seed on every workload of BENCHMARK.json,
with the run length from there, one run at a time.  For every metric it prints the
median, the quartiles (statistics.quantiles, n=4) and the quartile spread as
a share of the median, next to the bound from BENCHMARK.json.  For two or
more sets it also prints how far each later set's median moved from the
first.  Traced runs list every per-layer count that did not repeat exactly.
Raw results go to bench/results/.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    # run.py also reports solve_s on standard error, traced runs included
    result["solve_s"] = float(re.search(r"solve_s ([0-9.]+) s", proc.stderr).group(1))
    return result


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    spec = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in spec}

    sets = []
    for s in range(args.sets):
        runs = {w: [] for w in names}
        for w in names:
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                runs[w].append(run_once(w, seed, bench["run_seconds"], args.trace))
                print(f"set {s + 1} {w} seed {seed}: {runs[w][-1]['wall_s']:.1f} s wall",
                      file=sys.stderr)
        sets.append(runs)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    with open(os.path.join(HERE, "results", f"steady-{stamp}-trace{args.trace}.json"), "w") as fh:
        json.dump(sets, fh, indent=1)

    for w in names:
        print(f"\n== {w}")
        for s, runs in enumerate(sets):
            rs = runs[w]
            shares = {r["failed"] / r["attempted"] for r in rs}
            walls = [r["wall_s"] for r in rs]
            print(f"set {s + 1}: correct {all(r['correct'] for r in rs)}, failed share "
                  f"{sorted(shares)}, run wall {min(walls):.1f}-{max(walls):.1f} s, "
                  f"solve_s median {statistics.median(r['solve_s'] for r in rs):.4g} s"
                  f"{' traced' if args.trace else ''}")
        for m in spec:
            name = m["name"]
            line = f"{name:32s} {m['unit']:6s}"
            meds = []
            for runs in sets:
                vals = [r["metrics"][name]["value"] for r in runs[w]]
                med, q1, q3, iqr = summary(vals)
                meds.append(med)
                if args.trace:
                    exact = m["unit"] not in ("count", "B") or len(set(vals)) == 1
                    line += f" | med {med:.6g}" + ("" if exact else " NOT EXACT")
                else:
                    line += f" | med {med:.5g} q1 {q1:.5g} q3 {q3:.5g} iqr {100 * iqr:5.1f}%"
            if not args.trace:
                moves = [(m2 - meds[0]) / meds[0] if meds[0] else 0.0 for m2 in meds[1:]]
                line += "".join(f" | move {100 * mv:+5.1f}%" for mv in moves)
                line += f" | bound {100 * bounds[name]:.0f}%"
            print(line)


if __name__ == "__main__":
    main()
