"""Benchmark of kndirac on the paper's two asymptotic claims and the CLI.

    python3 bench/run.py --workload far_field|cauchy|spectrum_cli \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
src/.  One run repeats whole passes over the workload's cases for about S
seconds (at least one pass), checks every case's outputs after each pass,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (solve_s, setup_s,
peak_rss_mb, slope_dev, rate_dev); with --trace 1 the per-layer ones from
tracing.py.  solve_s and setup_s are wall times scaled to a reference speed
by the speed gauge below.  A case summary goes to standard error.  README.md
explains the workloads, the checks and the choice of every statistic.
"""

import os

# One BLAS thread: README.md ("BLAS threads") has the measurements.  Set
# before numpy loads; the set-up probes inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
# fresh interpreters timed per run for setup_s, after one untimed warm-up
SETUP_SAMPLES = 7

# Speed gauge (README.md, "Speed gauge"): every time the benchmark reports is
# a wall time scaled by REFERENCE_SECONDS over the median of gauge readings:
# for solve_s those of the whole run, for setup_s those of the set-up alone.
# REFERENCE_SECONDS is about the gauge's reading in the fast phase of the
# 2-vCPU sandbox the benchmark was written on.
REFERENCE_SECONDS = 0.0053
_GAUGE_A = np.array([[0.2 + 1.1j, 0.15 - 0.2j], [-0.1 + 0.05j, -0.3j]])
_GAUGE_GRID = np.linspace(0.0, 1.0, 50_000)


def gauge():
    """Median of 9 timings of a fixed piece of work unrelated to kndirac: a
    Python loop of 2x2 complex products, as in the Dormand-Prince loop, and
    one pass over a large complex array, as in the Magnus chunks."""
    times = []
    for _ in range(9):
        y = np.array([1.0 + 0j, 0.5])
        t0 = time.perf_counter()
        for _ in range(1500):
            y = y + 1e-3 * (_GAUGE_A @ y)
        np.exp(1j * _GAUGE_GRID).sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("far_field", "cauchy", "spectrum_cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(workload, seed, readings):
    """Median wall time from starting a fresh interpreter to its having
    imported kndirac and built the workload's inputs, at the reference speed
    of the gauge readings taken before the first probe and after each one.
    The readings also go to `readings`."""
    probe = os.path.join(HERE, "setup_probe.py")
    times, own = [], [gauge()]
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {rc}")
        own.append(gauge())
        if i:
            times.append(elapsed)
    readings.extend(own)
    return REFERENCE_SECONDS * statistics.median(times) / statistics.median(own)


def run_pass(cases, readings):
    """Time each case's program calls; return (results, wall seconds, errors).
    Gauge readings taken after each case go to `readings`."""
    results, seconds, errors = {}, {}, {}
    for case in cases:
        t0 = time.perf_counter()
        try:
            results[case.name] = case.solve()
        except Exception:
            results[case.name] = None
            errors[case.name] = traceback.format_exc(limit=3)
        seconds[case.name] = time.perf_counter() - t0
        readings.append(gauge())
    return results, seconds, errors


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "kndirac", "__init__.py")):
        print(f"bench: no kndirac package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    readings = []
    setup_s = None if args.trace else measure_setup(args.workload, args.seed, readings)

    import workloads

    # records left by an earlier run would count in cli.bytes_written
    shutil.rmtree(os.path.join(OUT, args.workload), ignore_errors=True)
    cases = workloads.build(args.workload, args.seed, OUT)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

    times = {c.name: [] for c in cases}
    outcome = {}
    failures = {}
    attempted = failed = passes = 0
    deterministic = True
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        if tracer:
            tracer.install(workloads.PROGRAM)
        results, seconds, errors = run_pass(cases, readings)
        if tracer:
            tracer.uninstall()  # the checks below are not the program's work
        for case in cases:
            times[case.name].append(seconds[case.name])
            attempted += 1
            if case.name in errors:
                fails, seen = [errors[case.name]], errors[case.name].encode()
            else:
                res = results[case.name]
                fails, seen = case.check(res, results), case.fingerprint(res)
            # a pure program gives the same result in every pass
            deterministic &= outcome.setdefault(case.name, seen) == seen
            if fails:
                failed += 1
                failures.setdefault(case.name, fails)
        slope_dev, rate_dev = workloads.accuracy(args.workload, results)
        passes += 1
        now = time.perf_counter()
        if now - start + (now - p0) > args.seconds:  # the next pass would overrun
            break

    # each case's fastest pass, summed over the cases, at the reference speed
    scale = REFERENCE_SECONDS / statistics.median(readings)
    solve_s = scale * sum(min(ts) for ts in times.values())
    print(f"{args.workload} seed {args.seed}: {passes} pass(es), solve_s {solve_s:.4f} s"
          f"{' (traced)' if tracer else ''}, wall times x {scale:.4f} from {len(readings)} "
          f"gauge readings", file=sys.stderr)
    for name, ts in times.items():
        print(f"  {name:24s} min {min(ts):8.4f} s  max {max(ts):8.4f} s", file=sys.stderr)
    for name, fails in failures.items():
        print(f"  FAILED {name}: " + "; ".join(f.strip() for f in fails), file=sys.stderr)

    if tracer:
        metrics = tracer.metrics(passes)
    else:
        metrics = {
            "solve_s": {"value": solve_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "slope_dev": {"value": slope_dev, "unit": "1"},
            "rate_dev": {"value": rate_dev, "unit": "1"},
        }
    print(json.dumps({"correct": bool(deterministic), "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
