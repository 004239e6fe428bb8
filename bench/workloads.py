"""The benchmark's three workloads: their cases, and the checks on each case.

A case is one operation of the program.  Its `solve` makes only the
program's calls and is the part that is timed; its `check` runs afterwards,
untimed, and compares the outputs with closed forms computed here, apart
from the program, or with properties the method must have.  A case fails
when its `solve` raises or any of its checks fails.

The physical inputs are fixed: they are the acceptance seeds of criteria 7
and 8 and the CLI tasks listed in README.md.  The benchmark seed only
permutes the order of the cases in a pass, so that every count the program
makes (steps, calls, points, bytes) is the same for every seed.

Every call into the program goes through `PROGRAM`, so that the tracer in
tracing.py can time these entry points as it times the bindings inside the
package.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import kndirac.cli
import kndirac.radial
from kndirac.geometry import SpacetimeParams
from kndirac.separation import ModeParams

PROGRAM = SimpleNamespace(
    far_field_trajectory=kndirac.radial.far_field_trajectory,
    fit_infinity=kndirac.radial.fit_infinity,
    integrate=kndirac.radial.integrate,
    fit_horizon=kndirac.radial.fit_horizon,
    cli_main=kndirac.cli.main,
)

# criterion 7: the five far-field acceptance seeds
FAR_FIELD_SEEDS = [
    (SpacetimeParams(M=1.0, a=0.6, Q=0.3), ModeParams(omega=1.3, k=0.5, m=0.55, xi=1.7)),
    (SpacetimeParams(M=1.0, a=0.3, Q=0.5), ModeParams(omega=-1.1, k=-0.5, m=0.4, xi=1.1)),
    (SpacetimeParams(M=1.5, a=0.9, Q=0.3), ModeParams(omega=0.9, k=1.5, m=0.35, xi=0.9)),
    (SpacetimeParams(M=0.8, a=0.4, Q=0.2), ModeParams(omega=1.7, k=-1.5, m=0.8, xi=2.1)),
    (SpacetimeParams(M=1.0, a=0.7, Q=0.0), ModeParams(omega=0.7, k=2.5, m=0.25, xi=1.3)),
]
FAR_FIELD_X0 = (0.8 + 0.3j, -0.45 + 0.9j)

# criterion 8: the five interior acceptance seeds, then the near-extremal
# hole with the first interior mode
HORIZON_SEEDS = [
    (SpacetimeParams(M=1.0, a=0.6, Q=0.3), ModeParams(omega=0.9, k=1.5, m=0.6, xi=1.3)),
    (SpacetimeParams(M=1.0, a=0.3, Q=0.6), ModeParams(omega=-0.7, k=0.5, m=0.45, xi=0.8)),
    (SpacetimeParams(M=1.2, a=0.8, Q=0.4), ModeParams(omega=1.2, k=-0.5, m=0.3, xi=1.9)),
    (SpacetimeParams(M=0.9, a=0.5, Q=0.5), ModeParams(omega=0.5, k=2.5, m=0.7, xi=1.1)),
    (SpacetimeParams(M=1.0, a=0.85, Q=0.2), ModeParams(omega=1.0, k=-1.5, m=0.5, xi=1.5)),
    (SpacetimeParams(M=1.0, a=0.95, Q=0.3), ModeParams(omega=0.9, k=1.5, m=0.6, xi=1.3)),
]
HORIZON_X0 = (1.0 + 0.2j, -0.6 + 0.4j)

# Tolerances of the property checks, each well above the drift measured at
# the seed commit (README.md, "Checks").
FAR_CURRENT_TOL = 1e-10      # Magnus steps conserve |X1|^2 - |X2|^2 to rounding
PROP_DET_TOL = 1e-8          # criterion 9 allows 10 x 1e-9 for the same audit
INTERIOR_CURRENT_TOL = 1e-8  # Dormand-Prince at tol 1e-11
EXTERIOR_CURRENT_TOL = 1e-7  # Dormand-Prince at the CLI's tol 1e-10
CSV_RSTAR_TOL = 1e-10        # relative to max(1, |rstar|)


@dataclass
class Case:
    name: str
    solve: Callable[[], Any]
    # (result, {case name: result} of the whole pass) -> list of failures
    check: Callable[[Any, dict], list]
    # result -> bytes that a deterministic program reproduces in every pass
    fingerprint: Callable[[Any], bytes]


# ---------------------------------------------------------------------------
# closed forms, written out here apart from the program

def horizon_radii(par):
    root = math.sqrt(par.M ** 2 - par.a ** 2 - par.Q ** 2)
    return par.M + root, par.M - root


def cauchy_alpha(par):
    rp, rm = horizon_radii(par)
    return (rp - rm) / (2.0 * (rm * rm + par.a * par.a))


def rstar_of_r(r, par):
    """rstar = integral of (r^2 + a^2) / Delta dr, by partial fractions."""
    rp, rm = horizon_radii(par)
    a2 = par.a * par.a
    cp = (rp * rp + a2) / (rp - rm)
    cm = (rm * rm + a2) / (rp - rm)
    return r + cp * np.log(np.abs(r - rp)) - cm * np.log(np.abs(r - rm))


def phitilde_of_r(r, par):
    """phitilde = integral of a / Delta dr."""
    rp, rm = horizon_radii(par)
    return par.a / (rp - rm) * np.log(np.abs((r - rp) / (r - rm)))


def exterior_r_of_rstar(rstar, par):
    """Invert rstar(r) on r > r_plus by bisection; rstar(r) increases there."""
    rp, _ = horizon_radii(par)
    rstar = np.asarray(rstar, dtype=float)
    lo = np.full_like(rstar, rp * (1.0 + 1e-15))
    hi = np.maximum(np.abs(rstar), 10.0 * rp) + 10.0 * rp
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        above = rstar_of_r(mid, par) > rstar
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def current_drift(X, sign):
    """Largest relative change of |X1|^2 + sign |X2|^2 along a trajectory."""
    J = np.abs(X[:, 0]) ** 2 + sign * np.abs(X[:, 1]) ** 2
    return float(np.max(np.abs(J - J[0])) / abs(J[0]))


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(np.asarray(p).tobytes() if not isinstance(p, bytes) else p)
    return h.digest()


# ---------------------------------------------------------------------------
# far_field: the paper's first claim, O(1/u) approach at infinity

def _far_field_case(i, par, mode):
    X0 = np.array(FAR_FIELD_X0)

    def solve():
        traj = PROGRAM.far_field_trajectory(mode, par, X0, u_min=1e3, u_max=1e6, n_samples=36)
        fit = PROGRAM.fit_infinity(traj, mode, par)
        ablated = PROGRAM.fit_infinity(traj, mode, par, ablate_log_phase=True)
        return traj, fit, ablated

    def check(res, _results):
        traj, fit, ablated = res
        fails = []
        if len(traj.rstar) != 36 or traj.rstar[0] != 1e3 or abs(traj.rstar[-1] / 1e6 - 1) > 1e-12:
            fails.append("trajectory does not sample u in [1e3, 1e6] at 36 points")
        if not -1.3 <= fit.slope <= -0.7:
            fails.append(f"slope {fit.slope:.4f} outside [-1.3, -0.7]")
        if not ablated.slope > -0.3:
            fails.append(f"ablated slope {ablated.slope:.4f} not above -0.3")
        drift = current_drift(traj.X, -1.0)
        if not drift <= FAR_CURRENT_TOL:
            fails.append(f"current |X1|^2-|X2|^2 drifts by {drift:.2e}")
        # Abel: det of the propagator = exp(int tr U drstar)
        #       = exp(2 i omega (drstar - dr) + 2 i k dphitilde)
        u = traj.rstar
        r = exterior_r_of_rstar(u, par)
        phase = 2 * mode.omega * ((u - u[0]) - (r - r[0])) \
            + 2 * mode.k * (phitilde_of_r(r, par) - phitilde_of_r(r[0], par))
        err = float(np.max(np.abs(traj.prop_det - np.exp(1j * phase))))
        if not err <= PROP_DET_TOL:
            fails.append(f"prop_det misses the closed-form Abel factor by {err:.2e}")
        return fails

    def fingerprint(res):
        traj, fit, ablated = res
        return _digest(traj.X, traj.prop_det, np.array([fit.slope, ablated.slope]))

    return Case(f"far_field_{i}", solve, check, fingerprint)


# ---------------------------------------------------------------------------
# cauchy: the paper's second claim, convergence at the rate alpha

def _cauchy_case(i, par, mode):
    X0 = np.array(HORIZON_X0)
    alpha = cauchy_alpha(par)
    span = (0.0, 32.0 / alpha)
    name = "cauchy_near_extremal" if i == len(HORIZON_SEEDS) - 1 else f"cauchy_{i}"

    def solve():
        traj = PROGRAM.integrate(mode, par, span, X0, tol=1e-11, branch="interior")
        return traj, PROGRAM.fit_horizon(traj, mode, par)

    def check(res, _results):
        traj, fit = res
        fails = []
        if abs(traj.rstar[-1] - span[1]) > 1e-9 * span[1]:
            fails.append("trajectory does not reach 32/alpha")
        dev = abs(fit.rate / alpha - 1.0)
        if not dev <= 0.10:
            fails.append(f"rate misses alpha = {alpha:.6f} by {100 * dev:.1f}%")
        drift = current_drift(traj.X, 1.0)
        if not drift <= INTERIOR_CURRENT_TOL:
            fails.append(f"current |X1|^2+|X2|^2 drifts by {drift:.2e}")
        return fails

    def fingerprint(res):
        traj, fit = res
        return _digest(traj.X, np.array([fit.rate, traj.steps, traj.rejected]))

    return Case(name, solve, check, fingerprint)


# ---------------------------------------------------------------------------
# spectrum_cli: CLI tasks in-process, writing JSON/CSV records

def _read_json(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _dir_bytes(outdir):
    parts = []
    for fn in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fn), "rb") as fh:
            parts.append(fn.encode() + b"\0" + fh.read())
    return b"\0".join(parts)


def _check_records(outdir):
    fails = []
    for fn in sorted(os.listdir(outdir)):
        if fn.endswith(".json"):
            rec = _read_json(outdir, fn)
            if "pass" in rec and rec["pass"] is not True:
                fails.append(f"{fn} reports pass = {rec['pass']}")
    return fails


def _check_a0_spectrum(outdir, _outroot, _results):
    rec = _read_json(outdir, "angular.json")
    k = rec["config"]["k"]
    count = rec["config"]["count"]
    # a = 0: xi = +-(|k| + 1/2 + n), n = 0, 1, ...; the `count` (even) of
    # smallest modulus
    levels = abs(k) + 0.5 + np.arange(count // 2)
    expected = np.concatenate([-levels[::-1], levels])
    err = float(np.max(np.abs(np.sort(rec["xi"]) - expected)))
    return [] if err <= 1e-10 else [f"a=0 spectrum misses +-(|k|+1/2+n) by {err:.2e}"]


def _check_n_agreement(outdir, outroot, results):
    if results.get("angular_N128_k1.5") != 0:
        return ["the N=128 run it is compared with failed"]
    xi = np.array(_read_json(outdir, "angular.json")["xi"])
    xi_other = np.array(_read_json(os.path.join(outroot, "angular_N128_k1.5"), "angular.json")["xi"])
    err = float(np.max(np.abs(xi - xi_other)))
    return [] if err <= 1e-8 else [f"N=128 and N=256 eigenvalues differ by {err:.2e}"]


def _check_trajectory_csv(outdir, _outroot, _results):
    rec = _read_json(outdir, "radial.json")
    par = SpacetimeParams(M=rec["config"]["M"], a=rec["config"]["a"], Q=rec["config"]["Q"])
    with open(os.path.join(outdir, "trajectory.csv")) as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    rstar, r = data[:, 0], data[:, 1]
    X = np.stack([data[:, 2] + 1j * data[:, 3], data[:, 4] + 1j * data[:, 5]], axis=-1)
    fails = []
    if len(data) != rec["steps"] + 1:
        fails.append(f"trajectory.csv has {len(data)} rows for {rec['steps']} steps")
    miss = float(np.max(np.abs(rstar_of_r(r, par) - rstar) / np.maximum(1.0, np.abs(rstar))))
    if not miss <= CSV_RSTAR_TOL:
        fails.append(f"CSV rows miss the closed-form rstar(r) by {miss:.2e}")
    drift = current_drift(X, -1.0)
    if not drift <= EXTERIOR_CURRENT_TOL:
        fails.append(f"current |X1|^2-|X2|^2 drifts by {drift:.2e} along the CSV")
    return fails


# (case name, CLI arguments, extra check); every task writes into its own directory
CLI_TASKS = [
    ("angular_N64", ["angular"], None),
    ("angular_N128_k1.5", ["angular", "--N", "128", "--k", "1.5"], None),
    ("angular_N256_k1.5", ["angular", "--N", "256", "--k", "1.5"], _check_n_agreement),
    ("angular_N256_k-40.5", ["angular", "--N", "256", "--k", "-40.5"], None),
    ("angular_N64_a0_k-2.5", ["angular", "--a", "0", "--k", "-2.5"], _check_a0_spectrum),
    ("tetrad_check", ["tetrad-check", "--n-points", "1200"], None),
    ("dirac_verify", ["dirac-verify", "--n-points", "200"], None),
    ("radial_exterior", ["radial", "--branch", "exterior", "--rstar-min", "10",
                         "--rstar-max", "200"], _check_trajectory_csv),
]


def _cli_case(name, argv, extra, outroot):
    outdir = os.path.join(outroot, name)

    def solve():
        return PROGRAM.cli_main(argv + ["--out", outdir])

    def check(rc, results):
        if rc != 0:
            return [f"exit code {rc}"]
        fails = _check_records(outdir)
        return fails + extra(outdir, outroot, results) if extra else fails

    def fingerprint(rc):
        return _digest(bytes([rc & 0xFF]), _dir_bytes(outdir))

    return Case(name, solve, check, fingerprint)


# ---------------------------------------------------------------------------

WORKLOADS = ("far_field", "cauchy", "spectrum_cli")
# slope_dev and rate_dev on a workload that makes no far-field or horizon fit,
# and the least they read when a case of the fit raised
NOT_FITTED = 1.0


def build(workload, seed, outroot):
    """The workload's cases, in an order drawn from `seed`."""
    if workload == "far_field":
        cases = [_far_field_case(i, par, mode) for i, (par, mode) in enumerate(FAR_FIELD_SEEDS)]
    elif workload == "cauchy":
        cases = [_cauchy_case(i, par, mode) for i, (par, mode) in enumerate(HORIZON_SEEDS)]
    elif workload == "spectrum_cli":
        cases = [_cli_case(name, argv, extra, os.path.join(outroot, workload))
                 for name, argv, extra in CLI_TASKS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    random.Random(seed).shuffle(cases)
    return cases


def accuracy(workload, results):
    """(slope_dev, rate_dev) of one pass.  Each is NOT_FITTED where the workload
    makes no such fit, and at least NOT_FITTED when one of its cases raised, so
    that a crash can only make them worse."""
    slope_dev = rate_dev = NOT_FITTED
    if workload == "far_field":
        slope_dev = max(NOT_FITTED if res is None else abs(res[1].slope + 1.0)
                        for res in results.values())
    if workload == "cauchy":
        rate_dev = max(NOT_FITTED if res is None
                       else abs(res[1].rate / cauchy_alpha(res[0].params) - 1.0)
                       for res in results.values())
    return slope_dev, rate_dev
