"""Batch command-line front end.

Subcommands: horizons, tetrad-check, dirac-verify, angular, radial,
asymptotics-infinity, asymptotics-cauchy.  Each task writes one machine-readable JSON record plus flat CSV
tables where applicable, atomically (temp file + rename), with full
round-trip float precision; runs with the same configuration are
byte-identical.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import tempfile

import numpy as np

from .geometry import BLPoint, SpacetimeParams, _offset_terms, bl_metric, ef_metric, inverse_metric
from .tetrads import (
    ef_null_tetrad,
    np_condition_residual,
    orthonormal_bl,
    orthonormal_u_ef,
    symmetric_bl_tetrad,
)
from .dirac import (
    assembled_dirac_stencil,
    b_term_closed,
    b_term_numeric,
    conjugated_stencil_numeric,
    dirac_stencil,
    general_dirac_matrices,
    transform_stencil,
)
from .separation import ModeParams
from .angular import DiscretizationSpec, angular_eigenpairs
from .radial import far_field_trajectory, fit_horizon, fit_infinity, integrate, cauchy_rate

DEFAULT_SEED = 20260808


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        # strict JSON has no NaN or infinity: they become the strings
        # "NaN", "Infinity" and "-Infinity"
        return float(obj) if math.isfinite(obj) else json.dumps(float(obj))
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _write_atomic(path, text):
    d = os.path.dirname(path) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_record(outdir, name, record):
    text = json.dumps(_jsonable(record), sort_keys=True, indent=1, separators=(",", ": "), allow_nan=False)
    _write_atomic(os.path.join(outdir, name + ".json"), text + "\n")


def _write_table(outdir, name, header, columns):
    # the rows as Python floats, whose repr is the shortest round-trip form
    rows = np.array(columns, dtype=float).T.tolist()
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    _write_atomic(os.path.join(outdir, name + ".csv"), "\n".join(lines) + "\n")


def _params(cfg):
    return SpacetimeParams(M=cfg["M"], a=cfg["a"], Q=cfg["Q"])


def _mode(cfg):
    # a task that reads only some of the mode keys holds valid stand-ins for the rest
    return ModeParams(omega=cfg.get("omega", 0.0), k=cfg.get("k", 0.5), m=cfg["mass"], xi=cfg.get("xi", 0.0))


def _random_points(rng, params, n):
    """n points (r, theta) off the poles.  Every fourth lies between the
    horizons, where Delta < 0, in the middle 80% of (r_minus, r_plus); the
    others lie at r - r_plus in [0.1, 100]."""
    if n < 1:
        raise ValueError(f"n_points (--n-points) must be at least 1, got {n}")
    width = params.r_plus - params.r_minus
    r = np.where(np.arange(n) % 4 == 3, params.r_minus + width * rng.uniform(0.1, 0.9, n),
                 params.r_plus + 10.0 ** rng.uniform(-1, 2, n))
    th = rng.uniform(0.15, np.pi - 0.15, n)
    return r, th


def task_horizons(cfg, outdir):
    params = _params(cfg)
    _write_record(outdir, "horizons", {"task": "horizons", "config": cfg,
                                       "r_plus": params.r_plus, "r_minus": params.r_minus})
    return 0


def task_tetrad_check(cfg, outdir):
    params = _params(cfg)
    rng = np.random.default_rng(cfg["seed"])
    p = BLPoint(*_random_points(rng, params, cfg["n_points"]))
    ph = BLPoint(params.r_plus, 1.0)
    # np.max and the comparisons below let a NaN residual fail the check
    worst = {
        "bl": np.max(np_condition_residual(symmetric_bl_tetrad(p, params),
                                           bl_metric(p.r, p.theta, params))),
        "ef": np.max(np_condition_residual(ef_null_tetrad(p, params)[0],
                                           ef_metric(p.r, p.theta, params))),
        "ef_horizon": np_condition_residual(ef_null_tetrad(ph, params)[0],
                                            ef_metric(ph.r, ph.theta, params)),
    }
    ok = all(v < cfg["tol"] for v in worst.values())
    _write_record(outdir, "tetrad_check", {"task": "tetrad-check", "config": cfg,
                                           "max_residuals": worst, "pass": bool(ok)})
    return 0 if ok else 1


def task_dirac_verify(cfg, outdir):
    params = _params(cfg)
    rng = np.random.default_rng(cfg["seed"])
    p = BLPoint(*_random_points(rng, params, cfg["n_points"]))
    rec = {"task": "dirac-verify", "config": cfg}
    # (chart, point, mu, i, j) and (chart, point, mu, nu): every point in both charts
    G = np.stack([general_dirac_matrices(orthonormal_u_ef(p, params)[0]),
                  general_dirac_matrices(orthonormal_bl(p, params))])
    ginv = np.stack([inverse_metric(p, "EF", params), inverse_metric(p, "BL", params)])
    mu, nu = np.triu_indices(4)
    Gm, Gn = G[..., mu, :, :], G[..., nu, :, :]
    res = 0.5 * (Gm @ Gn + Gn @ Gm) - ginv[..., mu, nu, None, None] * np.eye(4)
    rec["max_anticommutator_residual"] = np.max(np.abs(res))
    # the finite-difference oracles, at every point
    st = dirac_stencil(p, params)
    rec["max_bterm_residual"] = np.max(np.abs(b_term_numeric(p, params, h=1e-5) - b_term_closed(p, params)))
    rec["max_dual_assembly_residual"] = np.max(np.abs(st.coeffs - assembled_dirac_stencil(p, params).coeffs))
    tr = transform_stencil(p, params, cfg["mass"])
    orc = conjugated_stencil_numeric(st, p, params, cfg["mass"], h=1e-5)
    rec["max_conjugation_residual"] = np.max(np.abs(tr.coeffs - orc.coeffs))
    ok = (rec["max_anticommutator_residual"] < 1e-9 and rec["max_bterm_residual"] < 1e-6
          and rec["max_dual_assembly_residual"] < 1e-10 and rec["max_conjugation_residual"] < 1e-6)
    rec["pass"] = bool(ok)
    _write_record(outdir, "dirac_verify", rec)
    return 0 if ok else 1


def task_angular(cfg, outdir):
    params = _params(cfg)
    mode = _mode(cfg)
    spec = DiscretizationSpec(N=cfg["N"])
    pairs = angular_eigenpairs(mode, spec, params, count=cfg["count"])
    rec = {"task": "angular", "config": cfg,
           "xi": [p.xi for p in pairs], "branch_indices": [p.n for p in pairs]}
    # one row per pair and angle, pair by pair
    n = np.array([np.full(len(p.theta), p.n) for p in pairs]).ravel()
    theta = np.array([p.theta for p in pairs]).ravel()
    Y = np.array([p.Y for p in pairs]).reshape(-1, 2)
    _write_table(outdir, "angular_eigenfunctions", ("n", "theta", "ReY1", "ImY1", "ReY2", "ImY2"),
                 (n, theta, Y[:, 0].real, Y[:, 0].imag, Y[:, 1].real, Y[:, 1].imag))
    _write_record(outdir, "angular", rec)
    return 0


def task_radial(cfg, outdir):
    params = _params(cfg)
    mode = _mode(cfg)
    X0 = np.array([1.0 + 0.0j, 0.5 - 0.25j])
    traj = integrate(mode, params, (cfg["rstar_min"], cfg["rstar_max"]), X0,
                     tol=cfg["tol"], branch=cfg["branch"])
    # r from the trajectory's own log offset s = log(r - r_0): re-inverting
    # rstar would meet the rounding floor of r deep in the exterior
    r = _offset_terms(traj.s, cfg["branch"], params)[1]
    X1, X2 = traj.X[:, 0], traj.X[:, 1]
    _write_table(outdir, "trajectory", ("rstar", "r", "ReX1", "ImX1", "ReX2", "ImX2", "s"),
                 (traj.rstar, r, X1.real, X1.imag, X2.real, X2.imag, traj.s))
    _write_record(outdir, "radial", {"task": "radial", "config": cfg, "steps": traj.steps})
    return 0


def task_asymptotics_infinity(cfg, outdir):
    params, mode = _params(cfg), _mode(cfg)
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = far_field_trajectory(mode, params, X0, u_min=cfg["rstar_min"],
                                u_max=cfg["rstar_max"], n_samples=cfg["n_samples"])
    fit = fit_infinity(traj, mode, params)
    ok = -1.3 <= fit.slope <= -0.7
    _write_record(outdir, "asymptotics_infinity", {
        "task": "asymptotics-infinity", "config": cfg, "slope": fit.slope, "f_inf": fit.f_inf,
        "window": list(fit.window), "w1": fit.w1, "theta": fit.theta, "boost_sign": fit.boost_sign,
        "f_inf_imag_max": float(np.abs(fit.f_inf.imag).max()), "pass": bool(ok)})
    return 0 if ok else 1


def task_asymptotics_cauchy(cfg, outdir):
    params, mode = _params(cfg), _mode(cfg)
    alpha = cauchy_rate(params)
    X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
    traj = integrate(mode, params, (0.0, 32.0 / alpha), X0, tol=cfg["tol"], branch="interior")
    fit = fit_horizon(traj, mode, params)
    ok = abs(fit.rate - fit.alpha) <= 0.1 * fit.alpha
    _write_record(outdir, "asymptotics_cauchy", {
        "task": "asymptotics-cauchy", "config": cfg, "alpha": fit.alpha, "rate": fit.rate, "h": fit.h,
        "window": list(fit.window), "h_imag_max": float(np.abs(np.asarray(fit.h).imag).max()),
        "pass": bool(ok)})
    return 0 if ok else 1


# task: (function, {key: default}) for exactly the keys the task reads.  Each
# key is the flag --key, with `_` as `-`, and a config-file key; both take the
# type of its default, and a key a task does not read is a configuration error
_HOLE = {"M": 1.0, "a": 0.6, "Q": 0.3}
_CHECKS = {**_HOLE, "seed": DEFAULT_SEED, "n_points": 10}
_MODE = {**_HOLE, "omega": 1.3, "k": 0.5, "mass": 0.55}
_RADIAL = {**_MODE, "xi": 1.7}
TASKS = {
    "horizons": (task_horizons, _HOLE),
    "tetrad-check": (task_tetrad_check, {**_CHECKS, "tol": 1e-10}),
    "dirac-verify": (task_dirac_verify, {**_CHECKS, "mass": _MODE["mass"]}),
    "angular": (task_angular, {**_MODE, "N": 64, "count": 8}),
    # `radial` writes one CSV row per step, and a span near the hole, where U
    # is not yet close to its far-field limit, exercises more of it than the
    # far-field span of `asymptotics-infinity`
    "radial": (task_radial,
               {**_RADIAL, "tol": 1e-10, "rstar_min": 10.0, "rstar_max": 200.0, "branch": "exterior"}),
    "asymptotics-infinity": (task_asymptotics_infinity,
                             {**_RADIAL, "rstar_min": 1e3, "rstar_max": 1e6, "n_samples": 36}),
    "asymptotics-cauchy": (task_asymptotics_cauchy, {**_RADIAL, "tol": 1e-10}),
}


@functools.cache
def build_parser():
    # one parser per process, for a caller that runs many tasks through
    # `main`; parse_args keeps no state between calls
    ap = argparse.ArgumentParser(prog="kndirac", description=__doc__)
    sub = ap.add_subparsers(dest="task", required=True)
    for name, (_, defaults) in TASKS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="out", help="output directory")
        for key, default in defaults.items():
            p.add_argument("--" + key.replace("_", "-"), type=type(default), default=None, dest=key)
    return ap


def load_config(args):
    defaults = TASKS[args.task][1]
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("a config file must hold one JSON object")
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise KeyError(f"config keys that {args.task} does not read: {sorted(unknown)}")
        for key, val in file_cfg.items():
            # each value takes the type of its default; an int may stand for a float
            want = type(defaults[key])
            if isinstance(val, bool) or not (isinstance(val, want) or (want is float and isinstance(val, int))):
                raise ValueError(f"config key {key!r} must be {want.__name__}, got {val!r}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key)
        if val is not None:
            cfg[key] = val
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        _params(cfg)  # finite and slow
        if "mass" in cfg:  # every task that reads a mode key reads the mass
            _mode(cfg)
        if cfg.get("branch", "exterior") not in ("exterior", "interior"):
            raise ValueError(f"invalid branch {cfg['branch']!r}")
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return TASKS[args.task][0](cfg, args.out)
    except ValueError as exc:
        print(f"configuration error in task {args.task}: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in task {args.task}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
