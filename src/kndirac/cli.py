"""Batch command-line front end.

Subcommands: horizons, tetrad-check, dirac-verify, angular, radial,
asymptotics.  Each task writes one machine-readable JSON record plus flat CSV
tables where applicable, atomically (temp file + rename), with full
round-trip float precision; runs with the same configuration are
byte-identical.  Exit codes: 0 success, 1 verification failure,
2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from .geometry import BLPoint, SpacetimeParams, bl_metric, ef_metric, horizons, inverse_metric, tortoise_inverse
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
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
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
    text = json.dumps(_jsonable(record), sort_keys=True, indent=1, separators=(",", ": "))
    _write_atomic(os.path.join(outdir, name + ".json"), text + "\n")


def _write_table(outdir, name, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(v)) for v in row))
    _write_atomic(os.path.join(outdir, name + ".csv"), "\n".join(lines) + "\n")


def _params(cfg):
    return SpacetimeParams(M=cfg["M"], a=cfg["a"], Q=cfg["Q"])


def _mode(cfg):
    return ModeParams(omega=cfg["omega"], k=cfg["k"], m=cfg["mass"], xi=cfg["xi"])


def _random_points(rng, params, n):
    r = params.r_plus + 10.0 ** rng.uniform(-1, 2, n)
    th = rng.uniform(0.15, np.pi - 0.15, n)
    return r, th


def task_horizons(cfg, outdir):
    h = horizons(_params(cfg))
    _write_record(outdir, "horizons", {"task": "horizons", "config": cfg,
                                       "r_plus": h.r_plus, "r_minus": h.r_minus})
    return 0


def task_tetrad_check(cfg, outdir):
    params = _params(cfg)
    rng = np.random.default_rng(cfg["seed"])
    r, th = _random_points(rng, params, cfg["n_points"])
    worst = {"bl": 0.0, "ef": 0.0, "ef_horizon": 0.0}
    for ri, ti in zip(r, th):
        p = BLPoint(float(ri), float(ti))
        worst["bl"] = max(worst["bl"], np_condition_residual(symmetric_bl_tetrad(p, params),
                                                             bl_metric(p.r, p.theta, params)))
        vec, _ = ef_null_tetrad(p, params)
        worst["ef"] = max(worst["ef"], np_condition_residual(vec, ef_metric(p.r, p.theta, params)))
    ph = BLPoint(params.r_plus, 1.0)
    worst["ef_horizon"] = np_condition_residual(ef_null_tetrad(ph, params)[0],
                                                ef_metric(ph.r, ph.theta, params))
    ok = max(worst.values()) < cfg["tol"]
    _write_record(outdir, "tetrad_check", {"task": "tetrad-check", "config": cfg,
                                           "max_residuals": worst, "pass": bool(ok)})
    return 0 if ok else 1


def task_dirac_verify(cfg, outdir):
    params = _params(cfg)
    rng = np.random.default_rng(cfg["seed"])
    r, th = _random_points(rng, params, cfg["n_points"])
    rec = {"task": "dirac-verify", "config": cfg}
    anti = 0.0
    for ri, ti in zip(r, th):
        p = BLPoint(float(ri), float(ti))
        for chart, tet in (("EF", orthonormal_u_ef(p, params)[0]), ("BL", orthonormal_bl(p, params))):
            G = general_dirac_matrices(tet)
            ginv = inverse_metric(p, chart, params)
            for mu in range(4):
                for nu in range(mu, 4):
                    res = 0.5 * (G[mu] @ G[nu] + G[nu] @ G[mu]) - ginv[mu, nu] * np.eye(4)
                    anti = max(anti, float(np.abs(res).max()))
    rec["max_anticommutator_residual"] = anti
    bmax = dual = conj = 0.0
    for ri, ti in zip(r[: min(10, len(r))], th[: min(10, len(th))]):
        p = BLPoint(float(ri), float(ti))
        bmax = max(bmax, float(np.abs(b_term_numeric(p, params, h=1e-5) - b_term_closed(p, params)).max()))
        st = dirac_stencil(p, params, mass=cfg["mass"])
        dual = max(dual, float(np.abs(st.coeffs - assembled_dirac_stencil(p, params).coeffs).max()))
        tr = transform_stencil(st, p, params, cfg["mass"])
        orc = conjugated_stencil_numeric(st, p, params, cfg["mass"], h=1e-5)
        conj = max(conj, float(np.abs(tr.coeffs - orc.coeffs).max()))
    rec["max_bterm_residual"] = bmax
    rec["max_dual_assembly_residual"] = dual
    rec["max_conjugation_residual"] = conj
    ok = anti < 1e-9 and bmax < 1e-6 and dual < 1e-10 and conj < 1e-6
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
    rows = []
    for p in pairs:
        for t, (y1, y2) in zip(p.theta, p.Y):
            rows.append((p.n, t, y1.real, y1.imag, y2.real, y2.imag))
    _write_table(outdir, "angular_eigenfunctions", ("n", "theta", "ReY1", "ImY1", "ReY2", "ImY2"), rows)
    _write_record(outdir, "angular", rec)
    return 0


def task_radial(cfg, outdir):
    params = _params(cfg)
    mode = _mode(cfg)
    X0 = np.array([1.0 + 0.0j, 0.5 - 0.25j])
    traj = integrate(mode, params, (cfg["rstar_min"], cfg["rstar_max"]), X0,
                     tol=cfg["tol"], branch=cfg["branch"])
    r = tortoise_inverse(traj.rstar, cfg["branch"], params)
    X1, X2 = traj.X[:, 0], traj.X[:, 1]
    rows = zip(traj.rstar, r, X1.real, X1.imag, X2.real, X2.imag)
    _write_table(outdir, "trajectory", ("rstar", "r", "ReX1", "ImX1", "ReX2", "ImX2"), rows)
    _write_record(outdir, "radial", {"task": "radial", "config": cfg,
                                     "steps": traj.steps, "rejected": traj.rejected})
    return 0


def task_asymptotics(cfg, outdir):
    params = _params(cfg)
    mode = _mode(cfg)
    rec = {"task": "asymptotics", "config": cfg}
    if cfg["branch"] == "exterior":
        X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
        traj = far_field_trajectory(mode, params, X0, u_min=cfg["rstar_min"],
                                    u_max=cfg["rstar_max"], n_samples=cfg["n_samples"])
        fit = fit_infinity(traj, mode, params)
        rec.update({"slope": fit.slope, "f_inf": fit.f_inf, "window": list(fit.window),
                    "w1": fit.w1, "theta": fit.theta, "boost_sign": fit.boost_sign,
                    "f_inf_imag_max": float(np.abs(fit.f_inf.imag).max())})
        ok = -1.3 <= fit.slope <= -0.7
    else:
        alpha = cauchy_rate(params)
        X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
        traj = integrate(mode, params, (0.0, 32.0 / alpha), X0, tol=cfg["tol"], branch="interior")
        fit = fit_horizon(traj, mode, params)
        rec.update({"alpha": fit.alpha, "rate": fit.rate, "h": fit.h,
                    "window": list(fit.window),
                    "h_imag_max": float(np.abs(np.asarray(fit.h).imag).max())})
        ok = abs(fit.rate - fit.alpha) <= 0.1 * fit.alpha
    rec["pass"] = bool(ok)
    _write_record(outdir, "asymptotics", rec)
    return 0 if ok else 1


TASKS = {
    "horizons": task_horizons,
    "tetrad-check": task_tetrad_check,
    "dirac-verify": task_dirac_verify,
    "angular": task_angular,
    "radial": task_radial,
    "asymptotics": task_asymptotics,
}

DEFAULTS = {
    "M": 1.0, "a": 0.6, "Q": 0.3,
    "omega": 1.3, "k": 0.5, "mass": 0.55, "xi": 1.7,
    "seed": DEFAULT_SEED, "tol": 1e-10, "n_points": 10,
    "N": 64, "count": 8,
    "rstar_min": 1e3, "rstar_max": 1e6, "n_samples": 36,
    "branch": "exterior",
}
# per-task defaults layered over DEFAULTS: the far-field span above is far
# beyond what the adaptive integrator behind `radial` can cover
TASK_DEFAULTS = {
    "radial": {"rstar_min": 10.0, "rstar_max": 200.0},
}


def build_parser():
    ap = argparse.ArgumentParser(prog="kndirac", description=__doc__)
    sub = ap.add_subparsers(dest="task", required=True)
    for name in TASKS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--out", type=str, default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        for key in ("omega", "k", "mass", "xi", "M", "a", "Q", "rstar-min", "rstar-max"):
            p.add_argument(f"--{key}", type=float, default=None, dest=key.replace("-", "_"))
        p.add_argument("--branch", choices=("exterior", "interior"), default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--count", type=int, default=None)
        p.add_argument("--n-points", type=int, default=None, dest="n_points")
        p.add_argument("--n-samples", type=int, default=None, dest="n_samples")
    return ap


def load_config(args):
    cfg = {**DEFAULTS, **TASK_DEFAULTS.get(args.task, {})}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ValueError("a config file must hold one JSON object")
        unknown = set(file_cfg) - set(DEFAULTS)
        if unknown:
            raise KeyError(f"unknown config keys: {sorted(unknown)}")
        for key, val in file_cfg.items():
            # each value takes the type of its default; an int may stand for a float
            want = type(DEFAULTS[key])
            if isinstance(val, bool) or not (isinstance(val, want) or (want is float and isinstance(val, int))):
                raise ValueError(f"config key {key!r} must be {want.__name__}, got {val!r}")
        cfg.update(file_cfg)
    for key in cfg:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args)
        SpacetimeParams(M=cfg["M"], a=cfg["a"], Q=cfg["Q"])  # finite and slow
        ModeParams(omega=cfg["omega"], k=cfg["k"], m=cfg["mass"], xi=cfg["xi"])
        if cfg["branch"] not in ("exterior", "interior"):
            raise ValueError(f"invalid branch {cfg['branch']!r}")
    except (KeyError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        return TASKS[args.task](cfg, args.out)
    except ValueError as exc:
        print(f"configuration error in task {args.task}: {exc}", file=sys.stderr)
        return 2
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in task {args.task}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
