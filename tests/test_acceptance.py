"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
summary lines and timings.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from conftest import random_regular_point, random_slow_params
from scipy.integrate import quad
from scipy.linalg import expm

from kndirac.angular import DiscretizationSpec, angular_eigenpairs, xi_continuation
from kndirac.cli import main as cli_main
from kndirac.dirac import (
    assembled_dirac_stencil,
    b_term_closed,
    b_term_numeric,
    conjugated_stencil_numeric,
    dirac_stencil,
    general_dirac_matrices,
    transform_stencil,
)
from kndirac.geometry import BLPoint, SpacetimeParams, inverse_metric, temporal_minors, tortoise_inverse
from kndirac.radial import (
    IntegrationError,
    cauchy_rate,
    far_field_trajectory,
    fit_horizon,
    fit_infinity,
    integrate,
    strip_horizon_phase,
)
from kndirac.separation import ModeParams, _potential_entries, _stacked
from kndirac.tetrads import orthonormal_bl, orthonormal_u_ef
from test_separation import integrate_angular, integrate_radial_tilde, potential_trace


# ---------------------------------------------------------------------------
# Dormand-Prince: the adaptive oracle of criterion 9 and of the radial tests,
# which `src/` integrates by Filon-Magnus steps alone

# Dormand-Prince 4(5) tableau, rows of A as arrays.  Row 6 of A holds the
# fifth-order weights B5 (whose last entry is 0), so the last stage of an
# accepted step is the first stage of the next ("first same as last").
_DP_A = [np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4  # B5 - B4: the embedded error weights
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])  # nodes of stages 1..6


def integrate_linear_system(matrix, span, X0, tol=1e-10, max_steps=2_000_000):
    """Adaptive Dormand-Prince integration of dX/dt = matrix(t) X.

    `matrix` takes a 1-d array of times and returns the stacked matrices,
    shape (len(t), n, n).  The system is linear, so every stage node of a
    step is known before any stage is computed: `matrix` is called once per
    attempted step, on the six nodes t + c_i h, plus once at the start.  The
    first stage reuses the last stage of the previous accepted step (FSAL),
    or the step's own first stage after a rejection.

    Returns (t samples, X samples, accepted, rejected).  Raises
    IntegrationError on a non-finite error estimate, on step-size underflow
    or when more than `max_steps` steps are attempted, naming t, h and the
    step counts.
    """
    t0, t1 = float(span[0]), float(span[1])
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = np.asarray(X0, dtype=complex)
    atol = tol * 1e-2
    h = direction * max(1e-6, abs(t1 - t0) * 1e-4)
    # sample buffers, grown geometrically: a list of one small array per step
    # costs several times the memory of the samples themselves
    ts = np.empty(1024)
    ys = np.empty((1024,) + y.shape, dtype=complex)
    ts[0], ys[0] = t, y
    K = np.empty((7,) + y.shape, dtype=complex)
    K[0] = matrix(np.array([t]))[0] @ y
    accepted = rejected = 0
    while (t1 - t) * direction > 0:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        U = matrix(t + _DP_C * h)
        for i in range(1, 7):
            yi = y + h * _DP_A[i].dot(K[:i])
            K[i] = U[i - 1].dot(yi)
        y5 = yi  # row 6 of A is B5
        sc = atol + tol * max(np.abs(y).max(), np.abs(y5).max())
        err = math.sqrt(float((np.abs(h * (_DP_E @ K)) ** 2).sum()) / y.size) / sc
        if not math.isfinite(err):
            raise IntegrationError(
                f"non-finite error estimate in radial integration at t={t!r}, h={h!r} "
                f"after {accepted} accepted and {rejected} rejected steps", t)
        if err <= 1.0:
            t += h
            y = y5
            K[0] = K[6]
            accepted += 1
            if accepted == len(ts):
                ts = np.concatenate([ts, np.empty_like(ts)])
                ys = np.concatenate([ys, np.empty_like(ys)])
            ts[accepted], ys[accepted] = t, y
        else:
            rejected += 1
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(
                f"step size underflow in radial integration at t={t!r}, h={h!r} "
                f"after {accepted} accepted and {rejected} rejected steps", t)
        if accepted + rejected > max_steps:
            raise IntegrationError(
                f"step budget of {max_steps} exhausted in radial integration at t={t!r}, "
                f"h={h!r} after {accepted} accepted and {rejected} rejected steps", t)
    return ts[:accepted + 1].copy(), ys[:accepted + 1].copy(), accepted, rejected


def exterior_system(s, mode, params):
    """Coefficient matrix J U of the exterior system dX/ds = J U X in the log
    offset s = log(r - r_plus): the Dormand-Prince oracle's form of what
    exterior `integrate` steps at carrier 0 below the mass threshold and on or
    near turning points.

    r = r_plus + e^s, Delta = e^s (r - r_minus), which no rounding of r
    cancels, and J = drstar/ds = (r^2 + a^2) / (r - r_minus), which tends to
    kp at the event horizon and to r at infinity.  r is explicit in s, so no
    tortoise inversion is needed at the nodes.
    """
    e = np.exp(s)
    r = params.r_plus + e
    gap = params.r_plus - params.r_minus + e  # r - r_minus
    delta = e * gap
    jac = (r * r + params.a ** 2) / gap
    return _stacked(*(jac * u for u in _potential_entries(r, delta, np.sqrt(delta), 1.0, mode, params)))


def report(num, ok, detail, t0, limit):
    dt = time.time() - t0
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} ({detail}; {dt:.1f}s / limit {limit:.0f}s)"
    print(line)
    assert ok, line
    assert dt < limit, f"criterion {num} exceeded runtime: {dt:.1f}s > {limit}s"


def test_criterion_1_clifford_relation():
    t0 = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        p = BLPoint(r, th)
        charts = [("EF", orthonormal_u_ef(p, par)[0])]
        if r > par.r_plus * 1.001 or r < par.r_plus * 0.999:
            charts.append(("BL", orthonormal_bl(p, par)))
        for chart, tet in charts:
            G = general_dirac_matrices(tet)
            ginv = inverse_metric(p, chart, par)
            for mu in range(4):
                for nu in range(mu, 4):
                    res = 0.5 * (G[mu] @ G[nu] + G[nu] @ G[mu]) - ginv[mu, nu] * np.eye(4)
                    worst = max(worst, float(np.abs(res).max()))
    report(1, worst < 1e-9, f"max anticommutator residual {worst:.2e} < 1e-9", t0, 5.0)


def test_criterion_2_spin_connection_reproduction():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        p = BLPoint(r, th)
        worst = max(worst, float(np.abs(
            b_term_numeric(p, par, h=1e-5) - b_term_closed(p, par)).max()))
    # observed finite-difference order; probe point chosen where truncation
    # dominates rounding at h = 1e-5
    par = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
    p = BLPoint(1.2, 0.7)
    errs = [float(np.abs(b_term_numeric(p, par, h=h) - b_term_closed(p, par)).max())
            for h in (1e-3, 1e-4, 1e-5)]
    order = float(np.polyfit(np.log10([1e-3, 1e-4, 1e-5]), np.log10(errs), 1)[0])
    ok = worst < 1e-6 and 1.7 <= order <= 2.3
    report(2, ok, f"max residual {worst:.2e} < 1e-6, FD order {order:.2f} in [1.7, 2.3]", t0, 10.0)


def test_criterion_3_operator_assembly_and_transform():
    t0 = time.time()
    rng = np.random.default_rng(103)
    dual = conj = 0.0
    n = 0
    while n < 25:
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        if abs(r - par.r_plus) < 0.05 * par.M:
            continue
        n += 1
        p = BLPoint(r, th)
        m = float(rng.uniform(0.0, 1.0))
        st = dirac_stencil(p, par)
        dual = max(dual, float(np.abs(st.coeffs - assembled_dirac_stencil(p, par).coeffs).max()))
        tr = transform_stencil(p, par, m)
        orc = conjugated_stencil_numeric(st, p, par, m, h=1e-5)
        conj = max(conj, float(np.abs(tr.coeffs - orc.coeffs).max()))
    ok = dual < 1e-10 and conj < 1e-6
    report(3, ok, f"dual assembly {dual:.2e} < 1e-10, conjugation oracle {conj:.2e} < 1e-6", t0, 10.0)


def test_criterion_4_temporal_function():
    t0 = time.time()
    rng = np.random.default_rng(104)
    ok = True
    worst_min = np.inf
    for _ in range(10):
        par = random_slow_params(rng)
        rs = np.linspace(par.r_minus + 1e-6, 100.0 * par.M, 200)
        ths = np.linspace(1e-3, math.pi - 1e-3, 50)
        R, T = np.meshgrid(rs, ths)
        d1, d2, d3 = temporal_minors(R, T, par)
        m = min(d1.min(), d2.min(), d3.min())
        worst_min = min(worst_min, m)
        ok = ok and (m > 0)
    report(4, ok, f"all minors positive on 200x50 grids, min {worst_min:.2e}", t0, 5.0)


def test_criterion_5_separation_consistency():
    t0 = time.time()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(20):
        par = random_slow_params(rng)
        om = float(rng.uniform(0.4, 1.6) * rng.choice([-1, 1]))
        mode = ModeParams(omega=om, k=float(rng.integers(-3, 3) + 0.5),
                          m=float(rng.uniform(0.1, 0.9)), xi=float(rng.uniform(0.6, 2.0)))
        r0 = par.r_plus + par.M * float(rng.uniform(0.5, 2.0))
        ev_r = integrate_radial_tilde(mode, par, r0, r0 + par.M,
                                      np.array([0.9 + 0.2j, -0.5 + 0.1j]))
        ev_a = integrate_angular(mode, par, 1.0, 2.1, np.array([0.7 - 0.2j, 0.4 + 0.5j]))
        r, th = r0 + 0.4 * par.M, 1.4
        X, dX = ev_r(r)
        Y, dY = ev_a(th)
        phi = np.array([X[1] * Y[1], X[0] * Y[0], X[0] * Y[1], X[1] * Y[0]])
        dphi_r = np.array([dX[1] * Y[1], dX[0] * Y[0], dX[0] * Y[1], dX[1] * Y[0]])
        dphi_t = np.array([X[1] * dY[1], X[0] * dY[0], X[0] * dY[1], X[1] * dY[0]])
        p = BLPoint(r, th)
        tr = transform_stencil(p, par, mode.m)
        out = tr.apply_mode(mode.omega, mode.k, phi, dphi_r, dphi_t)
        worst = max(worst, float(np.abs(out).max() / max(np.abs(phi).max(), 1e-30)))
    report(5, worst < 1e-8, f"transformed-operator residual on separated ansatz {worst:.2e} < 1e-8",
           t0, 30.0)


def test_criterion_6_angular_spectrum():
    t0 = time.time()
    par = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
    rng = np.random.default_rng(106)
    # realness is exact by symmetric construction; check the full chain anyway
    mode = ModeParams(omega=1.1, k=1.5, m=0.5, xi=0.0)
    p128 = angular_eigenpairs(mode, DiscretizationSpec(N=128), par, count=6)
    p256 = angular_eigenpairs(mode, DiscretizationSpec(N=256), par, count=6)
    conv = float(np.abs(np.array([q.xi for q in p128]) - np.array([q.xi for q in p256])).max())
    im_max = max(abs(np.imag(q.xi)) for q in p128)
    # Gram matrix via independent quadrature
    from test_angular import gl_grid, sin_measure_inner
    from kndirac.angular import eigenfunction_values
    th, wq = gl_grid(600)
    Ys = [eigenfunction_values(q, mode, th) for q in p128]
    G = np.array([[sin_measure_inner(th, wq, Ya, Yb) for Yb in Ys] for Ya in Ys])
    gram = float(np.abs(G - np.eye(len(Ys))).max())
    # minimum gap over random slow modes
    min_gap = np.inf
    for _ in range(50):
        rpar = random_slow_params(rng)
        rmode = ModeParams(omega=float(rng.uniform(-1.5, 1.5)),
                           k=float(rng.integers(-3, 3) + 0.5),
                           m=float(rng.uniform(0.0, 1.0)), xi=0.0)
        xs = np.array([q.xi for q in angular_eigenpairs(rmode, DiscretizationSpec(N=48),
                                                        rpar, count=10)])
        min_gap = min(min_gap, float(np.min(np.diff(np.sort(xs)))))
    # omega-branch continuity under sweep reversal
    sweep_mode = ModeParams(omega=0.0, k=0.5, m=0.0, xi=0.0)
    oms = np.linspace(0.0, 0.5 / par.a, 15)
    fwd = xi_continuation(oms, sweep_mode, DiscretizationSpec(N=48), par, branch_n=1)
    bwd = xi_continuation(oms[::-1], sweep_mode, DiscretizationSpec(N=48), par, branch_n=1)
    rev = float(np.abs(bwd[::-1] - fwd).max())
    ok = im_max < 1e-8 and gram < 1e-8 and conv < 1e-8 and min_gap > 1e-6 and rev < 1e-8
    report(6, ok, f"Im xi {im_max:.1e}, Gram {gram:.2e}, N->2N {conv:.2e}, "
                  f"gap {min_gap:.2e}, reversal {rev:.2e}", t0, 60.0)


INFTY_SEEDS = [
    (SpacetimeParams(M=1.0, a=0.6, Q=0.3), ModeParams(omega=1.3, k=0.5, m=0.55, xi=1.7)),
    (SpacetimeParams(M=1.0, a=0.3, Q=0.5), ModeParams(omega=-1.1, k=-0.5, m=0.4, xi=1.1)),
    (SpacetimeParams(M=1.5, a=0.9, Q=0.3), ModeParams(omega=0.9, k=1.5, m=0.35, xi=0.9)),
    (SpacetimeParams(M=0.8, a=0.4, Q=0.2), ModeParams(omega=1.7, k=-1.5, m=0.8, xi=2.1)),
    (SpacetimeParams(M=1.0, a=0.7, Q=0.0), ModeParams(omega=0.7, k=2.5, m=0.25, xi=1.3)),
]


@pytest.fixture(scope="module")
def far_field_runs():
    runs = []
    for par, mode in INFTY_SEEDS:
        X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
        runs.append((par, mode, far_field_trajectory(mode, par, X0, u_min=1e3, u_max=1e6,
                                                     n_samples=36)))
    return runs


def test_criterion_7_infinity_asymptotics(far_field_runs):
    t0 = time.time()
    slopes, ablated = [], []
    for par, mode, traj in far_field_runs:
        fit = fit_infinity(traj, mode, par)
        slopes.append(fit.slope)
        ablated.append(fit_infinity(traj, mode, par, ablate_log_phase=True).slope)
    ok = all(-1.3 <= s <= -0.7 for s in slopes) and all(s > -0.3 for s in ablated)
    report(7, ok, "slopes " + ", ".join(f"{s:.2f}" for s in slopes)
           + " in [-1.3,-0.7]; ablated " + ", ".join(f"{s:.2f}" for s in ablated)
           + " > -0.3", t0, 120.0)


HORIZON_SEEDS = [
    (SpacetimeParams(M=1.0, a=0.6, Q=0.3), ModeParams(omega=0.9, k=1.5, m=0.6, xi=1.3)),
    (SpacetimeParams(M=1.0, a=0.3, Q=0.6), ModeParams(omega=-0.7, k=0.5, m=0.45, xi=0.8)),
    (SpacetimeParams(M=1.2, a=0.8, Q=0.4), ModeParams(omega=1.2, k=-0.5, m=0.3, xi=1.9)),
    (SpacetimeParams(M=0.9, a=0.5, Q=0.5), ModeParams(omega=0.5, k=2.5, m=0.7, xi=1.1)),
    (SpacetimeParams(M=1.0, a=0.85, Q=0.2), ModeParams(omega=1.0, k=-1.5, m=0.5, xi=1.5)),
]


@pytest.fixture(scope="module")
def interior_runs():
    runs = []
    for par, mode in HORIZON_SEEDS:
        al = cauchy_rate(par)
        X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
        runs.append((par, mode, integrate(mode, par, (0.0, 32.0 / al), X0,
                                          tol=1e-11, branch="interior")))
    return runs


def test_criterion_8_cauchy_horizon_asymptotics(interior_runs):
    t0 = time.time()
    rels, cauchy_ok = [], True
    for par, mode, traj in interior_runs:
        fit = fit_horizon(traj, mode, par)
        rels.append(abs(fit.rate - fit.alpha) / fit.alpha)
        # Cauchy test: successive tail differences decay exponentially
        h = strip_horizon_phase(traj, mode, par)
        al = fit.alpha
        probes = np.array([4.0, 7.0, 10.0]) / al
        diffs = []
        for s in probes:
            i = np.searchsorted(traj.rstar, s)
            j = np.searchsorted(traj.rstar, s + 8.0 / al)
            diffs.append(np.linalg.norm(h[i] - h[j]))
        ratio = np.array(diffs[:-1]) / np.maximum(np.array(diffs[1:]), 1e-300)
        cauchy_ok = cauchy_ok and bool(np.all(ratio > math.exp(0.5 * al * 3.0 / al)))
    ok = all(r <= 0.10 for r in rels) and cauchy_ok
    report(8, ok, "rate errors " + ", ".join(f"{100*r:.1f}%" for r in rels)
           + f" <= 10%; tail differences decay: {cauchy_ok}", t0, 120.0)


def test_criterion_8_fit_windows_hold_44_samples_or_more(interior_runs):
    # the interior samples lie 0.25/alpha apart, so the fit window
    # alpha rstar in [8, 19] holds 45 of them, or 44 where the sample at 19
    # rounds past the window's end, and the rate is the least-squares slope
    # over exactly those: the guard on short windows leaves criterion 8's
    # fits as they are
    for par, mode, traj in interior_runs:
        fit = fit_horizon(traj, mode, par)
        inside = (traj.rstar >= 8.0 / fit.alpha) & (traj.rstar <= 19.0 / fit.alpha)
        assert np.count_nonzero(inside) in (44, 45)
        assert fit.window == (traj.rstar[inside][0], traj.rstar[inside][-1])
        err = np.linalg.norm(strip_horizon_phase(traj, mode, par) - fit.h, axis=1)
        assert -fit.rate == np.polyfit(traj.rstar[inside], np.log(err[inside]), 1)[0]


def test_magnus_step_counts_are_pinned(far_field_runs, interior_runs):
    # the settled Magnus steps of criteria 7 and 8 and of the near-extremal
    # hole a = 0.95, Q = 0.3 at tol 1e-11.  A change to the order of the
    # kernel's arithmetic leaves them where they are; a change to the step
    # selection moves them, and updates these counts with its reasons
    assert [traj.steps for _, _, traj in far_field_runs] == [70, 70, 70, 70, 72]
    assert [traj.steps for _, _, traj in interior_runs] == [2570, 636, 2126, 2724, 1454]
    par, mode = SpacetimeParams(M=1.0, a=0.95, Q=0.3), HORIZON_SEEDS[0][1]
    X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
    near = integrate(mode, par, (0.0, 32.0 / cauchy_rate(par)), X0, tol=1e-11, branch="interior")
    assert near.steps == 6414


def test_criterion_9_integrator_health(far_field_runs, interior_runs):
    t0 = time.time()
    # constant-coefficient exponential and superposition at 10x tolerance
    A = np.array([[0.2 + 1.1j, 0.15 - 0.2j], [-0.1 + 0.05j, -0.3j]])
    X0 = np.array([1.0 + 0.0j, 0.4 - 0.7j])
    tol = 1e-11
    _, ys, _, _ = integrate_linear_system(
        lambda t: np.broadcast_to(A, np.shape(t) + A.shape), (0.0, 3.0), X0, tol=tol)
    const_err = float(np.abs(ys[-1] - expm(3.0 * A) @ X0).max() / np.abs(ys[-1]).max())
    par, mode = INFTY_SEEDS[0]
    c = 2.0 + 1.0j
    ta = integrate(mode, par, (20.0, 60.0), X0, tol=1e-10)
    tb = integrate(mode, par, (20.0, 60.0), c * X0, tol=1e-10)
    super_err = float(np.abs(tb.X[-1] - c * ta.X[-1]).max() / np.abs(ta.X[-1]).max())

    def quad_trace(u0, u1, mode, par, branch):
        def tr_re(u):
            r = tortoise_inverse(u, branch, par)
            return potential_trace(r, mode, par).real

        def tr_im(u):
            r = tortoise_inverse(u, branch, par)
            return potential_trace(r, mode, par).imag

        re, _ = quad(tr_re, u0, u1, limit=400, epsabs=1e-13, epsrel=1e-13)
        im, _ = quad(tr_im, u0, u1, limit=400, epsabs=1e-13, epsrel=1e-13)
        return re + 1j * im

    def drift_against_quadrature(us, dets, mode, par, branch):
        drift, acc = 0.0, 0.0 + 0.0j
        for i in range(1, len(us)):
            acc += quad_trace(us[i - 1], us[i], mode, par, branch)
            drift = max(drift, abs(dets[i] - dets[0] * np.exp(acc)) / abs(dets[0]))
        return drift

    drifts = []
    # every far-field Magnus trajectory records its cumulative propagator
    # determinant; audit det = exp(int tr U) against quadrature
    for par, mode, traj in far_field_runs:
        acc = 0.0 + 0.0j
        drift = 0.0
        idx = range(0, len(traj.rstar), 7)
        prev = traj.rstar[0]
        for i in idx:
            if i == 0:
                continue
            acc += quad_trace(prev, traj.rstar[i], mode, par, "exterior")
            prev = traj.rstar[i]
            drift = max(drift, abs(traj.prop_det[i] - np.exp(acc)))
        drifts.append(drift)
    # every interior trajectory: integrate once more on the same span from an
    # independent X0 and compare the Wronskian det(Xa, Xb) with the quadrature
    for par, mode, traj in interior_runs:
        other = integrate(mode, par, (traj.rstar[0], traj.rstar[-1]), np.array([0.1j, 1.0]),
                          tol=traj.tol, branch="interior")
        assert np.array_equal(other.rstar, traj.rstar)
        idx = np.linspace(0, len(traj.rstar) - 1, 9, dtype=int)
        Xa, Xb = traj.X[idx], other.X[idx]
        dets = Xa[:, 0] * Xb[:, 1] - Xa[:, 1] * Xb[:, 0]
        acc = 0.0 + 0.0j
        drift = 0.0
        for i in range(1, len(idx)):
            acc += quad_trace(traj.rstar[idx[i - 1]], traj.rstar[idx[i]], mode, par, "interior")
            drift = max(drift, abs(dets[i] - dets[0] * np.exp(acc)) / abs(dets[0]))
        drifts.append(drift)
    worst_drift = max(drifts)
    ok = const_err < 10 * tol and super_err < 10 * 1e-10 and worst_drift < 10 * 1e-9
    report(9, ok, f"const-U {const_err:.2e}, superposition {super_err:.2e}, "
                  f"Wronskian drift {worst_drift:.2e}", t0, 60.0)


def test_criterion_10_cli_determinism(tmp_path):
    t0 = time.time()
    ok = True
    jobs = [
        (["horizons"], []),
        (["dirac-verify", "--n-points", "4"], []),
        (["angular", "--N", "24", "--count", "4"], []),
        (["radial", "--rstar-min", "10", "--rstar-max", "30", "--tol", "1e-9"], []),
    ]
    for argv, _ in jobs:
        o1 = str(tmp_path / ("a-" + argv[0]))
        o2 = str(tmp_path / ("b-" + argv[0]))
        rc1 = cli_main(argv + ["--out", o1])
        rc2 = cli_main(argv + ["--out", o2])
        ok = ok and rc1 == rc2 == 0
        for fn in sorted(os.listdir(o1)):
            with open(os.path.join(o1, fn), "rb") as fa, open(os.path.join(o2, fn), "rb") as fb:
                ok = ok and fa.read() == fb.read()
    report(10, ok, "repeated CLI runs byte-identical across 4 tasks", t0, 60.0)
