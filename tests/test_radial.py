import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from test_acceptance import HORIZON_SEEDS, INFTY_SEEDS, exterior_system, integrate_linear_system
from test_separation import potential_trace, radial_potential, radial_potential_from_r

from kndirac.geometry import (
    SpacetimeParams,
    _kappas,
    _offset_terms,
    _offset_tortoise,
    azimuthal_shift,
    delta_sigma,
    log_offset,
    tortoise,
    tortoise_inverse,
)
from kndirac.separation import ModeParams, _potential_entries, _potential_slopes, _stacked
from kndirac.radial import (
    IntegrationError,
    RadialTrajectory,
    asymptotic_phases,
    boost_matrix,
    cauchy_rate,
    far_field_trajectory,
    fit_horizon,
    fit_infinity,
    horizon_angular_velocity,
    integrate,
    strip_horizon_phase,
    theta_boost,
    w_roots,
    _F1,
    _F2,
    _F3,
    _LAGRANGE,
    _NODES,
    _WEIGHTS,
    _adiabatic_frame,
    _eigenbasis,
    _cauchy_nu,
    _coupling,
    _expm2,
    _exterior_entries,
    _filon_magnus_steps,
    _frame_holds,
    _frame_steps,
    _horizon_basis,
    _horizon_coupling,
    _horizon_frame_holds,
    _horizon_frame_steps,
    _interior_steps,
    _moments,
    _ordered_product,
    _plain_steps,
    _propagated,
    _sample_grid,
    _settled_steps,
    _uniform_edges,
)

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
MODE = ModeParams(omega=1.3, k=0.5, m=0.55, xi=1.7)
# below the mass threshold: U has no two imaginary eigenvalues far out, so
# exterior `integrate` carries X itself at carrier 0
SUBLUMINAL = ModeParams(omega=0.3, k=0.5, m=0.8, xi=0.9)
# xi = 10: the discriminant of U changes sign at rstar = -2.07 and 10.10
TURNING = ModeParams(omega=1.3, k=0.5, m=0.55, xi=10.0)


def test_w_roots_massless():
    w1, w2 = w_roots(2.0, 0.0)
    assert w1 == 2.0 and w2 == -2.0


def test_w_roots_static():
    w1, _ = w_roots(0.0, 1.0)
    assert w1 == 1j


def test_w_roots_pythagorean():
    w1, w2 = w_roots(5.0, 3.0)
    assert w1 == 4.0 and w2 == -4.0


def test_w_roots_threshold_and_degenerate():
    w1, _ = w_roots(1.0, 1.0)
    assert w1 == 0.0
    with pytest.raises(ValueError):
        w_roots(0.0, 0.0)


def test_theta_boost_massless_identity():
    th = theta_boost(1.7, 0.0)
    assert th == 0.0
    assert np.abs(boost_matrix(th) - np.eye(2)).max() == 0.0


def test_theta_boost_value():
    assert math.isclose(theta_boost(5.0, 3.0), -0.5 * math.log(2.0), rel_tol=1e-15)


def test_boost_determinant():
    th = theta_boost(5.0, 3.0)
    assert math.isclose(np.linalg.det(boost_matrix(th)), 1.0, rel_tol=1e-14)


def test_theta_boost_singular():
    with pytest.raises(ValueError):
        theta_boost(1.0, 1.0)


def test_phases_massless():
    mode = ModeParams(omega=1.2, k=0.5, m=0.0, xi=0.0)
    u = 7.0
    pp, pm = asymptotic_phases(u, mode, PAR)
    assert math.isclose(pp.real, 1.2 * u + 2 * PAR.M * 1.2 * math.log(u), rel_tol=1e-14)
    # Phi_minus integrates +i lambda_2: the log term flips sign
    assert math.isclose(pm.real, 1.2 * u - 2 * PAR.M * 1.2 * math.log(u), rel_tol=1e-14)


def test_phases_value_at_e():
    mode = ModeParams(omega=5.0, k=0.5, m=3.0, xi=0.0)
    par = SpacetimeParams(M=1.0)
    pp, pm = asymptotic_phases(math.e, mode, par)
    assert math.isclose(pp.real, 4 * math.e + (10 + 9.0 / 4.0), rel_tol=1e-14)
    assert math.isclose(pm.real, 4 * math.e - (10 - 9.0 / 4.0), rel_tol=1e-14)


def test_phase_derivative_matches_eigenvalue():
    # d Phi_plus / du = -i lambda_1 up to O(1/u^2)
    u = 1e4
    h = 1.0
    pp1, _ = asymptotic_phases(u + h, MODE, PAR)
    pp0, _ = asymptotic_phases(u - h, MODE, PAR)
    dphi = (pp1 - pp0) / (2 * h)
    lam = np.linalg.eigvals(radial_potential(u, MODE, PAR, branch="exterior"))
    lam1 = lam[np.argmax(lam.imag)]
    assert abs(dphi - (-1j * lam1)) < 1e-6


def eigen_expansion(mode, params):
    """Leading and 1/rstar coefficients of the eigenvalues of U(rstar).

    lambda_j = i w_j + (i M / rstar)(2 omega + m^2 / w_j) + O(1/rstar^2),
    j = 1, 2 with w_2 = -w_1.
    """
    w1, w2 = w_roots(mode.omega, mode.m)
    if w1 == 0:
        raise ValueError("expansion undefined at the threshold |omega| = m")
    M = params.M
    return {
        "lambda1": (1j * w1, 1j * M * (2 * mode.omega + mode.m**2 / w1)),
        "lambda2": (1j * w2, 1j * M * (2 * mode.omega + mode.m**2 / w2)),
    }


def test_eigen_expansion_against_direct_eigenvalues():
    exp_ = eigen_expansion(MODE, PAR)
    w1 = exp_["lambda1"][0]
    us = np.array([1e5, 1e6, 1e7])
    vals1, vals2 = [], []
    for u in us:
        lam = np.linalg.eigvals(radial_potential(u, MODE, PAR, branch="exterior"))
        lam = lam[np.argsort(-lam.imag)]
        vals1.append((lam[0] - exp_["lambda1"][0]) * u)
        vals2.append((lam[1] - exp_["lambda2"][0]) * u)
    # fit c1 + c2/u and compare the intercept with the predicted coefficient
    for vals, key in ((vals1, "lambda1"), (vals2, "lambda2")):
        c = np.polyfit(1.0 / us, np.array(vals), 1)[1]
        pred = exp_[key][1]
        assert abs(c - pred) / abs(pred) < 0.01


def test_eigen_expansion_massless():
    mode = ModeParams(omega=0.9, k=0.5, m=0.0, xi=0.4)
    exp_ = eigen_expansion(mode, PAR)
    assert abs(exp_["lambda1"][1] - 2j * PAR.M * mode.omega) < 1e-15
    assert abs(exp_["lambda2"][1] - 2j * PAR.M * mode.omega) < 1e-15


def test_eigen_expansion_trace_consistency():
    # lambda1 + lambda2 = tr U to the displayed order: 4 i omega M / rstar
    exp_ = eigen_expansion(MODE, PAR)
    s = exp_["lambda1"][1] + exp_["lambda2"][1]
    assert abs(s - 4j * MODE.omega * PAR.M) < 1e-14
    u = 1e7
    r = tortoise_inverse(u, "exterior", PAR)
    tr = potential_trace(r, MODE, PAR)
    lead = exp_["lambda1"][0] + exp_["lambda2"][0] + s / u
    assert abs(tr - lead) < 1e3 / u**2  # O(1/u^2) remainder


def test_integrator_constant_coefficients():
    A = np.array([[0.2 + 1.1j, 0.15 - 0.2j], [-0.1 + 0.05j, -0.3j]])
    X0 = np.array([1.0 + 0.0j, 0.4 - 0.7j])
    tol = 1e-11
    ts, ys, acc, rej = integrate_linear_system(
        lambda t: np.broadcast_to(A, np.shape(t) + A.shape), (0.0, 3.0), X0, tol=tol)
    exact = expm(3.0 * A) @ X0
    assert np.abs(ys[-1] - exact).max() < 10 * tol * np.abs(exact).max()


def test_integrator_superposition():
    span = (20.0, 60.0)
    tol = 1e-10
    X0 = np.array([1.0 + 0.5j, -0.3 + 0.2j])
    c = 2.0 + 1.0j
    t1 = integrate(MODE, PAR, span, X0, tol=tol)
    t2 = integrate(MODE, PAR, span, c * X0, tol=tol)
    # compare at the common endpoint
    assert np.abs(t2.X[-1] - c * t1.X[-1]).max() < 10 * tol * np.abs(t1.X[-1]).max()


# Dormand-Prince 4(5) with seven separate matrix evaluations per step and no
# stage reuse: the reference the vectorized FSAL integrator must reproduce
_REF_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_REF_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_REF_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_REF_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def reference_dormand_prince(matrix, span, X0, tol=1e-10, max_steps=2_000_000):
    """`matrix(t)` takes one time and returns one matrix."""
    t0, t1 = float(span[0]), float(span[1])
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = np.asarray(X0, dtype=complex).copy()
    atol = tol * 1e-2
    h = direction * max(1e-6, abs(t1 - t0) * 1e-4)
    ts = [t]
    ys = [y.copy()]
    K = [None] * 7
    accepted = rejected = 0
    while (t1 - t) * direction > 0:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        K[0] = matrix(t) @ y
        for i in range(1, 7):
            yi = y + h * sum(_REF_A[i][j] * K[j] for j in range(i))
            K[i] = matrix(t + _REF_C[i] * h) @ yi
        y5 = y + h * sum(_REF_B5[i] * K[i] for i in range(7))
        y4 = y + h * sum(_REF_B4[i] * K[i] for i in range(7))
        sc = atol + tol * max(np.max(np.abs(y)), np.max(np.abs(y5)))
        err = math.sqrt(float(np.mean(np.abs(y5 - y4) ** 2))) / sc
        if err <= 1.0:
            t += h
            y = y5
            ts.append(t)
            ys.append(y.copy())
            accepted += 1
        else:
            rejected += 1
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise ArithmeticError("step size underflow in radial integration")
        if accepted + rejected > max_steps:
            raise ArithmeticError("step budget exhausted in radial integration")
    return np.array(ts), np.array(ys), accepted, rejected


@pytest.mark.parametrize("branch", ["interior", "exterior"])
def test_integrate_matches_seven_evaluation_reference(branch, monkeypatch):
    if branch == "exterior":
        # below the mass threshold exterior `integrate` carries X itself at
        # carrier 0; the reference steps dX/ds = J U X in s = log(r - r_plus)
        # at a tighter tol
        mode, span = SUBLUMINAL, (10.0, 60.0)
        X0 = np.array([1.0 + 0.0j, 0.5 - 0.25j])
        traj = integrate(mode, PAR, span, X0, tol=1e-10)
        ts, ys, _, _ = reference_dormand_prince(lambda s: exterior_system(s, mode, PAR),
                                                log_offset(np.array(span), "exterior", PAR), X0, tol=1e-13)
        assert abs(traj.rstar[-1] - _offset_tortoise(ts[-1], "exterior", PAR)) <= 1e-12 * abs(span[1])
        assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-9 * np.abs(ys[-1]).max()
        return
    # the interior Dormand-Prince oracle integrates the phase-stripped h
    # through horizon_B
    mode, span, tol = IMODE, (0.0, 32.0 / cauchy_rate(PAR)), 1e-11
    X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
    nu = 2.0 * (mode.omega + mode.k * horizon_angular_velocity(PAR))
    namespace, name, evaluate = globals(), "horizon_B", lambda t: horizon_B(t, mode, PAR)
    phase = lambda t: np.array([np.exp(1j * nu * t), 1.0])
    calls = []
    original = namespace[name]

    def counted(t, *args, **kwargs):
        calls.append(np.shape(t))
        return original(t, *args, **kwargs)

    monkeypatch.setitem(namespace, name, counted)
    traj = interior_dormand_prince(mode, PAR, span, X0, tol=tol)
    monkeypatch.undo()
    ts, ys, acc, rej = reference_dormand_prince(evaluate, span, X0 / phase(span[0]), tol=tol)
    end = phase(ts[-1]) * ys[-1]
    assert (traj.steps, traj.rejected) == (acc, rej)
    assert abs(traj.rstar[-1] - ts[-1]) <= 1e-12 * abs(span[1])
    assert np.abs(traj.X[-1] - end).max() < 10 * tol * np.abs(end).max()
    # one call at the start, then one per attempted step on its six nodes
    assert len(calls) == acc + rej + 1
    assert calls[0] == (1,) and set(calls[1:]) == {(6,)}


def test_step_budget_failure_names_the_state():
    A = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    with pytest.raises(ArithmeticError, match=r"t=.*h=.*accepted and \d+ rejected"):
        integrate_linear_system(lambda t: np.broadcast_to(A, np.shape(t) + A.shape),
                                (0.0, 1e4), np.array([1.0, 0.0]), tol=1e-10, max_steps=10)


def test_non_finite_error_estimate_stops_at_once():
    # NaN entries from t = 0.5 on: a NaN error norm used to count as a
    # rejection that grew h fivefold, until all 20,001 attempts of a
    # 20,000-step budget were spent
    A = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    calls = []

    def matrix(t):
        calls.append(t)
        return np.where((t < 0.5)[:, None, None], A, np.nan)

    with pytest.raises(IntegrationError, match=r"non-finite error estimate .* at t=") as info:
        integrate_linear_system(matrix, (0.0, 10.0), np.array([1.0, 0.0]), tol=1e-10, max_steps=20_000)
    assert 0.0 < info.value.t < 0.5
    assert len(calls) < 100


@pytest.mark.parametrize("branch,mode,span,budget", [
    pytest.param("exterior", MODE, (10.0, 60.0), "_FRAME_STEP_BUDGET", id="exterior-span0"),
    pytest.param("exterior", SUBLUMINAL, (10.0, 60.0), "_STEP_BUDGET", id="exterior-subluminal"),
    pytest.param("interior", MODE, (0.0, 100.0), "_STEP_BUDGET", id="interior-span1"),
])
def test_integrate_budget_error_names_the_mode(branch, mode, span, budget, monkeypatch):
    # the adiabatic frame and carrier 0 step in s = log(r - r_plus), and
    # integrate reports the stop in rstar on every path
    import kndirac.radial

    monkeypatch.setattr(kndirac.radial, budget, 10)
    with pytest.raises(IntegrationError, match=rf"{branch} integration of the mode "
                                               rf"omega={re.escape(repr(mode.omega))}, k=0\.5, "
                                               rf"m={re.escape(repr(mode.m))}, xi={re.escape(repr(mode.xi))} "
                                               r"stopped at rstar=.*budget of 10") as info:
        integrate(mode, PAR, span, np.array([1.0, 0.5j]), branch=branch)
    assert span[0] < info.value.t < span[1]
    assert f"rstar={info.value.t!r}" in str(info.value)


def test_exterior_integrate_inverts_only_the_endpoints(monkeypatch):
    # below the mass threshold r is explicit in s = log(r - r_plus): one
    # inversion of the two span endpoints per trajectory, and none at the
    # Gauss nodes of the carrier-0 steps
    import kndirac.geometry
    import kndirac.radial

    calls = []
    original = kndirac.geometry.log_offset

    def counted(rstar, region, params):
        calls.append(np.size(rstar))
        return original(rstar, region, params)

    for module in (kndirac.geometry, kndirac.radial):
        monkeypatch.setattr(module, "log_offset", counted)
    traj = integrate(SUBLUMINAL, PAR, (10.0, 70.0), np.array([1.0 + 0.0j, 0.5 - 0.25j]))
    assert traj.steps > 1000
    assert sum(calls) <= 2 and len(calls) <= 2


def test_frame_integrate_inverts_once_per_halving_level(monkeypatch):
    # in the adiabatic frame each halving level inverts the Gauss nodes of all
    # its steps in one vectorized call; the step edges keep the log offsets
    # they were placed at, and besides the nodes only the span's endpoints
    # take one call
    import kndirac.radial

    calls, levels = [], []
    log_offset_of, steps_of = kndirac.radial.log_offset, kndirac.radial._frame_steps

    def counted(rstar, region, params):
        calls.append(np.size(rstar))
        return log_offset_of(rstar, region, params)

    def level(s_edges, ends, mode, params):
        levels.append(s_edges.shape)
        return steps_of(s_edges, ends, mode, params)

    monkeypatch.setattr(kndirac.radial, "log_offset", counted)
    monkeypatch.setattr(kndirac.radial, "_frame_steps", level)
    integrate(MODE, PAR, (10.0, 60.0), np.array([1.0 + 0.0j, 0.5 - 0.25j]))
    assert len(levels) >= 2
    # edges - 1 steps on each of k intervals: 4 Gauss nodes per step
    assert calls == [2] + [4 * (edges - 1) * k for edges, k in levels]


@pytest.mark.parametrize("mode,span,branch,most", [(SUBLUMINAL, (10.0, 60.0), "exterior", 2),
                                                   (TURNING, (10.11, 200.0), "exterior", 2),
                                                   (MODE, (0.0, 20.0), "interior", 0)])
def test_rstar_of_the_step_edges_is_taken_once(mode, span, branch, most, monkeypatch):
    # only the adiabatic frame steps in rstar; at carrier 0 the samples and
    # the settled step edges take one chart call each, and the interior none
    import kndirac.radial

    calls = []
    original = kndirac.radial._offset_tortoise

    def counted(s, region, params):
        calls.append(np.size(s))
        return original(s, region, params)

    monkeypatch.setattr(kndirac.radial, "_offset_tortoise", counted)
    traj = integrate(mode, PAR, span, np.array([1.0 + 0.0j, 0.5 - 0.25j]), branch=branch)
    assert len(calls) <= most
    if branch == "exterior":
        assert calls[-1] == traj.steps + 1


@pytest.mark.parametrize("frame", ["adiabatic", "carrier 0", "interior", "interior frame"])
def test_settled_factors_multiply_to_the_products(frame):
    # each halving level keeps the step edges and exponentials of its
    # pending intervals as it evaluated them, with a mask of those that
    # settled on it; their ordered products are the interval products bit
    # for bit, and every interval settles on exactly one level
    if frame.startswith("interior"):
        samples = np.linspace(0.0, 20.0, 6)
        s_samples = log_offset(samples, "interior", PAR)
        mode, steps_of = MODE, _interior_steps if frame == "interior" else _horizon_frame_steps
    else:
        mode, steps_of = (MODE, _frame_steps) if frame == "adiabatic" else (SUBLUMINAL, _plain_steps)
        s_samples = np.linspace(*log_offset(np.array([10.0, 60.0]), "exterior", PAR), 6)
        samples = _offset_tortoise(s_samples, "exterior", PAR)
    products, settled, steps = _settled_steps(steps_of, mode, PAR, samples, s_samples, 1e-10, 10 ** 5, "on rstar")
    assert len(settled) >= 3
    index = np.concatenate([index[done] for index, done, _, _ in settled])
    assert np.array_equal(np.sort(index), np.arange(len(samples) - 1))
    assert steps == sum((len(s_edges) - 1) * int(done.sum()) for _, done, s_edges, _ in settled)
    for index, done, s_edges, factors in settled:
        assert len(factors) == 4 and all(f.shape == (len(s_edges) - 1, len(index)) for f in factors)
        assert np.array_equal(s_edges[[0, -1]], np.stack([s_samples[index], s_samples[index + 1]]))
        assert np.array_equal(np.array(_ordered_product(*(f[:, done] for f in factors))), products[:, index[done]])


@pytest.mark.parametrize("mode,span", [(MODE, (10.0, 60.0)), (MODE, (-40.0, 0.0)),
                                       (SUBLUMINAL, (260.0, 200.0)), (MODE, (200.0, 10.0)),
                                       (MODE, (1.0, 2e3)), (MODE, (-300.0, -200.0)),
                                       (TURNING, (10.11, 200.0)), (TURNING, (200.0, 12.2))])
def test_exterior_matches_rstar_stepping_oracle(mode, span):
    # oracle: Dormand-Prince on dX/drstar = U X, inverting rstar at every node.
    # MODE takes the adiabatic frame and SUBLUMINAL carrier 0 in s;
    # TURNING starts just past its turning point at rstar = 10.10, where the
    # frame's steps would crowd, so it takes carrier 0, and takes the
    # frame from 12.2 on.  Every step conserves the current |X1|^2 - |X2|^2
    # to rounding; on the growing SUBLUMINAL spans the rounding of
    # |X|^2 ~ 1e14 swamps any difference, so they are left out
    X0 = np.array([1.0 + 0.2j, 0.5 - 0.1j])
    traj = integrate(mode, PAR, span, X0, tol=1e-10)
    _, ys, _, _ = integrate_linear_system(
        lambda t: radial_potential(t, mode, PAR, branch="exterior"), span, X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-8 * np.abs(ys[-1]).max()
    if mode is not SUBLUMINAL:
        J = np.abs(traj.X[:, 0]) ** 2 - np.abs(traj.X[:, 1]) ** 2
        assert np.abs(J - J[0]).max() <= 1e-12 * abs(J[0])


@pytest.mark.parametrize("mode,span", [(SUBLUMINAL, (260.0, 200.0)), (TURNING, (10.11, 200.0)),
                                       (TURNING, (200.0, 12.2))])
def test_exterior_matches_dormand_prince_in_s(mode, span):
    # at tol 1e-10 the end state lies within 1e-9 relative of Dormand-Prince
    # on dX/ds = J U X at tol 1e-13, on carrier 0 and, from 12.2 on TURNING,
    # in the adiabatic frame; SUBLUMINAL on (10, 60) is checked against the
    # seven-evaluation reference
    X0 = np.array([1.0 + 0.2j, 0.5 - 0.1j])
    traj = integrate(mode, PAR, span, X0, tol=1e-10)
    _, ys, _, _ = integrate_linear_system(lambda s: exterior_system(s, mode, PAR),
                                          log_offset(np.array(span), "exterior", PAR), X0, tol=1e-13)
    assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-9 * np.abs(ys[-1]).max()


@pytest.mark.parametrize("span", [(10.0, 3000.0), (10.0, 1e4)])
def test_overflow_is_an_integration_error(span):
    # SUBLUMINAL grows like e^{kappa rstar}, kappa = sqrt(m^2 - omega^2), and
    # leaves the floats near kappa rstar = 710; on (10, 1e4) the products of
    # the outer sample intervals overflow too.  Either way the error names
    # the last finite sample, with no RuntimeWarning on the way
    kappa = math.sqrt(SUBLUMINAL.m ** 2 - SUBLUMINAL.omega ** 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegrationError, match=r"exterior integration of the mode omega=0\.3, k=0\.5, "
                                                   r"m=0\.8, xi=0\.9 stopped at rstar=.*overflows") as info:
            integrate(SUBLUMINAL, PAR, span, np.array([1.0 + 0.2j, 0.5 - 0.1j]))
    assert f"rstar={info.value.t!r}" in str(info.value)
    assert abs(kappa * (info.value.t - span[0]) - math.log(np.finfo(float).max)) < 15.0


@pytest.mark.parametrize("mode,span,holds,positive", [
    (MODE, (10.0, 200.0), True, True), (MODE, (-300.0, 2e3), True, True),
    (SUBLUMINAL, (200.0, 260.0), False, False), (SUBLUMINAL, (1.0, 2e3), False, False),
    (TURNING, (1.0, 2e3), False, False), (TURNING, (0.0, 5.0), False, False),
    (TURNING, (20.0, 200.0), True, True), (TURNING, (-40.0, -5.0), True, True),
    (TURNING, (10.11, 200.0), False, True), (TURNING, (-40.0, -2.1), False, True),
    (TURNING, (12.2, 200.0), True, True), (TURNING, (-40.0, -2.71), True, True),
    (ModeParams(omega=1.3, k=0.5, m=0.55, xi=6.45), (-20.0, 30.0), False, True),
])
def test_frame_choice_matches_dense_discriminant(mode, span, holds, positive):
    # the quartic's roots against the discriminant of `_adiabatic_frame` on
    # 4001 points: (0, 5) lies between the turning points, with no root
    # inside and the discriminant negative throughout.  Spans within 0.25 in
    # s = log(r - r_plus) of a turning point, (10.11, 200) and (-40, -2.1),
    # take carrier 0 although the discriminant is positive on them, and
    # so does xi = 6.45, whose complex pair of roots lies 0.20 off the real
    # axis in s, at rstar = 2.92
    assert _frame_holds(mode, PAR, log_offset(np.array(span), "exterior", PAR)) is holds
    u = np.linspace(*span, 4001)
    try:
        _adiabatic_frame(u, log_offset(u, "exterior", PAR), mode, PAR)
    except ValueError:
        assert not positive
    else:
        assert positive


def test_exterior_deep_span_matches_event_horizon_limit():
    # below rstar = -200 here r - r_plus < 1e-38: U is diag(2 i (omega +
    # k Omega_plus), 0) to rounding, Omega_plus = a / (r_plus^2 + a^2), so X1
    # turns at a fixed rate and X2 is constant.  The inversion clamps r at
    # r_plus (1 + 1e-15), about rstar = -75, so only the polished log offset
    # places the span's endpoints
    span = (-300.0, -200.0)
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = integrate(MODE, PAR, span, X0, tol=1e-10)
    assert abs(traj.rstar[0] - span[0]) <= 1e-13 * abs(span[0])
    assert abs(traj.rstar[-1] - span[1]) <= 1e-13 * abs(span[1])
    nu_plus = 2.0 * (MODE.omega + MODE.k * PAR.a / (PAR.r_plus**2 + PAR.a**2))
    expected = np.array([X0[0] * np.exp(1j * nu_plus * (span[1] - span[0])), X0[1]])
    assert np.abs(traj.X[-1] - expected).max() < 1e-7


@pytest.mark.parametrize("region,rstar", [("exterior", -40.0), ("exterior", 1e6),
                                          ("interior", 40.0), ("interior", 1e3)])
def test_inversion_scalar_matches_array(region, rstar):
    for inverse in (lambda s: tortoise_inverse(s, region, PAR), lambda s: log_offset(s, region, PAR)):
        scalar = inverse(rstar)
        arr = inverse(np.array([rstar, rstar + 1.0]))
        assert type(scalar) is float
        assert arr.shape == (2,)
        assert abs(scalar - arr[0]) <= 1e-14 * abs(arr[0])


def trace_integral(u0, u1, mode, params, branch="exterior"):
    def f_re(u):
        r = tortoise_inverse(u, branch, params)
        return potential_trace(r, mode, params).real

    def f_im(u):
        r = tortoise_inverse(u, branch, params)
        return potential_trace(r, mode, params).imag

    re, _ = quad(f_re, u0, u1, limit=200, epsabs=1e-12, epsrel=1e-12)
    im, _ = quad(f_im, u0, u1, limit=200, epsabs=1e-12, epsrel=1e-12)
    return re + 1j * im


def test_wronskian_abel_identity():
    span = (30.0, 90.0)
    tol = 1e-11
    Xa = integrate(MODE, PAR, span, np.array([1.0, 0.2j]), tol=tol)
    Xb = integrate(MODE, PAR, span, np.array([0.1j, 1.0]), tol=tol)
    det0 = Xa.X[0][0] * Xb.X[0][1] - Xa.X[0][1] * Xb.X[0][0]
    det1 = Xa.X[-1][0] * Xb.X[-1][1] - Xa.X[-1][1] * Xb.X[-1][0]
    grow = np.exp(trace_integral(span[0], span[1], MODE, PAR))
    assert abs(det1 - det0 * grow) < 1e-9 * abs(det0)


def test_trajectory_invariants():
    with pytest.raises(ValueError):
        RadialTrajectory(rstar=np.array([0.0, 1.0, 0.5]), X=np.zeros((3, 2), complex),
                         mode=MODE, params=PAR, branch="exterior", steps=2, rejected=0, tol=1e-9)
    with pytest.raises(ValueError):
        integrate(MODE, PAR, (0.0, 1.0), np.array([1.0, 0.0]), tol=1e-3)
    for branch in ("exterior", "interior"):
        with pytest.raises(ValueError, match="two distinct ends"):
            integrate(MODE, PAR, (5.0, 5.0), np.array([1.0, 0.0]), branch=branch)


# Magnus-4 chunks on stacked (n, 2, 2) matrices: `@` commutator, complex
# closed-form exponential and einsum tree product.  The references the
# component kernels `_expm2` and `_ordered_product` must reproduce, and,
# chunk by chunk over fixed steps, the far-field oracle.

def reference_expm2(Omega):
    mu = 0.5 * (Omega[..., 0, 0] + Omega[..., 1, 1])
    N = Omega.copy()
    N[..., 0, 0] -= mu
    N[..., 1, 1] -= mu
    q2 = N[..., 0, 0] * N[..., 0, 0] + N[..., 0, 1] * N[..., 1, 0]
    q = np.sqrt(q2 + 0j)
    small = np.abs(q) < 1e-8
    qs = np.where(small, 1.0, q)
    sh = np.where(small, 1.0 + q2 / 6.0 + q2 * q2 / 120.0, np.sinh(qs) / qs)
    out = sh[..., None, None] * N
    ch = np.cosh(q)
    out[..., 0, 0] += ch
    out[..., 1, 1] += ch
    return np.exp(mu)[..., None, None] * out


def reference_ordered_product(Ms):
    while Ms.shape[0] > 1:
        n2 = (Ms.shape[0] // 2) * 2
        P = np.einsum("nij,njk->nik", Ms[1:n2:2], Ms[0:n2:2])
        if Ms.shape[0] % 2 == 1:
            P = np.concatenate([P[:-1], (Ms[-1] @ P[-1])[None]])
        Ms = P
    return Ms[0]


_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0


def reference_magnus_chunk(mode, params, ua, ub, nsteps):
    h = (ub - ua) / nsteps
    edges = ua + h * np.arange(nsteps)
    nodes = np.concatenate([edges + _GAUSS_C1 * h, edges + _GAUSS_C2 * h])
    U = radial_potential_from_r(tortoise_inverse(nodes, "exterior", params), mode, params)
    A1, A2 = U[:nsteps], U[nsteps:]
    Om = 0.5 * h * (A1 + A2) + (math.sqrt(3.0) * h * h / 12.0) * (A2 @ A1 - A1 @ A2)
    return reference_ordered_product(reference_expm2(Om))


def reference_far_field(mode, params, X0, u_min, u_max, n_samples, beta=4e-3, max_chunk=100_000):
    """Samples (u, X, prop_det) of fixed-grid Magnus-4 steps h = beta u^{2/5}
    on dX/du = U X itself, chunk by chunk: the oracle that the adiabatic-frame
    propagator must reproduce."""
    us = np.geomspace(u_min, u_max, n_samples)
    X = np.asarray(X0, dtype=complex)
    Xs, dets, det = [X], [1.0 + 0.0j], 1.0 + 0.0j
    for ua, ub in zip(us[:-1], us[1:]):
        n = int(np.ceil((ub - ua) / (beta * ua ** 0.4)))
        start = ua
        while n > 0:
            m = min(n, max_chunk)
            end = start + (ub - start) * (m / n)
            P = reference_magnus_chunk(mode, params, start, end, m)
            X = P @ X
            det *= np.linalg.det(P)
            start, n = end, n - m
        Xs.append(X)
        dets.append(det)
    return us, np.array(Xs), np.array(dets)


def algebra_stack(rng, g, absw, sign=1.0):
    """Stack of matrices [[i(mu+g), w], [sign conj(w), i(mu-g)]], |w| = absw,
    random trace mu and phase of w: u(1,1) for sign = +1, with
    q2 = |w|^2 - g^2, and u(2) for sign = -1, with q2 = -|w|^2 - g^2."""
    n = len(g)
    mu = rng.normal(size=n)
    w = absw * np.exp(2j * np.pi * rng.uniform(size=n))
    Om = np.empty((n, 2, 2), dtype=complex)
    Om[:, 0, 0], Om[:, 0, 1] = 1j * (mu + g), w
    Om[:, 1, 0], Om[:, 1, 1] = sign * np.conj(w), 1j * (mu - g)
    return Om


def test_expm2_matches_scipy():
    rng = np.random.default_rng(11)
    sym = rng.uniform(-0.5, 0.5, 40)
    big = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.6, 2.0, 40)
    stacks = [
        algebra_stack(rng, sym, rng.uniform(0.6, 2.0, 40)),  # q2 > 0: cosh, sinh
        algebra_stack(rng, big, rng.uniform(0.0, 0.5, 40)),  # q2 < 0: cos, sin
        algebra_stack(rng, 1e-10 * sym, 1e-10 * rng.uniform(0.0, 1.0, 40)),  # |q| < 1e-8: series
        np.zeros((1, 2, 2), dtype=complex),
        # u(2), the interior exponents: q2 <= 0 always, so cos, sin or the series
        algebra_stack(rng, sym, rng.uniform(0.0, 2.0, 40), sign=-1.0),
        algebra_stack(rng, 3.0 * big, rng.uniform(1.0, 4.0, 40), sign=-1.0),
        algebra_stack(rng, 1e-10 * sym, 1e-10 * rng.uniform(0.0, 1.0, 40), sign=-1.0),
    ]
    for Om in stacks:
        E = _expm2(Om[:, 0, 0], Om[:, 0, 1], Om[:, 1, 0], Om[:, 1, 1])
        for i in range(len(Om)):
            ref = expm(Om[i])
            got = np.array([[E[0][i], E[1][i]], [E[2][i], E[3][i]]])
            assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", [1, 2, 3, 5, 1000])
def test_ordered_product_matches_sequential(n):
    rng = np.random.default_rng(n)
    Ms = np.eye(2) + 0.1 * (rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2)))
    ref = np.eye(2, dtype=complex)
    for M in Ms:
        ref = M @ ref
    P = _ordered_product(Ms[:, 0, 0], Ms[:, 0, 1], Ms[:, 1, 0], Ms[:, 1, 1])
    assert np.abs(np.array(P).reshape(2, 2) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_magnus_exponents_lie_in_u11(monkeypatch):
    # `_expm2` takes q2 = |o01|^2 - g^2 as real: on the exterior branch every
    # exponent must have imaginary diagonal entries and o10 = conj(o01)
    import kndirac.radial

    seen = []

    def recording(o00, o01, o10, o11):
        seen.append((o00, o01, o10, o11))
        return _expm2(o00, o01, o10, o11)

    monkeypatch.setattr(kndirac.radial, "_expm2", recording)
    far_field_trajectory(MODE, PAR, np.array([1.0, 0.5j]), u_min=1.0, u_max=2e3, n_samples=4)
    assert seen
    for o00, o01, o10, o11 in seen:
        assert np.all(o00.real == 0.0) and np.all(o11.real == 0.0)
        assert np.all(o10 == np.conj(o01))


def test_magnus_exponents_lie_in_u2(monkeypatch):
    # on the interior branch B lies in u(2): every exponent must have
    # imaginary diagonal entries and o10 = -conj(o01), so that q2 <= 0
    import kndirac.radial

    seen = []

    def recording(o00, o01, o10, o11):
        seen.append((o00, o01, o10, o11))
        return _expm2(o00, o01, o10, o11)

    monkeypatch.setattr(kndirac.radial, "_expm2", recording)
    integrate(IMODE, PAR, (-2.0, 8.0), np.array([1.0, 0.5j]), tol=1e-10, branch="interior")
    assert seen
    for o00, o01, o10, o11 in seen:
        assert np.all(o00.real == 0.0) and np.all(o11.real == 0.0)
        assert np.all(o10 == -np.conj(o01))


@pytest.mark.parametrize("par,mode", [
    (SpacetimeParams(M=1.0, a=0.3, Q=0.5), ModeParams(omega=-1.1, k=-0.5, m=0.4, xi=1.1)),
    (SpacetimeParams(M=0.8, a=0.4, Q=0.2), ModeParams(omega=1.7, k=-1.5, m=0.8, xi=2.1)),
])
def test_far_field_matches_stacked_reference(par, mode):
    # two of criterion 7's seeds over a short span
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = far_field_trajectory(mode, par, X0, u_min=1e3, u_max=3e4, n_samples=12)
    _, X, dets = reference_far_field(mode, par, X0, 1e3, 3e4, 12)
    assert np.abs(traj.X - X).max() < 1e-11
    assert np.abs(traj.prop_det - dets).max() < 1e-11


# ---------------------------------------------------------------------------
# far field in the adiabatic frame

def test_far_field_magnus_matches_adaptive():
    # cross-validate against Dormand-Prince over a short far-field stretch
    X0 = np.array([0.7 - 0.2j, 0.1 + 0.9j])
    traj = far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1.1e3, n_samples=2)
    _, ys, _, _ = integrate_linear_system(lambda s: exterior_system(s, MODE, PAR),
                                          log_offset(np.array([1e3, 1.1e3]), "exterior", PAR), X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-7


def test_far_field_sample_counts():
    # one sample cannot propagate, and two samples from 2e4 to 1e6 leave one
    # in the fit window u <= u_max/5, where polyfit used to warn and return a slope
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    with pytest.raises(ValueError, match="n_samples >= 2, got 1"):
        far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1e6, n_samples=1)
    traj = far_field_trajectory(MODE, PAR, X0, u_min=2e4, u_max=1e6, n_samples=2)
    with pytest.raises(ValueError, match=r"window u in \[20000\.0, 200000\.0\].* holds 1 of the 2 samples"):
        fit_infinity(traj, MODE, PAR)


def test_far_field_matches_adaptive_near_horizon():
    # from u = 1 (r = 2.35, where C is O(1) and the halving check refines the
    # steps) to 2e3; Dormand-Prince takes 157k steps here
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = far_field_trajectory(MODE, PAR, X0, u_min=1.0, u_max=2e3, n_samples=4)
    _, ys, _, _ = integrate_linear_system(lambda s: exterior_system(s, MODE, PAR),
                                          log_offset(np.array([1.0, 2e3]), "exterior", PAR), X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-8 * np.abs(ys[-1]).max()


def test_far_field_beta_convergence():
    # against the Magnus-4 oracle at half its production step
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1e4, n_samples=6)
    _, X, _ = reference_far_field(MODE, PAR, X0, 1e3, 1e4, 6, beta=2e-3)
    assert np.abs(traj.X - X).max() < 1e-8


@pytest.fixture(scope="module")
def magnus_oracle():
    """Criterion 7's five seeds by the Magnus-4 oracle at beta = 4e-3."""
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    return [reference_far_field(mode, par, X0, 1e3, 1e6, 36) for par, mode in INFTY_SEEDS]


def test_far_field_matches_magnus_oracle(infinity_fits, magnus_oracle):
    for (traj, _), (us, X, dets) in zip(infinity_fits, magnus_oracle):
        assert np.array_equal(traj.rstar, us)
        rel = np.linalg.norm(traj.X - X, axis=1) / np.linalg.norm(X, axis=1)
        assert rel.max() < 1e-9
        assert np.abs(traj.prop_det - dets).max() < 1e-10


def test_far_field_fit_matches_magnus_oracle(infinity_fits, magnus_oracle):
    for ((traj, fit), (us, X, _)), (par, mode) in zip(zip(infinity_fits, magnus_oracle), INFTY_SEEDS):
        ref = fit_infinity(RadialTrajectory(rstar=us, X=X, mode=mode, params=par, branch="exterior",
                                            steps=0, rejected=0, tol=0.0,
                                            s=log_offset(us, "exterior", par)), mode, par)
        assert np.abs(fit.f_inf - ref.f_inf).max() < 1e-8
        assert abs(fit.slope - ref.slope) < 1e-5


def test_far_field_health(infinity_fits):
    # step count, the current |X1|^2 - |X2|^2 and the closed-form Abel factor
    # exp(int tr U) = exp(2 i omega (du - dr) + 2 i k dphitilde)
    for (traj, _), (par, mode) in zip(infinity_fits, INFTY_SEEDS):
        assert traj.steps <= 2000  # fixed Magnus-4 steps on X take 1,699,998
        J = np.abs(traj.X[:, 0]) ** 2 - np.abs(traj.X[:, 1]) ** 2
        assert np.abs(J - J[0]).max() <= 1e-12 * abs(J[0])
        u = traj.rstar
        r = tortoise_inverse(u, "exterior", par)
        phase = 2 * mode.omega * ((u - u[0]) - (r - r[0])) \
            + 2 * mode.k * (azimuthal_shift(r, par) - azimuthal_shift(r[0], par))
        assert np.abs(traj.prop_det - np.exp(1j * phase)).max() < 1e-9


@pytest.mark.parametrize("kappa", [0.0, 1e-6, 0.7, 1.999, 2.0, 2.001, 7.3, -30.0])
def test_moments_match_quadrature(kappa):
    # the Taylor series below |kappa| = 2, integration by parts above
    x, w = np.polynomial.legendre.leggauss(200)
    mu = _moments(np.array([kappa]))[0]
    ref = np.array([(w * x**l * np.exp(1j * kappa * x)).sum() for l in range(8)])
    assert np.abs(mu - ref).max() < 1e-13


@pytest.mark.parametrize("kappa", [0.3, 2.5, 9.0])
def test_filon_magnus_weights_match_quadrature(kappa):
    # the single and double integrals of the step exponent, against nested
    # Gauss quadrature of the Lagrange basis at the nodes
    x, w = np.polynomial.legendre.leggauss(60)

    def ell(t):
        return np.vander(np.ravel(t), 4, increasing=True) @ _LAGRANGE

    mu = _moments(np.array([kappa]))[0]
    assert np.abs(mu @ _F1 - (w[:, None] * ell(x) * np.exp(1j * kappa * x)[:, None]).sum(0)).max() < 1e-13
    # inner variable x2 on [-1, x1]: x2 = (x1 - 1)/2 + (x1 + 1)/2 x, weight (x1 + 1)/2
    x1 = x[:, None]
    x2 = 0.5 * (x1 - 1) + 0.5 * (x1 + 1) * x[None, :]
    w12 = w[:, None] * 0.5 * (x1 + 1) * w[None, :]
    l1 = ell(np.broadcast_to(x1, x2.shape)).reshape(60, 60, 4)
    l2 = ell(x2).reshape(60, 60, 4)
    e1 = np.exp(1j * kappa * x1)[..., None, None]
    e2 = np.exp(1j * kappa * x2)[..., None, None]
    outer = l1[..., :, None] * l2[..., None, :]  # ell_q(x1) ell_r(x2)
    swapped = l2[..., :, None] * l1[..., None, :]  # ell_q(x2) ell_r(x1)
    Y = (w12[..., None, None] * (outer * e2 - swapped * e1)).sum((0, 1))
    W2 = (w12[..., None, None] * outer * e1 / e2).sum((0, 1))
    assert np.abs(np.einsum("l,lqr->qr", mu, _F2) - Y).max() < 1e-13
    assert np.abs(np.exp(1j * kappa) * np.einsum("l,lqr->qr", mu, _F3) - W2).max() < 1e-13


@pytest.mark.parametrize("shape", [(6,), (2, 3), (3, 2)])
def test_moments_of_a_mixed_batch_match_single_calls(shape):
    # each entry takes the series or the recurrence alone, whatever its
    # neighbours take
    kappa = np.array([0.0, 1e-6, 1.999, 2.0, 2.001, -30.0]).reshape(shape)
    mu = _moments(kappa)
    assert mu.shape == shape + (8,)
    for index in np.ndindex(shape):
        assert np.array_equal(mu[index], _moments(np.array([kappa[index]]))[0])


def test_interval_moments_match_step_moments():
    # on the interior every step of an interval has the same width, so the
    # kernel takes the moments of kappa = -nu (tb - ta) / (2 n) once per
    # interval.  The steps' own widths differ from it by the rounding of the
    # edges, |d kappa| <= 2 eps |nu| max|t|, and |d mu_l / d kappa| =
    # |mu_{l+1}| <= 1; on edges that are exact binary fractions they agree
    # bitwise
    par = SpacetimeParams(M=1.0, a=0.95, Q=0.3)
    nu, alpha = _cauchy_nu(IMODE, par), cauchy_rate(par)
    rstar = _sample_grid(0.0, 32.0 / alpha, 0.25 / alpha, 32.0 / alpha, 1.0, math.inf)
    eps = np.finfo(float).eps
    for n in (1, 2, 8, 64, 1024):
        edges = _uniform_edges(rstar[:-1], rstar[1:], n)
        eta = 0.5 * (edges[1:] - edges[:-1])
        interval_kappa = -nu * 0.5 * (edges[-1:] - edges[:1]) / n
        d_kappa = np.abs(interval_kappa - -nu * eta)
        assert np.all(d_kappa <= 2 * eps * abs(nu) * np.abs(edges).max(axis=0))
        miss = np.abs(_moments(interval_kappa) - _moments(-nu * eta)).max(axis=-1)
        assert np.all(miss <= d_kappa + 4 * eps)
        exact = _uniform_edges(np.arange(0.0, 40.0, 8.0), np.arange(8.0, 48.0, 8.0), n)
        eta = 0.5 * (exact[1:] - exact[:-1])
        assert np.array_equal(np.broadcast_to(_moments(-nu * 0.5 * (exact[-1:] - exact[:1]) / n), (n, 5, 8)),
                              _moments(-nu * eta))


def einsum_filon_magnus_steps(edges, carrier, frame, sign):
    """`_filon_magnus_steps` with the moments of every step and the three
    multi-operand einsum contractions of its first form: the oracle of the
    kernel's products over flattened (q, r) pairs."""
    eta, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    G, A, trace_phase = frame(mid[..., None] + eta[..., None] * _NODES, edges)
    trace = np.diff(trace_phase, axis=0)
    kappa = -carrier * eta
    mu = _moments(kappa)
    W2 = np.exp(1j * kappa)[..., None, None] * np.einsum("...l,lqr->...qr", mu, _F3)
    diag = eta * (G @ _WEIGHTS) + sign * (eta * eta * np.einsum("...qr,...q,...r->...", W2, A, np.conj(A)).imag)
    o01 = np.exp(-1j * carrier * mid) * (eta * np.einsum("...l,lq,...q->...", mu, _F1, A)
                                         + 1j * eta * eta * np.einsum("...l,lqr,...q,...r->...", mu, _F2, G, A))
    o00 = 1j * (0.5 * trace + diag)
    o11 = 1j * (0.5 * trace - diag)
    return _expm2(o00, o01, sign * np.conj(o01), o11)


@pytest.mark.parametrize("carrier", ["zero", "interior", "frame"])
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("uniform", [True, False])
def test_filon_magnus_steps_match_einsum_contractions(carrier, sign, uniform, monkeypatch):
    # random G and A on 12 intervals of 4 steps whose |kappa| runs from 0.2 to
    # 8, across the series/recurrence switch at 2.  The moments are computed
    # once per interval on uniform edges and once per step on edges moved off
    # the uniform grid, at carrier 0 too.  The uniform edges are binary
    # fractions, so that every step's width is exactly its interval's share
    # and only the contractions differ from the oracle
    import kndirac.radial

    carrier = {"zero": 0.0, "interior": _cauchy_nu(IMODE, PAR),
               "frame": 2.0 * w_roots(MODE.omega, MODE.m)[0].real}[carrier]
    rng = np.random.default_rng([int(sign > 0), int(uniform), int(1e3 * carrier)])
    n, widths = 4, np.round(64 * 2 * 4 * np.geomspace(0.2, 8.0, 12) / max(carrier, 1.0)) / 64
    ta = rng.integers(-50, 50) + np.concatenate([[0.0], np.cumsum(widths[:-1])])
    edges = _uniform_edges(ta, ta + widths, n)
    if not uniform:
        edges[1:-1] += rng.uniform(-0.2, 0.2, (n - 1, 12)) * widths / n
    # G and A of order 1/eta, so that each step exponent is of order 1, as
    # the halving loop leaves them
    scale = 2.0 / (edges[1:] - edges[:-1])[..., None]
    values = {}

    def frame(nodes, e):
        if "G" not in values:
            values["G"] = scale * rng.normal(size=nodes.shape)
            values["A"] = scale * (rng.normal(size=nodes.shape) + 1j * rng.normal(size=nodes.shape))
            values["trace"] = rng.normal(size=e.shape)
        return values["G"], values["A"], values["trace"]

    shapes = []

    def recording(kappa):
        shapes.append(np.shape(kappa))
        return _moments(kappa)

    monkeypatch.setattr(kndirac.radial, "_moments", recording)
    half_width = 0.5 * (edges[-1:] - edges[:1]) / n if uniform else 0.5 * (edges[1:] - edges[:-1])
    got = np.array(_filon_magnus_steps(edges, half_width, carrier, frame, sign))
    assert shapes == ([(1, 12)] if uniform else [(n, 12)])
    ref = np.array(einsum_filon_magnus_steps(edges, carrier, frame, sign))
    kappa = carrier * 0.5 * (edges[1:] - edges[:-1])
    assert carrier == 0.0 or (kappa.min() < 2.0 < kappa.max())
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_propagated_matches_the_array_loop():
    # the reference loop on numpy arrays, which `_propagated` replaced with
    # Python complex scalars: the same products in the same order, bitwise
    rng = np.random.default_rng(11)
    o01 = rng.normal(size=500) + 1j * rng.normal(size=500)
    products = np.array(_expm2(1j * rng.normal(size=500), o01, -np.conj(o01), 1j * rng.normal(size=500)))
    f = np.array([0.3 + 0.1j, -0.2 + 0.7j])
    fs = [f]
    for p00, p01, p10, p11 in products.T:
        fs.append(np.array([p00 * fs[-1][0] + p01 * fs[-1][1], p10 * fs[-1][0] + p11 * fs[-1][1]]))
    assert np.array_equal(_propagated(products, f, np.arange(501.0)), np.array(fs))


def _frame_matrices(u, mode, params):
    _, _, _, _, V, K = _adiabatic_frame(u, log_offset(u, "exterior", params), mode, params)
    return np.stack([np.stack(V[:2], -1), np.stack(V[2:], -1)], -2), \
        np.stack([np.stack(K[:2], -1), np.stack(K[2:], -1)], -2)


@pytest.mark.parametrize("par,mode", INFTY_SEEDS)
def test_frame_is_sigma3_normalized(par, mode):
    us = np.concatenate([[1.0, 10.0, 100.0], np.geomspace(1e3, 1e6, 36)])
    V, _ = _frame_matrices(us, mode, par)
    s3 = np.diag([1.0, -1.0])
    gram = np.conj(np.swapaxes(V, -1, -2)) @ s3 @ V
    s1 = np.sign(gram[:, 0, 0].real)
    assert np.abs(gram - s1[:, None, None] * s3).max() < 1e-14
    # so the trace of C needs no log det V term
    assert np.abs(np.linalg.det(V) - s1).max() < 1e-14


@pytest.mark.parametrize("par,mode", INFTY_SEEDS)
def test_frame_derivative_matches_finite_difference(par, mode):
    # closed-form V^{-1} dV/du against a 4th-order central difference of V
    us = np.array([3.0, 30.0, 300.0, 3e3, 3e4])
    V, K = _frame_matrices(us, mode, par)
    h = 1e-3 * us
    Vp2, _ = _frame_matrices(us + 2 * h, mode, par)
    Vp1, _ = _frame_matrices(us + h, mode, par)
    Vm1, _ = _frame_matrices(us - h, mode, par)
    Vm2, _ = _frame_matrices(us - 2 * h, mode, par)
    dV = (-Vp2 + 8 * Vp1 - 8 * Vm1 + Vm2) / (12 * h[:, None, None])
    K_fd = np.linalg.solve(V, dV)
    scale = np.abs(K).max(axis=(1, 2))
    assert (np.abs(K - K_fd).max(axis=(1, 2)) / scale).max() < 1e-8


def test_far_field_below_mass_threshold_raises():
    # omega = 0.3, m = 0.8: the untransformed Magnus path overflowed here, or
    # returned |X| of about 1e32 over [1e3, 1.1e3]
    mode = ModeParams(omega=0.3, k=0.5, m=0.8, xi=0.9)
    with pytest.raises(ValueError, match=r"omega = 0\.3.*m = 0\.8"):
        far_field_trajectory(mode, PAR, np.array([1.0, 0.5j]), u_min=1e3, u_max=2e3, n_samples=3)


def test_far_field_turning_point_raises():
    # xi = 10: |U01|^2 exceeds ((U00 - U11)/2)^2 near the hole, so U has no
    # two distinct imaginary eigenvalues there
    mode = ModeParams(omega=1.3, k=0.5, m=0.55, xi=10.0)
    with pytest.raises(ValueError, match=r"turning point .* at u=\d"):
        far_field_trajectory(mode, PAR, np.array([1.0, 0.5j]), u_min=1.0, u_max=2e3, n_samples=4)


def test_far_field_step_budget(monkeypatch):
    import kndirac.radial

    monkeypatch.setattr(kndirac.radial, "_FRAME_STEP_BUDGET", 200)
    with pytest.raises(ArithmeticError, match=r"budget of 200 .*omega=1\.3.*u in \[1\.0, .*steps per "
                                              r"interval .* \d+ steps evaluated, \d+ accepted"):
        far_field_trajectory(MODE, PAR, np.array([1.0, 0.5j]), u_min=1.0, u_max=2e3, n_samples=4)


@pytest.mark.parametrize("par,mode", INFTY_SEEDS)
def test_coupling_matches_the_eigenvalue_gap(par, mode):
    # near the hole, where Im(lambda1 - lambda2)/2 - w1 cancels little, G
    # from (D - w1^2) / (sqrt(D) + w1) agrees with the difference to the
    # difference's own rounding, eps omega^2 / w1 times a few
    us = np.array([3.0, 30.0, 300.0, 3e3])
    s = log_offset(us, "exterior", par)
    r, delta, lam1, lam2, _, (k00, _, _, k11) = _adiabatic_frame(us, s, mode, par)
    w1 = w_roots(mode.omega, mode.m)[0].real
    c = par.M * mode.m ** 2 / w1
    difference = 0.5 * (lam1 - lam2).imag - w1 - c * delta / ((r * r + par.a ** 2) * r) - 0.5 * (k00 - k11).imag
    G, _ = _coupling(us, s, mode, par)
    assert np.abs(G - difference).max() <= 8 * 2.3e-16 * (1.0 + mode.omega ** 2 / w1)


@pytest.mark.parametrize("excess", [1e-1, 1e-2, 1e-3, 1e-4])
def test_far_field_settles_near_the_mass_threshold(excess):
    # |omega| - m down to 1e-4 over u in [1e5, 1e8].  G taken as the
    # difference Im(lambda1 - lambda2)/2 - w1 lost about eps omega^2 / w1 to
    # cancellation, which steps O(u) long multiply: the halving then took 392
    # and 1,634 steps at 1e-1 and 1e-2, and ran out of the budget near
    # u = 2.5e7 at 1e-3 and near 7.7e6 at 1e-4 (now 70, 70, 128 and 1,036)
    mode = ModeParams(omega=0.55 + excess, k=0.5, m=0.55, xi=1.5)
    traj = far_field_trajectory(mode, PAR, np.array([0.8 + 0.3j, -0.45 + 0.9j]), u_min=1e5, u_max=1e8,
                                n_samples=36)
    assert np.all(np.isfinite(traj.X))


@pytest.mark.parametrize("par,mode", INFTY_SEEDS)
def test_exterior_at_tight_tol_takes_few_steps(par, mode):
    # the five far-field seeds over (1e3, 1e6) at tol 1e-12 take 82-108
    # steps; with G's cancellation they took 106-1,542
    traj = integrate(mode, par, (1e3, 1e6), np.array([0.8 + 0.3j, -0.45 + 0.9j]), tol=1e-12,
                     branch="exterior")
    assert traj.steps < 200


def far_traj():
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    return far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1e5, n_samples=25)


def test_infinity_fit_slope_and_ablation():
    traj = far_traj()
    fit = fit_infinity(traj, MODE, PAR)
    assert -1.3 < fit.slope < -0.7
    assert np.abs(fit.f_inf).max() > 1e-3
    # ablation: without the log-phase correction the residual stops decaying
    ab = fit_infinity(traj, MODE, PAR, ablate_log_phase=True)
    assert ab.slope > -0.3
    # ||f|| settles: relative variation over the last decade
    tail = traj.rstar > traj.rstar[-1] / 10
    norms = np.linalg.norm(fit.f_history[tail], axis=1)
    assert np.ptp(norms) / norms[-1] < 1e-3


def test_infinity_fit_boost_sign_recorded():
    traj = far_traj()
    fit = fit_infinity(traj, MODE, PAR)
    # the diagonalizer of the true U_infinity is the boost with the opposite
    # sign of Theta relative to the printed matrix
    assert fit.boost_sign == -1


def log_r_phases(u, mode, params):
    """(Phi_plus, Phi_minus) = w1 u + c log r(u), r = tortoise_inverse(u)."""
    w1, _ = w_roots(mode.omega, mode.m)
    r = tortoise_inverse(u, "exterior", params)
    pp, pm = asymptotic_phases(r, mode, params)
    return pp + w1 * (u - r), pm + w1 * (u - r)


def test_manufactured_single_branch():
    us = np.geomspace(1e4, 1e6, 20)
    _, _, V = _eigenbasis(*_exterior_entries(us, log_offset(us, "exterior", PAR), MODE, PAR)[2])
    pp, _ = log_r_phases(us, MODE, PAR)
    Xs = V[:, :, 0] * np.exp(1j * pp)[:, None]
    traj = RadialTrajectory(rstar=us, X=Xs, mode=MODE, params=PAR,
                            branch="exterior", steps=0, rejected=0, tol=0.0, s=log_offset(us, "exterior", PAR))
    fit = fit_infinity(traj, MODE, PAR)
    assert abs(fit.f_inf[1]) < 1e-6
    assert abs(fit.f_inf[0] - 1.0) < 1e-3


def reference_diagonalizer(u, mode, params, prev=None):
    """Eigen-decomposition of U(u) by `np.linalg.eig`, with a deterministic gauge.

    Columns ordered by continuity with `prev` (or Im lambda > 0 first), each
    normalized to unit length with its largest-modulus component real-positive.
    The reference the closed-form eigenbasis must reproduce.
    """
    U = radial_potential(u, mode, params, branch="exterior")
    lam, V = np.linalg.eig(U)
    if prev is None:
        order = np.argsort(-lam.imag)
    else:
        order = [int(np.argmin(np.abs(lam - prev[0]))), 0]
        order[1] = 1 - order[0]
    lam = lam[list(order)]
    V = V[:, list(order)]
    for j in range(2):
        col = V[:, j]
        p = int(np.argmax(np.abs(col)))
        col = col * (np.abs(col[p]) / col[p])
        V[:, j] = col / np.linalg.norm(col)
    return lam, V


@pytest.mark.parametrize("par,mode", INFTY_SEEDS)
def test_closed_form_eigenbasis_matches_eig(par, mode):
    us = np.geomspace(1e3, 1e6, 36)
    lam1, lam2, V = _eigenbasis(*_exterior_entries(us, log_offset(us, "exterior", par), mode, par)[2])
    prev = None
    for i in reversed(range(len(us))):
        lam, Vref = reference_diagonalizer(us[i], mode, par, prev)
        prev = (lam[0], lam[1])
        assert abs(lam1[i] - lam[0]) < 1e-14 and abs(lam2[i] - lam[1]) < 1e-14
        assert np.abs(V[i] - Vref).max() < 1e-14


@pytest.fixture(scope="module")
def infinity_fits():
    """Criterion 7's five far-field runs and their fits."""
    fits = []
    for par, mode in INFTY_SEEDS:
        X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
        traj = far_field_trajectory(mode, par, X0, u_min=1e3, u_max=1e6, n_samples=36)
        fits.append((traj, fit_infinity(traj, mode, par)))
    return fits


def test_infinity_fit_slope_unbiased(infinity_fits):
    # with the phases in log r(u) the residual decays like 1/u; the printed
    # log u form gave -0.89 to -0.93 here
    slopes = [fit.slope for _, fit in infinity_fits]
    assert all(abs(s + 1.0) < 0.05 for s in slopes), slopes


def test_phase_remainder_in_log_r():
    # u^2 |dPhi_plus/du + i lambda_1|: bounded with log r(u) in the phase,
    # growing like log u with the printed log u form
    us = np.array([1e3, 1e4, 1e5, 1e6])
    r, _, entries = _exterior_entries(us, log_offset(us, "exterior", PAR), MODE, PAR)
    lam1, _, _ = _eigenbasis(*entries)
    w1, _ = w_roots(MODE.omega, MODE.m)
    c = eigen_expansion(MODE, PAR)["lambda1"][1] / 1j
    delta, _ = delta_sigma(r, 0.0, PAR)
    dr_du = delta / (r * r + PAR.a**2)
    rem_r = us**2 * np.abs(w1 + c * dr_du / r + 1j * lam1)
    rem_u = us**2 * np.abs(w1 + c / us + 1j * lam1)
    assert np.all((4.5 < rem_r) & (rem_r < 5.5))  # 5.15, 5.03, 5.01, 5.01
    assert np.all(np.diff(rem_u) > 10.0)  # 39.2, 52.0, 65.1, 78.2
    per_log = rem_u / np.log(us)
    assert np.ptp(per_log) < 0.02 * per_log.mean()


def test_richardson_matches_least_squares(infinity_fits):
    # the two-point 1/u extrapolation against f_inf + c/u fitted over u >= 1e4
    for traj, fit in infinity_fits:
        sel = traj.rstar >= 1e4
        A = np.column_stack([np.ones(sel.sum()), 1.0 / traj.rstar[sel]])
        coef, *_ = np.linalg.lstsq(A, fit.f_history[sel], rcond=None)
        assert np.abs(coef[0] - fit.f_inf).max() < 1e-6


def test_fit_below_mass_threshold_raises():
    # |omega| < m: e^{i Phi} with imaginary w1 would overflow
    mode = ModeParams(omega=0.3, k=0.5, m=0.8, xi=0.9)
    us = np.geomspace(1e3, 1e4, 12)
    Xs = np.tile(np.array([1.0 + 0.2j, 0.5 - 0.1j]), (len(us), 1))
    traj = RadialTrajectory(rstar=us, X=Xs, mode=mode, params=PAR,
                            branch="exterior", steps=0, rejected=0, tol=0.0, s=log_offset(us, "exterior", PAR))
    with pytest.raises(ValueError, match="threshold"):
        fit_infinity(traj, mode, PAR)


def test_trivial_solution_rejected():
    us = np.geomspace(1e4, 1e6, 5)
    traj = RadialTrajectory(rstar=us, X=np.zeros((5, 2), complex), mode=MODE, params=PAR,
                            branch="exterior", steps=0, rejected=0, tol=0.0, s=log_offset(us, "exterior", PAR))
    with pytest.raises(ValueError, match="trivial solution"):
        fit_infinity(traj, MODE, PAR)


def test_subluminal_modes_grow_exponentially():
    # m > |omega|: fundamental solutions behave like e^{+- rho u},
    # rho = sqrt(m^2 - omega^2)
    mode = ModeParams(omega=0.3, k=0.5, m=0.8, xi=0.9)
    rho = math.sqrt(mode.m**2 - mode.omega**2)
    w1, _ = w_roots(mode.omega, mode.m)
    assert abs(w1 - 1j * rho) < 1e-15  # convex-hull normalization
    span = (200.0, 200.0 + 20.0 / rho)
    fwd = integrate(mode, PAR, span, np.array([1.0 + 0.2j, 0.5 - 0.1j]), tol=1e-10)
    n = len(fwd.rstar)
    sel = slice(n // 2, n)
    slope_f = np.polyfit(fwd.rstar[sel], np.log(np.linalg.norm(fwd.X[sel], axis=1)), 1)[0]
    assert 0.5 * rho < slope_f < 2.0 * rho
    bwd = integrate(mode, PAR, (span[1], span[0]), np.array([1.0, -0.3 + 0.4j]), tol=1e-10)
    nb = len(bwd.rstar)
    sel = slice(nb // 2, nb)
    slope_b = np.polyfit(bwd.rstar[sel], np.log(np.linalg.norm(bwd.X[sel], axis=1)), 1)[0]
    assert -2.0 * rho < slope_b < -0.5 * rho


# ---------------------------------------------------------------------------
# Cauchy horizon

IMODE = ModeParams(omega=0.9, k=1.5, m=0.6, xi=1.3)


def horizon_B(rstar, mode, params):
    """Coefficient matrix of the stripped interior system dh/drstar = B h.

    Substituting h = (X1 e^{-i nu rstar}, X2), nu = 2 (omega + k Omega_minus),
    into dX/drstar = U X on the interior branch gives

        B = [[U00 - i nu,             U01 e^{-i nu rstar}],
             [U10 e^{+i nu rstar},    U11               ]],

    built from the components of U.  In U00 - i nu the constant parts cancel
    exactly; what is left is written as
    U11 - 2 i k Omega_minus (r^2 - r_minus^2) / (r^2 + a^2), with
    r^2 - r_minus^2 = eps (2 r_minus + eps), eps = r - r_minus, so nothing is
    lost to cancellation near the horizon.  The oracle behind the interior
    Dormand-Prince path and the Magnus-exponent checks.
    """
    rm = params.r_minus
    om_minus = horizon_angular_velocity(params)
    eps = np.exp(log_offset(rstar, "interior", params))
    abs_delta = eps * (params.r_plus - rm - eps)
    _, u01, u10, u11 = _potential_entries(rm + eps, -abs_delta, np.sqrt(abs_delta), -1.0, mode, params)
    ph = np.exp(1j * _cauchy_nu(mode, params) * rstar)
    q = eps * (2.0 * rm + eps)  # r^2 - r_minus^2
    b00 = u11 - (2j * mode.k * om_minus) * q / (rm * rm + params.a**2 + q)
    return _stacked(b00, u01 / ph, u10 * ph, u11)


def interior_dormand_prince(mode, params, span, X0, tol):
    """The interior trajectory by adaptive Dormand-Prince on dh/drstar = B h,
    re-phased to X: the oracle the Filon-Magnus interior must reproduce."""
    nu = _cauchy_nu(mode, params)
    h0 = np.array([X0[0] * np.exp(-1j * nu * span[0]), X0[1]], dtype=complex)
    ts, ys, acc, rej = integrate_linear_system(lambda t: horizon_B(t, mode, params), span, h0, tol=tol)
    ys[:, 0] *= np.exp(1j * nu * ts)
    return RadialTrajectory(rstar=ts, X=ys, mode=mode, params=params, branch="interior",
                            steps=acc, rejected=rej, tol=tol)


def test_horizon_velocity_cancellation():
    # Omega_minus is the unique constant with Omega (r^2+a^2) - a = 0 at r_minus
    om = horizon_angular_velocity(PAR)
    assert abs(om * (PAR.r_minus**2 + PAR.a**2) - PAR.a) < 1e-15


def test_horizon_B_vanishes_at_cauchy_horizon():
    al = cauchy_rate(PAR)
    B = horizon_B(60.0 / al, IMODE, PAR)
    assert np.abs(B).max() < 1e-20


def test_horizon_B_decay_rate():
    al = cauchy_rate(PAR)
    rs = np.linspace(20.0 / al, 60.0 / al, 60)
    norms = np.array([np.linalg.norm(horizon_B(s, IMODE, PAR), 2) for s in rs])
    slope = np.polyfit(rs, np.log(norms), 1)[0]
    assert abs(-slope - al) < 0.1 * al


def test_horizon_B_derivation_consistency():
    # dh/drstar = B h must reproduce dX/drstar = U X after re-phasing
    al = cauchy_rate(PAR)
    om_m = horizon_angular_velocity(PAR)
    rs = 2.0 / al
    U = radial_potential(rs, IMODE, PAR, branch="interior")
    B = horizon_B(rs, IMODE, PAR)
    ph = np.exp(2j * (IMODE.omega + IMODE.k * om_m) * rs)
    P = np.diag([ph, 1.0])
    dP = np.diag([2j * (IMODE.omega + IMODE.k * om_m) * ph, 0.0])
    # X = P h: B = P^{-1} (U P - dP)
    B_expected = np.linalg.solve(P, U @ P - dP)
    assert np.abs(B - B_expected).max() < 1e-12


def interior_traj(mode=IMODE, params=PAR):
    al = cauchy_rate(params)
    X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
    return integrate(mode, params, (0.0, 32.0 / al), X0, tol=1e-11, branch="interior")


def test_horizon_fit_rate():
    traj = interior_traj()
    fit = fit_horizon(traj, IMODE, PAR)
    assert abs(fit.rate - fit.alpha) < 0.1 * fit.alpha
    assert np.linalg.norm(fit.h) > 1e-3


def test_horizon_h_cauchy_sequence():
    traj = interior_traj()
    h = strip_horizon_phase(traj, IMODE, PAR)
    al = cauchy_rate(PAR)
    # ||h(s) - h(s + 10)|| decays exponentially along the tail
    probes = np.array([4.0, 6.0, 8.0, 10.0]) / al
    diffs = []
    for s in probes:
        i = np.searchsorted(traj.rstar, s)
        j = np.searchsorted(traj.rstar, s + 10.0)
        diffs.append(np.linalg.norm(h[i] - h[j]))
    ratios = np.array(diffs[:-1]) / np.array(diffs[1:])
    expected = math.exp(al * (probes[1] - probes[0]))
    assert np.all(ratios > 0.2 * expected)


def test_horizon_X2_constant():
    traj = interior_traj()
    al = cauchy_rate(PAR)
    tail = traj.rstar > 25.0 / al
    X2 = traj.X[tail, 1]
    # the residual coupling dies like e^{-alpha rstar}; beyond 25/alpha the
    # unphased component is constant to ~1e-9
    assert np.abs(X2 - X2[-1]).max() < 1e-9


def test_interior_matches_direct_path():
    # oracle: the unstripped system dX/drstar = U X at a tighter tolerance
    al = cauchy_rate(PAR)
    span = (0.0, 32.0 / al)
    X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
    traj = integrate(IMODE, PAR, span, X0, tol=1e-11, branch="interior")
    _, ys, _, _ = integrate_linear_system(
        lambda t: radial_potential(t, IMODE, PAR, branch="interior"), span, X0, tol=1e-13)
    assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-9 * np.abs(ys[-1]).max()


def test_horizon_fit_near_extremal():
    # alpha = 0.050: following X instead of h, the error of 87k steps reaches
    # the end of the fit window and moves the fitted rate by 13.6%
    par = SpacetimeParams(M=1.0, a=0.95, Q=0.3)
    fit = fit_horizon(interior_traj(params=par), IMODE, par)
    assert abs(fit.rate - fit.alpha) < 0.01 * fit.alpha


NEAR_EXTREMAL = [SpacetimeParams(M=1.0, a=0.95, Q=0.3), SpacetimeParams(M=1.0, a=0.995, Q=0.09)]
# the Kerr and Reissner-Nordstrom limits near Schwarzschild, a^2 + Q^2 = 2.5e-3 M^2
NEAR_SCHWARZSCHILD = [SpacetimeParams(M=1.0, a=0.05, Q=0.0), SpacetimeParams(M=1.0, a=0.0, Q=0.05)]


# nu = 2 (omega + k Omega_minus) = 0 exactly: the frame's gap closes on the
# Cauchy horizon itself, at s = -inf, and the frame holds
NU_ZERO = ModeParams(omega=-1.5 * horizon_angular_velocity(PAR), k=1.5, m=0.6, xi=1.3)
# m = 0 and xi = 1e-9: U01 is 1e-9 where nu/2 + G changes sign, the frame's
# gap all but closes there, and the span takes the carrier-nu steps of h
GAP_CLOSING = ModeParams(omega=-2.5 * horizon_angular_velocity(PAR) + 0.3, k=2.5, m=0.0, xi=1e-9)


@pytest.mark.parametrize("par,mode", HORIZON_SEEDS + [(par, IMODE) for par in NEAR_EXTREMAL + NEAR_SCHWARZSCHILD]
                         + [(PAR, NU_ZERO), (PAR, GAP_CLOSING)])
def test_interior_matches_dormand_prince(par, mode):
    # criterion 8's holes, the two near-extremal ones, two near
    # Schwarzschild, a mode at nu = 0 and one whose span is refused the
    # adiabatic frame, against the phase-stripped Dormand-Prince oracle at a
    # tighter tolerance; every Filon-Magnus step is unitary, so the current
    # |X1|^2 + |X2|^2 holds to rounding
    traj = interior_traj(mode, par)
    ref = interior_dormand_prince(mode, par, (traj.rstar[0], traj.rstar[-1]), traj.X[0], tol=1e-13)
    assert np.abs(traj.X[-1] - ref.X[-1]).max() < 1e-9 * np.abs(ref.X[-1]).max()
    J = np.abs(traj.X[:, 0]) ** 2 + np.abs(traj.X[:, 1]) ** 2
    assert np.abs(J - J[0]).max() < 1e-12 * J[0]


def test_interior_integrate_inverts_only_the_span_and_the_samples(monkeypatch):
    # the interior solves for the log offsets of its span's ends, then of its
    # sample grid, and of nothing else: every halving level places its step
    # edges and Gauss nodes in s, where r and rstar are explicit
    import kndirac.radial

    calls = []
    log_offset_of = kndirac.radial.log_offset

    def counted(rstar, region, params):
        calls.append(np.size(rstar))
        return log_offset_of(rstar, region, params)

    monkeypatch.setattr(kndirac.radial, "log_offset", counted)
    traj = integrate(IMODE, PAR, (0.0, 12.0 / cauchy_rate(PAR)), np.array([1.0, 0.2j]), tol=1e-10,
                     branch="interior")
    assert traj.steps > len(traj.rstar)
    assert calls == [2, len(traj.rstar)]


# criterion 8's holes, the near-extremal a = 0.95, and a = Q with
# a^2 + Q^2 of 1e-6 and 0.98
INTERIOR_HOLES = [par for par, _ in HORIZON_SEEDS] + [NEAR_EXTREMAL[0]] + [
    SpacetimeParams(M=1.0, a=math.sqrt(q / 2.0), Q=math.sqrt(q / 2.0)) for q in (1e-6, 0.98)]


@pytest.mark.parametrize("par", INTERIOR_HOLES)
def test_interior_slow_phase_is_rstar_plus_km_s(par):
    # the interior's slow phase rstar + km s = r + kp log(r_plus - r) from
    # the chart against the tortoise coordinate of r = r_minus + e^s, from
    # e^s = (1 - 1e-12) width at the r_plus end of the branch to 1e-12 width,
    # within a few rounding units of rstar's terms and of their logs'
    # arguments r_plus - r and r - r_minus
    kp, km = _kappas(par)
    width = par.r_plus - par.r_minus
    s = np.log(width) + np.log(np.concatenate([1.0 - np.geomspace(1e-12, 0.5, 40), np.geomspace(0.5, 1e-12, 80)]))
    _, r_chart, _, log_p, _ = _offset_terms(s, "interior", par)
    r = par.r_minus + np.exp(s)
    terms = r + kp * np.abs(np.log(par.r_plus - r)) + km * np.abs(s) \
        + kp * par.r_plus / (par.r_plus - r) + km * r / (r - par.r_minus)
    assert np.all(np.abs(r_chart + kp * log_p - (tortoise(r, par) + km * s)) <= 8 * 2.3e-16 * terms)


def test_interior_long_span_matches_dormand_prince():
    # past 32/alpha, where B is below e^{-32}, the sample spacing doubles on
    # each interval: (0, 1e4) on alpha = 1.74 takes 146 samples; a uniform
    # grid would hold 69,512 intervals, past the 200,000-step budget
    span, X0 = (0.0, 1e4), np.array([1.0 + 0.2j, -0.6 + 0.4j])
    traj = integrate(IMODE, PAR, span, X0, tol=1e-11, branch="interior")
    ref = interior_dormand_prince(IMODE, PAR, span, X0, tol=1e-13)
    assert len(traj.rstar) < 200 and traj.rstar[-1] == span[1]
    assert np.abs(traj.X[-1] - ref.X[-1]).max() < 1e-9 * np.abs(ref.X[-1]).max()


@pytest.mark.parametrize("span,end", [((-120.0, -100.0), -120.0), ((-100.0, -80.0), -100.0),
                                      ((-90.0, -70.0), -90.0)])
def test_interior_span_on_the_r_plus_cap_raises(span, end):
    # below about rstar = -80 on this hole the root lies within 1e-15 width
    # of r_plus, and its log offset rests on the cap: integrating from there
    # returned one X for the first two spans, 0.54 off Dormand-Prince on the
    # first, without a word
    with pytest.raises(IntegrationError, match="rests on its cap") as info:
        integrate(MODE, PAR, span, np.array([1.0, 0.2j]), tol=1e-11, branch="interior")
    assert info.value.t == end


def test_interior_span_off_the_cap():
    # (-30, -20) lies off the cap and integrates; (-70, 0) starts 1.7e-14
    # width from r_plus, off the cap, and still stops on the step budget
    X0 = np.array([1.0, 0.2j])
    traj = integrate(MODE, PAR, (-30.0, -20.0), X0, tol=1e-11, branch="interior")
    assert traj.rstar[-1] == -20.0 and np.isfinite(traj.X).all()
    with pytest.raises(IntegrationError, match="step budget"):
        integrate(MODE, PAR, (-70.0, 0.0), X0, tol=1e-11, branch="interior")


def test_interior_kernel_exponentiates_its_nodes_once(monkeypatch):
    # the interior frame takes r, r_plus - r and log(r_plus - r) at its Gauss
    # nodes from one chart evaluation: one real exp of the nodes per call
    import kndirac.geometry
    import kndirac.radial

    shapes = []

    class Counting:
        def __getattr__(self, name):
            return getattr(np, name)

        def exp(self, x):
            if not np.iscomplexobj(x):
                shapes.append(np.shape(x))
            return np.exp(x)

    for module in (kndirac.geometry, kndirac.radial):
        monkeypatch.setattr(module, "np", Counting())
    sa, sb = log_offset(np.array([0.0, 2.0]), "interior", PAR), log_offset(np.array([1.0, 3.0]), "interior", PAR)
    _interior_steps(_uniform_edges(sa, sb, 8), None, IMODE, PAR)
    assert shapes.count((8, 2, 4)) == 1


@pytest.mark.parametrize("omega", [40.0, -40.0])
def test_interior_meets_tol_at_large_omega(omega):
    # on the near-extremal hole nu is large where ||B|| is O(1): there a
    # step uniform in rstar spans nu eta up to 200, and its halving test
    # settles on a plateau, 2.2e-9 relative from the tol-1e-13 end state at
    # omega = 40.  Steps uniform in s are short there and miss by 1.6e-10
    par, mode = NEAR_EXTREMAL[0], ModeParams(omega=omega, k=1.5, m=0.6, xi=1.3)
    span, X0 = (0.0, 32.0 / cauchy_rate(par)), np.array([1.0 + 0.2j, -0.6 + 0.4j])
    coarse, fine = (integrate(mode, par, span, X0, tol=tol, branch="interior").X[-1] for tol in (1e-11, 1e-13))
    assert np.abs(coarse - fine).max() < 1e-9 * np.abs(fine).max()


@pytest.mark.parametrize("par,mode", HORIZON_SEEDS + [(NEAR_EXTREMAL[0], IMODE)])
def test_horizon_coupling_takes_u01_from_the_one_evaluator(par, mode):
    # the interior evaluates U01 alone at its Gauss nodes, from the formula
    # `_potential_entries` builds U from, bit for bit
    s = log_offset(np.linspace(-2.0, 40.0, 211) / cauchy_rate(par), "interior", par)
    eps, r, gap, _, _ = _offset_terms(s, "interior", par)
    abs_delta = eps * (par.r_plus - par.r_minus - eps)
    u01 = _potential_entries(par.r_minus + eps, -abs_delta, np.sqrt(abs_delta), -1.0, mode, par)[1]
    assert np.array_equal(_horizon_coupling(eps, r, gap, mode, par)[1], u01)


def test_horizon_fit_alpha_0_0227():
    # a = 0.995, Q = 0.09: Dormand-Prince at tol 1e-11 misses the rate by 3.2%
    # here and takes 1.86x its steps on a = 0.95; the Filon-Magnus steps
    # cluster at alpha rstar < 2, where ||B|| = O(1), and do not grow like 1/alpha
    near, nearer = (interior_traj(params=par) for par in NEAR_EXTREMAL)
    fit = fit_horizon(nearer, IMODE, nearer.params)
    assert abs(fit.alpha - 0.0227) < 1e-4
    assert abs(fit.rate - fit.alpha) < 0.01 * fit.alpha
    assert nearer.steps <= 1.5 * near.steps


def reference_magnus2(B, t0, t1, n=240):
    """Second-order Magnus exponent of dh/dt = B(t) h over [t0, t1] by dense
    Gauss-Legendre quadrature of int B and of the commutator double integral."""
    x, w = np.polynomial.legendre.leggauss(n)
    mid, eta = 0.5 * (t0 + t1), 0.5 * (t1 - t0)
    B1 = B(mid + eta * x)
    x1 = x[:, None]
    x2 = 0.5 * (x1 - 1) + 0.5 * (x1 + 1) * x[None, :]  # x2 in [-1, x1]
    w12 = w[:, None] * 0.5 * (x1 + 1) * w[None, :]
    B2 = B(mid + eta * x2.ravel()).reshape(n, n, 2, 2)
    comm = B1[:, None] @ B2 - B2 @ B1[:, None]
    first = eta * np.einsum("q,qij->ij", w, B1)
    second = 0.5 * eta * eta * np.einsum("qr,qrij->ij", w12, comm)
    return first + second, second


def dense_propagator(B, t0, t1, n=64):
    """Propagator of dh/dt = B(t) h over [t0, t1] as the ordered product of
    n dense second-order Magnus exponentials (`reference_magnus2`)."""
    ts, P = np.linspace(t0, t1, n + 1), np.eye(2, dtype=complex)
    for ta, tb in zip(ts[:-1], ts[1:]):
        P = expm(reference_magnus2(B, ta, tb, n=40)[0]) @ P
    return P


def horizon_frame_step(mode, par, t0, t1, monkeypatch):
    """The h-propagator of one Filon-Magnus step of the interior frame across
    rstar in [t0, t1], uniform in s: Vt(s1) exp(Omega) Vt(s0)^dagger, with
    Omega recorded at `_expm2` and Vt = [[v, w e^{-i nu rstar}],
    [-conj(w) e^{i nu rstar}, v]] from `_horizon_basis`."""
    import kndirac.radial

    seen = []

    def recording(*omega):
        seen.append(np.array(omega).reshape(2, 2))
        return _expm2(*omega)

    monkeypatch.setattr(kndirac.radial, "_expm2", recording)
    s = log_offset(np.array([[t0], [t1]]), "interior", par)
    _horizon_frame_steps(s, None, mode, par)
    monkeypatch.undo()
    (Om,) = seen
    nu = _cauchy_nu(mode, par)
    v, w = _horizon_basis(s[:, 0], mode, par)
    Vt = [np.array([[v[j], w[j] * np.exp(-1j * nu * t)], [-np.conj(w[j]) * np.exp(1j * nu * t), v[j]]])
          for j, t in enumerate((t0, t1))]
    return Vt[1] @ expm(Om) @ Vt[0].conj().T


@pytest.mark.parametrize("kappa", [0.1, 1.0])
def test_interior_step_exponent_matches_dense_magnus(kappa, monkeypatch):
    # one Filon-Magnus step of the interior frame g = Vt^{-1} h, uniform in
    # s, across rstar in [1/alpha - eta, 1/alpha + eta] on the a = 0.95
    # hole, nu eta = kappa (in s the carrier turns by 0.89 kappa); omega = 40
    # keeps the step short against 1/alpha.  Carried back to h it is the
    # dense h-propagator, to 1e-8 and, on the diagonal, to 1e-3 of the
    # sigma3 term of the h exponent's commutator,
    # 2 i Im(A1 conj(A2) e^{i kappa (x1 - x2)}), which flips sign between
    # u(1,1) and u(2).  The weights at large kappa are checked by
    # `test_filon_magnus_weights_match_quadrature`
    par, mode = SpacetimeParams(M=1.0, a=0.95, Q=0.3), ModeParams(omega=40.0, k=1.5, m=0.6, xi=1.3)
    eta = kappa / abs(_cauchy_nu(mode, par))
    t0, t1 = 1.0 / cauchy_rate(par) - eta, 1.0 / cauchy_rate(par) + eta
    P = horizon_frame_step(mode, par, t0, t1, monkeypatch)
    B = lambda t: horizon_B(t, mode, par)  # noqa: E731
    ref, second = reference_magnus2(B, t0, t1)
    exact = dense_propagator(B, t0, t1)
    sigma3_term = abs(second[0, 0] - second[1, 1]) / 2
    assert sigma3_term > 1e-9 * np.abs(ref).max()
    assert abs(P[0, 0] - exact[0, 0]) < 1e-3 * sigma3_term and abs(P[1, 1] - exact[1, 1]) < 1e-3 * sigma3_term
    assert np.abs(P - exact).max() < 1e-8 * np.abs(exact).max()


def test_interior_frame_step_carries_its_sigma3_term(monkeypatch):
    # at omega = 0.9 the frame's own coupling, A'/nu in size, is large enough
    # that the sigma3 term of its commutator shows: flipping the kernel's u(2)
    # sign moves the diagonal of the h-propagator by 2.7e-4 of the h
    # exponent's sigma3 term (measured), and the step meets the dense
    # propagator within 1e-6 of it (3.7e-9 measured)
    par = SpacetimeParams(M=1.0, a=0.95, Q=0.3)
    eta = 0.1 / abs(_cauchy_nu(IMODE, par))
    t0, t1 = 1.0 / cauchy_rate(par) - eta, 1.0 / cauchy_rate(par) + eta
    P = horizon_frame_step(IMODE, par, t0, t1, monkeypatch)
    B = lambda t: horizon_B(t, IMODE, par)  # noqa: E731
    second = reference_magnus2(B, t0, t1)[1]
    exact = dense_propagator(B, t0, t1)
    sigma3_term = abs(second[0, 0] - second[1, 1]) / 2
    assert abs(P[0, 0] - exact[0, 0]) < 1e-6 * sigma3_term and abs(P[1, 1] - exact[1, 1]) < 1e-6 * sigma3_term


@pytest.mark.parametrize("par,mode", HORIZON_SEEDS + [(NEAR_EXTREMAL[0], IMODE), (PAR, NU_ZERO)])
def test_horizon_basis_diagonalizes_the_traceless_part_of_U(par, mode):
    # V = [[v, w], [-conj(w), v]] lies in SU(2), V^dagger N V = i lam sigma3
    # for N the traceless part of U, with lam of the sign of nu (+ at nu = 0),
    # and V -> I at the horizon where nu != 0
    s = log_offset(np.linspace(-2.0, 60.0, 63) / cauchy_rate(par), "interior", par)
    v, w = _horizon_basis(s, mode, par)
    V = _stacked(v, w, -np.conj(w), v)
    eps, r, gap, _, _ = _offset_terms(s, "interior", par)
    abs_delta = eps * gap
    u00, u01, u10, u11 = _potential_entries(r, -abs_delta, np.sqrt(abs_delta), -1.0, mode, par)
    half = 0.5 * (u00 - u11)
    N = _stacked(half, u01, u10, -half)
    D = np.conj(np.swapaxes(V, -1, -2)) @ N @ V
    lam = math.copysign(1.0, _cauchy_nu(mode, par)) * np.sqrt(np.abs(half) ** 2 + np.abs(u01) ** 2)
    assert np.isrealobj(v) and np.abs(v * v + np.abs(w) ** 2 - 1.0).max() < 1e-15
    assert np.abs(D - _stacked(1j * lam, 0 * lam, 0 * lam, -1j * lam)).max() < 1e-14 * np.abs(lam).max()
    if mode is not NU_ZERO:
        assert abs(v[-1] - 1.0) < 1e-15 and abs(w[-1]) < 1e-15


@pytest.mark.parametrize("par,mode", HORIZON_SEEDS + [(NEAR_EXTREMAL[0], IMODE)])
def test_potential_slopes_on_the_interior(par, mode):
    # the one evaluator of U' on the interior, Delta = -e gap, against the
    # derivatives in s of U01 = sqrt(e gap) (xi - i m r) / (r^2 + a^2) and of
    # U00 - U11 = i nu + 2 i G, G = -k Omega_minus (r^2 - r_minus^2) / (r^2 + a^2),
    # each divided by J = drstar/ds = -(r^2 + a^2) / gap
    s = log_offset(np.linspace(-2.0, 40.0, 211) / cauchy_rate(par), "interior", par)
    eps, r, gap, _, _ = _offset_terms(s, "interior", par)
    ra = r * r + par.a ** 2
    sD = np.sqrt(eps * gap)
    d00, d01, d11 = _potential_slopes(r, -eps * gap, sD, mode, par)
    u01 = sD * (mode.xi - 1j * mode.m * r) / ra
    jac = -ra / gap
    du01 = (u01 * (0.5 * (gap - eps) / gap - 2.0 * r * eps / ra) - 1j * mode.m * eps * sD / ra) / jac
    dG = -2.0 * mode.k * par.a * r * eps / ra ** 2 / jac  # dG/dr e / J, dG/dr = -2 k a r / (r^2 + a^2)^2
    assert np.all(np.abs(d01 - du01) <= 1e-14 * np.abs(du01))
    assert np.all(np.abs((d00 - d11) - 2j * dG) <= 1e-14 * np.abs(dG))


# the probe of the interior's cost, on a = 0.6, Q = 0.3 over (0, 32/alpha) at
# tol 1e-10: k, xi and omega from 0.5 / 1.5 / 1.3 up to 40.  The carrier-nu
# steps of h took 14,868, 15,186, 59,946 and 4,132 steps on these; the
# frame takes 3,682, 2,624, 4,996 and 502
@pytest.mark.parametrize("k,xi,omega,most", [(40.5, 1.5, 1.3, 5000), (0.5, 41.5, 1.3, 5000),
                                             (40.5, 41.5, 1.3, 7000), (0.5, 1.5, 40.0, 1000)])
def test_interior_steps_do_not_grow_with_k_xi_omega(k, xi, omega, most):
    mode = ModeParams(omega=omega, k=k, m=0.55, xi=xi)
    traj = integrate(mode, PAR, (0.0, 32.0 / cauchy_rate(PAR)), np.array([0.8 + 0.3j, -0.45 + 0.9j]), tol=1e-10,
                     branch="interior")
    assert traj.steps <= most


@pytest.mark.parametrize("mode,holds", [(IMODE, True), (NU_ZERO, True), (GAP_CLOSING, False),
                                        (ModeParams(omega=GAP_CLOSING.omega, k=2.5, m=0.0, xi=0.0), False),
                                        (ModeParams(omega=GAP_CLOSING.omega, k=2.5, m=0.0, xi=1.0), True)])
def test_horizon_frame_is_refused_where_the_gap_closes(mode, holds, monkeypatch):
    # on the m = 0, k = 2.5 modes nu/2 + G changes sign at alpha rstar = 3.3;
    # at xi = 0 and 1e-9 the gap closes there, and the carrier-nu steps of h
    # take the span; at xi = 1 it stays open
    import kndirac.radial

    span = (0.0, 32.0 / cauchy_rate(PAR))
    assert _horizon_frame_holds(mode, PAR, log_offset(np.array(span), "interior", PAR)) is holds
    ran = []
    for name in ("_interior_steps", "_horizon_frame_steps"):
        def counted(*args, _name=name, _steps=getattr(kndirac.radial, name)):
            ran.append(_name)
            return _steps(*args)

        monkeypatch.setattr(kndirac.radial, name, counted)
    integrate(mode, PAR, span, np.array([1.0, 0.2j]), tol=1e-10, branch="interior")
    assert set(ran) == {"_horizon_frame_steps" if holds else "_interior_steps"}


@pytest.mark.parametrize("start,held", [(19.5, 0), (18.9, 1)])
def test_horizon_fit_window_needs_two_samples(start, held):
    # a span from alpha rstar = 19.5 leaves the window alpha rstar in [8, 19]
    # empty, where np.polyfit raised TypeError, and one from 18.9 leaves it
    # one sample, from which a rate of 0.438 alpha was fitted with a warning
    al = cauchy_rate(PAR)
    traj = integrate(MODE, PAR, (start / al, 32.0 / al), np.array([1.0 + 0.2j, -0.6 + 0.4j]), tol=1e-11,
                     branch="interior")
    with pytest.raises(ValueError, match=rf"horizon fit window rstar in \[{re.escape(repr(8.0 / al))}, "
                                         rf"{re.escape(repr(19.0 / al))}\] holds {held} of the {len(traj.rstar)} "
                                         r"samples"):
        fit_horizon(traj, MODE, PAR)


@pytest.mark.parametrize("X0", [(1.0, 2.0, 3.0), ((1.0, 2.0),), (math.nan, 1.0)])
@pytest.mark.parametrize("entry", ["adiabatic", "carrier 0", "interior", "far field"])
def test_initial_state_is_two_finite_entries(X0, entry, monkeypatch):
    # a third entry was dropped, a nested pair raised IndexError or
    # TypeError, and a nan integrated the whole span before it failed,
    # naming the span's end; each now raises before any step
    import kndirac.radial

    def no_step(*args):
        raise AssertionError("a step kernel ran")

    monkeypatch.setattr(kndirac.radial, "_filon_magnus_steps", no_step)
    with pytest.raises(ValueError, match=re.escape(f"X0 must hold two finite entries, got {X0!r}")):
        if entry == "far field":
            far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=2e3, n_samples=3)
        else:
            integrate(SUBLUMINAL if entry == "carrier 0" else MODE, PAR, (10.0, 60.0), X0,
                      branch="interior" if entry == "interior" else "exterior")


def test_horizon_fit_requires_interior():
    traj = far_field_trajectory(MODE, PAR, np.array([1.0, 0.5j]), u_min=1e3, u_max=2e3, n_samples=3)
    with pytest.raises(ValueError):
        fit_horizon(traj, MODE, PAR)


def test_infinity_fit_requires_exterior():
    # an interior trajectory's log offsets are s = log(r - r_minus), which the
    # far-field frame must not read as exterior ones
    traj = integrate(MODE, PAR, (0.0, 2e4), np.array([1.0, 0.5j]), tol=1e-10, branch="interior")
    with pytest.raises(ValueError, match="exterior-branch trajectory"):
        fit_infinity(traj, MODE, PAR)


def test_wronskian_on_interior_trajectory():
    al = cauchy_rate(PAR)
    span = (0.0, 10.0 / al)
    tol = 1e-11
    Xa = integrate(IMODE, PAR, span, np.array([1.0, 0.2j]), tol=tol, branch="interior")
    Xb = integrate(IMODE, PAR, span, np.array([0.1j, 1.0]), tol=tol, branch="interior")
    det0 = Xa.X[0][0] * Xb.X[0][1] - Xa.X[0][1] * Xb.X[0][0]
    det1 = Xa.X[-1][0] * Xb.X[-1][1] - Xa.X[-1][1] * Xb.X[-1][0]
    grow = np.exp(trace_integral(span[0], span[1], IMODE, PAR, branch="interior"))
    assert abs(det1 - det0 * grow) < 1e-8 * abs(det0)
