import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm
from test_acceptance import INFTY_SEEDS

from kndirac.geometry import (
    SpacetimeParams,
    _exterior_tortoise,
    azimuthal_shift,
    delta_sigma,
    interior_offset,
    log_offset,
    tortoise_inverse,
)
from kndirac.separation import ModeParams, potential_trace, radial_potential, radial_potential_from_r
from kndirac.radial import (
    IntegrationError,
    RadialTrajectory,
    asymptotic_phases,
    boost_matrix,
    cauchy_rate,
    eigen_expansion,
    exterior_system,
    far_field_trajectory,
    fit_horizon,
    fit_infinity,
    horizon_B,
    horizon_angular_velocity,
    integrate,
    integrate_linear_system,
    strip_horizon_phase,
    theta_boost,
    w_roots,
    _F1,
    _F2,
    _F3,
    _LAGRANGE,
    _adiabatic_frame,
    _eigenbasis,
    _expm2,
    _exterior_entries,
    _moments,
    _ordered_product,
)

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
MODE = ModeParams(omega=1.3, k=0.5, m=0.55, xi=1.7)


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
    import kndirac.radial

    if branch == "interior":
        # the interior branch integrates the phase-stripped h through horizon_B
        mode, span, tol = IMODE, (0.0, 32.0 / cauchy_rate(PAR)), 1e-11
        X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
        nu = 2.0 * (mode.omega + mode.k * horizon_angular_velocity(PAR))
        name, evaluate = "horizon_B", lambda t: horizon_B(t, mode, PAR)
        t_span, rstar_of = span, lambda t: t
        phase = lambda t: np.array([np.exp(1j * nu * t), 1.0])
    else:
        # the exterior branch steps dX/ds = J U X in s = log(r - r_plus)
        mode, span, tol = MODE, (10.0, 60.0), 1e-10
        X0 = np.array([1.0 + 0.0j, 0.5 - 0.25j])
        name, evaluate = "exterior_system", lambda s: exterior_system(s, mode, PAR)
        t_span = log_offset(np.array(span), "exterior", PAR)
        rstar_of = lambda s: _exterior_tortoise(s, PAR)
        phase = lambda t: np.ones(2)
    calls = []
    original = getattr(kndirac.radial, name)

    def counted(t, *args, **kwargs):
        calls.append(np.shape(t))
        return original(t, *args, **kwargs)

    monkeypatch.setattr(kndirac.radial, name, counted)
    traj = integrate(mode, PAR, span, X0, tol=tol, branch=branch)
    monkeypatch.undo()
    ts, ys, acc, rej = reference_dormand_prince(evaluate, t_span, X0 / phase(t_span[0]), tol=tol)
    end = phase(ts[-1]) * ys[-1]
    assert (traj.steps, traj.rejected) == (acc, rej)
    assert abs(traj.rstar[-1] - rstar_of(ts[-1])) <= 1e-12 * abs(span[1])
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


@pytest.mark.parametrize("branch,span", [("exterior", (10.0, 60.0)), ("interior", (0.0, 100.0))])
def test_integrate_budget_error_names_the_mode(branch, span, monkeypatch):
    # the exterior integrator's t is log(r - r_plus): integrate reports rstar
    import kndirac.radial

    original = kndirac.radial.integrate_linear_system
    monkeypatch.setattr(kndirac.radial, "integrate_linear_system",
                        lambda *args, **kwargs: original(*args, **kwargs, max_steps=10))
    with pytest.raises(IntegrationError, match=rf"{branch} integration of the mode omega=1\.3, k=0\.5, "
                                               r"m=0\.55, xi=1\.7 stopped at rstar=.*budget of 10") as info:
        integrate(MODE, PAR, span, np.array([1.0, 0.5j]), branch=branch)
    assert span[0] < info.value.t < span[1]
    assert f"rstar={info.value.t!r}" in str(info.value)


def test_exterior_integrate_inverts_only_the_endpoints(monkeypatch):
    # r is explicit in s = log(r - r_plus): two inversions per trajectory,
    # where stepping in rstar inverted the six nodes of every step
    import kndirac.geometry
    import kndirac.radial

    calls = []
    original = kndirac.geometry.log_offset

    def counted(rstar, region, params):
        calls.append(np.size(rstar))
        return original(rstar, region, params)

    for module in (kndirac.geometry, kndirac.radial):
        monkeypatch.setattr(module, "log_offset", counted)
    traj = integrate(MODE, PAR, (10.0, 60.0), np.array([1.0 + 0.0j, 0.5 - 0.25j]))
    assert traj.steps > 1000
    assert sum(calls) <= 2 and len(calls) <= 2


SUBLUMINAL = ModeParams(omega=0.3, k=0.5, m=0.8, xi=0.9)


@pytest.mark.parametrize("mode,span", [(MODE, (10.0, 60.0)), (MODE, (-40.0, 0.0)),
                                       (SUBLUMINAL, (260.0, 200.0))])
def test_exterior_matches_rstar_stepping_oracle(mode, span):
    # oracle: Dormand-Prince on dX/drstar = U X, inverting rstar at every node
    X0 = np.array([1.0 + 0.2j, 0.5 - 0.1j])
    traj = integrate(mode, PAR, span, X0, tol=1e-10)
    _, ys, _, _ = integrate_linear_system(
        lambda t: radial_potential(t, mode, PAR, branch="exterior"), span, X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ys[-1]).max() < 1e-8 * np.abs(ys[-1]).max()


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
    inverses = [lambda s: tortoise_inverse(s, region, PAR)]
    if region == "interior":
        inverses.append(lambda s: interior_offset(s, PAR))
    for inverse in inverses:
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


def u11_stack(rng, g, absw):
    """Stack of u(1,1) matrices [[i(mu+g), w], [conj(w), i(mu-g)]], |w| = absw,
    random trace mu and phase of w; q2 = |w|^2 - g^2."""
    n = len(g)
    mu = rng.normal(size=n)
    w = absw * np.exp(2j * np.pi * rng.uniform(size=n))
    Om = np.empty((n, 2, 2), dtype=complex)
    Om[:, 0, 0], Om[:, 0, 1] = 1j * (mu + g), w
    Om[:, 1, 0], Om[:, 1, 1] = np.conj(w), 1j * (mu - g)
    return Om


def test_expm2_matches_scipy():
    rng = np.random.default_rng(11)
    sym = rng.uniform(-0.5, 0.5, 40)
    big = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.6, 2.0, 40)
    stacks = [
        u11_stack(rng, sym, rng.uniform(0.6, 2.0, 40)),  # q2 > 0: cosh, sinh
        u11_stack(rng, big, rng.uniform(0.0, 0.5, 40)),  # q2 < 0: cos, sin
        u11_stack(rng, 1e-10 * sym, 1e-10 * rng.uniform(0.0, 1.0, 40)),  # |q| < 1e-8: series
        np.zeros((1, 2, 2), dtype=complex),
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
    ref = integrate(MODE, PAR, (1e3, 1.1e3), X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ref.X[-1]).max() < 1e-7


def test_far_field_matches_adaptive_near_horizon():
    # from u = 1 (r = 2.35, where C is O(1) and the halving check refines the
    # steps) to 2e3; Dormand-Prince takes 157k steps here
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = far_field_trajectory(MODE, PAR, X0, u_min=1.0, u_max=2e3, n_samples=4)
    ref = integrate(MODE, PAR, (1.0, 2e3), X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ref.X[-1]).max() < 1e-8 * np.abs(ref.X[-1]).max()


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
                                            steps=0, rejected=0, tol=0.0), mode, par)
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


def _frame_matrices(u, mode, params):
    _, _, _, V, K = _adiabatic_frame(u, mode, params)
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

    monkeypatch.setattr(kndirac.radial, "_FAR_STEP_BUDGET", 200)
    with pytest.raises(ArithmeticError, match=r"budget of 200 .*omega=1\.3.*u in \[1\.0, .*steps per "
                                              r"interval .* \d+ steps evaluated, \d+ accepted"):
        far_field_trajectory(MODE, PAR, np.array([1.0, 0.5j]), u_min=1.0, u_max=2e3, n_samples=4)


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
    _, _, V = _eigenbasis(*_exterior_entries(us, MODE, PAR)[1])
    pp, _ = log_r_phases(us, MODE, PAR)
    Xs = V[:, :, 0] * np.exp(1j * pp)[:, None]
    traj = RadialTrajectory(rstar=us, X=Xs, mode=MODE, params=PAR,
                            branch="exterior", steps=0, rejected=0, tol=0.0)
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
    lam1, lam2, V = _eigenbasis(*_exterior_entries(us, mode, par)[1])
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
    r, entries = _exterior_entries(us, MODE, PAR)
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
                            branch="exterior", steps=0, rejected=0, tol=0.0)
    with pytest.raises(ValueError, match="threshold"):
        fit_infinity(traj, mode, PAR)


def test_trivial_solution_rejected():
    us = np.geomspace(1e4, 1e6, 5)
    traj = RadialTrajectory(rstar=us, X=np.zeros((5, 2), complex), mode=MODE, params=PAR,
                            branch="exterior", steps=0, rejected=0, tol=0.0)
    with pytest.raises(ValueError):
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


def test_horizon_fit_requires_interior():
    traj = far_field_trajectory(MODE, PAR, np.array([1.0, 0.5j]), u_min=1e3, u_max=2e3, n_samples=3)
    with pytest.raises(ValueError):
        fit_horizon(traj, MODE, PAR)


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
