import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from kndirac.geometry import SpacetimeParams, interior_offset, tortoise_inverse
from kndirac.separation import ModeParams, potential_trace, radial_potential, radial_potential_from_r
from kndirac.radial import (
    RadialTrajectory,
    asymptotic_phases,
    boost_matrix,
    cauchy_rate,
    eigen_expansion,
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
    _GAUSS_C1,
    _GAUSS_C2,
    _diagonalizer,
    _expm2,
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
        mode, span, tol = IMODE, (0.0, 32.0 / cauchy_rate(PAR)), 1e-11
        X0 = np.array([1.0 + 0.2j, -0.6 + 0.4j])
    else:
        mode, span, tol = MODE, (10.0, 60.0), 1e-10
        X0 = np.array([1.0 + 0.0j, 0.5 - 0.25j])
    calls = []

    def counted(t, *args, **kwargs):
        calls.append(np.shape(t))
        return radial_potential(t, *args, **kwargs)

    monkeypatch.setattr(kndirac.radial, "radial_potential", counted)
    traj = integrate(mode, PAR, span, X0, tol=tol, branch=branch)
    monkeypatch.undo()
    ts, ys, acc, rej = reference_dormand_prince(
        lambda t: radial_potential(t, mode, PAR, branch=branch), span, X0, tol=tol)
    assert (traj.steps, traj.rejected) == (acc, rej)
    assert abs(traj.rstar[-1] - ts[-1]) <= 1e-12 * abs(ts[-1])
    assert np.abs(traj.X[-1] - ys[-1]).max() < 10 * tol * np.abs(ys[-1]).max()
    # one call at the start, then one per attempted step on its six nodes
    assert len(calls) == acc + rej + 1
    assert calls[0] == (1,) and set(calls[1:]) == {(6,)}


def test_step_budget_failure_names_the_state():
    A = np.array([[0.0, 1.0j], [1.0j, 0.0]])
    with pytest.raises(ArithmeticError, match=r"t=.*h=.*accepted and \d+ rejected"):
        integrate_linear_system(lambda t: np.broadcast_to(A, np.shape(t) + A.shape),
                                (0.0, 1e4), np.array([1.0, 0.0]), tol=1e-10, max_steps=10)


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


def test_far_field_magnus_matches_adaptive():
    # cross-validate the two integrators over a short far-field stretch
    X0 = np.array([0.7 - 0.2j, 0.1 + 0.9j])
    traj = far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1.1e3, n_samples=2, beta=2e-3)
    ref = integrate(MODE, PAR, (1e3, 1.1e3), X0, tol=1e-12)
    assert np.abs(traj.X[-1] - ref.X[-1]).max() < 1e-7


def test_far_field_beta_convergence():
    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    t1 = far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1e4, n_samples=6, beta=4e-3)
    t2 = far_field_trajectory(MODE, PAR, X0, u_min=1e3, u_max=1e4, n_samples=6, beta=2e-3)
    assert np.abs(t1.X - t2.X).max() < 1e-8


# The Magnus chunk on stacked (n, 2, 2) matrices: `@` commutator, complex
# closed-form exponential and einsum tree product.  The reference the
# component kernel must reproduce.

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


def reference_magnus_chunk(mode, params, ua, ub, nsteps):
    h = (ub - ua) / nsteps
    edges = ua + h * np.arange(nsteps)
    nodes = np.concatenate([edges + _GAUSS_C1 * h, edges + _GAUSS_C2 * h])
    U = radial_potential_from_r(tortoise_inverse(nodes, "exterior", params), mode, params)
    A1, A2 = U[:nsteps], U[nsteps:]
    Om = 0.5 * h * (A1 + A2) + (math.sqrt(3.0) * h * h / 12.0) * (A2 @ A1 - A1 @ A2)
    return reference_ordered_product(reference_expm2(Om))


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
def test_far_field_matches_stacked_reference(par, mode, monkeypatch):
    # two of criterion 7's seeds over a short span
    import kndirac.radial

    X0 = np.array([0.8 + 0.3j, -0.45 + 0.9j])
    traj = far_field_trajectory(mode, par, X0, u_min=1e3, u_max=3e4, n_samples=12)
    monkeypatch.setattr(kndirac.radial, "_magnus_chunk", reference_magnus_chunk)
    ref = far_field_trajectory(mode, par, X0, u_min=1e3, u_max=3e4, n_samples=12)
    assert traj.steps == ref.steps
    assert np.abs(traj.X - ref.X).max() < 1e-11
    assert np.abs(traj.prop_det - ref.prop_det).max() < 1e-11


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


def test_manufactured_single_branch():
    us = np.geomspace(1e4, 1e6, 20)
    Xs = []
    prev = None
    Vs = []
    for u in us[::-1]:
        lam, V = _diagonalizer(u, MODE, PAR, prev)
        prev = (lam[0], lam[1])
        Vs.append(V)
    Vs = Vs[::-1]
    for u, V in zip(us, Vs):
        pp, _ = asymptotic_phases(u, MODE, PAR)
        Xs.append(V @ np.array([np.exp(1j * pp), 0.0]))
    traj = RadialTrajectory(rstar=us, X=np.array(Xs), mode=MODE, params=PAR,
                            branch="exterior", steps=0, rejected=0, tol=0.0)
    fit = fit_infinity(traj, MODE, PAR)
    assert abs(fit.f_inf[1]) < 1e-6
    assert abs(fit.f_inf[0] - 1.0) < 1e-3


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
