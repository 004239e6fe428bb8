import math

import numpy as np
import pytest
from conftest import random_mode, random_slow_params
from scipy.integrate import solve_ivp

from kndirac.dirac import transform_stencil
from kndirac.geometry import BLPoint, SpacetimeParams, delta_sigma, log_offset, tortoise_inverse
from kndirac.separation import (
    ModeParams,
    _potential_entries,
    _stacked,
    angular_operator,
    radial_operator,
    separation_residual,
)

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
MODE = ModeParams(omega=1.1, k=0.5, m=0.7, xi=1.4)


# the radial matrix in the r coordinate, written out independently of
# `_potential_entries`: the oracle behind the manufactured radial solutions
def radial_system(r, mode, params):
    """The 2x2 matrix Utilde(r) with dX/dr = Utilde X (X2 rescaled by r_plus)."""
    om, k, m, xi = mode.omega, mode.k, mode.m, mode.xi
    delta, _ = delta_sigma(r, 0.0, params)
    a = params.a
    sD = np.sqrt(np.abs(delta))
    eps = np.where(delta >= 0, 1.0, -1.0)
    U = np.zeros(np.shape(r) + (2, 2), dtype=complex)
    U[..., 0, 0] = 1j * (om * (2 * r * r + 2 * a * a - delta) + 2 * k * a) / delta
    U[..., 0, 1] = sD * (-1j * m * r + xi) / delta
    U[..., 1, 0] = eps * sD * (1j * m * r + xi) / delta
    U[..., 1, 1] = -1j * om
    return U


# U itself, stacked from `_potential_entries` at a radius or a tortoise
# coordinate: the oracle for the rstar-stepping checks of the radial systems
def radial_potential_from_r(r, mode, params):
    """U = (Delta / (r^2+a^2)) Utilde evaluated directly at radius r."""
    delta, _ = delta_sigma(r, 0.0, params)
    sD = np.sqrt(np.abs(delta))
    eps = np.where(delta >= 0, 1.0, -1.0)
    return _stacked(*_potential_entries(r, delta, sD, eps, mode, params))


def radial_potential(rstar, mode, params, branch="exterior"):
    """Tortoise-coordinate radial potential U(rstar), finite at the horizons.

    On both branches the horizon offset eps = r - r_0 is carried in log form,
    so that Delta = +-eps (r - r_1), r_1 the other horizon, stays accurate all
    the way into the exponential tail, where r itself rounds to r_0.
    """
    if branch == "exterior":
        eps = np.exp(log_offset(rstar, "exterior", params))
        r = params.r_plus + eps
        delta = eps * (r - params.r_minus)
        return _stacked(*_potential_entries(r, delta, np.sqrt(delta), 1.0, mode, params))
    if branch == "interior":
        eps = np.exp(log_offset(rstar, "interior", params))
        r = params.r_minus + eps
        abs_delta = eps * (params.r_plus - params.r_minus - eps)
        return _stacked(*_potential_entries(r, -abs_delta, np.sqrt(abs_delta), -1.0, mode, params))
    raise ValueError(f"branch must be 'exterior' or 'interior', got {branch!r}")


def potential_trace(r, mode, params):
    """tr U in closed form: 2 i omega - 2 i omega Delta/(r^2+a^2) + 2 i k a/(r^2+a^2)."""
    om, k = mode.omega, mode.k
    delta, _ = delta_sigma(r, 0.0, params)
    ra = r * r + params.a * params.a
    return 2j * om - 2j * om * delta / ra + 2j * k * params.a / ra


def integrate_radial_tilde(mode, params, r0, r1, X0):
    """Manufactured radial solution: integrate the first-order system for
    (X1~, X2~) with dX/dr = Utilde X after undoing the r_plus rescaling."""

    def rhs(r, y):
        U = radial_system(r, mode, params)
        X = np.array([y[0] + 1j * y[1], params.r_plus * (y[2] + 1j * y[3])])
        dX = U @ X
        dX1, dX2t = dX[0], dX[1] / params.r_plus
        return [dX1.real, dX1.imag, dX2t.real, dX2t.imag]

    y0 = [X0[0].real, X0[0].imag, X0[1].real, X0[1].imag]
    sol = solve_ivp(rhs, (r0, r1), y0, rtol=1e-12, atol=1e-14, dense_output=True)
    assert sol.success

    def eval_tilde(r):
        y = sol.sol(r)
        X = np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]])
        U = radial_system(r, mode, params)
        dX = U @ np.array([X[0], params.r_plus * X[1]])
        return X, np.array([dX[0], dX[1] / params.r_plus])

    return eval_tilde


def integrate_angular(mode, params, th0, th1, Y0):
    """Manufactured angular solution of the first-order pair."""
    aw = params.a * mode.omega
    am = params.a * mode.m

    def deriv(th, Y):
        ct, st = math.cos(th), math.sin(th)
        w = aw * st + mode.k / st
        L0p = ct / (2 * st) - w
        L0m = ct / (2 * st) + w
        dY1 = -L0p * Y[0] + (am * ct - mode.xi) * Y[1]
        dY2 = -L0m * Y[1] + (am * ct + mode.xi) * Y[0]
        return np.array([dY1, dY2])

    def rhs(th, y):
        d = deriv(th, np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]]))
        return [d[0].real, d[0].imag, d[1].real, d[1].imag]

    y0 = [Y0[0].real, Y0[0].imag, Y0[1].real, Y0[1].imag]
    sol = solve_ivp(rhs, (th0, th1), y0, rtol=1e-12, atol=1e-14, dense_output=True)
    assert sol.success

    def eval_angular(th):
        y = sol.sol(th)
        Y = np.array([y[0] + 1j * y[1], y[2] + 1j * y[3]])
        return Y, deriv(th, Y)

    return eval_angular


def test_radial_operator_diagonal():
    mode = ModeParams(omega=0.9, k=0.5, m=1.0, xi=0.3)
    M0, _ = radial_operator(3.0, mode, PAR)
    assert np.abs(np.diag(M0) - 3j * np.array([1, -1, -1, 1])).max() < 1e-14


def test_radial_operator_spin_term_drops_at_a0():
    par = SpacetimeParams(M=1.0, Q=0.3)
    up = radial_operator(3.0, ModeParams(omega=0.9, k=0.5, m=1.0), par)[0]
    dn = radial_operator(3.0, ModeParams(omega=0.9, k=-0.5, m=1.0), par)[0]
    assert np.abs(up - dn).max() < 1e-14


def test_radial_operator_mode_application():
    # D0 applied to e^{i omega r} gives 2 i omega r_plus e^{i omega r}
    mode = ModeParams(omega=0.8, k=0.5, m=0.0, xi=0.0)
    r = 3.0
    M0, M1 = radial_operator(r, mode, PAR)
    delta, _ = delta_sigma(r, 0.0, PAR)
    sD = math.sqrt(abs(delta))
    f = np.exp(1j * mode.omega * r)
    df = 1j * mode.omega * f
    # position (1,3) carries sqrt|Delta| D0
    val = M0[1, 3] * f + M1[1, 3] * df
    assert abs(val - sD * 2j * mode.omega * PAR.r_plus * f) < 1e-13


def test_angular_operator_equatorial():
    mode = ModeParams(omega=0.9, k=1.5, m=0.4, xi=0.0)
    M0, M1 = angular_operator(math.pi / 2, mode, PAR)
    # cot term vanishes; L_pm = d_theta -+ (a omega + k); diagonal am cos = 0
    w = PAR.a * mode.omega + mode.k
    assert abs(M0[0, 3] + w) < 1e-14 and M1[0, 3] == 1.0
    assert abs(M0[1, 2] + w) < 1e-14 and M1[1, 2] == -1.0
    assert np.abs(np.diag(M0)).max() < 1e-14


def test_angular_operator_diagonal_vanishes_massless():
    mode = ModeParams(omega=0.9, k=0.5, m=0.0, xi=0.0)
    M0, _ = angular_operator(0.7, mode, PAR)
    assert np.abs(np.diag(M0)).max() == 0.0


def test_angular_operator_on_sqrt_sin():
    # L+ sqrt(sin) = sqrt(sin) (cot - csc/2) - (a w sin + k csc) sqrt(sin);
    # with a*omega = 0, k = 1/2 the closed form is sqrt(sin)(cot - csc)
    par = SpacetimeParams(M=1.0, Q=0.3)
    mode = ModeParams(omega=0.0, k=0.5, m=0.0, xi=0.0)
    th = 0.9
    M0, M1 = angular_operator(th, mode, par)
    st, ct = math.sin(th), math.cos(th)
    f = math.sqrt(st)
    df = 0.5 * ct / math.sqrt(st)
    applied = M0[0, 3] * f + M1[0, 3] * df
    expect = f * (ct / st - 0.5 / st)
    assert abs(applied - expect) < 1e-13


def test_separation_residual_manufactured():
    ev_r = integrate_radial_tilde(MODE, PAR, 3.0, 4.0, np.array([1.0 + 0.3j, -0.4 + 0.2j]))
    ev_a = integrate_angular(MODE, PAR, 1.0, 2.0, np.array([0.8 - 0.1j, 0.5 + 0.6j]))
    for r in (3.2, 3.6, 3.9):
        for th in (1.1, 1.5, 1.9):
            X, dX = ev_r(r)
            Y, dY = ev_a(th)
            res = separation_residual(MODE, (r, X, dX), (th, Y, dY), PAR)
            assert res < 1e-8


def test_separation_residual_detects_perturbation():
    ev_r = integrate_radial_tilde(MODE, PAR, 3.0, 4.0, np.array([1.0 + 0.3j, -0.4 + 0.2j]))
    ev_a = integrate_angular(MODE, PAR, 1.0, 2.0, np.array([0.8 - 0.1j, 0.5 + 0.6j]))
    r, th = 3.5, 1.4
    X, dX = ev_r(r)
    Y, dY = ev_a(th)
    base = separation_residual(MODE, (r, X, dX), (th, Y, dY), PAR)
    pert = separation_residual(MODE, (r, X + 1e-3, dX), (th, Y, dY), PAR)
    assert base < 1e-8
    assert 1e-4 < pert < 1e-1


def test_separation_residual_wrong_xi():
    ev_r = integrate_radial_tilde(MODE, PAR, 3.0, 4.0, np.array([1.0 + 0.3j, -0.4 + 0.2j]))
    ev_a = integrate_angular(MODE, PAR, 1.0, 2.0, np.array([0.8 - 0.1j, 0.5 + 0.6j]))
    r, th = 3.5, 1.4
    X, dX = ev_r(r)
    Y, dY = ev_a(th)
    wrong = ModeParams(omega=MODE.omega, k=MODE.k, m=MODE.m, xi=MODE.xi + 1.0)
    res = separation_residual(wrong, (r, X, dX), (th, Y, dY), PAR)
    # the xi shift enters through the coupling entries; bounded below by the
    # size of the affected components
    phi_norm = np.linalg.norm([X[1] * Y[1], X[0] * Y[0], X[0] * Y[1], X[1] * Y[0]])
    assert res > 0.1 * phi_norm / 10


def test_separation_residual_random_modes():
    rng = np.random.default_rng(51)
    for _ in range(20):
        par = random_slow_params(rng)
        mode = random_mode(rng)
        r0 = par.r_plus + par.M * rng.uniform(0.5, 2.0)
        ev_r = integrate_radial_tilde(mode, par, r0, r0 + par.M, np.array([1.0 + 0.3j, -0.4 + 0.2j]))
        ev_a = integrate_angular(mode, par, 1.0, 2.0, np.array([0.8 - 0.1j, 0.5 + 0.6j]))
        r = r0 + 0.5 * par.M
        th = 1.5
        X, dX = ev_r(r)
        Y, dY = ev_a(th)
        assert separation_residual(mode, (r, X, dX), (th, Y, dY), par) < 1e-8


def test_mode_consistency_with_transformed_stencil():
    # the mode-evaluated transformed Dirac operator acting on the assembled
    # separated data equals the (R + A) action; zero on simultaneous solutions
    rng = np.random.default_rng(61)
    for _ in range(5):
        par = random_slow_params(rng)
        mode = random_mode(rng)
        r0 = par.r_plus + par.M * rng.uniform(0.5, 2.0)
        ev_r = integrate_radial_tilde(mode, par, r0, r0 + par.M, np.array([0.9 + 0.2j, -0.5 + 0.1j]))
        ev_a = integrate_angular(mode, par, 1.0, 2.1, np.array([0.7 - 0.2j, 0.4 + 0.5j]))
        r, th = r0 + 0.4 * par.M, 1.3
        X, dX = ev_r(r)
        Y, dY = ev_a(th)
        phi = np.array([X[1] * Y[1], X[0] * Y[0], X[0] * Y[1], X[1] * Y[0]])
        dphi_r = np.array([dX[1] * Y[1], dX[0] * Y[0], dX[0] * Y[1], dX[1] * Y[0]])
        dphi_t = np.array([X[1] * dY[1], X[0] * dY[0], X[0] * dY[1], X[1] * dY[0]])
        p = BLPoint(r, th)
        tr = transform_stencil(p, par, mode.m)
        out = tr.apply_mode(mode.omega, mode.k, phi, dphi_r, dphi_t)
        # compare with (R + A) action on the same data
        R0, R1 = radial_operator(r, mode, par)
        A0, A1 = angular_operator(th, mode, par)
        # mass diagonal of the transform equals i m (r +- i a cos) arrangements,
        # already inside R + A via the i m r and -+ a m cos parts
        alt = (R0 + A0) @ phi + R1 @ dphi_r + A1 @ dphi_t
        assert np.abs(out - alt).max() < 1e-10
        assert np.abs(out).max() < 1e-8


def test_radial_system_entries():
    mode = ModeParams(omega=0.7, k=1.5, m=0.0, xi=0.0)
    U = radial_system(3.0, mode, PAR)
    assert abs(U[1, 1] + 1j * mode.omega) < 1e-15
    assert abs(U[0, 1]) == 0.0 and abs(U[1, 0]) == 0.0  # m = xi = 0


def test_radial_system_equivalent_to_potential():
    # dX/dr = Utilde X is dX/drstar = U X under drstar/dr = (r^2+a^2)/Delta
    r = 2.6
    delta, _ = delta_sigma(r, 0.0, PAR)
    U1 = radial_system(r, MODE, PAR)
    U2 = radial_potential_from_r(r, MODE, PAR)
    assert np.abs(U2 - (delta / (r * r + PAR.a**2)) * U1).max() < 1e-14


def test_radial_potential_limit_at_infinity():
    # U -> i [[omega, -m], [m, -omega]]: the direct large-r limit fixes the
    # off-diagonal signs of the printed asymptotic matrix
    mode = ModeParams(omega=1.3, k=0.5, m=0.55, xi=1.7)
    Uinf = 1j * np.array([[mode.omega, -mode.m], [mode.m, -mode.omega]])
    for rs in (1e6, 1e8):
        U = radial_potential(rs, mode, PAR, branch="exterior")
        assert np.abs(U - Uinf).max() < 5.0 / rs
    # and the 1/rstar correction carries (xi + i m M) off-diagonal
    rs = 1e8
    U = radial_potential(rs, mode, PAR, branch="exterior")
    r = tortoise_inverse(rs, "exterior", PAR)
    V = (U - Uinf) * r
    assert abs(V[0, 1] - (mode.xi + 1j * mode.m * PAR.M)) < 1e-4
    assert abs(V[1, 0] - (mode.xi - 1j * mode.m * PAR.M)) < 1e-4
    assert abs(V[0, 0] - 2j * mode.omega * PAR.M) < 1e-4


def test_radial_potential_offdiagonal_vanishes_at_horizon():
    # sqrt|Delta| suppression: the couplings decay monotonically toward r_plus
    vals = [abs(radial_potential(rs, MODE, PAR, branch="exterior")[0, 1])
            for rs in (-10.0, -25.0, -40.0, -60.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-5
    # same from the radial side with explicit offsets from the horizon
    seq = [abs(radial_potential_from_r(PAR.r_plus + off, MODE, PAR)[0, 1])
           for off in (1e-2, 1e-5, 1e-8)]
    assert all(b < a for a, b in zip(seq, seq[1:]))
    assert seq[-1] < 1e-3


def test_radial_potential_horizon_limit_entry():
    rp, a = PAR.r_plus, PAR.a
    expect = 2j * (MODE.omega + MODE.k * a / (rp * rp + a * a))
    r = rp + 1e-8
    U = radial_potential_from_r(r, MODE, PAR)
    assert abs(U[0, 0] - expect) < 1e-6
    # same limit from the tortoise side
    U2 = radial_potential(-40.0, MODE, PAR, branch="exterior")
    assert abs(U2[0, 0] - expect) < 1e-8


def test_radial_potential_bounded_on_both_branches():
    bound = 10.0 * (abs(MODE.omega) + abs(MODE.k) + MODE.m + abs(MODE.xi) + 1.0)
    for rs in np.linspace(-60, 60, 121):
        for branch in ("exterior", "interior"):
            U = radial_potential(rs, MODE, PAR, branch=branch)
            assert np.abs(U).max() < bound
    # down to machine-close approaches of both horizons
    for r in (PAR.r_plus + 1e-10, PAR.r_plus - 1e-10, PAR.r_minus + 1e-10):
        U = radial_potential_from_r(r, MODE, PAR)
        assert np.abs(U).max() < bound


def test_trace_two_ways():
    rng = np.random.default_rng(71)
    for _ in range(40):
        r = PAR.r_minus + 10.0 ** rng.uniform(-1.5, 2)
        U = radial_potential_from_r(r, MODE, PAR)
        assert abs(np.trace(U) - potential_trace(r, MODE, PAR)) < 1e-12


def test_mode_params_validation():
    with pytest.raises(ValueError):
        ModeParams(omega=1.0, k=1.0)
    with pytest.raises(ValueError):
        ModeParams(omega=1.0, k=0.5, m=-0.1)
    ModeParams(omega=1.0, k=-2.5)  # fine


@pytest.mark.parametrize("field,value", [("omega", math.nan), ("omega", math.inf), ("k", math.nan), ("k", math.inf),
                                         ("m", math.nan), ("m", math.inf), ("xi", math.nan), ("xi", math.inf)])
def test_mode_params_reject_non_finite(field, value):
    # a NaN omega used to reach the interior integrator, which rejected every
    # step on its way to the step budget
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ModeParams(**{"omega": 1.3, "k": 0.5, "m": 0.55, "xi": 1.7, field: value})
