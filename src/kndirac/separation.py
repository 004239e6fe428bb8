"""Chandrasekhar-style separation of the transformed Dirac operator.

A mode e^{-i omega tau} e^{-i k phi} with half-integer k splits the
transformed operator into a radial part R(r) and an angular part A(theta)
acting on

    Phihat = (X2~ Y2, X1~ Y1, X1~ Y2, X2~ Y1),

with R Phihat = xi Phihat and A Phihat = -xi Phihat for the separation
constant xi.  The first-order radial system, after the rescaling
X = (X1~, r_plus X2~), reads  dX/dr = Utilde(r) X  and, in tortoise
coordinates,  dX/drstar = U(rstar) X  with U = (Delta / (r^2+a^2)) Utilde.
U is bounded on each branch; the horizon factors are cancelled algebraically
before evaluation so that nothing is computed as 0/0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import delta_sigma, interior_offset, tortoise_inverse

__all__ = [
    "ModeParams",
    "radial_operator",
    "angular_operator",
    "separation_residual",
    "radial_potential",
    "radial_potential_from_r",
    "potential_trace",
    "trace_antiderivative",
]


@dataclass(frozen=True)
class ModeParams:
    """Frequency omega, azimuthal half-integer k, fermion mass m and
    separation constant xi, all finite."""

    omega: float
    k: float
    m: float = 0.0
    xi: float = 0.0

    def __post_init__(self):
        for name in ("omega", "k", "m", "xi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        two_k = 2.0 * self.k
        if abs(two_k - round(two_k)) > 1e-12 or round(two_k) % 2 == 0:
            raise ValueError(f"k must be half-integer (k = j + 1/2), got {self.k}")
        if self.m < 0:
            raise ValueError("fermion mass must be nonnegative")


def _entry(c0, cd):
    return np.array([c0, cd], dtype=complex)


def radial_operator(r, mode, params):
    """Mode-evaluated radial matrix R(r) as (zeroth, d_r coefficient) 4x4 pair.

    The scalar operators are
        D1 = -[ (2r^2+2a^2-Delta) i omega - Delta d_r + 2 a k i ] / r_plus
        D0 =  r_plus (i omega + d_r)
    weighted by |Delta|^(-1/2), |Delta|^(1/2) in the usual positions.
    """
    om, k, m = mode.omega, mode.k, mode.m
    delta, _ = delta_sigma(r, 0.0, params)
    a, rp = params.a, params.r_plus
    sD = math.sqrt(abs(delta))
    D1 = _entry(-(1j * om * (2 * r * r + 2 * a * a - delta) + 2j * a * k) / rp, delta / rp)
    D0 = _entry(1j * om * rp, rp)
    M0 = np.zeros((4, 4), dtype=complex)
    M1 = np.zeros((4, 4), dtype=complex)
    for (i, j), ent in [((0, 2), D1 / sD), ((1, 3), sD * D0), ((2, 0), sD * D0), ((3, 1), D1 / sD)]:
        M0[i, j], M1[i, j] = ent
    diag = 1j * m * r * np.array([1.0, -1.0, -1.0, 1.0])
    M0 += np.diag(diag)
    return M0, M1


def angular_operator(theta, mode, params):
    """Mode-evaluated angular matrix A(theta) as (zeroth, d_theta coefficient) pair.

    L_pm = d_theta + cot/2 -+ (a omega sin + k csc) after the mode substitution.
    """
    om, k, m = mode.omega, mode.k, mode.m
    a = params.a
    ct, st = math.cos(theta), math.sin(theta)
    w = a * om * st + k / st
    Lp = _entry(ct / (2 * st) - w, 1.0)
    Lm = _entry(ct / (2 * st) + w, 1.0)
    M0 = np.zeros((4, 4), dtype=complex)
    M1 = np.zeros((4, 4), dtype=complex)
    for (i, j), ent in [((0, 3), Lp), ((1, 2), -Lm), ((2, 1), Lp), ((3, 0), -Lm)]:
        M0[i, j], M1[i, j] = ent
    M0 += np.diag(a * m * ct * np.array([-1.0, 1.0, -1.0, 1.0]))
    return M0, M1


def _assemble_mode(X, dX, Y, dY):
    """Phihat = (X2 Y2, X1 Y1, X1 Y2, X2 Y1) and its r / theta derivatives."""
    X1, X2 = X
    dX1, dX2 = dX
    Y1, Y2 = Y
    dY1, dY2 = dY
    phi = np.array([X2 * Y2, X1 * Y1, X1 * Y2, X2 * Y1], dtype=complex)
    dphi_r = np.array([dX2 * Y2, dX1 * Y1, dX1 * Y2, dX2 * Y1], dtype=complex)
    dphi_t = np.array([X2 * dY2, X1 * dY1, X1 * dY2, X2 * dY1], dtype=complex)
    return phi, dphi_r, dphi_t


def separation_residual(mode, radial_data, angular_data, params):
    """Stacked norm of (R - xi) and (A + xi) acting on the assembled mode.

    radial_data = (r, (X1~, X2~), (dX1~/dr, dX2~/dr)) and
    angular_data = (theta, (Y1, Y2), (dY1/dth, dY2/dth)); the residual
    vanishes exactly when both separated systems hold with +-xi.  Testing the
    two eigen-relations separately keeps the residual sensitive to xi, which
    cancels from the plain sum (R + A).
    """
    r, X, dX = radial_data
    theta, Y, dY = angular_data
    phi, dphi_r, dphi_t = _assemble_mode(X, dX, Y, dY)
    R0, R1 = radial_operator(r, mode, params)
    A0, A1 = angular_operator(theta, mode, params)
    res_r = R0 @ phi + R1 @ dphi_r - mode.xi * phi
    res_a = A0 @ phi + A1 @ dphi_t + mode.xi * phi
    return float(np.sqrt(np.linalg.norm(res_r) ** 2 + np.linalg.norm(res_a) ** 2))


def _potential_entries(r, delta, sD, eps_sign, mode, params):
    """Components (U00, U01, U10, U11) of U at radius r, given Delta, sqrt|Delta|
    and the sign of Delta.

    The one evaluator of U: the stacked matrices of `radial_potential` and the
    Dormand-Prince systems `radial.horizon_B` and `radial.exterior_system` are
    built from it, and the far-field Magnus kernel works on the components.
    """
    om, k, m, xi = mode.omega, mode.k, mode.m, mode.xi
    a = params.a
    ra = r * r + a * a
    return (1j * (om * (2 * ra - delta) + 2 * k * a) / ra,
            sD * (-1j * m * r + xi) / ra,
            eps_sign * sD * (1j * m * r + xi) / ra,
            -1j * delta * om / ra)


def _potential_slopes(r, delta, sD, mode, params):
    """Components of dU/drstar on the exterior branch, where Delta > 0, given
    Delta and sqrt(Delta): dU/dr from the rational forms of `_potential_entries`
    times dr/drstar = Delta / (r^2+a^2).  The far-field adiabatic frame takes
    the derivative of its eigenbasis from these."""
    om, k, m, xi = mode.omega, mode.k, mode.m, mode.xi
    a = params.a
    ra = r * r + a * a
    dd = 2.0 * (r - params.M)  # dDelta/dr
    lr = 2.0 * r / ra  # d log(r^2+a^2) / dr
    g = delta / (ra * ra)  # (dr/drstar) / (r^2+a^2)
    d01 = sD / (ra * ra) * ((xi - 1j * m * r) * (0.5 * dd - lr * delta) - 1j * m * delta)
    return (-1j * g * (om * dd + (2 * k * a - om * delta) * lr),
            d01,
            np.conj(d01),
            -1j * om * g * (dd - delta * lr))


def _stacked(u00, u01, u10, u11):
    U = np.empty(np.shape(u00) + (2, 2), dtype=complex)
    U[..., 0, 0], U[..., 0, 1], U[..., 1, 0], U[..., 1, 1] = u00, u01, u10, u11
    return U


def radial_potential_from_r(r, mode, params):
    """U = (Delta / (r^2+a^2)) Utilde evaluated directly at radius r."""
    delta, _ = delta_sigma(r, 0.0, params)
    sD = np.sqrt(np.abs(delta))
    eps = np.where(delta >= 0, 1.0, -1.0)
    return _stacked(*_potential_entries(r, delta, sD, eps, mode, params))


def radial_potential(rstar, mode, params, branch="exterior"):
    """Tortoise-coordinate radial potential U(rstar), finite at the horizons.

    On the interior branch the horizon offset eps = r - r_minus is carried in
    log form so that Delta = -eps (r_plus - r_minus - eps) stays accurate all
    the way into the exponential tail.
    """
    if branch == "exterior":
        r = tortoise_inverse(rstar, "exterior", params)
        return radial_potential_from_r(r, mode, params)
    if branch == "interior":
        eps = interior_offset(rstar, params)
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


def trace_antiderivative(rstar, r, mode, params):
    """Closed-form antiderivative of tr U along rstar: 2 i omega (rstar - r)
    + 2 i k phitilde(r), up to a constant; drives the Abel/Wronskian identity."""
    from .geometry import azimuthal_shift

    return 2j * mode.omega * (rstar - r) + 2j * mode.k * azimuthal_shift(r, params)
