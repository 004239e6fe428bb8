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

from .geometry import delta_sigma

__all__ = [
    "ModeParams",
    "radial_operator",
    "angular_operator",
    "separation_residual",
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


def _potential_u01(r, ra, sD, mode):
    """U01 = sqrt|Delta| (xi - i m r) / (r^2 + a^2) at radius r, given
    ra = r^2 + a^2 and sqrt|Delta|: the coupling amplitude of U on either
    branch.  `_potential_entries` builds U from it, and the interior
    Filon-Magnus steps (`radial._horizon_coupling`) take it alone."""
    return sD * (-1j * mode.m * r + mode.xi) / ra


def _potential_entries(r, delta, sD, eps_sign, mode, params):
    """Components (U00, U01, U10, U11) of U at radius r, given Delta, sqrt|Delta|
    and the sign of Delta.

    The one evaluator of U: the exterior adiabatic frame of the far field
    and of exterior `radial.integrate` works on the components, and the
    carrier-0 steps of J U for spans without that frame
    (`radial._plain_steps`) are built from it.  U01 comes from
    `_potential_u01`.
    """
    om, k, m, xi = mode.omega, mode.k, mode.m, mode.xi
    a = params.a
    ra = r * r + a * a
    return (1j * (om * (2 * ra - delta) + 2 * k * a) / ra,
            _potential_u01(r, ra, sD, mode),
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
