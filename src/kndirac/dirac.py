"""Gamma matrices, the curved-space Dirac operator and its diagonal transform.

The operator is built in the horizon-penetrating chart from the orthonormal
tetrad u_(a) as  i G^mu d_mu + B  with G^mu = u^mu_(a) gamma^(a) and B the
zeroth-order spin-connection term

    B = (i / 2 sqrt|g|) d_mu( sqrt|g| u^mu_(a) ) gamma^(a)
        - (1/4) eps^{mu al be de} eta^{(b)(b)} u_(b)al (d_mu u_(b)be)
          u_(c)de gamma^(c) gamma5 ,

with eps the metric Levi-Civita tensor.  First-order operators are stored as
per-point stencils: five 4x4 matrices, one per coordinate derivative plus a
zeroth-order term.  A mode e^{-i omega tau} e^{-i k phi} turns d_tau into
-i omega and d_phi into -i k.

The diagonal transform uses D = diag(db^1/2, (db|Delta|)^1/2, (d|Delta|)^1/2,
d^1/2) with d = r + i a cos(theta), db its conjugate, and
Gamma = -i diag(d, -d, -db, db); the transformed operator separates into the
radial and angular systems of :mod:`kndirac.separation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .geometry import delta_sigma
from .tetrads import orthonormal_u_ef

__all__ = [
    "GammaSet",
    "gamma_weyl",
    "SPIN_MATRIX",
    "spin_inner",
    "general_dirac_matrices",
    "b_term_closed",
    "b_term_numeric",
    "DiracStencil",
    "dirac_stencil",
    "transform_stencil",
    "conjugated_stencil_numeric",
]

_I2 = np.eye(2, dtype=complex)
_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


@dataclass(frozen=True)
class GammaSet:
    gamma: np.ndarray  # shape (4, 4, 4); gamma[a] is gamma^(a)
    gamma5: np.ndarray

    def __iter__(self):
        return iter(self.gamma)


def gamma_weyl():
    """Weyl-representation gamma matrices with gamma5 = i g0 g1 g2 g3.

    The spatial blocks are [[0, -sigma], [sigma, 0]]; the relative block sign
    is fixed by the Clifford relation (both blocks negative would square to
    +1 instead of eta^(i)(i) = -1).
    """
    g0 = np.block([[np.zeros((2, 2)), -_I2], [-_I2, np.zeros((2, 2))]]).astype(complex)
    gs = [np.block([[np.zeros((2, 2)), -s], [s, np.zeros((2, 2))]]).astype(complex) for s in _PAULI]
    gamma = np.array([g0] + gs)
    gamma5 = 1j * g0 @ gs[0] @ gs[1] @ gs[2]
    return GammaSet(gamma=gamma, gamma5=gamma5)


_GAMMA = gamma_weyl()
ETA = np.diag([1.0, -1.0, -1.0, -1.0])

SPIN_MATRIX = np.block([[np.zeros((2, 2)), _I2], [_I2, np.zeros((2, 2))]]).astype(complex)


def spin_inner(psi, phi):
    """Indefinite fibre inner product <psi| S phi> with the block-swap matrix S."""
    return np.vdot(np.asarray(psi, dtype=complex), SPIN_MATRIX @ np.asarray(phi, dtype=complex))


def general_dirac_matrices(tet):
    """Pointwise Dirac matrices G^mu = u^mu_(a) gamma^(a) from an orthonormal frame.

    Returns an array of shape (..., 4, 4, 4) for legs u of shape (..., 4, 4);
    G[..., mu, :, :] satisfies {G^mu, G^nu} = 2 g^{mu nu}.
    """
    if tet.variance != "vectors":
        raise ValueError("G^mu needs the vector (contravariant) frame")
    return np.einsum("...am,aij->...mij", tet.u, _GAMMA.gamma)


def _sqrt_abs_g(r, theta, params):
    _, sigma = delta_sigma(r, theta, params)
    return sigma * np.sin(theta)


def b_term_closed(point, params):
    """Closed form of the spin-connection term B in the penetrating chart.

    Note the minus sign on the a^2 cos sin term: the derivative of sqrt|g|
    with respect to theta contributes -2 a^2 cos sin^2 alongside Sigma cos,
    which flips the sign relative to a naive Sigma-cos-only evaluation.
    """
    r, th = point.r, point.theta
    delta, sigma = delta_sigma(r, th, params)
    a, M, rp = params.a, params.M, params.r_plus
    ct, st = math.cos(th), math.sin(th)
    g, g5 = _GAMMA.gamma, _GAMMA.gamma5
    s32 = sigma ** 1.5
    B = (1j * (r - M) / (2 * math.sqrt(sigma) * rp)) * (g[0] + g[3])
    B = B + (1j * ct / (2 * math.sqrt(sigma) * st)) * g[1]
    B = B - (1j * a * a / (2 * s32)) * ct * st * g[1]
    B = B + (1j * r / (4 * s32 * rp)) * ((delta - rp**2) * g[0] + (delta + rp**2) * g[3])
    B = B + (a * (delta - rp**2) / (4 * s32 * rp)) * ct * (g[0] @ g5)
    B = B + (a * (delta + rp**2) / (4 * s32 * rp)) * ct * (g[3] @ g5)
    B = B + (r * a * st / (2 * s32)) * (g[1] @ g5)
    return B


def _levi_civita_flat():
    eps = np.zeros((4, 4, 4, 4))
    for p in permutations(range(4)):
        sgn = 1
        q = list(p)
        for i in range(4):
            for j in range(i + 1, 4):
                if q[i] > q[j]:
                    sgn = -sgn
        eps[p] = sgn
    return eps


_LEVI = _levi_civita_flat()


def b_term_numeric(point, params, h=1e-5):
    """Finite-difference evaluation of the spin-connection term.

    Central differences in r and theta of sqrt|g| u^mu_(a) and of the frame
    forms; independent of the closed form, agreement is O(h^2).
    """
    from .geometry import BLPoint

    r, th = point.r, point.theta
    g, g5 = _GAMMA.gamma, _GAMMA.gamma5
    # the frame at the point and at its neighbours r +- h, theta +- h, in one call
    rs = r + h * np.array([0.0, 1.0, -1.0, 0.0, 0.0])
    ths = th + h * np.array([0.0, 0.0, 0.0, 1.0, -1.0])
    vectors, forms = orthonormal_u_ef(BLPoint(rs, ths), params)
    uvec, uform = vectors.u, forms.u
    sg = _sqrt_abs_g(rs, ths, params)

    B1 = np.zeros((4, 4), dtype=complex)
    for aidx in range(4):
        d_r = (sg[1] * uvec[1, aidx, 1] - sg[2] * uvec[2, aidx, 1]) / (2 * h)
        d_th = (sg[3] * uvec[3, aidx, 2] - sg[4] * uvec[4, aidx, 2]) / (2 * h)
        B1 += 1j / (2 * sg[0]) * (d_r + d_th) * g[aidx]

    uf = uform[0]
    duf = np.zeros((4, 4, 4), dtype=complex)
    duf[1] = (uform[1] - uform[2]) / (2 * h)
    duf[2] = (uform[3] - uform[4]) / (2 * h)
    gam5 = np.array([g[c] @ g5 for c in range(4)])
    B2 = np.zeros((4, 4), dtype=complex)
    for mu in (1, 2):
        for al in range(4):
            for be in range(4):
                for de in range(4):
                    lv = _LEVI[mu, al, be, de]
                    if lv == 0.0:
                        continue
                    coef = 0.0 + 0j
                    for b in range(4):
                        coef += ETA[b, b] * uf[b, al] * duf[mu, b, be]
                    B2 += (-0.25 * lv / sg[0]) * coef * np.einsum("c,cij->ij", uf[:, de], gam5)
    return B1 + B2


@dataclass(frozen=True)
class DiracStencil:
    """First-order operator  A_tau d_tau + A_r d_r + A_theta d_theta
    + A_phi d_phi + A_0  at a point."""

    coeffs: np.ndarray  # shape (5, 4, 4): tau, r, theta, phi, zeroth
    r: float
    theta: float
    params: object
    mass: float = 0.0

    @property
    def A_tau(self):
        return self.coeffs[0]

    @property
    def A_r(self):
        return self.coeffs[1]

    @property
    def A_theta(self):
        return self.coeffs[2]

    @property
    def A_phi(self):
        return self.coeffs[3]

    @property
    def A_0(self):
        return self.coeffs[4]

    def mode_zeroth(self, omega, k):
        """Zeroth-order matrix after e^{-i omega tau} e^{-i k phi} substitution."""
        return -1j * omega * self.coeffs[0] - 1j * k * self.coeffs[3] + self.coeffs[4]

    def apply_mode(self, omega, k, F, dF_dr, dF_dtheta):
        """Act on mode data (component values and their r/theta derivatives)."""
        return (
            self.mode_zeroth(omega, k) @ np.asarray(F, dtype=complex)
            + self.coeffs[1] @ np.asarray(dF_dr, dtype=complex)
            + self.coeffs[2] @ np.asarray(dF_dtheta, dtype=complex)
        )


def _entry(ct, cr, cth, cphi, c0):
    return np.array([ct, cr, cth, cphi, c0], dtype=complex)


def dirac_stencil(point, params, mass=0.0):
    """Dirac operator i G^mu d_mu + B as a stencil of closed-form entries.

    The matrix layout is
        [[0,    0,    a1,  b-],
         [0,    0,    b+,  a0],
         [a0b,  b+b,  0,   0 ],
         [b-b,  a1b,  0,   0 ]],
    every entry a first-order operator in (tau, r, theta, phi).  The mass is
    recorded for the downstream transform but not folded into the stencil.
    """
    r, th = point.r, point.theta
    delta, sigma = delta_sigma(r, th, params)
    a, M, rp = params.a, params.M, params.r_plus
    ct, st = math.cos(th), math.sin(th)
    rS = math.sqrt(sigma)
    dlt = r + 1j * a * ct
    dltb = r - 1j * a * ct

    big = 2 * r * r + 2 * a * a - delta
    a1 = _entry(-1j * big / (rS * rp), -1j * delta / (rS * rp), 0.0, -2j * a / (rS * rp),
                -(1j / (rS * rp)) * ((r - M) + delta * dltb / (2 * sigma)))
    a1b = _entry(-1j * big / (rS * rp), -1j * delta / (rS * rp), 0.0, -2j * a / (rS * rp),
                 -(1j / (rS * rp)) * ((r - M) + delta * dlt / (2 * sigma)))
    a0 = _entry(-1j * rp / rS, 1j * rp / rS, 0.0, 0.0, 1j * rp * dltb / (2 * sigma * rS))
    a0b = _entry(-1j * rp / rS, 1j * rp / rS, 0.0, 0.0, 1j * rp * dlt / (2 * sigma * rS))
    bm = _entry(-a * st / rS, 0.0, -1j / rS, -1.0 / (st * rS),
                -(1.0 / rS) * (1j * ct / (2 * st) + a * st * dltb / (2 * sigma)))
    bp = _entry(a * st / rS, 0.0, -1j / rS, 1.0 / (st * rS),
                -(1.0 / rS) * (1j * ct / (2 * st) + a * st * dltb / (2 * sigma)))
    bmb = _entry(-a * st / rS, 0.0, 1j / rS, -1.0 / (st * rS),
                 (1.0 / rS) * (1j * ct / (2 * st) - a * st * dlt / (2 * sigma)))
    bpb = _entry(a * st / rS, 0.0, 1j / rS, 1.0 / (st * rS),
                 (1.0 / rS) * (1j * ct / (2 * st) - a * st * dlt / (2 * sigma)))

    coeffs = np.zeros((5, 4, 4), dtype=complex)
    for (i, j), ent in [((0, 2), a1), ((0, 3), bm), ((1, 2), bp), ((1, 3), a0),
                        ((2, 0), a0b), ((2, 1), bpb), ((3, 0), bmb), ((3, 1), a1b)]:
        coeffs[:, i, j] = ent
    return DiracStencil(coeffs=coeffs, r=r, theta=th, params=params, mass=mass)


def assembled_dirac_stencil(point, params, mass=0.0):
    """Independent assembly i G^mu d_mu + B from the frame and spin connection."""
    G = general_dirac_matrices(orthonormal_u_ef(point, params)[0])
    coeffs = np.zeros((5, 4, 4), dtype=complex)
    coeffs[:4] = 1j * G
    coeffs[4] = b_term_closed(point, params)
    return DiracStencil(coeffs=coeffs, r=point.r, theta=point.theta, params=params, mass=mass)


def _diag_transform_matrices(r, th, params):
    delta, _ = delta_sigma(r, th, params)
    dlt = r + 1j * params.a * math.cos(th)
    dltb = np.conj(dlt)
    ad = abs(delta)
    D = np.diag([np.sqrt(dltb), np.sqrt(dltb * ad), np.sqrt(dlt * ad), np.sqrt(dlt)]).astype(complex)
    Gam = -1j * np.diag([dlt, -dlt, -dltb, dltb]).astype(complex)
    return D, Gam


def transform_stencil(st, point, params, mass):
    """Closed form of the diagonally transformed Dirac operator.

    The entries are the separated operators
        D1 = [ (2r^2+2a^2-Delta) d_tau + Delta d_r + 2a d_phi ] / r_plus
        D0 = -r_plus (d_tau - d_r)
        L+- = d_theta + cot/2 -+ i (a sin d_tau + csc d_phi)
    placed with |Delta|^(-1/2) and |Delta|^(1/2) weights, and the mass diagonal
    (i d m, -i d m, -i db m, i db m).  Numerically it equals
    -Gamma D (G + m) D^{-1} applied to the input stencil (see
    conjugated_stencil_numeric), with all zeroth-order chain-rule terms
    cancelling against the entries of G.
    """
    r, th = point.r, point.theta
    delta, _ = delta_sigma(r, th, params)
    if abs(delta) < 1e-12 * params.M**2:
        raise ValueError("transform is singular at r = r_plus (|Delta| factors)")
    a, rp = params.a, params.r_plus
    ct, st_ = math.cos(th), math.sin(th)
    dlt = r + 1j * a * ct
    dltb = np.conj(dlt)
    sD = math.sqrt(abs(delta))

    D1 = _entry((2 * r * r + 2 * a * a - delta) / rp, delta / rp, 0.0, 2 * a / rp, 0.0)
    D0 = _entry(-rp, rp, 0.0, 0.0, 0.0)
    Lp = _entry(-1j * a * st_, 0.0, 1.0, -1j / st_, ct / (2 * st_))
    Lm = _entry(1j * a * st_, 0.0, 1.0, 1j / st_, ct / (2 * st_))

    coeffs = np.zeros((5, 4, 4), dtype=complex)
    for (i, j), ent in [((0, 2), D1 / sD), ((0, 3), Lp), ((1, 2), -Lm), ((1, 3), sD * D0),
                        ((2, 0), sD * D0), ((2, 1), Lp), ((3, 0), -Lm), ((3, 1), D1 / sD)]:
        coeffs[:, i, j] = ent
    coeffs[4, 0, 0] += 1j * dlt * mass
    coeffs[4, 1, 1] += -1j * dlt * mass
    coeffs[4, 2, 2] += -1j * dltb * mass
    coeffs[4, 3, 3] += 1j * dltb * mass
    return DiracStencil(coeffs=coeffs, r=r, theta=th, params=params, mass=mass)


def conjugated_stencil_numeric(st, point, params, mass, h=1e-5):
    """-Gamma D (G + m) D^{-1} with the r- and theta-dependence of D treated
    by central finite differences; oracle for transform_stencil."""
    r, th = point.r, point.theta
    D, Gam = _diag_transform_matrices(r, th, params)
    Dinv = np.linalg.inv(D)
    dDinv_r = (
        np.linalg.inv(_diag_transform_matrices(r + h, th, params)[0])
        - np.linalg.inv(_diag_transform_matrices(r - h, th, params)[0])
    ) / (2 * h)
    dDinv_t = (
        np.linalg.inv(_diag_transform_matrices(r, th + h, params)[0])
        - np.linalg.inv(_diag_transform_matrices(r, th - h, params)[0])
    ) / (2 * h)
    coeffs = np.zeros((5, 4, 4), dtype=complex)
    for mu in range(4):
        coeffs[mu] = -Gam @ D @ st.coeffs[mu] @ Dinv
    zeroth = st.coeffs[4] + mass * np.eye(4)
    coeffs[4] = -Gam @ (D @ st.coeffs[1] @ dDinv_r + D @ st.coeffs[2] @ dDinv_t + D @ zeroth @ Dinv)
    return DiracStencil(coeffs=coeffs, r=r, theta=th, params=params, mass=mass)
