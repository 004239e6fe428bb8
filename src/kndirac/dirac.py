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

Every evaluator takes a `BLPoint` holding one point or a batch of them and
evaluates all of them in one pass, component axes last: B has shape
(..., 4, 4) and a stencil's coefficients (..., 5, 4, 4), where ... is the
shape of the point's r.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .geometry import BLPoint, delta_sigma
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
# gamma^(a) then gamma^(a) gamma5, a = 0..3: the matrices B is a combination of
_B_BASIS = np.concatenate([_GAMMA.gamma, _GAMMA.gamma @ _GAMMA.gamma5])

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


def _combination(coefficients):
    """sum_k c_k _B_BASIS[k] at every point, (..., 4, 4), from the eight
    coefficients stacked on the last axis."""
    return np.einsum("...k,kij->...ij", coefficients, _B_BASIS)


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
    ct, st = np.cos(th), np.sin(th)
    rS, s32 = np.sqrt(sigma), sigma ** 1.5
    radial = 1j * (r - M) / (2 * rS * rp)
    zero = np.zeros_like(radial)
    # the coefficients of gamma^(0..3), then of gamma^(0..3) gamma5
    return _combination(np.stack([
        radial + (1j * r / (4 * s32 * rp)) * (delta - rp**2),
        1j * ct / (2 * rS * st) - (1j * a * a / (2 * s32)) * ct * st,
        zero,
        radial + (1j * r / (4 * s32 * rp)) * (delta + rp**2),
        (a * (delta - rp**2) / (4 * s32 * rp)) * ct,
        r * a * st / (2 * s32),
        zero,
        (a * (delta + rp**2) / (4 * s32 * rp)) * ct,
    ], axis=-1))


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
# the point and its neighbours r +- h, theta +- h, in units of h
_STENCIL_R = np.array([0.0, 1.0, -1.0, 0.0, 0.0])
_STENCIL_THETA = np.array([0.0, 0.0, 0.0, 1.0, -1.0])


def b_term_numeric(point, params, h=1e-5):
    """Finite-difference evaluation of the spin-connection term.

    Central differences in r and theta of sqrt|g| u^mu_(a) and of the frame
    forms; independent of the closed form, agreement is O(h^2).
    """
    r, th = np.asarray(point.r, dtype=float), np.asarray(point.theta, dtype=float)
    # the frame at the points and at their four neighbours, in one call
    stencil = (5,) + (1,) * r.ndim
    rs = r + h * _STENCIL_R.reshape(stencil)
    ths = th + h * _STENCIL_THETA.reshape(stencil)
    vectors, forms = orthonormal_u_ef(BLPoint(rs, ths), params)
    sg = _sqrt_abs_g(rs, ths, params)
    weighted = sg[..., None, None] * vectors.u  # sqrt|g| u_(a)^mu
    # d_mu (sqrt|g| u_(a)^mu), mu = r, theta
    divergence = ((weighted[1, ..., 1] - weighted[2, ..., 1])
                  + (weighted[3, ..., 2] - weighted[4, ..., 2])) / (2 * h)
    uf = forms.u[0]
    duf = np.stack([forms.u[1] - forms.u[2], forms.u[3] - forms.u[4]]) / (2 * h)  # d_r, d_theta
    # eta^{(b)(b)} u_(b)al d_mu u_(b)be, then contracted with eps^{mu al be de}, mu = r, theta
    twist = np.einsum("b,...bx,m...by->...mxy", np.diag(ETA), uf, duf)
    twist = np.einsum("mxyz,...mxy->...z", _LEVI[1:3], twist)
    chiral = np.einsum("...z,...cz->...c", twist, uf)
    return _combination(np.concatenate([1j * divergence, -0.5 * chiral], axis=-1)
                        / (2 * sg[0])[..., None])


@dataclass(frozen=True)
class DiracStencil:
    """First-order operator  A_tau d_tau + A_r d_r + A_theta d_theta
    + A_phi d_phi + A_0  at a point or a batch of points."""

    coeffs: np.ndarray  # shape (..., 5, 4, 4): tau, r, theta, phi, zeroth

    def mode_zeroth(self, omega, k):
        """Zeroth-order matrix after e^{-i omega tau} e^{-i k phi} substitution."""
        c = self.coeffs
        return -1j * omega * c[..., 0, :, :] - 1j * k * c[..., 3, :, :] + c[..., 4, :, :]

    def apply_mode(self, omega, k, F, dF_dr, dF_dtheta):
        """Act on mode data (component values and their r/theta derivatives)."""
        def act(matrix, x):
            return (matrix @ np.asarray(x, dtype=complex)[..., None])[..., 0]

        return (act(self.mode_zeroth(omega, k), F) + act(self.coeffs[..., 1, :, :], dF_dr)
                + act(self.coeffs[..., 2, :, :], dF_dtheta))


def _stencil(shape, entries):
    """A stencil holding each of `entries`, ((i, j), (c_tau, c_r, c_theta,
    c_phi, c_0)), at (i, j) and zeros elsewhere; every c broadcasts to the
    points' `shape`."""
    coeffs = np.zeros(shape + (5, 4, 4), dtype=complex)
    for (i, j), entry in entries:
        for mu, c in enumerate(entry):
            coeffs[..., mu, i, j] = c
    return DiracStencil(coeffs=coeffs)


def dirac_stencil(point, params):
    """Dirac operator i G^mu d_mu + B as a stencil of closed-form entries.

    The matrix layout is
        [[0,    0,    a1,  b-],
         [0,    0,    b+,  a0],
         [a0b,  b+b,  0,   0 ],
         [b-b,  a1b,  0,   0 ]],
    every entry a first-order operator in (tau, r, theta, phi).
    """
    r, th = point.r, point.theta
    delta, sigma = delta_sigma(r, th, params)
    a, M, rp = params.a, params.M, params.r_plus
    ct, st = np.cos(th), np.sin(th)
    rS = np.sqrt(sigma)
    dlt = r + 1j * a * ct
    dltb = r - 1j * a * ct

    big = 2 * r * r + 2 * a * a - delta
    a1 = (-1j * big / (rS * rp), -1j * delta / (rS * rp), 0.0, -2j * a / (rS * rp),
          -(1j / (rS * rp)) * ((r - M) + delta * dltb / (2 * sigma)))
    a1b = a1[:4] + (-(1j / (rS * rp)) * ((r - M) + delta * dlt / (2 * sigma)),)
    a0 = (-1j * rp / rS, 1j * rp / rS, 0.0, 0.0, 1j * rp * dltb / (2 * sigma * rS))
    a0b = a0[:4] + (1j * rp * dlt / (2 * sigma * rS),)
    bm = (-a * st / rS, 0.0, -1j / rS, -1.0 / (st * rS),
          -(1.0 / rS) * (1j * ct / (2 * st) + a * st * dltb / (2 * sigma)))
    bp = (a * st / rS, 0.0, -1j / rS, 1.0 / (st * rS), bm[4])
    bmb = (-a * st / rS, 0.0, 1j / rS, -1.0 / (st * rS),
           (1.0 / rS) * (1j * ct / (2 * st) - a * st * dlt / (2 * sigma)))
    bpb = (a * st / rS, 0.0, 1j / rS, 1.0 / (st * rS), bmb[4])
    return _stencil(np.shape(r), [((0, 2), a1), ((0, 3), bm), ((1, 2), bp), ((1, 3), a0),
                                  ((2, 0), a0b), ((2, 1), bpb), ((3, 0), bmb), ((3, 1), a1b)])


def assembled_dirac_stencil(point, params):
    """Independent assembly i G^mu d_mu + B from the frame and spin connection."""
    G = general_dirac_matrices(orthonormal_u_ef(point, params)[0])
    return DiracStencil(coeffs=np.concatenate([1j * G, b_term_closed(point, params)[..., None, :, :]], axis=-3))


def _diag_transform(r, th, params):
    """The diagonals of D and Gamma, (..., 4) each."""
    delta, _ = delta_sigma(r, th, params)
    dlt = r + 1j * params.a * np.cos(th)
    dltb = np.conj(dlt)
    ad = np.abs(delta)
    D = np.stack([np.sqrt(dltb), np.sqrt(dltb * ad), np.sqrt(dlt * ad), np.sqrt(dlt)], axis=-1)
    Gam = -1j * np.stack([dlt, -dlt, -dltb, dltb], axis=-1)
    return D, Gam


def transform_stencil(point, params, mass):
    """Closed form of the diagonally transformed Dirac operator.

    The entries are the separated operators
        D1 = [ (2r^2+2a^2-Delta) d_tau + Delta d_r + 2a d_phi ] / r_plus
        D0 = -r_plus (d_tau - d_r)
        L+- = d_theta + cot/2 -+ i (a sin d_tau + csc d_phi)
    placed with |Delta|^(-1/2) and |Delta|^(1/2) weights, and the mass diagonal
    (i d m, -i d m, -i db m, i db m).  Numerically it equals
    -Gamma D (G + m) D^{-1} applied to the stencil of `dirac_stencil` (see
    conjugated_stencil_numeric), with all zeroth-order chain-rule terms
    cancelling against the entries of G.  Raises ValueError if any point lies
    on a horizon.
    """
    r, th = point.r, point.theta
    delta, _ = delta_sigma(r, th, params)
    if np.any(np.abs(delta) < 1e-12 * params.M**2):
        raise ValueError("transform is singular at r = r_plus (|Delta| factors)")
    a, rp = params.a, params.r_plus
    ct, st = np.cos(th), np.sin(th)
    dlt = r + 1j * a * ct
    dltb = np.conj(dlt)
    sD = np.sqrt(np.abs(delta))

    D1 = ((2 * r * r + 2 * a * a - delta) / rp, delta / rp, 0.0, 2 * a / rp, 0.0)
    D0 = (-rp, rp, 0.0, 0.0, 0.0)
    Lp = (-1j * a * st, 0.0, 1.0, -1j / st, ct / (2 * st))
    mLm = (-1j * a * st, 0.0, -1.0, -1j / st, -ct / (2 * st))  # -L-
    D1w = tuple(c / sD for c in D1)
    D0w = tuple(sD * c for c in D0)
    mass_diagonal = [((i, i), (0.0,) * 4 + (m * mass,))
                     for i, m in enumerate((1j * dlt, -1j * dlt, -1j * dltb, 1j * dltb))]
    return _stencil(np.shape(r), [((0, 2), D1w), ((0, 3), Lp), ((1, 2), mLm), ((1, 3), D0w),
                                  ((2, 0), D0w), ((2, 1), Lp), ((3, 0), mLm), ((3, 1), D1w)] + mass_diagonal)


def conjugated_stencil_numeric(st, point, params, mass, h=1e-5):
    """-Gamma D (G + m) D^{-1} with the r- and theta-dependence of D treated
    by central finite differences of D^{-1}; oracle for transform_stencil.

    D and Gamma are diagonal, so each product is an elementwise scaling of
    the rows (by -Gamma D) and the columns (by D^{-1} or its derivative)."""
    def inverse(r, th):
        return 1.0 / _diag_transform(r, th, params)[0]

    r, th = point.r, point.theta
    D, Gam = _diag_transform(r, th, params)
    Dinv = inverse(r, th)
    dDinv_r = (inverse(r + h, th) - inverse(r - h, th)) / (2 * h)
    dDinv_t = (inverse(r, th + h) - inverse(r, th - h)) / (2 * h)
    rows = (-Gam * D)[..., :, None]
    c = st.coeffs
    zeroth = (c[..., 1, :, :] * dDinv_r[..., None, :] + c[..., 2, :, :] * dDinv_t[..., None, :]
              + (c[..., 4, :, :] + mass * np.eye(4)) * Dinv[..., None, :])
    first = rows[..., None, :, :] * c[..., :4, :, :] * Dinv[..., None, None, :]
    return DiracStencil(coeffs=np.concatenate([first, (rows * zeroth)[..., None, :, :]], axis=-3))
