"""Newman-Penrose and orthonormal tetrads for the Kerr-Newman metric.

A Newman-Penrose (double null) frame {l, n, m, mbar} satisfies
    g(l,n) = 1,  g(m,mbar) = -1,
with every vector null and all other pairings zero.  The orthonormal frame
derived from it is
    u0 = (l+n)/sqrt2, u1 = (m+mbar)/sqrt2, u2 = (m-mbar)/(sqrt2 i),
    u3 = (l-n)/sqrt2,
whose dyad metric is diag(1,-1,-1,-1).

Tetrads carry explicit chart ('BL' or 'EF') and variance ('vectors' or
'forms') tags.

Every constructor takes a `BLPoint` holding one point or a batch of them and
evaluates all of them in one pass.  The component axis is last: a null leg
has shape (..., 4) and the orthonormal legs u have shape (..., 4, 4), leg
index before component index, where ... is the shape of the point's r; a
single point gives (4,) and (4, 4).  Metric pairings and residuals return
one value per point, of shape (...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import delta_sigma

__all__ = [
    "NullTetrad",
    "OrthonormalTetrad",
    "np_condition_residual",
    "orthonormal_from_null",
    "symmetric_bl_tetrad",
    "ef_null_tetrad",
    "orthonormal_u_ef",
    "orthonormal_bl",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class NullTetrad:
    l: np.ndarray
    n: np.ndarray
    m: np.ndarray
    mbar: np.ndarray
    variance: str = "vectors"
    chart: str = "BL"

    def vectors(self):
        return self.l, self.n, self.m, self.mbar


@dataclass(frozen=True)
class OrthonormalTetrad:
    """u[..., a, :] is the leg u_(a), a = 0..3."""

    u: np.ndarray
    variance: str = "vectors"
    chart: str = "BL"


def _gram(g, legs):
    """Bilinear pairings g_{mu nu} e_a^mu e_b^nu (no complex conjugation) of
    every two legs stacked on axis -2: shape (..., 4, 4)."""
    return legs @ g @ np.swapaxes(legs, -1, -2)


# g(e_a, e_b) of a double null frame e = (l, n, m, mbar); its upper triangle
# holds the ten conditions
_NP_GRAM = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, -1.0], [0.0, 0.0, -1.0, 0.0]])
_UPPER = np.triu_indices(4)


def np_condition_residual(tet, g):
    """Largest violation of the ten double-null-frame conditions, per point.

    A NaN in any condition makes the point's residual NaN."""
    gram = _gram(g, np.stack(tet.vectors(), axis=-2))
    return np.max(np.abs(gram - _NP_GRAM)[..., _UPPER[0], _UPPER[1]], axis=-1)


def orthonormal_from_null(nt):
    """Orthonormal frame of an NP frame: u0, u3 from (l +- n), u1, u2 from m
    and mbar."""
    l, n, m, mbar = nt.vectors()
    u = np.stack([
        (l + n) / SQRT2,
        (m + mbar) / SQRT2,
        (m - mbar) / (SQRT2 * 1j),
        (l - n) / SQRT2,
    ], axis=-2)
    return OrthonormalTetrad(u=u, variance=nt.variance, chart=nt.chart)


def _legs(scale, *values):
    """scale times the vector of the four `values`, at every point: a complex
    array with the component axis last; `scale` has the points' shape and
    each value broadcasts to it."""
    out = np.empty(np.shape(scale) + (4,), dtype=complex)
    for i, v in enumerate(values):
        out[..., i] = scale * v
    return out


def symmetric_bl_tetrad(point, params):
    """The symmetric Boyer-Lindquist NP frame (vectors), off the horizons.

    n carries the sign eps(Delta) = +1 outside / -1 between the horizons.
    """
    r, th = point.r, point.theta
    delta, sigma = delta_sigma(r, th, params)
    if np.any(np.abs(delta) < 1e-12 * params.M**2):
        raise ValueError("symmetric BL tetrad is undefined on a horizon")
    eps = np.where(delta > 0, 1.0, -1.0)
    a = params.a
    st = np.sin(th)
    f = 1.0 / np.sqrt(2.0 * sigma * np.abs(delta))
    l = _legs(f, r * r + a * a, delta, 0.0, a)
    n = _legs(eps * f, r * r + a * a, -delta, 0.0, a)
    m = _legs(1.0 / np.sqrt(2.0 * sigma), 1j * a * st, 0.0, 1.0, 1j / st)
    return NullTetrad(l=l, n=n, m=m, mbar=np.conj(m), variance="vectors", chart="BL")


def ef_null_tetrad(point, params):
    """Horizon-regular NP frame in the penetrating chart: (vectors, forms).

    This is the symmetric BL frame pushed to the new chart and rescaled by the
    class-3 rotation with C = sqrt|Delta| / r_plus, which removes the horizon
    singularity; the components below are the resulting closed forms, finite
    and smooth at r = r_plus.
    """
    r, th = point.r, point.theta
    delta, sigma = delta_sigma(r, th, params)
    a, rp = params.a, params.r_plus
    st = np.sin(th)
    rS2 = np.sqrt(2.0 * sigma)
    f = 1.0 / (rS2 * rp)
    l = _legs(f, 2 * r * r + 2 * a * a - delta, delta, 0.0, 2 * a)
    n = _legs(rp / rS2, 1.0, -1.0, 0.0, 0.0)
    m = _legs(1.0 / rS2, 1j * a * st, 0.0, 1.0, 1j / st)
    vectors = NullTetrad(l=l, n=n, m=m, mbar=np.conj(m), variance="vectors", chart="EF")

    lf = _legs(f, delta, delta - 2 * sigma, 0.0, -a * delta * st * st)
    nf = _legs(rp / rS2, 1.0, 1.0, 0.0, -a * st * st)
    mf = _legs(1.0 / rS2, 1j * a * st, 1j * a * st, -sigma, -1j * (r * r + a * a) * st)
    forms = NullTetrad(l=lf, n=nf, m=mf, mbar=np.conj(mf), variance="forms", chart="EF")
    return vectors, forms


def orthonormal_u_ef(point, params):
    """Orthonormal frame u_(a) (vectors, forms) of the horizon-regular NP frame:
    `orthonormal_from_null` of both frames of `ef_null_tetrad`."""
    vectors, forms = ef_null_tetrad(point, params)
    return orthonormal_from_null(vectors), orthonormal_from_null(forms)


def orthonormal_bl(point, params):
    """Orthonormal frame of the symmetric BL NP tetrad (vectors)."""
    return orthonormal_from_null(symmetric_bl_tetrad(point, params))
