"""Kerr-Newman geometry in Boyer-Lindquist and horizon-penetrating coordinates.

Conventions used throughout the package:

- geometric units, signature (+,-,-,-)
- coordinate order (0,1,2,3) = (t or tau, r, theta, phi); index 2 is always
  the polar angle
- Delta(r) = r^2 - 2 M r + a^2 + Q^2,  Sigma(r,theta) = r^2 + a^2 cos^2(theta)
- the horizon-penetrating chart (called "EF" here) is built from the tortoise
  coordinate rstar and the azimuthal shift phitilde via
  tau = t + rstar - r and phihat = phi + phitilde.

All functions are pure and accept numpy arrays where that makes sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpacetimeParams",
    "HorizonData",
    "BLPoint",
    "horizons",
    "delta_sigma",
    "tortoise",
    "tortoise_derivative",
    "tortoise_inverse",
    "interior_offset",
    "azimuthal_shift",
    "azimuthal_shift_derivative",
    "bl_metric",
    "ef_metric",
    "metric",
    "inverse_metric",
    "bl_to_ef_jacobian",
    "temporal_minors",
]


@dataclass(frozen=True)
class SpacetimeParams:
    """Mass, angular momentum per mass and charge of a slow Kerr-Newman hole.

    The slow (sub-extremal) condition a^2 + Q^2 < M^2 is enforced so that
    Delta has two distinct positive-discriminant roots.
    """

    M: float
    a: float = 0.0
    Q: float = 0.0

    def __post_init__(self):
        if not self.M > 0:
            raise ValueError(f"M must be positive, got {self.M}")
        if self.a * self.a + self.Q * self.Q >= self.M * self.M:
            raise ValueError(
                f"slow condition a^2 + Q^2 < M^2 violated: "
                f"a={self.a}, Q={self.Q}, M={self.M}"
            )

    @property
    def r_plus(self) -> float:
        return self.M + math.sqrt(self.M**2 - self.a**2 - self.Q**2)

    @property
    def r_minus(self) -> float:
        return self.M - math.sqrt(self.M**2 - self.a**2 - self.Q**2)


@dataclass(frozen=True)
class HorizonData:
    """Outer (event) and inner (Cauchy) horizon radii."""

    r_plus: float
    r_minus: float


@dataclass(frozen=True)
class BLPoint:
    """A point (r, theta) in the poloidal plane, theta strictly inside (0, pi)."""

    r: float
    theta: float

    def __post_init__(self):
        if not 0.0 < self.theta < math.pi:
            raise ValueError(f"theta must lie in (0, pi), got {self.theta}")


def horizons(params):
    """Roots r_pm = M ± sqrt(M^2 - a^2 - Q^2) of Delta."""
    return HorizonData(r_plus=params.r_plus, r_minus=params.r_minus)


def delta_sigma(r, theta, params):
    """Return (Delta, Sigma) at (r, theta)."""
    M, a, Q = params.M, params.a, params.Q
    delta = r * r - 2.0 * M * r + a * a + Q * Q
    sigma = r * r + a * a * np.cos(theta) ** 2
    return delta, sigma


def _kappas(params):
    # partial-fraction weights of (r^2+a^2)/Delta at r_plus / r_minus
    rp, rm, a = params.r_plus, params.r_minus, params.a
    return (rp * rp + a * a) / (rp - rm), (rm * rm + a * a) / (rp - rm)


def tortoise(r, params):
    """Tortoise coordinate rstar(r); diverges to -inf at r_plus (from outside)
    and to +inf at r_minus (from inside)."""
    kp, km = _kappas(params)
    return r + kp * np.log(np.abs(r - params.r_plus)) - km * np.log(np.abs(r - params.r_minus))


def tortoise_derivative(r, params):
    """d rstar / dr = (r^2 + a^2) / Delta."""
    delta, _ = delta_sigma(r, 0.0, params)
    return (r * r + params.a * params.a) / delta


def azimuthal_shift(r, params):
    """Azimuthal shift phitilde(r) entering phihat = phi + phitilde.

    The integration constant is fixed to zero; d phitilde / dr = a / Delta.
    """
    a = params.a
    return (a / (params.r_plus - params.r_minus)) * np.log(
        np.abs((r - params.r_plus) / (r - params.r_minus))
    )


def azimuthal_shift_derivative(r, params):
    """d phitilde / dr = a / Delta."""
    delta, _ = delta_sigma(r, 0.0, params)
    return params.a / delta


def interior_offset(rstar, params):
    """Radial offset eps = r - r_minus on the interior branch, solved in log(eps).

    Working in t = log(eps) keeps the inversion accurate arbitrarily close to
    the Cauchy horizon, where eps underflows any direct subtraction r - r_minus.
    Arrays are solved together; a scalar rstar returns a float.
    """
    rp, rm = params.r_plus, params.r_minus
    if rm <= 0.0:
        raise ValueError("interior branch requires a Cauchy horizon (a, Q not both 0)")
    kp, km = _kappas(params)
    width = rp - rm
    rs = np.array(rstar, dtype=float, ndmin=1)
    log_half = math.log(0.5 * width)
    t_cap = math.log(width) - 1e-15
    # seed from the near-horizon asymptotics rstar ~ rm + kp log(width) - km t;
    # below the midpoint rstar(rm + width/2) start from the midpoint instead
    t = np.minimum(np.maximum((rm + kp * math.log(width) - rs) / km, -745.0), math.log(width) - 1e-12)
    t = np.where(rs < rm + 0.5 * width + (kp - km) * log_half, log_half, t)
    for _ in range(200):
        e = np.exp(t)
        gap = width - e
        f = rm + e + kp * np.log(gap) - km * t - rs
        df = e - kp * e / gap - km  # < 0 on the whole branch
        step = np.minimum(np.maximum(f / df, -30.0), 30.0)
        t = np.minimum(t - step, t_cap)
        if np.abs(step).max() < 1e-15 * max(1.0, np.abs(t).max()):
            break
    eps = np.exp(t)
    return eps if np.ndim(rstar) else float(eps[0])


def _invert_exterior(rstar, params):
    rp, rm = params.r_plus, params.r_minus
    kp, km = _kappas(params)
    M, a2, q2 = params.M, params.a * params.a, params.Q * params.Q
    rs = np.array(rstar, dtype=float, ndmin=1)
    # seed: large rstar -> r ~ rstar - kp log rstar; near horizon -> exponential offset
    far = rs - kp * np.log(np.maximum(np.abs(rs), 2.0 + rp))
    near = rp + np.exp(np.minimum(np.maximum(
        (rs - rp - km * math.log(max(rp - rm, 1e-300))) / kp, -700.0), 0.0))
    r = np.where(rs > rp + 4.0 * kp, np.maximum(far, rp * (1 + 1e-9)), np.maximum(near, rp * (1 + 1e-14)))
    floor = rp * (1.0 + 1e-15)
    f_tol = 1e-12 * max(1.0, np.abs(rs).max())
    for _ in range(200):
        # r >= floor > r_plus > r_minus: no absolute values needed in the logs
        offset = r - rp
        f = r + kp * np.log(offset) - km * np.log(r - rm) - rs
        rr = r * r
        drs = (rr + a2) / (rr - 2.0 * M * r + a2 + q2)  # d rstar / dr
        step = f / drs
        # keep iterates on the branch; the map is monotone so plain damping suffices
        lim = 0.5 * offset + 1e3
        r = np.maximum(r - np.minimum(np.maximum(step, -lim), lim), floor)
        # near the horizon rounding of r alone leaves |f| up to the
        # conditioning floor 64 eps r drstar/dr, as the check below allows
        if (np.abs(step) / np.maximum(r, 1.0)).max() < 1e-14 and (
                np.abs(f) < f_tol + 64.0 * 2.3e-16 * drs * r).all():
            break
    delta = r * r - 2.0 * M * r + a2 + q2
    f_floor = 64.0 * 2.3e-16 * (r * r + a2) / np.abs(delta) * r
    resid = np.abs(r + kp * np.log(r - rp) - km * np.log(r - rm) - rs)
    bad = (resid > 1e-10 * np.maximum(1.0, np.abs(rs)) + f_floor) & (r > floor * (1.0 + 1e-12))
    if np.any(bad):
        raise ArithmeticError(f"tortoise inversion did not converge at rstar={rs[bad][0]!r}")
    return r if np.ndim(rstar) else float(r[0])


def tortoise_inverse(rstar, region, params):
    """Invert rstar -> r on the exterior (r > r_plus) or interior branch.

    Safeguarded Newton iteration, vectorized over rstar (a scalar returns a
    float); the result satisfies |tortoise(r) - rstar| < 1e-12 max(1, |rstar|)
    whenever the offset from the horizon is representable in double
    precision, and clamps to the horizon otherwise.
    """
    if region == "exterior":
        r = _invert_exterior(rstar, params)
    elif region == "interior":
        r = params.r_minus + interior_offset(rstar, params)
    else:
        raise ValueError(f"region must be 'exterior' or 'interior', got {region!r}")
    return r


def bl_metric(r, theta, params):
    """Covariant Boyer-Lindquist metric, order (t, r, theta, phi)."""
    delta, sigma = delta_sigma(r, theta, params)
    if np.any(np.abs(delta) < 1e-12 * params.M**2):
        raise ValueError("Boyer-Lindquist chart is singular on a horizon")
    M, a, Q = params.M, params.a, params.Q
    st2 = np.sin(theta) ** 2
    u = (Q * Q - 2.0 * M * r) / sigma
    g = np.zeros(np.shape(r) + (4, 4))
    g[..., 0, 0] = 1.0 + u
    g[..., 1, 1] = -sigma / delta
    g[..., 2, 2] = -sigma
    g[..., 3, 3] = -st2 * (r * r + a * a - a * a * u * st2)
    g[..., 0, 3] = g[..., 3, 0] = -a * st2 * u
    return g


def ef_metric(r, theta, params):
    """Covariant metric in the horizon-penetrating chart, order (tau, r, theta, phihat).

    Smooth at r = r_plus.  Equals the pullback of the Boyer-Lindquist metric
    under tau = t + rstar - r, phihat = phi + phitilde.
    """
    M, a, Q = params.M, params.a, params.Q
    _, sigma = delta_sigma(r, theta, params)
    st2 = np.sin(theta) ** 2
    u = (Q * Q - 2.0 * M * r) / sigma
    c = 1.0 - u
    g = np.zeros(np.shape(r) + (4, 4))
    g[..., 0, 0] = 1.0 + u
    g[..., 2, 2] = -sigma
    g[..., 3, 3] = -sigma * st2 - c * a * a * st2 * st2
    g[..., 0, 1] = g[..., 1, 0] = u
    g[..., 0, 3] = g[..., 3, 0] = -u * a * st2
    g[..., 1, 1] = -c
    g[..., 1, 3] = g[..., 3, 1] = c * a * st2
    return g


def metric(point, chart, params):
    """Metric components at a BLPoint for chart 'BL' or 'EF'."""
    if chart == "BL":
        return bl_metric(point.r, point.theta, params)
    if chart == "EF":
        return ef_metric(point.r, point.theta, params)
    raise ValueError(f"chart must be 'BL' or 'EF', got {chart!r}")


def inverse_metric(point, chart, params):
    """Contravariant metric components at a BLPoint."""
    return np.linalg.inv(metric(point, chart, params))


def bl_to_ef_jacobian(r, params):
    """J[mu_EF, nu_BL] = d x_EF^mu / d x_BL^nu at radius r (theta-independent)."""
    delta, _ = delta_sigma(r, 0.0, params)
    J = np.eye(4)
    J[0, 1] = (r * r + params.a * params.a) / delta - 1.0
    J[3, 1] = params.a / delta
    return J


def temporal_minors(r, theta, params):
    """Leading principal minors of A = -g_EF restricted to a tau = const slice.

    A is taken in the basis (r, phihat, theta).  In closed form
        d1 = (Sigma + 2 M r - Q^2) / Sigma,
        d2 = sin^2(theta) (Sigma + 2 M r - Q^2),
        d3 = Sigma d2,
    all strictly positive for r > r_minus, which makes tau a temporal function.
    """
    M, Q = params.M, params.Q
    _, sigma = delta_sigma(r, theta, params)
    core = sigma + 2.0 * M * r - Q * Q
    d1 = core / sigma
    d2 = np.sin(theta) ** 2 * core
    d3 = sigma * d2
    return d1, d2, d3
