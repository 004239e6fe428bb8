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
    "log_offset",
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

    All three must be finite, and the slow (sub-extremal) condition
    a^2 + Q^2 < M^2 is enforced so that Delta has two distinct
    positive-discriminant roots.
    """

    M: float
    a: float = 0.0
    Q: float = 0.0

    def __post_init__(self):
        for name in ("M", "a", "Q"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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


def _exterior_tortoise(s, params):
    """rstar = r_plus + e^s + kp s - km log(r_plus - r_minus + e^s) at the log
    offset s = log(r - r_plus): free of the cancellation in r - r_plus."""
    kp, km = _kappas(params)
    e = np.exp(s)
    return params.r_plus + e + kp * s - km * np.log(params.r_plus - params.r_minus + e)


def _far_seed(rs, params):
    """Exterior s = log(r - r_plus) from one fixed-point step of
    r = rstar - kp log(r - r_plus) + km log(r - r_minus) from r = rstar - 2M log rstar
    (kp - km = 2M); it misses the root by O(M^2 log(rstar) / rstar^2)."""
    kp, km = _kappas(params)
    rp, floor = params.r_plus, 1e-9 * params.r_plus
    offset = np.maximum(rs - 2.0 * params.M * np.log(rs) - rp, floor)
    r = rs - kp * np.log(offset) + km * np.log(offset + rp - params.r_minus)
    return np.log(np.maximum(r - rp, floor))


def log_offset(rstar, region, params):
    """Log offset s = log(r - r_0) of the root r(rstar), r_0 = r_plus on the
    exterior branch and r_minus on the interior branch.

    Newton on rstar = r + kp log|r - r_plus| - km log|r - r_minus|, which is
    explicit in s with r = r_0 + e^s and log|r - r_0| = s, vectorized over
    rstar (a scalar returns a float).  Its slope
    +-(r^2 + a^2) / (r - r_1), r_1 the other horizon, is at least 2M in size on
    the exterior and km on the interior, so no iterate needs a floor or damping
    at any depth.  The loop stops once the step is below 1e-15 relative, or
    once the step and the residual are at a rounding floor fixed from rstar;
    steps are clamped to +-30 and the interior s is capped at log(width) - 1e-15.
    A non-finite rstar raises ValueError, and 200 sweeps without convergence
    raise ArithmeticError naming the rstar.
    """
    rs = np.array(rstar, dtype=float, ndmin=1, copy=None)
    rp, rm = params.r_plus, params.r_minus
    kp, km = _kappas(params)
    width = rp - rm
    log_w = math.log(width)
    # f = rstar(s) - rstar = e^s + k_log log(gap) + k_s s + r_0 - rstar, gap = width -+ e^s;
    # its slope e^s - k_1 e^s / gap + k_s is at least slope_min in size
    if region == "interior":
        if rm <= 0.0:
            raise ValueError("interior branch requires a Cauchy horizon (a, Q not both 0)")
        r0, k_log, k_1, k_s, gap_of, slope_min, s_cap = rm, kp, kp, -km, np.subtract, km, log_w - 1e-15
        log_half = log_w - math.log(2.0)
        # one of km |s| and kp |log(width - e^s)| is bounded on its half of the
        # branch, and the other is at most |rstar| + rp plus that bound
        bound = rp + kp * max(abs(log_w), abs(log_half))
    elif region == "exterior":
        r0, k_log, k_1, k_s, gap_of, slope_min, s_cap = rp, -km, km, kp, np.add, kp - km, math.inf
        # while e^s <= width both log terms are bounded by (kp + km) |log(2 width)|
        # or (kp + km) |log width|; beyond it they grow like log r < |rstar| + rp
        bound = rp + (kp + km) * max(abs(log_w), abs(log_w + math.log(2.0)))
    else:
        raise ValueError(f"region must be 'exterior' or 'interior', got {region!r}")
    # rounding keeps |f| above a few ulps of its terms, whose magnitudes sum
    # to at most 2 (|rstar| + bound) at the root.  Its maximum is not finite
    # exactly when some rstar is not, which must be caught before the seeds
    f_floor = 16 * 2.3e-16 * (np.abs(rs) + bound)
    f_floor_max = f_floor.max()
    if not f_floor_max < math.inf:
        raise ValueError(f"rstar must be finite, got {float(rs[~np.isfinite(rs)][0])!r}")
    if region == "interior":
        # rstar(s) is concave and decreasing.  Seeds: beyond the midpoint's
        # rstar the r_minus-side asymptote rstar ~ rm + kp log(width) - km s,
        # which lies past the root, or the midpoint where that is nearer; short
        # of it the r_plus-side asymptote rstar ~ rp + kp log(width - e^s)
        # - km log(width), kept in the upper half
        s = np.minimum((rm + kp * log_w - rs) / km, log_half)
        rs_mid = rm + 0.5 * width + (kp - km) * log_half
        if rs.min() < rs_mid:
            low = rs < rs_mid
            gap = np.minimum(np.exp((rs[low] - rp + km * log_w) / kp), 0.5 * width)
            s[low] = np.minimum(np.log(width - gap), s_cap)
    else:
        # the event-horizon asymptote rstar ~ rp + kp s - km log(width), or far out `_far_seed`
        s = (rs - rp + km * log_w) / kp
        far = rs > rp + 4.0 * kp
        if far.any():
            s[far] = _far_seed(rs[far], params)
    c = r0 - rs
    # once |f| is at its floor no step exceeds f_floor / slope_min (twice
    # that covers the rounding of f / slope)
    floor_move = 2.0 * f_floor_max / slope_min
    tol = 1e-15 * max(1.0, np.abs(s).max())
    for _ in range(200):
        e = np.exp(s)
        gap = gap_of(width, e)
        f = e + k_log * np.log(gap) + k_s * s + c
        # no step passes the cap, so a point resting there takes a zero step
        step = np.maximum(np.minimum(np.maximum(f / (e - k_1 * e / gap + k_s), -30.0), 30.0), s - s_cap)
        s = s - step
        moved = np.abs(step).max()
        if moved < tol or (moved <= floor_move and (np.abs(f) <= f_floor).all()):
            return s if np.ndim(rstar) else float(s[0])
    raise ArithmeticError(f"tortoise inversion did not converge at rstar={float(rs[np.abs(step) >= tol][0])!r}")


def interior_offset(rstar, params):
    """eps = r - r_minus = e^s on the interior branch, s from `log_offset`:
    accurate arbitrarily close to the Cauchy horizon, where eps underflows
    any direct subtraction r - r_minus.  A scalar rstar returns a float."""
    eps = np.exp(log_offset(rstar, "interior", params))
    return eps if np.ndim(rstar) else float(eps)


def tortoise_inverse(rstar, region, params):
    """r(rstar) = r_0 + e^s on the exterior (r > r_plus) or interior branch,
    s from `log_offset`; a scalar rstar returns a float.

    Far out, r_plus + e^s carries the rounding of s times |s|, so on the
    exterior one Newton step in r follows, and r is held at r_plus (1 + 1e-15),
    which it meets below about rstar = -75 on M = 1, a = 0.6, Q = 0.3.
    """
    rs = np.array(rstar, dtype=float, ndmin=1, copy=None)
    e = np.exp(log_offset(rs, region, params))
    if region == "interior":
        r = params.r_minus + e
    else:
        rp, rm = params.r_plus, params.r_minus
        kp, km = _kappas(params)
        floor = rp * (1.0 + 1e-15)
        r = np.maximum(rp + e, floor)
        # r - rstar first: it is exact wherever r is within a factor 2 of rstar
        f = (r - rs) + kp * np.log(r - rp) - km * np.log(r - rm)
        r = np.maximum(r - f * (r - rp) * (r - rm) / (r * r + params.a * params.a), floor)
    return r if np.ndim(rstar) else float(r[0])


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
