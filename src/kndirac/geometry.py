"""Kerr-Newman geometry in Boyer-Lindquist and horizon-penetrating coordinates.

Conventions used throughout the package:

- geometric units, signature (+,-,-,-)
- coordinate order (0,1,2,3) = (t or tau, r, theta, phi); index 2 is always
  the polar angle
- Delta(r) = r^2 - 2 M r + a^2 + Q^2,  Sigma(r,theta) = r^2 + a^2 cos^2(theta)
- the horizon-penetrating chart (called "EF" here) is built from the tortoise
  coordinate rstar and the azimuthal shift phitilde via
  tau = t + rstar - r and phihat = phi + phitilde.
- both branches are charted by the log offset s = log(r - r_0), r_0 = r_plus
  or r_minus, in one evaluator (`_offset_terms`), free of the rounding of r.

All functions are pure and accept numpy arrays where that makes sense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpacetimeParams",
    "BLPoint",
    "delta_sigma",
    "tortoise",
    "tortoise_inverse",
    "log_offset",
    "azimuthal_shift",
    "bl_metric",
    "ef_metric",
    "metric",
    "inverse_metric",
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
class BLPoint:
    """A point (r, theta) in the poloidal plane, or a batch of them: r and
    theta are floats or arrays of one shape, every r finite and every theta
    strictly inside (0, pi)."""

    r: float | np.ndarray
    theta: float | np.ndarray

    def __post_init__(self):
        r, theta = np.asarray(self.r), np.asarray(self.theta)
        if r.shape != theta.shape:
            raise ValueError(f"r and theta must have one shape, got {r.shape} and {theta.shape}")
        ok = np.isfinite(r)
        if not ok.all():
            raise ValueError(f"r must be finite, got {r[~ok][0]}")
        ok = (0.0 < theta) & (theta < math.pi)
        if not ok.all():
            raise ValueError(f"theta must lie in (0, pi), got {theta[~ok][0]}")


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
    """Tortoise coordinate rstar(r), with d rstar / dr = (r^2 + a^2) / Delta;
    diverges to -inf at r_plus (from outside) and to +inf at r_minus (from
    inside)."""
    kp, km = _kappas(params)
    return r + kp * np.log(np.abs(r - params.r_plus)) - km * np.log(np.abs(r - params.r_minus))


def azimuthal_shift(r, params):
    """Azimuthal shift phitilde(r) entering phihat = phi + phitilde.

    The integration constant is fixed to zero; d phitilde / dr = a / Delta.
    """
    a = params.a
    return (a / (params.r_plus - params.r_minus)) * np.log(
        np.abs((r - params.r_plus) / (r - params.r_minus))
    )


def _offset_terms(s, region, params):
    """The log-offset chart at s = log(r - r_0), r_0 = r_plus on the exterior
    branch and r_minus on the interior: (e, r, gap, log|r - r_plus|,
    log|r - r_minus|), e = e^s, r = r_0 + e and gap = |r - r_1| = width +- e,
    r_1 the other horizon and width = r_plus - r_minus.

    log|r - r_0| is s, and the other log is log(width + e) outside and
    log(width) + log1p(-e / width) inside, so no rounding of r cancels in the
    logs, Delta = -+e gap or J = drstar/ds = +-(r^2 + a^2) / gap at any depth.
    """
    width = params.r_plus - params.r_minus
    e = np.exp(s)
    if region == "interior":
        return e, params.r_minus + e, width - e, math.log(width) + np.log1p(-e / width), s
    return e, params.r_plus + e, width + e, s, np.log(width + e)


def _offset_tortoise(s, region, params):
    """rstar = r + kp log|r - r_plus| - km log|r - r_minus| at the log offset
    s of `_offset_terms`, free of the cancellation in r - r_0."""
    kp, km = _kappas(params)
    _, r, _, log_p, log_m = _offset_terms(s, region, params)
    return r + (kp * log_p - km * log_m)


def _interior_cap(params):
    """The largest interior log offset, log(width) - 1e-15 (`log_offset`)."""
    return math.log(params.r_plus - params.r_minus) - 1e-15


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
    explicit in s (`_offset_terms`), vectorized over rstar (a scalar returns
    a float).  Its slope J = +-(r^2 + a^2) / gap, gap = |r - r_1| and r_1 the
    other horizon, is at least 2M in size on the exterior and km on the
    interior, so no iterate needs a floor or damping at any depth.  The loop
    stops once the step is below 1e-15 relative, or once the step and the
    residual are at a rounding floor fixed from rstar; steps are clamped to
    +-30 and the interior s is capped at `_interior_cap`.
    A non-finite rstar raises ValueError, and 200 sweeps without convergence
    raise ArithmeticError naming the rstar.
    """
    rs = np.array(rstar, dtype=float, ndmin=1, copy=None)
    rp, rm = params.r_plus, params.r_minus
    kp, km = _kappas(params)
    width, a2 = rp - rm, params.a * params.a
    log_w = math.log(width)
    if region == "interior":
        if rm <= 0.0:
            raise ValueError("interior branch requires a Cauchy horizon (a, Q not both 0)")
        sign, slope_min, s_cap = -1.0, km, _interior_cap(params)
        log_half = log_w - math.log(2.0)
        # one of km |s| and kp |log(width - e^s)| is bounded on its half of the
        # branch, and the other is at most |rstar| + rp plus that bound
        bound = rp + kp * max(abs(log_w), abs(log_half))
    elif region == "exterior":
        sign, slope_min, s_cap = 1.0, kp - km, math.inf
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
        # - km log(width), kept in the upper half.  Toward Schwarzschild the
        # e^s term of the r_minus side, (1 - kp / width) e^s, cancels, and
        # Newton gains only about 0.5 in s per sweep: at most 22 sweeps over
        # M in [0.25, 4], a^2 + Q^2 in [1e-8, 0.99] M^2 and alpha rstar in
        # [-5, 40], and 33 down to a^2 + Q^2 = 2.2e-16 M^2
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
    # once |f| is at its floor no step exceeds f_floor / slope_min (twice
    # that covers the rounding of f / slope)
    floor_move = 2.0 * f_floor_max / slope_min
    tol = 1e-15 * max(1.0, np.abs(s).max())
    for _ in range(200):
        # f = rstar(s) - rstar as in `_offset_tortoise`, over J = sign (r^2 + a^2) / gap
        _, r, gap, log_p, log_m = _offset_terms(s, region, params)
        f = r + (kp * log_p - km * log_m) - rs
        # no step passes the cap, so a point resting there takes a zero step
        step = np.clip(f * gap / (sign * (r * r + a2)), -30.0, 30.0)
        step = np.maximum(step, s - s_cap, out=step)
        s = s - step
        moved = np.abs(step).max()
        if moved < tol or (moved <= floor_move and (np.abs(f) <= f_floor).all()):
            return s if np.ndim(rstar) else float(s[0])
    raise ArithmeticError(f"tortoise inversion did not converge at rstar={float(rs[~(np.abs(step) < tol)][0])!r}")


def _exterior_radius(rstar, s, params):
    """(r, r - r_plus) at exterior points rstar whose log offsets s come from
    `log_offset`.

    Far out, r_plus + e^s carries the rounding of s times |s|, so one Newton
    step in r follows, on the residual rstar(r, s) - rstar with log(r - r_plus)
    taken as s; the offset moves by the same step.  So r is within rounding of
    the root far out, and the offset keeps the relative accuracy of e^s at any
    depth, where r itself rounds to r_plus.
    """
    kp, km = _kappas(params)
    e, r, gap, log_p, log_m = _offset_terms(s, "exterior", params)
    # r - rstar first: it is exact wherever r is within a factor 2 of rstar
    f = (r - rstar) + kp * log_p - km * log_m
    step = f * e * gap / (r * r + params.a * params.a)
    return r - step, e - step


def tortoise_inverse(rstar, region, params):
    """r(rstar) = r_0 + e^s on the exterior (r > r_plus) or interior branch,
    s from `log_offset`; a scalar rstar returns a float.

    On the exterior one Newton step in r follows (`_exterior_radius`), and r
    is held at r_plus (1 + 1e-15), which it meets below about rstar = -75 on
    M = 1, a = 0.6, Q = 0.3.
    """
    rs = np.array(rstar, dtype=float, ndmin=1, copy=None)
    s = log_offset(rs, region, params)
    if region == "interior":
        r = _offset_terms(s, region, params)[1]
    else:
        r = np.maximum(_exterior_radius(rs, s, params)[0], params.r_plus * (1.0 + 1e-15))
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
    """Contravariant metric components at a BLPoint: (..., 4, 4) for a batch."""
    return np.linalg.inv(metric(point, chart, params))


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
