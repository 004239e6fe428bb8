"""Radial ODE integration and the asymptotics at infinity and at the Cauchy
horizon.

One integrator serves every span: Filon-Magnus steps, second-order Magnus
exponents of a 2x2 coupling whose off-diagonal is a smooth amplitude times an
exact phase e^{i kappa x} across the step, with that oscillation integrated
exactly (Filon quadrature) and the trace taken from closed forms.  One kernel
(`_filon_magnus_steps`) and one halving driver (`_settled_steps`) serve three
frames:

- On the exterior branch, wherever U has two distinct imaginary eigenvalues,
  the adiabatic frame X = V E f, with V the closed-form eigenbasis of U and E
  the phases below, where f varies only through a coupling whose
  off-diagonal oscillates like e^{-+2 i w1 u} and which is O(1/u^2) far out.
  `far_field_trajectory` integrates there over rstar in [1e3, 1e6] in tens
  of steps, where a Magnus propagator of X itself needs millions, and the
  exterior `integrate` over any such span: 208 steps on [10, 200] at
  tol 1e-10.  Its steps follow the coupling, not the wavelength.
- Below the mass threshold |omega| <= m and on or near a turning point of U
  that frame does not exist or would crowd its steps.  There exterior
  `integrate` carries X itself, through dX/ds = J U X with carrier 0.  For
  a frozen U the Magnus exponential is exact, so these steps follow the
  variation of U.
- On the interior branch the traceless part of U has the eigenvalues
  +-i lam, lam^2 = (nu/2 + G)^2 + |U01|^2, and a gap 2 |lam| that closes only
  where both terms vanish.  Wherever it stays open on the span `integrate`
  carries g = Vt^{-1} h in its adiabatic frame, V the closed-form SU(2)
  eigenbasis and h the phase-stripped solution below, whose coupling
  V^{-1} V' is about U01'/nu in size where that of h is U01; elsewhere it
  carries h itself.  Both couplings lie in u(2) and carry the phase
  e^{-+i nu rstar} off the diagonal; every step conserves |X1|^2 + |X2|^2.

Both branches place their points by the log offset s = log(r - r_0),
r_0 = r_plus or r_minus (`geometry.log_offset`), and read r, the horizon
logs, Delta, J = drstar/ds and rstar from one chart,
`geometry._offset_terms`, in which no rounding of r cancels at any depth.
On the exterior branch the coupling and every step exponent lie in u(1,1),
so the current |X1|^2 - |X2|^2 and the Abel/Wronskian identity hold to
rounding by construction.

The 2x2 algebra (the exponential and the tree-reduced ordered product) is
written out on four component arrays, in real arithmetic for the
exponential, and halving the steps bounds the error.

Asymptotics at infinity: with w1 the root of omega^2 - m^2 in the closed
convex hull of the positive real and positive imaginary axes, w2 = -w1, the
oscillatory branches carry the phases

    Phi_plus(u)  =  w1 u + M (2 omega + m^2/w1) log r(u),
    Phi_minus(u) =  w1 u - M (2 omega - m^2/w1) log r(u),

obtained by integrating d Phi_plus = -i lambda_1, d Phi_minus = +i lambda_2
with lambda_{1,2} = +-i w1 + (i M / r)(2 omega +- m^2 / w1) + O(1/r^2) the
eigenvalues of U, and r = u - 2M log u + O(1).  Solutions approach

    X(u) = D(u) ( f1 e^{i Phi_plus}, f2 e^{-i Phi_minus} ),  f -> f_inf,

with an O(1/u) error; dropping the log term destroys the decay of the
residual (the 1/u eigenvalue correction integrates to an unbounded phase).
The paper prints the phases with log u (`asymptotic_phases`); expanded in u
the eigenvalues carry a further log u / u^2 term, so that form leaves an
O(log u / u) remainder, whose log-log slope is -1 + 1/ln u.  `fit_infinity`
and the far-field frame use log r(u).

At the Cauchy horizon (interior branch, rstar -> +infinity) the substitution
    h = ( X1 e^{-i nu rstar}, X2 ),  nu = 2 (omega + k Omega_minus),
    Omega_minus = a / (r_minus^2 + a^2),
turns the system into dh/drstar = B(rstar) h with ||B|| = O(e^{-alpha rstar}),
alpha = (r_plus - r_minus) / (2 (r_minus^2 + a^2)), so h has a limit and the
error decays exponentially at rate alpha.  The coupling itself integrates to
O(1) whatever alpha is, while X1 turns through nu / (2 pi) periods per unit
of rstar all the way to the horizon: about 350 over [0, 32/alpha] at
alpha = 0.05.  The Filon-Magnus steps integrate its carrier e^{i nu km s}
exactly, km s = -rstar up to a term that stays bounded there.  Steps of h
itself must still resolve B, which is O(1) at alpha rstar < 2 and grows like
|k| and xi; steps of g in the adiabatic frame resolve only the frame's
rotation, so criterion 8's holes and the near-extremal a = 0.95 and 0.995
take 732-1,068 steps over [0, 32/alpha] at tol 1e-11, and k or xi = 40 a few
thousand at tol 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import _exterior_radius, _interior_cap, _kappas, _offset_terms, _offset_tortoise, log_offset
from .separation import _potential_entries, _potential_slopes, _potential_u01, _stacked

__all__ = [
    "w_roots",
    "theta_boost",
    "boost_matrix",
    "asymptotic_phases",
    "RadialTrajectory",
    "IntegrationError",
    "integrate",
    "far_field_trajectory",
    "InfinityAsymptotics",
    "fit_infinity",
    "HorizonAsymptotics",
    "fit_horizon",
    "cauchy_rate",
    "horizon_angular_velocity",
]


def w_roots(omega, m):
    """Roots (w1, w2 = -w1) of omega^2 - m^2, w1 in the closed convex hull of
    the positive real and positive imaginary axes.  w1 = 0 at the threshold
    omega^2 = m^2 (phases are undefined there)."""
    if omega == 0.0 and m == 0.0:
        raise ValueError("w roots need (omega, m) != (0, 0)")
    disc = omega * omega - m * m
    w1 = complex(math.sqrt(disc), 0.0) if disc >= 0 else complex(0.0, math.sqrt(-disc))
    return w1, -w1


def theta_boost(omega, m):
    """Boost parameter Theta = (1/4) log((omega - m)/(omega + m)).

    Real for |omega| > m; the principal complex log otherwise.  Singular at
    omega = +-m."""
    if omega == m or omega == -m:
        raise ValueError("Theta is singular at omega = +-m")
    ratio = (omega - m) / (omega + m)
    if ratio > 0:
        return 0.25 * math.log(ratio)
    return 0.25 * complex(np.log(complex(ratio)))


def boost_matrix(theta):
    """[[cosh, sinh], [sinh, cosh]] of the boost parameter."""
    return np.array([[np.cosh(theta), np.sinh(theta)], [np.sinh(theta), np.cosh(theta)]])


def asymptotic_phases(u, mode, params):
    """(Phi_plus(u), Phi_minus(u)) in the paper's printed form, with log u;
    requires u > 0 and w1 != 0.

    `fit_infinity` evaluates it at r(u) and adds w1 (u - r), which gives the
    phases w1 u + c log r(u) that hold to O(1/u)."""
    w1, _ = w_roots(mode.omega, mode.m)
    if w1 == 0:
        raise ValueError("asymptotic phases are undefined at the threshold |omega| = m")
    u = np.asarray(u, dtype=float)
    if np.any(u <= 0):
        raise ValueError("phases need u > 0")
    M = params.M
    lg = np.log(u)
    phi_p = w1 * u + M * (2 * mode.omega + mode.m**2 / w1) * lg
    phi_m = w1 * u - M * (2 * mode.omega - mode.m**2 / w1) * lg
    return phi_p, phi_m


@dataclass(frozen=True)
class RadialTrajectory:
    """Samples (rstar, X) of one solution, with integrator metadata.

    prop_det carries the cumulative determinant of the propagator from the
    first sample when the trajectory came from `far_field_trajectory`; the Abel
    identity det = exp(int tr U) can then be audited without re-propagation.
    s carries the log offset s = log(r - r_0) of each sample when it came from
    `integrate` or `far_field_trajectory`: r = r_0 + e^s holds at any depth,
    where re-inverting rstar meets the rounding floor of r.  steps counts the
    Magnus steps; rejected is always 0, since no step is ever rejected, and is
    kept for readers of the field.
    """

    rstar: np.ndarray
    X: np.ndarray  # (n, 2) complex
    mode: object
    params: object
    branch: str
    steps: int
    rejected: int
    tol: float
    prop_det: np.ndarray = None
    s: np.ndarray = None

    def __post_init__(self):
        d = np.diff(self.rstar)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("rstar samples must be strictly monotone")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("trajectory contains non-finite samples")


class IntegrationError(ArithmeticError):
    """An exhausted step budget, a solution that overflows the floats or an
    interior span end on r_plus; `t` is where the integration stopped: rstar
    for `integrate` (u for the far field), the end of the first sample
    interval that did not settle within the budget, the last sample before
    the overflow, or that span end."""

    def __init__(self, message, t):
        super().__init__(message)
        self.t = t


def integrate(mode, params, span, X0, tol=1e-10, branch="exterior"):
    """Integrate dX/drstar = U(rstar) X over a span within one branch.

    On the exterior branch the samples lie 0.25 apart in the log offset
    s = log(r - r_plus), with the spacing doubling on each interval below
    r - r_plus = e^{-8} (r_plus - r_minus), where U tends to a constant.  Each
    sample interval is cut into steps uniform in s, halved until its product
    moves by less than `tol` (`_settled_steps`), and the trajectory holds
    X at every step edge.  The span alone picks the frame (`_frame_holds`).
    Where U has two distinct imaginary eigenvalues over the whole span and no
    turning point lies within a sample interval of it, f = E^{-1} V^{-1} X is
    carried in the far field's adiabatic frame (`_frame_steps`, within
    `_FRAME_STEP_BUDGET` evaluated steps).  Elsewhere, below the mass
    threshold or on or near a turning point, X itself is carried through
    dX/ds = J U X at carrier 0 (`_plain_steps`, within `_STEP_BUDGET`), where
    r and rstar are explicit in s.  Every step conserves the current
    |X1|^2 - |X2|^2.  Each step edge's rstar comes from the chart
    (`_offset_tortoise`); the span endpoints are solved for s (`log_offset`)
    and pinned, so rstar[0] and rstar[-1] lie on the span at any depth.

    On the interior branch the samples lie on a uniform grid in rstar spaced
    about 0.25/alpha up to 32/alpha, past which the spacing doubles on each
    interval, and the grid is inverted for its log offsets
    s = log(r - r_minus) once, up front.  Take the phase-stripped
    h = (X1 e^{-i nu rstar}, X2), nu = 2 (omega + k Omega_minus), and V the
    closed-form SU(2) eigenbasis of the traceless part of U.  The span alone
    picks the frame (`_horizon_frame_holds`): where the eigenvalue gap of V
    stays open, g = Vt^{-1} h, Vt = [[V00, V01 e^{-i nu rstar}],
    [V10 e^{i nu rstar}, V11]], is carried by Filon-Magnus steps on its own
    u(2) coupling (`_horizon_frame_steps`), whose off-diagonal is the
    frame's rotation V^{-1} V' and not B, so the steps grow far more slowly
    with |k|, xi and omega; where the gap all but closes, h itself is
    carried on dh/ds = J B h (`_interior_steps`).  Both step uniformly in s, with
    J = drstar/ds, where r, J and rstar are explicit, so no step edge or
    node is inverted.  The steps are halved until the interval's product
    moves by less than `tol`, within `_STEP_BUDGET` evaluated steps; g0 is
    Vt^dagger h at the first sample and X = V (g1 e^{i nu rstar}, g2) at
    every sample (`_through_horizon_frame`).  Every step exponent lies in
    u(2), so every step conserves |X1|^2 + |X2|^2.  Toward the horizon
    rstar = -km s + O(e^s), so the carrier e^{i nu km s} takes up the
    off-diagonal phase e^{-+i nu rstar}, and the steps follow the coupling
    and not the periods of X1.

    The trajectory carries the log offset s = log(r - r_0) of every sample,
    r_0 = r_plus or r_minus; `steps` counts the Magnus steps, and `rejected`
    is 0.  An exhausted step budget, a solution that grows past the floats,
    or an interior span end on the cap of `log_offset`, within 1e-15 width of
    r_plus, raises IntegrationError naming the branch, the mode and the rstar
    reached (for the cap, that end).  An X0 other than two finite entries
    raises ValueError before any step.
    """
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-13, 1e-6]")
    if branch not in ("exterior", "interior"):
        raise ValueError(f"branch must be 'exterior' or 'interior', got {branch!r}")
    # also rejects a non-finite span, and an interior without a Cauchy horizon
    s_span = log_offset(np.array(span, dtype=float), branch, params)
    y0 = _initial_state(X0)
    t0, t1 = float(span[0]), float(span[1])
    if t0 == t1:
        raise ValueError(f"span needs two distinct ends, got [{t0!r}, {t1!r}]")
    try:
        if branch == "interior":
            capped = np.array(span, dtype=float)[s_span >= _interior_cap(params)]
            if capped.size:
                raise IntegrationError("the span end lies within 1e-15 (r_plus - r_minus) of r_plus, where the "
                                       "interior log offset rests on its cap", float(capped[0]))
            # 45 samples in the fit window alpha rstar in [8, 19] of `fit_horizon`,
            # or 44 where the one at 19/alpha rounds past it; past 32/alpha,
            # where B is below e^{-32}, the spacing doubles
            alpha = cauchy_rate(params)
            rstar = _sample_grid(t0, t1, 0.25 / alpha, 32.0 / alpha, 1.0, _STEP_BUDGET)
            s = log_offset(rstar, "interior", params)
            framed = _horizon_frame_holds(mode, params, s[[0, -1]])
            products, _, steps = _settled_steps(_horizon_frame_steps if framed else _interior_steps, mode, params,
                                                rstar, s, tol, _STEP_BUDGET, "on rstar")
            X = _through_horizon_frame(rstar, s, products, y0, mode, params, framed)
        else:
            rstar, s, X, steps = _frame_trajectory(mode, params, (t0, t1), s_span, y0, tol,
                                                   _frame_holds(mode, params, s_span))
    except IntegrationError as exc:
        stop = float(exc.t)
        raise IntegrationError(
            f"{branch} integration of the mode omega={mode.omega!r}, k={mode.k!r}, m={mode.m!r}, "
            f"xi={mode.xi!r} stopped at rstar={stop!r}: {exc}", stop) from exc
    return RadialTrajectory(rstar=rstar, X=X, mode=mode, params=params, branch=branch,
                            steps=steps, rejected=0, tol=tol, s=s)


def _initial_state(X0):
    """X0 as a complex array; ValueError unless it holds two finite entries."""
    y0 = np.array(X0, dtype=complex)
    if y0.shape != (2,) or not np.isfinite(y0).all():
        raise ValueError(f"X0 must hold two finite entries, got {X0!r}")
    return y0


# the exterior frame's sample spacing in s = log(r - r_plus) above
# `_frame_sample_ref`
_FRAME_SPACING = 0.25


def _frame_sample_ref(params):
    """Log offset of r - r_plus = e^{-8} (r_plus - r_minus), below which U
    tends to a constant and the exterior frame's sample spacing doubles on
    each interval."""
    return math.log(params.r_plus - params.r_minus) - 8.0


def _frame_trajectory(mode, params, span, s_span, X0, tol, framed):
    """(rstar, s, X, steps) of exterior `integrate` on a span with log
    offsets s_span, in the adiabatic frame if `framed` and of X itself
    otherwise.

    The samples lie `_FRAME_SPACING` apart in s; below `_frame_sample_ref`
    the spacing doubles on each interval, so that s < 710 makes a few
    thousand intervals at most.  The settled steps (`_settled_steps`) carry
    f, or X, to every step edge, whose rstar takes one `_offset_tortoise`
    call, with the span's ends pinned.
    """
    s_samples = _sample_grid(*s_span, _FRAME_SPACING, _frame_sample_ref(params), -1.0, math.inf)
    samples = _offset_tortoise(s_samples, "exterior", params)
    samples[0], samples[-1] = span
    steps_of, budget = (_frame_steps, _FRAME_STEP_BUDGET) if framed else (_plain_steps, _STEP_BUDGET)
    _, settled, steps = _settled_steps(steps_of, mode, params, samples, s_samples, tol, budget, "on rstar")
    kept = [(index[done], e[1:, done], np.array(f)[..., done]) for index, done, e, f in settled]
    pieces = sorted((i, e[:, j], f[..., j]) for index, e, f in kept for j, i in enumerate(index.tolist()))
    s = np.concatenate([s_samples[:1]] + [e for _, e, _ in pieces])
    factors = np.concatenate([f for _, _, f in pieces], axis=1)
    rstar = _offset_tortoise(s, "exterior", params)
    rstar[0], rstar[-1] = span
    X = _through_frame(rstar, s, factors, X0, mode, params)[1] if framed else _propagated(factors, X0, rstar)
    return rstar, s, X, steps


def _frame_holds(mode, params, s_span):
    """Whether U has two distinct imaginary eigenvalues on the whole exterior
    span with log offsets s_span, with no turning point near enough to
    crowd the frame's steps.

    Times (r^2 + a^2)^2 the discriminant of `_adiabatic_frame` is the quartic
    P(r) = (omega (r^2 + a^2) + k a)^2 - Delta (m^2 r^2 + xi^2), whose leading
    coefficient is omega^2 - m^2.  The frame needs |omega| > m, P > 0 on the
    span, and every root of P, real or complex, farther from the span in the
    complex s = log(r - r_plus) plane than the sample interval at the root's
    depth (`_frame_trajectory`): the frame's coupling grows like the inverse
    distance to a root, and at a closer root the steps uniform within each
    interval would exhaust the budget.
    """
    om, k, m, xi, a = mode.omega, mode.k, mode.m, mode.xi, params.a
    if abs(om) <= m:
        return False
    b, c = om * a * a + k * a, a * a + params.Q ** 2
    quartic = [om * om - m * m, 2.0 * params.M * m * m, 2.0 * om * b - c * m * m - xi * xi,
               2.0 * params.M * xi * xi, b * b - c * xi * xi]
    s_a, s_b = np.sort(s_span)
    # a root on the event horizon lies at s = -inf, where its margin is inf too
    with np.errstate(divide="ignore"):
        s_root = np.log(np.roots(quartic) - params.r_plus + 0j)
    margin = _FRAME_SPACING + np.maximum(_frame_sample_ref(params) - s_root.real, 0.0)
    gap = np.abs(s_root - np.clip(s_root.real, s_a, s_b))
    return bool(np.all(gap > margin) and np.polyval(quartic, _offset_terms(s_b, "exterior", params)[1]) > 0)


# ---------------------------------------------------------------------------
# Filon-Magnus steps: the exterior in the adiabatic frame or at carrier 0,
# the interior in its adiabatic frame or the phase-stripped frame
#
# Every 2x2 quantity is held as four component arrays (x00, x01, x10, x11) and
# multiplied out by hand.  On the exterior branch U lies in u(1,1): its
# diagonal entries are imaginary and U10 = conj(U01).  So do J U, the frame
# coupling C and every step exponent.  On the interior branch U10 =
# -conj(U01), so B, J B, the frame coupling of g and their step exponents lie
# in u(2).  `_expm2` takes both.
#
# A step exponent takes its weights first: the moments mu_l times the real
# tensors, mu @ _F1 on A, and mu @ _F2 and e^{i kappa} mu @ _F3 as 4x4
# matrices over node pairs (q, r).  Each step then costs two 4x4 mat-vecs,
# on A and on conj(A), and three dot products.  The moments, and so the
# weights, depend on a step only through kappa = -carrier eta, so steps of
# one width share them.  The interior and the carrier-0 path step uniformly
# in the variable they integrate over, so one set of weights serves all the
# steps of a sample interval.  Only the adiabatic frame, whose steps are
# uniform in s and not in rstar, takes them step by step; the shape of mu
# alone tells the two apart, and the code path is one.

# Gauss-Legendre nodes and weights on [-1, 1]; the coupling amplitudes are
# interpolated at the nodes, and the Lagrange basis ell_q(x) has the monomial
# coefficients _LAGRANGE[j, q]
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(4)
_LAGRANGE = np.linalg.inv(np.vander(_NODES, increasing=True))
# Taylor coefficients of the moments mu_l = int_{-1}^{1} x^l e^{i kappa x} dx,
# l = 0..7, for small kappa: the n-th term of mu_l is (i kappa)^n / n! times
# int_{-1}^{1} x^(l+n) dx, which vanishes unless l + n is even.  So
# mu_l = i^(l mod 2) sum_n _SERIES[l, n] kappa^n, with the rest of i^n, a sign,
# folded into the real coefficient; _PARITY holds i^(l mod 2)
_SERIES = np.array([[(1 + (-1) ** (l + n)) / (l + n + 1) / math.factorial(n) * (-1) ** ((n - l % 2) // 2)
                     for n in range(30)] for l in range(8)])
_PARITY = np.array([1.0, 1j] * 4)


def _filon_magnus_tensors():
    """Weights of the step exponent on the node values, as linear maps of the
    moments mu_l (see `_filon_magnus_steps`):

    F1[l, q]:     int ell_q(x) e^{i kappa x} dx = sum_l mu_l F1[l, q];
    F2[l, q, r]:  int_{-1}^{1} dx1 int_{-1}^{x1} dx2 [ell_q(x1) ell_r(x2) e^{i kappa x2}
                  - ell_q(x2) ell_r(x1) e^{i kappa x1}] = sum_l mu_l F2[l, q, r];
    F3[l, q, r]:  the same double integral of ell_q(x1) ell_r(x2) e^{i kappa (x1 - x2)}
                  = e^{i kappa} sum_l mu_l F3[l, q, r].

    In monomials x1^j, x2^k the first double integral is
    ((1 - (-1)^j) mu_k - 2 mu_{j+k+1}) / (j + 1).  The second, with
    t = x1 - x2 = y + 1, is e^{i kappa} int_{-1}^{1} P_jk(y + 1) e^{i kappa y} dy,
    P_jk(t) = int_{t-1}^{1} x^j (x - t)^k dx = sum_i C(k, i) (-t)^{k-i}
    (1 - (t - 1)^d) / d, d = j + i + 1, whose coefficients in y come from the
    binomial expansion of (-(y + 1))^{k-i} (1 - y^d).
    """
    F2 = np.zeros((8, 4, 4))
    F3 = np.zeros((8, 4, 4))
    for j in range(4):
        for k in range(4):
            F2[k, j, k] += (1 - (-1) ** j) / (j + 1)
            F2[j + k + 1, j, k] -= 2.0 / (j + 1)
            for i in range(k + 1):
                p, d = k - i, j + i + 1
                for l in range(p + 1):
                    c = math.comb(k, i) * (-1) ** p * math.comb(p, l) / d
                    F3[l, j, k] += c
                    F3[l + d, j, k] -= c
    L = _LAGRANGE
    return (np.vstack([L, np.zeros((4, 4))]),
            np.einsum("ljk,jq,kr->lqr", F2, L, L), np.einsum("ljk,jq,kr->lqr", F3, L, L))


_F1, _F2, _F3 = _filon_magnus_tensors()
# F2 and F3 flattened over (q, r), for the products mu @ F of all node pairs
_F2_FLAT, _F3_FLAT = _F2.reshape(8, 16), _F3.reshape(8, 16)
# a far-field sample interval's product is accepted when it moves by less than
# this (relative to its largest entry) on halving every step; the interior
# takes the caller's tol
_FAR_TOL = 1e-10
# most steps one trajectory may evaluate, over all halvings, in the adiabatic
# frame and elsewhere.  The far field settles in 70-72 steps per seed on
# criterion 7.  Over [0, 32/alpha] the interior frame evaluates 1,336 on
# a = 0.995, Q = 0.09 at tol 1e-11, and 4,304 at the tightest tol, 1e-13,
# where the carrier-nu steps of h evaluated 18,436 and 57,488; carrier 0
# evaluates 22,513 on a turning mode (xi = 10) over (10.11, 200) at tol 1e-10
_FRAME_STEP_BUDGET = 20_000
_STEP_BUDGET = 200_000


def _expm2(o00, o01, o10, o11):
    """exp(Omega) for a stack of 2x2 matrices Omega in u(1,1) or u(2), by
    components.

    With Omega = i mu + N, N traceless, N^2 = q2 I where q2 = Re(o01 o10) - g^2,
    g = Im(o00 - o11) / 2, is real: o10 = +-conj(o01), so q2 = |o01|^2 - g^2 on
    u(1,1) and -|o01|^2 - g^2 <= 0 on u(2).  exp(Omega) = e^{i mu} (cosh q +
    sinh(q)/q N) is evaluated in real arithmetic, through cos and sin of
    sqrt(-q2) when q2 < 0 and a series for |q| < 1e-8.  cosh and sinh are
    taken only where q2 > 0, which never holds on u(2).
    """
    mu = 0.5 * (o00.imag + o11.imag)
    g = 0.5 * (o00.imag - o11.imag)
    q2 = o01.real * o10.real - o01.imag * o10.imag - g * g
    s = np.sqrt(np.abs(q2))
    grows = q2 > 0
    small = s < 1e-8
    ch, sh = np.cos(s), np.sin(s)
    if grows.any():
        ch[grows], sh[grows] = np.cosh(s[grows]), np.sinh(s[grows])
    sh = np.where(small, 1.0 + q2 / 6.0 + q2 * q2 / 120.0, sh / np.where(small, 1.0, s))
    phase = np.exp(1j * mu)
    gsh, psh = 1j * (g * sh), phase * sh
    return phase * (ch + gsh), psh * o01, psh * o10, phase * (ch - gsh)


def _ordered_product(m00, m01, m10, m11):
    """Product M_{n-1} ... M_0 of a stack of 2x2 matrices, tree-reduced.

    Takes and returns the four components, reducing along the first axis;
    each level multiplies neighbours pairwise, and an odd last factor is
    folded into the last pair product.
    """
    while len(m00) > 1:
        n2 = len(m00) // 2 * 2
        l00, l01, l10, l11 = m00[1:n2:2], m01[1:n2:2], m10[1:n2:2], m11[1:n2:2]
        r00, r01, r10, r11 = m00[0:n2:2], m01[0:n2:2], m10[0:n2:2], m11[0:n2:2]
        p00, p01 = l00 * r00 + l01 * r10, l00 * r01 + l01 * r11
        p10, p11 = l10 * r00 + l11 * r10, l10 * r01 + l11 * r11
        if n2 < len(m00):
            t00, t01, t10, t11 = m00[-1], m01[-1], m10[-1], m11[-1]
            p00[-1], p01[-1], p10[-1], p11[-1] = (
                t00 * p00[-1] + t01 * p10[-1], t00 * p01[-1] + t01 * p11[-1],
                t10 * p00[-1] + t11 * p10[-1], t10 * p01[-1] + t11 * p11[-1])
        m00, m01, m10, m11 = p00, p01, p10, p11
    return m00[0], m01[0], m10[0], m11[0]


def _exterior_entries(u, s, mode, params):
    """Radius r, Delta and the components (U00, U01, U10, U11) of U at exterior
    points u whose log offsets s = log(r - r_plus) come from `log_offset`.

    r and the offset r - r_plus are the Newton-polished pair of
    `geometry._exterior_radius`.  Delta is (r - r_plus)(r - r_minus) from the
    offset, which no rounding of r cancels at any depth.
    """
    r, e = _exterior_radius(u, s, params)
    delta = e * (e + params.r_plus - params.r_minus)
    return r, delta, _potential_entries(r, delta, np.sqrt(delta), 1.0, mode, params)


def _unit_gauge(x, y):
    """Column (x, y) scaled to unit norm with its larger-modulus entry (x on a
    tie) real and positive."""
    p = np.where(np.abs(x) >= np.abs(y), x, y)
    scale = np.abs(p) / p / np.sqrt(np.abs(x) ** 2 + np.abs(y) ** 2)
    return x * scale, y * scale


def _eigenbasis(a, b, c, d):
    """Eigenvalues (lambda1, lambda2) and gauge-fixed eigenvectors of
    U = [[a, b], [c, d]] in closed form, for arrays of components.

    With mu = (a + d)/2 and s^2 = ((a - d)/2)^2 + b c, lambda = mu +- s, and
    s = i sqrt(-s^2) makes lambda1 = mu + s the root with the larger imaginary
    part.  Each eigenvector is (b, lambda - a) or (lambda - d, c), whichever
    has the larger modulus, in the gauge of `_unit_gauge`.  Returns the
    stacked V, shape (..., 2, 2), whose columns are the two eigenvectors.
    """
    mu, e = 0.5 * (a + d), 0.5 * (a - d)
    s = 1j * np.sqrt(-(e * e + b * c))
    lam1, lam2 = mu + s, mu - s
    cols = []
    for lam in (lam1, lam2):
        x1, y1, x2, y2 = b, lam - a, lam - d, c
        first = np.abs(x1) ** 2 + np.abs(y1) ** 2 >= np.abs(x2) ** 2 + np.abs(y2) ** 2
        cols.append(_unit_gauge(np.where(first, x1, x2), np.where(first, y1, y2)))
    (v00, v10), (v01, v11) = cols
    return lam1, lam2, _stacked(v00, v01, v10, v11)


def _log_r_phases(u, r, mode, params):
    """(Phi_plus, Phi_minus) = w1 u + c log r(u), from the printed log u form
    evaluated at r."""
    w1, _ = w_roots(mode.omega, mode.m)
    pp, pm = asymptotic_phases(r, mode, params)
    return pp + w1 * (u - r), pm + w1 * (u - r)


def _moments(kappa):
    """mu_l(kappa) = int_{-1}^{1} x^l e^{i kappa x} dx, l = 0..7, stacked on a
    new last axis.

    mu_l is real for even l and imaginary for odd l.  Where |kappa| < 2 it
    comes from the Taylor series, real powers of kappa times `_SERIES`;
    elsewhere, by parts, from mu_l = (e^{i kappa} - (-1)^l e^{-i kappa}
    - l mu_{l-1}) / (i kappa), whose division by kappa the series avoids.  Each
    entry takes one branch, and its moments do not depend on the others.
    """
    kappa = np.asarray(kappa, dtype=float)
    m = np.empty(kappa.shape + (8,))
    small = np.abs(kappa) < 2.0
    # one (1, 30) @ (30, 8) product per entry, so that no entry's rounding
    # depends on how many share the call
    m[small] = (np.vander(kappa[small], _SERIES.shape[1], increasing=True)[:, None] @ _SERIES.T)[:, 0]
    if not small.all():
        k = kappa[~small]
        two_sin, two_cos = 2.0 * np.sin(k), 2.0 * np.cos(k)
        ms = [two_sin / k]
        for l in range(1, 8):
            ms.append((l * ms[-1] - two_cos) / k if l % 2 else (two_sin - l * ms[-1]) / k)
        m[~small] = np.stack(ms, axis=-1)
    return m * _PARITY


def _adiabatic_frame(u, s, mode, params):
    """The frame X = V E f at points u with log offsets s: (r, Delta, lambda1,
    lambda2, V, K), with V and K = V^{-1} dV/du as four component arrays each.

    V is the closed-form eigenbasis of `_eigenbasis` with each column scaled
    so that V^dagger sigma3 V = s1 sigma3, s1 = sign Im(U00 - U11): a column of
    unit norm has |sigma3 norm| sqrt(D) / |Im(U00 - U11)/2|, where
    D = -(((U00 - U11)/2)^2 + U01 U10) > 0 is the discriminant.  So
    V^{-1} = s1 sigma3 V^dagger sigma3, and K lies in u(1,1).  Its off-diagonal
    is (V^{-1} U' V)_ij / (lambda_j - lambda_i), U' from `_potential_slopes`;
    its diagonal follows from the gauge, which keeps the larger-modulus entry p
    of each column real and positive: K_jj = -i Im(K_ij V_pi) / V_pj.  In this
    gauge det V = s1, so K11 = -K00.

    Raises ValueError where D <= 0, at a turning point of U.
    """
    r, delta, (a, b, c, d) = _exterior_entries(u, s, mode, params)
    disc = -(0.25 * (a - d) ** 2 + b * c).real
    if not np.all(disc > 0):
        raise ValueError(
            f"turning point of the exterior potential at u={float(u[~(disc > 0)][0])!r}: the "
            f"discriminant -(((U00-U11)/2)^2 + U01 U10) is not positive there")
    lam1, lam2, V = _eigenbasis(a, b, c, d)
    half_gap = 0.5 * (a - d).imag
    s1 = np.sign(half_gap)
    scale = np.sqrt(np.abs(half_gap) / np.sqrt(disc))
    v00, v01 = V[..., 0, 0] * scale, V[..., 0, 1] * scale
    v10, v11 = V[..., 1, 0] * scale, V[..., 1, 1] * scale
    p, q, t = _potential_slopes(r, delta, np.sqrt(delta), mode, params)
    # s1 (conj v00 (U'V)01 - conj v10 (U'V)11), with U'10 = conj U'01
    k01 = s1 * (np.conj(v00) * (p * v01 + q * v11) - np.conj(v10) * (np.conj(q) * v01 + t * v11)) \
        / (lam2 - lam1)
    k10 = np.conj(k01)
    top = s1 > 0  # column 0 has its larger entry first, column 1 second
    k00 = -1j * np.where(top, (k10 * v01).imag, (k10 * v11).imag) / np.where(top, v00.real, v10.real)
    k11 = -1j * np.where(top, (k01 * v10).imag, (k01 * v00).imag) / np.where(top, v11.real, v01.real)
    return r, delta, lam1, lam2, (v00, v01, v10, v11), (k00, k01, k10, k11)


def _coupling(u, s, mode, params):
    """(G, A) at points u with log offsets s: C00 - C11 = 2 i G, and
    C01 = A e^{-2 i w1 u}.

    C00 - C11 = lambda1 - lambda2 - i (Phi_plus' + Phi_minus') - (K00 - K11),
    and C01 = -K01 e^{-i (Phi_plus + Phi_minus)}; Phi_plus + Phi_minus =
    2 w1 u + (2 M m^2 / w1) log r, so A varies on the scale of u.

    Im(lambda1 - lambda2) / 2 = sqrt(D), D the discriminant of
    `_adiabatic_frame`, and sqrt(D) - w1 cancels down to O(1/u) far out.  It
    is taken as (D - w1^2) / (sqrt(D) + w1), where (r^2 + a^2)^2 (D - w1^2) =
    2 omega k a (r^2 + a^2) + k^2 a^2 + m^2 (2 M r^3 + (a^2 - Q^2) r^2 + a^4)
    - Delta xi^2 holds no cancellation.
    """
    r, delta, lam1, lam2, _, (k00, k01, _, k11) = _adiabatic_frame(u, s, mode, params)
    om, k, m, xi = mode.omega, mode.k, mode.m, mode.xi
    M, a2 = params.M, params.a ** 2
    w1 = w_roots(om, m)[0].real
    c = M * m ** 2 / w1
    rho2 = r * r + a2
    dlogr = delta / (rho2 * r)  # d log r / du
    excess = (2.0 * om * k * params.a * rho2 + k * k * a2
              + m * m * (2.0 * M * r ** 3 + (a2 - params.Q ** 2) * r * r + a2 * a2) - delta * xi * xi) / rho2 ** 2
    G = excess / (0.5 * (lam1 - lam2).imag + w1) - c * dlogr - 0.5 * (k00 - k11).imag
    return G, -k01 * np.exp(-2j * c * np.log(r))


def _trace_phase(s, mode, params):
    """Im of T - i (Phi_plus - Phi_minus) at points with log offsets s, where
    T = 2 i omega (u - r) + 2 i k phitilde(r) is the antiderivative of
    tr U = 2 i omega (1 - Delta/(r^2+a^2)) + 2 i k a/(r^2+a^2), with phitilde
    = `geometry.azimuthal_shift`: the antiderivative of Im tr C, since
    tr K = (log det V)' vanishes (det V = s1 in the gauge of
    `_adiabatic_frame`).  u - r = kp log(r - r_plus) - km log(r - r_minus)
    and phitilde = (a / (r_plus - r_minus)) (log(r - r_plus) - log(r - r_minus))
    come from the logs of `_offset_terms`, which no rounding of r cancels."""
    kp, km = _kappas(params)
    _, r, _, log_p, log_m = _offset_terms(s, "exterior", params)
    phitilde = params.a / (params.r_plus - params.r_minus) * (log_p - log_m)
    return 2.0 * mode.omega * ((kp * log_p - km * log_m) - 2.0 * params.M * np.log(r)) + 2.0 * mode.k * phitilde


def _uniform_edges(ta, tb, n):
    """Edges (n + 1, ...) of n equal steps from ta to tb, which may be arrays."""
    edges = ta + (tb - ta) * (np.arange(n + 1)[:, None] / n)
    edges[-1] = tb
    return edges


def _filon_magnus_steps(edges, half_width, carrier, frame, sign):
    """Exponentials of the steps between consecutive `edges` (axis 0; the other
    axes run over intervals), as four component arrays.

    On a step t = m + eta x, x in [-1, 1], the coupling is
    C = i tau/2 + i G sigma3 + [[0, A e^{i kappa x}], [sign conj(.), 0]] e^{-i carrier m},
    kappa = -carrier eta, with G (real) and the slow amplitude A interpolated
    at the Gauss nodes.  `frame(nodes, edges)` returns G and A at the nodes
    and an antiderivative of tau at the edges.  sign = +1 puts C in u(1,1)
    and -1 in u(2).  The step exponent is the Magnus series to second order,

        Omega = eta int C dx + (eta^2 / 2) int dx1 int^{x1} dx2 [C(x1), C(x2)],

    with every oscillatory moment exact (`_filon_magnus_tensors`); its
    commutator carries 2 i (G1 A2 e^{i kappa x2} - G2 A1 e^{i kappa x1}) off
    the diagonal and 2 i sign Im(A1 conj(A2) e^{i kappa (x1 - x2)}) sigma3 on
    it.  The weights come first, the moments mu_l of kappa times the real
    tensors: mu @ F1 is dotted with A, G with (mu @ F2) A and A with
    (e^{i kappa} mu @ F3) conj(A), two 4x4 mat-vecs per step.  The moments
    depend on the step only through kappa = -carrier `half_width`: a caller
    whose edges are the uniform subdivision of each interval
    (`_uniform_edges`) passes the interval's (tb - ta) / (2 n), shape
    (1, intervals), and the moments and weights are computed once per
    interval and shared by its steps; elsewhere it passes each step's eta.
    Omega10 = sign conj(Omega01), and the trace int tau over each step comes
    in closed form from the antiderivative at the edges, so Omega lies in
    the algebra of C.
    """
    eta, mid = 0.5 * (edges[1:] - edges[:-1]), 0.5 * (edges[1:] + edges[:-1])
    G, A, trace_phase = frame(mid[..., None] + eta[..., None] * _NODES, edges)
    trace = np.diff(trace_phase, axis=0)
    kappa = -carrier * half_width
    # the weights on the node values, per interval or per step as mu is
    mu = _moments(kappa)
    pairs = mu.shape[:-1] + (4, 4)
    w2 = (mu @ _F2_FLAT).reshape(pairs)
    w3 = (np.exp(1j * kappa)[..., None] * (mu @ _F3_FLAT)).reshape(pairs)
    cross = (A * (w3 @ np.conj(A)[..., None])[..., 0]).sum(-1)  # the double integral of A1 conj(A2)
    diag = eta * (G @ _WEIGHTS) + sign * (eta * eta * cross.imag)
    o01 = np.exp(-1j * carrier * mid) * (eta * ((mu @ _F1) * A).sum(-1)
                                         + 1j * eta * eta * (G * (w2 @ A[..., None])[..., 0]).sum(-1))
    o00 = 1j * (0.5 * trace + diag)
    o11 = 1j * (0.5 * trace - diag)
    return _expm2(o00, o01, sign * np.conj(o01), o11)


def _settled_steps(steps_of, mode, params, samples, s_samples, tol, budget, where):
    """Steps over the intervals between consecutive `samples`, with log
    offsets `s_samples`, each halved throughout until it settles:
    (products, settled, steps).

    A level's steps are uniform in s (`_uniform_edges`), and
    `steps_of(s_edges, ends, mode, params)` gives their exponentials as four
    component arrays, `ends` the pending intervals' samples.  Each interval
    starts as one step and is halved until the ordered product of its steps
    moves by less than `tol` of its largest entry.  The finer steps are
    kept: `products` (4, intervals), and in `settled` one (index, done,
    s_edges, factors) per level, the pending intervals `index` with their
    step edges (n + 1, len(index)) and exponentials, four arrays
    (n, len(index)), as the level evaluated them; `index[done]` settled
    there, and `steps` counts their steps.  Only `_frame_trajectory` reads
    the factors, so the driver picks none of them out.  A product that
    overflows the floats is kept as it is, and `_propagated` reports where
    the solution leaves them.  Past `budget` evaluated steps IntegrationError
    names the first unsettled interval, `where` ("on u", say) and the step
    counts; its t is the end of that interval.
    """
    products = np.empty((4, len(samples) - 1), dtype=complex)
    settled, pending, coarse = [], np.arange(len(samples) - 1), None
    n, evaluated, steps = 1, 0, 0
    while pending.size:
        if evaluated + n * pending.size > budget:
            a, b = float(samples[pending[0]]), float(samples[pending[0] + 1])
            raise IntegrationError(
                f"step budget of {budget} exhausted {where} in [{a!r}, {b!r}]: {n} steps per interval "
                f"on {pending.size} intervals, {evaluated} steps evaluated, {steps} accepted", b)
        s_edges = _uniform_edges(s_samples[pending], s_samples[pending + 1], n)
        with np.errstate(over="ignore", invalid="ignore"):
            factors = steps_of(s_edges, (samples[pending], samples[pending + 1]), mode, params)
            fine = np.array(_ordered_product(*factors))
            done = ~np.isfinite(fine).all(axis=0)
            if coarse is not None:
                done |= np.abs(fine - coarse).max(axis=0) <= tol * np.abs(fine).max(axis=0)
        evaluated += n * pending.size
        products[:, pending[done]] = fine[:, done]
        settled.append((pending, done, s_edges, factors))
        steps += n * int(done.sum())
        pending, coarse, n = pending[~done], fine[:, ~done], 2 * n
    return products, settled, steps


def _sample_grid(t0, t1, width, ref, side, budget):
    """Samples from t0 to t1 spaced `width`, except past `ref` on its `side`
    (+1: t > ref, -1: t < ref), where the spacing doubles on each interval.

    The samples are uniform in x = ref + side width log2(1 + side (t - ref) / width)
    past ref and in x = t short of it, so a span short of ref gets the uniform
    grid exactly.  A span of more than `budget` intervals raises
    IntegrationError before the grid is allocated, naming the end of its
    first interval.
    """
    def warp(t, inverse=False):
        d = side * (np.asarray(t, dtype=float) - ref)
        past = np.where(d > 0, d / width, 0.0)
        moved = np.exp2(past) - 1.0 if inverse else np.log2(1.0 + past)
        return np.where(d > 0, ref + side * width * moved, t)

    x0, x1 = warp(t0), warp(t1)
    intervals = abs(x1 - x0) / width
    if intervals > budget:
        end = float(warp(x0 + math.copysign(width, x1 - x0), inverse=True))
        raise IntegrationError(
            f"step budget of {budget} exhausted in [{t0!r}, {end!r}]: one step on each of the "
            f"{intervals:.4g} sample intervals exceeds it", end)
    samples = warp(np.linspace(x0, x1, max(1, math.ceil(intervals - 1e-9)) + 1), inverse=True)
    samples[0], samples[-1] = t0, t1
    return samples


def _propagated(products, f, samples):
    """Samples (len + 1, 2) of f carried across the interval products between
    consecutive `samples`.  Where f leaves the floats, IntegrationError names
    the last sample before."""
    f0, f1 = complex(f[0]), complex(f[1])
    fs = [(f0, f1)]
    # Python complex arithmetic, like numpy's, overflows to inf or nan
    # without raising
    for p00, p01, p10, p11 in products.T.tolist():
        f0, f1 = p00 * f0 + p01 * f1, p10 * f0 + p11 * f1
        fs.append((f0, f1))
    fs = np.array(fs)
    finite = np.isfinite(fs).all(axis=1)
    if not finite.all():
        last = float(samples[np.argmin(finite) - 1])
        raise IntegrationError(f"the solution overflows the floats past the sample at {last!r}", last)
    return fs


def _frame_steps(s_edges, ends, mode, params):
    """Exponentials of the steps of f = E^{-1} V^{-1} X between consecutive
    log offsets `s_edges`, as four component arrays.

    The frame steps in rstar: its edges come from the chart
    (`_offset_tortoise`), with the intervals' `ends` pinned.  C lies in
    u(1,1): G and the slow amplitude A from `_coupling` at the Gauss nodes,
    which are inverted for their log offsets in one `log_offset` call,
    carrier 2 w1, and the trace from `_trace_phase` at s_edges.
    """
    edges = _offset_tortoise(s_edges, "exterior", params)
    edges[0], edges[-1] = ends

    def frame(nodes, _):
        G, A = _coupling(nodes, log_offset(nodes, "exterior", params), mode, params)
        return G, A, _trace_phase(s_edges, mode, params)

    return _filon_magnus_steps(edges, 0.5 * (edges[1:] - edges[:-1]), 2.0 * w_roots(mode.omega, mode.m)[0].real,
                               frame, 1.0)


def _plain_steps(s_edges, _, mode, params):
    """Exponentials of the steps of X itself between consecutive log offsets
    `s_edges`, as four component arrays: dX/ds = J U X at carrier 0.

    J = drstar/ds = (r^2 + a^2) / (r - r_minus), with r, r - r_minus and
    Delta = e^s (r - r_minus) explicit at the Gauss nodes (`_offset_terms`),
    so no rounding of r cancels and no node is inverted.  J U lies in u(1,1):
    G = J Im(U00 - U11) / 2 and A = J U01, and the trace comes from its
    closed-form antiderivative 2 omega (rstar - r) + 2 k phitilde at s_edges,
    from the logs of `_offset_terms` as in `_trace_phase`.
    """
    kp, km = _kappas(params)

    def frame(nodes, _):
        e, r, gap, _, _ = _offset_terms(nodes, "exterior", params)
        delta = e * gap
        jac = (r * r + params.a ** 2) / gap
        u00, u01, _, u11 = _potential_entries(r, delta, np.sqrt(delta), 1.0, mode, params)
        _, _, _, log_p, log_m = _offset_terms(s_edges, "exterior", params)
        phitilde = params.a / (params.r_plus - params.r_minus) * (log_p - log_m)
        return 0.5 * jac * (u00 - u11).imag, jac * u01, 2.0 * (mode.omega * (kp * log_p - km * log_m)
                                                               + mode.k * phitilde)

    return _filon_magnus_steps(s_edges, 0.5 * (s_edges[-1:] - s_edges[:1]) / (len(s_edges) - 1), 0.0, frame, 1.0)


def _through_frame(u, s, products, X0, mode, params):
    """(r, X) at the points u with log offsets s: X = V E f, where
    f = E^{-1} V^{-1} X0 at u[0] is carried across `products`, the
    propagators of f between consecutive points."""
    r, _, _, _, (v00, v01, v10, v11), _ = _adiabatic_frame(u, s, mode, params)
    pp, pm = _log_r_phases(u, r, mode, params)
    ep, em = np.exp(1j * pp), np.exp(-1j * pm)
    det_v = v00[0] * v11[0] - v01[0] * v10[0]
    fs = _propagated(products, np.array([(v11[0] * X0[0] - v01[0] * X0[1]) / (det_v * ep[0]),
                                         (v00[0] * X0[1] - v10[0] * X0[0]) / (det_v * em[0])]), u)
    return r, np.stack([v00 * ep * fs[:, 0] + v01 * em * fs[:, 1],
                        v10 * ep * fs[:, 0] + v11 * em * fs[:, 1]], axis=-1)


def far_field_trajectory(mode, params, X0, u_min=1e3, u_max=1e6, n_samples=40):
    """Propagate outward over log-spaced samples in [u_min, u_max], in the
    adiabatic frame.

    The solution is written X = V E f, V the sigma3-normalized eigenbasis of U
    and E = diag(e^{i Phi_plus}, e^{-i Phi_minus}) with the phases
    w1 u + c log r(u) of `fit_infinity`, so that f' = C f with

        C = diag(lambda1 - i Phi_plus', lambda2 + i Phi_minus') - E^{-1} K E,

    K = V^{-1} dV/du in closed form (`_adiabatic_frame`).  The diagonal of C
    is smooth and O(1/u^2); the off-diagonal is O(1/u^2) times
    e^{-+2 i w1 u}.  Each step's exponent is the Magnus series of int C to
    second order with the oscillation integrated exactly, Filon-style
    (`_filon_magnus_steps`), so the steps are set by the 1/u^2 drift and
    not by the wavelength: tens of steps over u in [1e3, 1e6], where fixed
    Magnus-4 steps on X itself take millions.

    The steps are uniform in s = log(r - r_plus), as in exterior `integrate`,
    and each sample interval is halved until its product moves by less than
    `_FAR_TOL` (`_settled_steps`).  At most `_FRAME_STEP_BUDGET` steps are
    evaluated in all; past that IntegrationError names the mode, the interval
    and the step counts.

    Every step conserves the current |X1|^2 - |X2|^2, and its determinant is
    exp(int tr C) from closed forms, so `prop_det` carries the Abel factor
    exp(int tr U) to rounding.  Needs |omega| > m, two distinct imaginary
    eigenvalues of U over the span and an X0 of two finite entries; raises
    ValueError otherwise.
    """
    if abs(mode.omega) <= mode.m:
        raise ValueError(
            f"far-field propagation needs |omega| > m: at and below the mass threshold the "
            f"modes do not oscillate (got omega = {mode.omega!r}, m = {mode.m!r})")
    if not 0 < u_min < u_max:
        raise ValueError(f"far-field span needs 0 < u_min < u_max, got [{u_min!r}, {u_max!r}]")
    if n_samples < 2:
        raise ValueError(f"far-field propagation needs n_samples >= 2, got {n_samples!r}")
    X0 = _initial_state(X0)
    us = np.geomspace(u_min, u_max, n_samples)
    s = log_offset(us, "exterior", params)
    products, _, steps = _settled_steps(
        _frame_steps, mode, params, us, s, _FAR_TOL, _FRAME_STEP_BUDGET,
        f"for the far-field mode omega={mode.omega!r}, k={mode.k!r}, m={mode.m!r}, xi={mode.xi!r} on u")
    r, Xs = _through_frame(us, s, products, X0, mode, params)
    # det of the X propagator: det P_f times the ratio of det E =
    # e^{i (Phi_plus - Phi_minus)} = e^{4 i M omega log r}; det V = s1 is constant
    det_p = np.cumprod(np.concatenate([[1.0], products[0] * products[3] - products[1] * products[2]]))
    return RadialTrajectory(rstar=us, X=Xs, mode=mode, params=params,
                            branch="exterior", steps=steps, rejected=0, tol=_FAR_TOL, s=s,
                            prop_det=det_p * np.exp(4j * params.M * mode.omega * np.log(r / r[0])))


# ---------------------------------------------------------------------------
# fits

@dataclass(frozen=True)
class InfinityAsymptotics:
    """Fitted far-field data: root, boost parameter, amplitudes and decay."""

    w1: complex
    theta: complex
    f_inf: np.ndarray
    slope: float
    window: tuple
    boost_sign: int  # +1 if the closed-form eigenbasis of U(u_max) matches boost(+Theta)
    f_history: np.ndarray = field(repr=False, default=None)


def fit_infinity(traj, mode, params, ablate_log_phase=False):
    """Recover f(u) = W^{-1} V^{-1} X, its limit, and the residual decay slope.

    V(u) is the closed-form eigenbasis of U(u) at the samples' log offsets
    `traj.s`, which `far_field_trajectory` and exterior `integrate` record, so
    nothing is inverted again, and W = (e^{i Phi_plus}, e^{-i Phi_minus})
    carries the phases in log r(u), r the polished root of
    `geometry._exterior_radius`:
    Phi(u) = w1 u + c log r(u), whose derivative matches the eigenvalues to
    O(1/u^2).  The asymptotic model rebuilt from the fitted f_inf is compared
    with the trajectory; the log-log slope of ||X - X_asym|| over the fit
    window is close to -1, and degrades to near 0 when `ablate_log_phase`
    drops the log term (the 1/u eigenvalue terms are essential).  A
    trajectory off the exterior branch, or without its log offsets, raises
    ValueError.
    """
    if traj.branch != "exterior" or traj.s is None:
        raise ValueError("infinity fit needs an exterior-branch trajectory with its log offsets s")
    us, Xs = traj.rstar, traj.X
    if us[-1] < 1e4:
        raise ValueError("far-field fit needs the trajectory to reach rstar >= 1e4")
    if abs(mode.omega) <= mode.m:
        raise ValueError(
            f"infinity fits need |omega| > m: at and below the mass threshold the modes "
            f"do not oscillate (got |omega| = {abs(mode.omega)!r}, m = {mode.m!r})")
    if np.linalg.norm(Xs[-1]) < 1e-14:
        raise ValueError("trivial solution: no amplitude left at the anchor point")
    w1, _ = w_roots(mode.omega, mode.m)

    r, _, entries = _exterior_entries(us, traj.s, mode, params)
    _, _, V = _eigenbasis(*entries)
    if ablate_log_phase:
        pp = pm = w1 * us + 0j
    else:
        pp, pm = _log_r_phases(us, r, mode, params)
    W = np.stack([np.exp(1j * pp), np.exp(-1j * pm)], axis=-1)
    fs = np.linalg.solve(V, Xs[..., None])[..., 0] / W
    # 1/u Richardson extrapolation from the two outermost samples
    f_inf = (us[-1] * fs[-1] - us[-2] * fs[-2]) / (us[-1] - us[-2])
    V_inf = V[-1]

    resid = np.linalg.norm(Xs - (f_inf * W) @ V_inf.T, axis=1)
    sel = (us <= us[-1] / 5.0) & (resid > 0)
    if np.count_nonzero(sel) < 2:
        raise ValueError(
            f"far-field fit window u in [{float(us[0])!r}, {float(us[-1]) / 5.0!r}] (u <= u_max/5) holds "
            f"{np.count_nonzero(sel)} of the {len(us)} samples; a slope needs at least 2")
    slope, _ = np.polyfit(np.log(us[sel]), np.log(resid[sel]), 1)

    theta = theta_boost(mode.omega, mode.m)
    # which printed boost sign the eigenbasis of U(u_max) realizes; the boost
    # unpacks by rows, so `_unit_gauge` pairs the two entries of each column
    gap = [np.abs(np.array(_unit_gauge(*boost_matrix(th))) - V_inf).max()
           for th in (theta, -theta)]
    sign = 1 if gap[0] < gap[1] else -1
    return InfinityAsymptotics(
        w1=w1, theta=theta, f_inf=f_inf, slope=float(slope),
        window=(float(us[sel][0]), float(us[sel][-1])), boost_sign=sign,
        f_history=fs,
    )


# ---------------------------------------------------------------------------
# Cauchy horizon

def horizon_angular_velocity(params):
    """Omega_minus = a / (r_minus^2 + a^2), co-rotation at the Cauchy horizon."""
    return params.a / (params.r_minus**2 + params.a**2)


def _cauchy_nu(mode, params):
    """nu = 2 (omega + k Omega_minus), the frequency of X1 at the Cauchy
    horizon, which h = (X1 e^{-i nu rstar}, X2) strips."""
    return 2.0 * (mode.omega + mode.k * horizon_angular_velocity(params))


def cauchy_rate(params):
    """alpha = (r_plus - r_minus) / (2 (r_minus^2 + a^2)), the approach rate."""
    return 0.5 * (params.r_plus - params.r_minus) / (params.r_minus**2 + params.a**2)


def _horizon_coupling(e, r, gap, mode, params):
    """(G, A) of B at interior points given by the chart of `_offset_terms`,
    e = r - r_minus, r and gap = r_plus - r: B00 - B11 = 2 i G,
    B01 = A e^{-i nu rstar}.

    Substituting h = (X1 e^{-i nu rstar}, X2), nu = 2 (omega + k Omega_minus),
    into dX/drstar = U X on the interior branch gives

        B = [[U00 - i nu,             U01 e^{-i nu rstar}],
             [U10 e^{+i nu rstar},    U11               ]],

    with U10 = -conj(U01), so A = U01, the one entry of U evaluated here
    (`separation._potential_u01`, with |Delta| = e gap).  In U00 - i nu - U11
    the constant parts cancel exactly; what is left is 2 i G with
    G = -k Omega_minus (r^2 - r_minus^2) / (r^2 + a^2), and
    r^2 - r_minus^2 = e (2 r_minus + e), so nothing is lost to cancellation
    near the horizon.  Both vanish as r -> r_minus: ||B|| = O(e^{-alpha rstar}).
    """
    rm, a = params.r_minus, params.a
    u01 = _potential_u01(r, r * r + a * a, np.sqrt(e * gap), mode)
    q = e * (2.0 * rm + e)  # r^2 - r_minus^2
    return -mode.k * horizon_angular_velocity(params) * q / (rm * rm + a * a + q), u01


def _horizon_trace_phase(s, mode, params):
    """Im of the antiderivative of tr B at s = log(r - r_minus), up to a
    constant.

    int tr B drstar = 2 i omega (rstar - r) + 2 i k phitilde(r) - i nu rstar,
    since tr U = 2 i omega (1 - Delta/(r^2+a^2)) + 2 i k a/(r^2+a^2).  With
    rstar - r = kp log(r_plus - r) - km s, phitilde = (a / (r_plus - r_minus))
    (log(r_plus - r) - s) and k Omega_minus km = k a / (r_plus - r_minus), the
    s terms cancel, leaving -nu e^s - 2 k Omega_minus (r_plus + r_minus)
    log(r_plus - r) plus a constant, with e^s and log(r_plus - r) from
    `_offset_terms`, so that neither term cancels as r -> r_minus.
    """
    e, _, _, log_p, _ = _offset_terms(s, "interior", params)
    return -_cauchy_nu(mode, params) * e - 2.0 * mode.k * horizon_angular_velocity(params) * \
        (params.r_plus + params.r_minus) * log_p


def _interior_steps(s_edges, _, mode, params):
    """Exponentials of the steps of h = (X1 e^{-i nu rstar}, X2) between
    consecutive log offsets `s_edges` = log(r - r_minus), uniform in s on
    each interval, as four component arrays.

    dh/ds = J B h with J = drstar/ds = -(r^2 + a^2) / (r_plus - r), and r,
    r_plus - r and log(r_plus - r) explicit at the Gauss nodes
    (`_offset_terms`, one exp of the nodes), so no node is inverted.  J B lies
    in u(2): J G and J A from `_horizon_coupling`, with the phase
    e^{-i nu rstar} = e^{i nu km s} e^{-i nu (rstar + km s)} split into the
    carrier -nu km and the slow rest rstar + km s = r + kp log(r_plus - r),
    folded into the amplitude; the trace comes from `_horizon_trace_phase` at
    the edges.
    """
    nu, (kp, km) = _cauchy_nu(mode, params), _kappas(params)

    def frame(nodes, edges):
        e, r, gap, log_p, _ = _offset_terms(nodes, "interior", params)
        jac = -(r * r + params.a ** 2) / gap
        G, A = _horizon_coupling(e, r, gap, mode, params)
        return jac * G, jac * A * np.exp(-1j * nu * (r + kp * log_p)), _horizon_trace_phase(edges, mode, params)

    return _filon_magnus_steps(s_edges, 0.5 * (s_edges[-1:] - s_edges[:1]) / (len(s_edges) - 1), -nu * km,
                               frame, -1.0)


# the least distance, in the complex s = log(r - r_minus) plane, from the
# interior span to a root of the gap quartic at which the interior takes its
# adiabatic frame (`_horizon_frame_holds`): half the sample interval in s at
# r_minus
_HORIZON_FRAME_MARGIN = 0.25


def _horizon_frame_holds(mode, params, s_span):
    """Whether the interior span with log offsets s_span = log(r - r_minus)
    keeps the eigenvalue gap of the traceless part of U open far enough to
    step in its adiabatic frame (`_horizon_frame_steps`).

    That part is [[i c, A], [-conj(A), -i c]], c = nu/2 + G and A = U01 as in
    `_horizon_coupling`, and its eigenvalues are +-i lam with
    (r^2 + a^2)^2 lam^2 = P(r) = (omega (r^2 + a^2) + k a)^2 - Delta (m^2 r^2 + xi^2),
    the quartic of `_frame_holds`, since nu/2 (r^2 + a^2) + G (r^2 + a^2) =
    omega (r^2 + a^2) + k a.  Delta < 0 inside, so P > 0 on the real branch
    unless c and A vanish together; but the frame rotates by pi/2 across a
    near root, and its coupling grows like the inverse distance to a root in
    the complex s plane.  The frame holds where every root of P, taken as
    the quartic in e = r - r_minus, lies farther than `_HORIZON_FRAME_MARGIN`
    from the span there.  Its constant term P(r_minus) =
    ((r_minus^2 + a^2) nu / 2)^2 is exact, so at nu = 0 the root on the
    Cauchy horizon is e = 0; it is placed at the smallest normal float,
    below which e^s underflows to 0 and c and A vanish together.  On
    m = 0, k = 2.5, omega = -2.5 Omega_minus + 0.3 (a = 0.6, Q = 0.3) the
    frame takes 2x the carrier-nu steps of h at distance 0.2 and 20x at
    0.002, and exhausts the step budget at xi = 1e-9.
    """
    om, k, m, xi, a = mode.omega, mode.k, mode.m, mode.xi, params.a
    rm = params.r_minus
    b0 = 0.5 * (rm * rm + a * a) * _cauchy_nu(mode, params)
    # omega (r^2 + a^2) + k a = omega e^2 + 2 omega r_minus e + b0, and
    # Delta = e^2 - (r_plus - r_minus) e
    first = [om, 2.0 * om * rm, b0]
    quartic = np.convolve(first, first) - np.convolve([1.0, rm - params.r_plus, 0.0],
                                                      [m * m, 2.0 * m * m * rm, m * m * rm * rm + xi * xi])
    e_root = np.roots(quartic) + 0j
    s_root = np.log(np.where(e_root == 0.0, np.finfo(float).tiny, e_root))
    s_a, s_b = np.sort(s_span)
    return bool(np.all(np.abs(s_root - np.clip(s_root.real, s_a, s_b)) > _HORIZON_FRAME_MARGIN))


def _horizon_rotation(c, A, sign):
    """(|A|^2, |lam|, |p|) of the interior frame, from c = nu/2 + G, A and
    sign = copysign(1, nu), which is +1 at nu = 0.

    lam = sign sqrt(c^2 + |A|^2) and p = lam + c, so lam p > 0 wherever the
    gap is open; |p| = |lam| + sign c is taken as |A|^2 / (|lam| - sign c)
    where c and lam differ in sign, so that nothing cancels."""
    A2 = A.real * A.real + A.imag * A.imag
    root = np.sqrt(c * c + A2)
    sc = sign * c
    return A2, root, np.divide(A2, root - sc, out=root + sc, where=sc < 0.0)


def _horizon_frame_steps(s_edges, _, mode, params):
    """Exponentials of the steps of g = Vt^{-1} h between consecutive log
    offsets `s_edges` = log(r - r_minus), uniform in s on each interval, as
    four component arrays.

    V = [[p, i A], [i conj(A), p]] / sqrt(2 lam p) (`_horizon_rotation`) is
    the SU(2) eigenbasis of the traceless part [[i c, A], [-conj(A), -i c]]
    of U, V^{-1} U V = tr(U)/2 + i lam sigma3, and
    Vt = [[V00, V01 e^{-i nu rstar}], [V10 e^{i nu rstar}, V11]] carries it to
    h, so that X = V (g1 e^{i nu rstar}, g2).  With K = V^{-1} dV/ds in su(2),
    dg/ds = J [tr(B)/2 + i (lam - nu/2) sigma3] - [[K00, K01 e^{-i nu rstar}],
    [K10 e^{i nu rstar}, K11]], and in closed form

        lam - nu/2 = G + |A|^2 / p,      K00 = i Im(A conj(A')) / (2 lam p),
        K01 = i (p A' - A p') / (2 lam p),   p' = lam' + G',
        lam' = (c G' + Re(A conj(A'))) / lam,

    with A' = J dU01/drstar and G' = J d(U00 - U11)/drstar / (2 i) from
    `_potential_slopes` (Delta = -e gap).  The off-diagonal is A'/nu in size
    where the carrier-nu steps of h (`_interior_steps`) see J A, so the
    steps follow the rotation of the frame and not the size of the
    coupling.  The carrier -nu km, the slow phase and the trace are those of
    `_interior_steps`, and every exponent lies in u(2).
    """
    nu, (kp, km) = _cauchy_nu(mode, params), _kappas(params)
    sign, a2 = math.copysign(1.0, nu), params.a ** 2

    def frame(nodes, edges):
        e, r, gap, log_p, _ = _offset_terms(nodes, "interior", params)
        jac = -(r * r + a2) / gap
        G, A = _horizon_coupling(e, r, gap, mode, params)
        abs_delta = e * gap
        d00, d01, d11 = _potential_slopes(r, -abs_delta, np.sqrt(abs_delta), mode, params)
        # with A' = J d01 and G' = J dG, every term below carries one factor J
        dG = 0.5 * (d00 - d11).imag
        c = 0.5 * nu + G
        A2, root, q = _horizon_rotation(c, A, sign)
        cross = A * d01.conj()
        half = 0.5 / (root * q)  # 1 / (2 lam p)
        # lam - nu/2 = G + sign |A|^2 / |p|, and sign (A p' - p A') / J = A slope - |p| d01
        slope = (c * dG + cross.real) / root
        if sign > 0:
            shift, slope = G + A2 / q, slope + dG
        else:
            shift, slope = G - A2 / q, slope - dG
        # -K01 = i (A p' - p A') / (2 lam p), with the i folded into the slow phase
        slow = np.exp(1j * (0.5 * math.pi - nu * (r + kp * log_p)))
        return (jac * (shift - half * cross.imag), (A * slope - q * d01) * ((sign * half * jac) * slow),
                _horizon_trace_phase(edges, mode, params))

    return _filon_magnus_steps(s_edges, 0.5 * (s_edges[-1:] - s_edges[:1]) / (len(s_edges) - 1), -nu * km,
                               frame, -1.0)


def _horizon_basis(s, mode, params):
    """(v, w) at interior log offsets s: V = [[v, w], [-conj(w), v]], the
    eigenbasis of `_horizon_frame_steps` times sign(nu), so that V -> I at
    the horizon for nu != 0.

    v = |p| / sqrt(2 lam p) is real and w = sign(nu) i A / sqrt(2 lam p)
    (`_horizon_rotation`); V lies in SU(2)."""
    nu = _cauchy_nu(mode, params)
    sign = math.copysign(1.0, nu)
    e, r, gap, _, _ = _offset_terms(s, "interior", params)
    G, A = _horizon_coupling(e, r, gap, mode, params)
    _, root, q = _horizon_rotation(0.5 * nu + G, A, sign)
    norm = np.sqrt(2.0 * root * q)
    return q / norm, (sign * 1j) * A / norm


def _through_horizon_frame(rstar, s, products, X0, mode, params, framed):
    """Samples X at the interior points rstar with log offsets s, from X0 at
    rstar[0] and the propagators `products` between consecutive points: of
    g = Vt^{-1} h (`_horizon_frame_steps`) if `framed`, and of h itself
    (`_interior_steps`, V = I) otherwise.

    With V = [[v, w], [-conj(w), v]] from `_horizon_basis`,
    g0 = (y1 e^{-i nu rstar[0]}, y2) for y = V^{-1} X0 = V^dagger X0, and
    X = V (g1 e^{i nu rstar}, g2) at every sample."""
    nu = _cauchy_nu(mode, params)
    v, w = _horizon_basis(s, mode, params) if framed else (np.ones(len(s)), np.zeros(len(s)))
    g0 = np.array([(v[0] * X0[0] - w[0] * X0[1]) * np.exp(-1j * nu * rstar[0]),
                   np.conj(w[0]) * X0[0] + v[0] * X0[1]])
    y = _propagated(products, g0, rstar)
    y[:, 0] *= np.exp(1j * nu * rstar)
    return np.stack([v * y[:, 0] + w * y[:, 1], v * y[:, 1] - np.conj(w) * y[:, 0]], axis=-1)


@dataclass(frozen=True)
class HorizonAsymptotics:
    """Fitted Cauchy-horizon data: limit amplitudes and decay rate."""

    h: np.ndarray
    alpha: float
    rate: float
    window: tuple


def strip_horizon_phase(traj, mode, params):
    """h(rstar) = (X1 e^{-i nu rstar}, X2), nu = 2 (omega + k Omega_minus)."""
    h = traj.X.copy()
    h[:, 0] *= np.exp(-1j * _cauchy_nu(mode, params) * traj.rstar)
    return h


def fit_horizon(traj, mode, params):
    """Extract h_{r-} and the exponential decay rate of ||h - h_{r-}||.

    The fit window alpha rstar in [8, 19] starts late enough that the
    e^{-2 alpha rstar} transient (whose interference with the leading phasor
    biases early-window slopes) has died off; the h limit is anchored at the
    last sample, which must reach rstar >= 30/alpha.  At the end of the window
    the signal is about e^{-19} of the amplitude, so the integration error
    must lie well below that there.  `integrate` follows h itself, whose
    error stays near tol; following X across the span at tol = 1e-11 leaves
    an error of about 6e-9 relative on the near-extremal hole a = 0.95,
    Q = 0.3 (alpha = 0.05), which moves the fitted rate by 14%.  A window
    that holds fewer than two samples raises ValueError.
    """
    if traj.branch != "interior":
        raise ValueError("horizon fit needs an interior-branch trajectory")
    alpha = cauchy_rate(params)
    if traj.rstar[-1] < 30.0 / alpha:
        raise ValueError("trajectory must reach rstar >= 30/alpha for the horizon fit")
    if np.linalg.norm(traj.X[-1]) < 1e-14:
        raise ValueError("trivial solution: no amplitude at the horizon end")
    h = strip_horizon_phase(traj, mode, params)
    err = np.linalg.norm(h - h[-1], axis=1)
    sel = (traj.rstar >= 8.0 / alpha) & (traj.rstar <= 19.0 / alpha) & (err > 0)
    if np.count_nonzero(sel) < 2:
        raise ValueError(f"horizon fit window rstar in [{8.0 / alpha!r}, {19.0 / alpha!r}] holds "
                         f"{np.count_nonzero(sel)} of the {len(traj.rstar)} samples; a rate needs at least 2")
    rate, _ = np.polyfit(traj.rstar[sel], np.log(err[sel]), 1)
    return HorizonAsymptotics(h=h[-1], alpha=alpha, rate=float(-rate),
                              window=(float(traj.rstar[sel][0]), float(traj.rstar[sel][-1])))
