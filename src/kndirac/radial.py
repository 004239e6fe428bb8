"""Radial ODE integration and the asymptotics at infinity and at the Cauchy
horizon.

Two integrators are provided.  `integrate` is an adaptive embedded
Dormand-Prince 4(5) pair, adequate for spans of up to a few hundred tortoise
units.  The far-field experiments need phase-coherent trajectories over
rstar in [1e3, 1e6]; `far_field_trajectory` therefore uses a fixed-grid
fourth-order Magnus propagator, vectorized over all steps of a chunk.  Its
2x2 algebra (the commutator of the Gauss-node potentials, the closed-form
exponential and the tree-reduced ordered product) is written out on four
component arrays, one entry per step, and the exponential runs in real
arithmetic because the exterior potential lies in u(1,1).  Each Magnus step
multiplies the determinant by exp(h tr U) exactly, so the Abel/Wronskian
identity holds to rounding by construction; a beta / beta/2 self-check
bounds the phase error.

Asymptotics at infinity: with w1 the root of omega^2 - m^2 in the closed
convex hull of the positive real and positive imaginary axes, w2 = -w1, the
oscillatory branches carry the phases

    Phi_plus(u)  =  w1 u + M (2 omega + m^2/w1) log u,
    Phi_minus(u) =  w1 u - M (2 omega - m^2/w1) log u,

obtained by integrating d Phi_plus = -i lambda_1, d Phi_minus = +i lambda_2
with lambda_{1,2} = +-i w1 + (i M / u)(2 omega +- m^2 / w1) + O(1/u^2) the
eigenvalues of U.  Solutions approach

    X(u) = D(u) ( f1 e^{i Phi_plus}, f2 e^{-i Phi_minus} ),  f -> f_inf,

with an O(1/u) error; dropping the log term destroys the decay of the
residual (the 1/u eigenvalue correction integrates to an unbounded phase).

At the Cauchy horizon (interior branch, rstar -> +infinity) the substitution
    h = ( X1 e^{-2 i (omega + k Omega_minus) rstar}, X2 ),
    Omega_minus = a / (r_minus^2 + a^2),
turns the system into dh/drstar = B(rstar) h with ||B|| = O(e^{-alpha rstar}),
alpha = (r_plus - r_minus) / (2 (r_minus^2 + a^2)), so h has a limit and the
error decays exponentially at rate alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import delta_sigma, interior_offset, tortoise_inverse
from .separation import _potential_entries, radial_potential

__all__ = [
    "w_roots",
    "theta_boost",
    "boost_matrix",
    "asymptotic_phases",
    "eigen_expansion",
    "RadialTrajectory",
    "integrate",
    "integrate_linear_system",
    "far_field_trajectory",
    "InfinityAsymptotics",
    "fit_infinity",
    "horizon_B",
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
    """(Phi_plus(u), Phi_minus(u)) for u > 0; requires w1 != 0."""
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


def eigen_expansion(mode, params):
    """Leading and 1/rstar coefficients of the eigenvalues of U(rstar).

    lambda_j = i w_j + (i M / rstar)(2 omega + m^2 / w_j) + O(1/rstar^2),
    j = 1, 2 with w_2 = -w_1.
    """
    w1, w2 = w_roots(mode.omega, mode.m)
    if w1 == 0:
        raise ValueError("expansion undefined at the threshold |omega| = m")
    M = params.M
    return {
        "lambda1": (1j * w1, 1j * M * (2 * mode.omega + mode.m**2 / w1)),
        "lambda2": (1j * w2, 1j * M * (2 * mode.omega + mode.m**2 / w2)),
    }


@dataclass(frozen=True)
class RadialTrajectory:
    """Samples (rstar, X) of one solution, with integrator metadata.

    prop_det carries the cumulative determinant of the propagator from the
    first sample when the trajectory came from the Magnus path; the Abel
    identity det = exp(int tr U) can then be audited without re-propagation.
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

    def __post_init__(self):
        d = np.diff(self.rstar)
        if len(d) and not (np.all(d > 0) or np.all(d < 0)):
            raise ValueError("rstar samples must be strictly monotone")
        if not np.all(np.isfinite(self.X)):
            raise ValueError("trajectory contains non-finite samples")


# Dormand-Prince 4(5) tableau, rows of A as arrays.  Row 6 of A holds the
# fifth-order weights B5 (whose last entry is 0), so the last stage of an
# accepted step is the first stage of the next ("first same as last").
_DP_A = [np.array(row) for row in (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)]
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])
_DP_E = np.append(_DP_A[6], 0.0) - _DP_B4  # B5 - B4: the embedded error weights
_DP_C = np.array([1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])  # nodes of stages 1..6


def integrate_linear_system(matrix, span, X0, tol=1e-10, max_steps=2_000_000):
    """Adaptive Dormand-Prince integration of dX/dt = matrix(t) X.

    `matrix` takes a 1-d array of times and returns the stacked matrices,
    shape (len(t), n, n).  The system is linear, so every stage node of a
    step is known before any stage is computed: `matrix` is called once per
    attempted step, on the six nodes t + c_i h, plus once at the start.  The
    first stage reuses the last stage of the previous accepted step (FSAL),
    or the step's own first stage after a rejection.

    Returns (t samples, X samples, accepted, rejected).  Raises
    ArithmeticError on step-size underflow or when more than `max_steps`
    steps are attempted, naming t, h and the step counts.
    """
    t0, t1 = float(span[0]), float(span[1])
    direction = 1.0 if t1 > t0 else -1.0
    t = t0
    y = np.asarray(X0, dtype=complex)
    atol = tol * 1e-2
    h = direction * max(1e-6, abs(t1 - t0) * 1e-4)
    # sample buffers, grown geometrically: a list of one small array per step
    # costs several times the memory of the samples themselves
    ts = np.empty(1024)
    ys = np.empty((1024,) + y.shape, dtype=complex)
    ts[0], ys[0] = t, y
    K = np.empty((7,) + y.shape, dtype=complex)
    K[0] = matrix(np.array([t]))[0] @ y
    accepted = rejected = 0
    while (t1 - t) * direction > 0:
        if abs(h) > abs(t1 - t):
            h = t1 - t
        U = matrix(t + _DP_C * h)
        for i in range(1, 7):
            yi = y + h * _DP_A[i].dot(K[:i])
            K[i] = U[i - 1].dot(yi)
        y5 = yi  # row 6 of A is B5
        sc = atol + tol * max(np.abs(y).max(), np.abs(y5).max())
        err = math.sqrt(float((np.abs(h * (_DP_E @ K)) ** 2).sum()) / y.size) / sc
        if err <= 1.0:
            t += h
            y = y5
            K[0] = K[6]
            accepted += 1
            if accepted == len(ts):
                ts = np.concatenate([ts, np.empty_like(ts)])
                ys = np.concatenate([ys, np.empty_like(ys)])
            ts[accepted], ys[accepted] = t, y
        else:
            rejected += 1
        h *= min(5.0, max(0.2, 0.9 * err ** -0.2 if err > 0 else 5.0))
        if abs(h) < 1e-14 * max(1.0, abs(t)):
            raise ArithmeticError(
                f"step size underflow in radial integration at t={t!r}, h={h!r} "
                f"after {accepted} accepted and {rejected} rejected steps")
        if accepted + rejected > max_steps:
            raise ArithmeticError(
                f"step budget of {max_steps} exhausted in radial integration at t={t!r}, "
                f"h={h!r} after {accepted} accepted and {rejected} rejected steps")
    return ts[:accepted + 1].copy(), ys[:accepted + 1].copy(), accepted, rejected


def integrate(mode, params, span, X0, tol=1e-10, branch="exterior"):
    """Integrate dX/drstar = U(rstar) X over a span within one branch."""
    if not 1e-13 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-13, 1e-6]")

    def matrix(t):
        return radial_potential(t, mode, params, branch=branch)

    ts, ys, acc, rej = integrate_linear_system(matrix, span, X0, tol=tol)
    return RadialTrajectory(rstar=ts, X=ys, mode=mode, params=params, branch=branch,
                            steps=acc, rejected=rej, tol=tol)


# ---------------------------------------------------------------------------
# far-field propagation (vectorized Magnus-4 on 2x2 components)
#
# Every 2x2 quantity of a chunk of steps is held as four component arrays
# (x00, x01, x10, x11), one entry per step, and multiplied out by hand.  On
# the exterior branch U lies in u(1,1): its diagonal entries are imaginary
# and U10 = conj(U01).  The Magnus exponent, a real combination of U and of
# commutators of U, stays in u(1,1), which `_expm2` uses.

_GAUSS_C1 = 0.5 - math.sqrt(3.0) / 6.0
_GAUSS_C2 = 0.5 + math.sqrt(3.0) / 6.0


def _expm2(o00, o01, o10, o11):
    """exp(Omega) for a stack of 2x2 matrices Omega in u(1,1), by components.

    With Omega = i mu + N, N traceless, N^2 = q2 I where q2 = |o01|^2 - g^2,
    g = Im(o00 - o11) / 2, is real; exp(Omega) = e^{i mu} (cosh q + sinh(q)/q N)
    is evaluated in real arithmetic, through cos and sin of sqrt(-q2) when
    q2 < 0 and a series for |q| < 1e-8.
    """
    mu = 0.5 * (o00.imag + o11.imag)
    g = 0.5 * (o00.imag - o11.imag)
    q2 = o01.real * o01.real + o01.imag * o01.imag - g * g
    s = np.sqrt(np.abs(q2))
    grows = q2 > 0
    small = s < 1e-8
    ch = np.where(grows, np.cosh(s), np.cos(s))
    sh = np.where(small, 1.0 + q2 / 6.0 + q2 * q2 / 120.0,
                  np.where(grows, np.sinh(s), np.sin(s)) / np.where(small, 1.0, s))
    phase = np.exp(1j * mu)
    gsh, psh = 1j * (g * sh), phase * sh
    return phase * (ch + gsh), psh * o01, psh * o10, phase * (ch - gsh)


def _ordered_product(m00, m01, m10, m11):
    """Product M_{n-1} ... M_0 of a stack of 2x2 matrices, tree-reduced.

    Takes and returns the four components; each level multiplies neighbours
    pairwise, and an odd last factor is folded into the last pair product.
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


def _magnus_chunk(mode, params, ua, ub, nsteps):
    """Propagator over [ua, ub] in `nsteps` Magnus-4 steps, as a 2x2 matrix."""
    h = (ub - ua) / nsteps
    edges = ua + h * np.arange(nsteps)
    nodes = np.concatenate([edges + _GAUSS_C1 * h, edges + _GAUSS_C2 * h])
    r = tortoise_inverse(nodes, "exterior", params)
    delta, _ = delta_sigma(r, 0.0, params)  # > 0 on the exterior branch
    a, b, c, d = _potential_entries(r, delta, np.sqrt(delta), 1.0, mode, params)
    a1, b1, c1, d1 = a[:nsteps], b[:nsteps], c[:nsteps], d[:nsteps]
    a2, b2, c2, d2 = a[nsteps:], b[nsteps:], c[nsteps:], d[nsteps:]
    # Omega = h/2 (A1 + A2) + (sqrt(3) h^2 / 12) (A2 A1 - A1 A2); the
    # commutator's diagonal is +-(b2 c1 - b1 c2)
    half, k = 0.5 * h, math.sqrt(3.0) * h * h / 12.0
    e1, e2 = a1 - d1, a2 - d2
    diag = k * (b2 * c1 - b1 * c2)
    P = _ordered_product(*_expm2(half * (a1 + a2) + diag,
                                 half * (b1 + b2) + k * (b1 * e2 - b2 * e1),
                                 half * (c1 + c2) + k * (c2 * e1 - c1 * e2),
                                 half * (d1 + d2) - diag))
    return np.array(P).reshape(2, 2)


def far_field_trajectory(mode, params, X0, u_min=1e3, u_max=1e6, n_samples=40,
                         beta=4e-3, max_chunk=400_000):
    """Propagate outward over log-spaced samples in [u_min, u_max].

    The step size h = beta u^{2/5} equidistributes the Magnus-4 truncation
    error of the slowly varying potential; beta = 4e-3 keeps the accumulated
    phase error orders of magnitude below the 1/u residual that the far-field
    fit measures (halving beta moves trajectories by less than 1e-9 in
    practice).  Raising beta is no shortcut: beyond about 1.6e-2 the steps
    with h |w1| > pi, outside the Magnus convergence bound, spread over most
    of the span and the error grows far faster than h^4.
    """
    us = np.geomspace(u_min, u_max, n_samples)
    X = np.asarray(X0, dtype=complex).copy()
    Xs = [X.copy()]
    dets = [1.0 + 0.0j]
    det = 1.0 + 0.0j
    total = 0
    for i in range(n_samples - 1):
        ua, ub = us[i], us[i + 1]
        n = int(np.ceil((ub - ua) / (beta * ua ** 0.4)))
        start = ua
        while n > 0:
            m = min(n, max_chunk)
            ue = start + (ub - start) * (m / n)
            P = _magnus_chunk(mode, params, start, ue, m)
            X = P @ X
            det = det * (P[0, 0] * P[1, 1] - P[0, 1] * P[1, 0])
            start = ue
            n -= m
            total += m
        Xs.append(X.copy())
        dets.append(det)
    return RadialTrajectory(rstar=us, X=np.array(Xs), mode=mode, params=params,
                            branch="exterior", steps=total, rejected=0, tol=beta,
                            prop_det=np.array(dets))


# ---------------------------------------------------------------------------
# fits

def _diagonalizer(u, mode, params, prev=None):
    """Eigen-decomposition of U(u) with a deterministic gauge.

    Columns ordered by continuity with `prev` (or Im lambda > 0 first), each
    normalized to unit length with its largest-modulus component real-positive.
    """
    U = radial_potential(u, mode, params, branch="exterior")
    lam, V = np.linalg.eig(U)
    if prev is None:
        order = np.argsort(-lam.imag)
    else:
        order = [int(np.argmin(np.abs(lam - prev[0]))), 0]
        order[1] = 1 - order[0]
    lam = lam[list(order)]
    V = V[:, list(order)]
    for j in range(2):
        col = V[:, j]
        p = int(np.argmax(np.abs(col)))
        col = col * (np.abs(col[p]) / col[p])
        V[:, j] = col / np.linalg.norm(col)
    return lam, V


@dataclass(frozen=True)
class InfinityAsymptotics:
    """Fitted far-field data: roots, boost parameter, amplitudes and decay."""

    w1: complex
    w2: complex
    theta: complex
    f_inf: np.ndarray
    decay_constant: float
    slope: float
    window: tuple
    boost_sign: int  # +1 if the numerical diagonalizer matches boost(+Theta)
    f_history: np.ndarray = field(repr=False, default=None)


def fit_infinity(traj, mode, params, ablate_log_phase=False, fit_upper=None):
    """Recover f(u) = W^{-1} D^{-1} X, its limit, and the residual decay slope.

    The asymptotic model rebuilt from the fitted f_inf is compared with the
    trajectory; the log-log slope of ||X - X_asym|| over the fit window is
    close to -1 when the phases carry the log(u) correction and degrades to
    near 0 when `ablate_log_phase` drops it (the 1/u eigenvalue terms are
    essential).
    """
    us, Xs = traj.rstar, traj.X
    if us[-1] < 1e4:
        raise ValueError("far-field fit needs the trajectory to reach rstar >= 1e4")
    if abs(mode.omega) == mode.m:
        raise ValueError("threshold |omega| = m excluded from infinity fits")
    if np.linalg.norm(Xs[-1]) < 1e-14:
        raise ValueError("trivial solution: no amplitude left at the anchor point")
    w1, w2 = w_roots(mode.omega, mode.m)

    def phases(u):
        if ablate_log_phase:
            return w1 * u + 0j, w1 * u + 0j
        return asymptotic_phases(u, mode, params)

    fs = []
    Vs = []
    prev = None
    for u in reversed(us):
        lam, V = _diagonalizer(u, mode, params, prev)
        prev = (lam[0], lam[1])
        Vs.append(V)
    Vs = Vs[::-1]
    for u, Xu, V in zip(us, Xs, Vs):
        pp, pm = phases(u)
        W = np.array([np.exp(1j * pp), np.exp(-1j * pm)])
        fs.append(np.linalg.solve(V, Xu) / W)
    fs = np.array(fs)
    # 1/u Richardson extrapolation from the two outermost samples
    f_inf = (us[-1] * fs[-1] - us[-2] * fs[-2]) / (us[-1] - us[-2])
    V_inf = Vs[-1]

    resid = np.empty(len(us))
    for i, u in enumerate(us):
        pp, pm = phases(u)
        model = V_inf @ (f_inf * np.array([np.exp(1j * pp), np.exp(-1j * pm)]))
        resid[i] = np.linalg.norm(Xs[i] - model)
    upper = fit_upper if fit_upper is not None else us[-1] / 5.0
    sel = (us <= upper) & (resid > 0)
    slope, intercept = np.polyfit(np.log(us[sel]), np.log(resid[sel]), 1)

    theta = theta_boost(mode.omega, mode.m)
    sign = 0
    if not isinstance(theta, complex):
        # which printed boost sign the numerical diagonalizer realizes
        def gauge(Mat):
            out = Mat.astype(complex).copy()
            for j in range(2):
                col = out[:, j]
                p = int(np.argmax(np.abs(col)))
                out[:, j] = col * (np.abs(col[p]) / col[p]) / np.linalg.norm(col)
            return out

        plus = np.abs(gauge(boost_matrix(theta)) - V_inf).max()
        minus = np.abs(gauge(boost_matrix(-theta)) - V_inf).max()
        sign = 1 if plus < minus else -1
    return InfinityAsymptotics(
        w1=w1, w2=w2, theta=theta, f_inf=f_inf,
        decay_constant=float(np.exp(intercept)), slope=float(slope),
        window=(float(us[sel][0]), float(us[sel][-1])), boost_sign=sign,
        f_history=fs,
    )


# ---------------------------------------------------------------------------
# Cauchy horizon

def horizon_angular_velocity(params):
    """Omega_minus = a / (r_minus^2 + a^2), co-rotation at the Cauchy horizon."""
    return params.a / (params.r_minus**2 + params.a**2)


def cauchy_rate(params):
    """alpha = (r_plus - r_minus) / (2 (r_minus^2 + a^2)), the approach rate."""
    return 0.5 * (params.r_plus - params.r_minus) / (params.r_minus**2 + params.a**2)


def horizon_B(rstar, mode, params):
    """Coefficient matrix of the stripped interior system dh/drstar = B h.

    Derived by substituting h = (X1 e^{-2 i (omega + k Omega_minus) rstar}, X2)
    into the radial equation on the interior branch (where eps(Delta) = -1):

        B = i/(r^2+a^2) * [[-omega Delta - 2k(Omega_minus (r^2+a^2) - a),
                            -e^{-2i(omega + k Omega_minus) rstar} sqrt|Delta| (m r + i xi)],
                           [-e^{+2i(omega + k Omega_minus) rstar} sqrt|Delta| (m r - i xi),
                            -omega Delta]].

    Every entry vanishes as r -> r_minus; ||B|| = O(e^{-alpha rstar}).
    """
    om, k, m, xi = mode.omega, mode.k, mode.m, mode.xi
    a = params.a
    eps = interior_offset(rstar, params)
    r = params.r_minus + eps
    width = params.r_plus - params.r_minus
    delta = -eps * (width - eps)
    sD = np.sqrt(eps * (width - eps))
    ra = r * r + a * a
    om_minus = horizon_angular_velocity(params)
    ph = np.exp(2j * (om + k * om_minus) * np.asarray(rstar, dtype=float))
    B = np.zeros(np.shape(rstar) + (2, 2), dtype=complex)
    B[..., 0, 0] = -om * delta - 2 * k * (om_minus * ra - a)
    B[..., 0, 1] = -sD * (m * r + 1j * xi) / ph
    B[..., 1, 0] = -sD * (m * r - 1j * xi) * ph
    B[..., 1, 1] = -om * delta
    return 1j * B / ra[..., None, None] if np.ndim(rstar) else 1j * B / ra


@dataclass(frozen=True)
class HorizonAsymptotics:
    """Fitted Cauchy-horizon data: limit amplitudes and decay rate."""

    h: np.ndarray
    alpha: float
    omega_minus: float
    rate: float
    window: tuple


def strip_horizon_phase(traj, mode, params):
    """h(rstar) = (X1 e^{-2 i (omega + k Omega_minus) rstar}, X2)."""
    om_minus = horizon_angular_velocity(params)
    h = traj.X.copy()
    h[:, 0] *= np.exp(-2j * (mode.omega + mode.k * om_minus) * traj.rstar)
    return h


def fit_horizon(traj, mode, params):
    """Extract h_{r-} and the exponential decay rate of ||h - h_{r-}||.

    The fit window alpha rstar in [8, 19] starts late enough that the
    e^{-2 alpha rstar} transient (whose interference with the leading phasor
    biases early-window slopes) has died off, and ends while the signal is
    still orders of magnitude above the integration error floor; the h limit
    is anchored at the last sample, which must reach rstar >= 30/alpha.
    """
    if traj.branch != "interior":
        raise ValueError("horizon fit needs an interior-branch trajectory")
    alpha = cauchy_rate(params)
    if traj.rstar[-1] < 30.0 / alpha:
        raise ValueError("trajectory must reach rstar >= 30/alpha for the horizon fit")
    if np.linalg.norm(traj.X[-1]) < 1e-14:
        raise ValueError("trivial solution: no amplitude at the horizon end")
    h = strip_horizon_phase(traj, mode, params)
    h_limit = h[-1]
    err = np.linalg.norm(h - h_limit, axis=1)
    sel = (traj.rstar >= 8.0 / alpha) & (traj.rstar <= 19.0 / alpha) & (err > 0)
    rate, _ = np.polyfit(traj.rstar[sel], np.log(err[sel]), 1)
    return HorizonAsymptotics(
        h=h_limit, alpha=alpha, omega_minus=horizon_angular_velocity(params),
        rate=float(-rate), window=(float(traj.rstar[sel][0]), float(traj.rstar[sel][-1])),
    )
