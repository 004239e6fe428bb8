"""Spectral solution of the angular eigenvalue problem.

The first-order angular pair (Y1, Y2) is recast as T Y = xi Y with

    T = [[-a m cos(theta), L-], [-L+, a m cos(theta)]],
    L_pm = d_theta + cot(theta)/2 -+ (a omega sin(theta) + k csc(theta)),

which is symmetric in L^2((0,pi), sin(theta) dtheta)^2.  Regular solutions
behave like theta^{|k - 1/2|} (component 1) and theta^{|k + 1/2|}
(component 2) at the north pole, with the exponents swapped at the south
pole; both exponents are integers for half-integer k.  The matching
discretization is a Galerkin basis built on Jacobi polynomials,

    comp1: s^A c^B p_n^(A,B)(x),  comp2: s^B c^A p_n^(B,A)(x),

with x = cos(theta), s = sin(theta/2), c = cos(theta/2), A = |k - 1/2|,
B = |k + 1/2| and p_n^(a,b) the Jacobi polynomials orthonormal under the
weight (1-x)^a (1+x)^b / 2^(a+b) on [-1, 1].

Every block of the Galerkin matrix is known in closed form:
- sin(theta) dtheta = dx and s^2A c^2B = (1-x)^A (1+x)^B / 2^(A+B), so both
  bases are orthonormal, and cos(theta) acts on component 1 as the Jacobi
  matrix J = tridiag(e, d, e) of (A, B) and on component 2 as
  J' = tridiag(e, -d, e): swapping a and b negates d_n and keeps e_n.
- D = d_theta + cot(theta)/2 + k csc(theta), the a = 0 part of L-, maps the
  n-th basis function of component 2 onto sigma L_n times the n-th of
  component 1, with sigma = sign k and L_n = n + |k| + 1/2; hence the a = 0
  spectrum xi = +-(|k| + 1/2 + n).
- D(x f) = x D f - sin(theta) f, so sin(theta) acts between the two bases as
  sigma (J L - L J') with L = diag(L_n).

So A11 = -a m J, A22 = a m J' and
A12 = sigma [diag(L_n + 2 a omega L_n d_n) + a omega (e above, -e below)].
The matrix is real and exactly symmetric with an identity mass matrix, so the
eigenvalues are real and the eigenvectors orthonormal in the sin(theta)
measure.  The same d_n and e_n sample the basis by the three-term recurrence.

The reflection (Y1, Y2)(theta) -> (Y2, Y1)(pi - theta) takes the n-th basis
function of each component onto (-1)^n times the n-th of the other, since
p_n^(a,b)(-x) = (-1)^n p_n^(b,a)(x), and T commutes with it.  In the matrix,
with D = diag((-1)^n) and P = diag(I, D): D J' D = -J, and Y = A12 D is
symmetric, since D flips the sign of A12's +-a omega e off-diagonals.  So
P T P = [[X, Y], [Y, X]] with X = -a m J, and T is orthogonally similar to
(X + Y) + (X - Y) (direct sum): an eigenpair (w, v) of X + Y gives the
coefficients [v; D v] / sqrt 2 and one of X - Y gives [v; -D v] / sqrt 2.
`_parity_blocks` gives the bands of these two tridiagonal N x N blocks
without forming T.  The eigenvectors of smallest |xi| live in the first few
dozen basis functions, so `angular_eigenpairs` forms and diagonalizes only
the blocks' leading M x M corners, with M certified on each call by a
residual bound and a Sturm count on the whole bands (`_leading_eigenpairs`):
every answer is the N-basis answer to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DiscretizationSpec",
    "AngularEigenpair",
    "discretize_angular",
    "angular_eigenpairs",
    "eigenfunction_values",
    "xi_continuation",
]


@dataclass(frozen=True)
class DiscretizationSpec:
    """Basis size N per component of the Jacobi-Galerkin scheme."""

    N: int = 64

    def __post_init__(self):
        if self.N < 8:
            raise ValueError("N must be at least 8")


@dataclass(frozen=True)
class AngularEigenpair:
    """One angular eigenvalue with its sampled eigenfunction."""

    xi: float
    n: int
    theta: np.ndarray
    Y: np.ndarray  # shape (len(theta), 2)
    N: int
    coeffs: np.ndarray = field(repr=False, default=None)


def _exponents(k):
    """(A, B) = (|k - 1/2|, |k + 1/2|), the pole exponents of component 1."""
    return int(round(abs(k - 0.5))), int(round(abs(k + 0.5)))


def _jacobi_matrix(a, b, N):
    """Diagonal d_n (n < N) and off-diagonal e_n (n < N - 1) of the Jacobi
    matrix of (a, b), a + b > 0: x p_n = e_{n-1} p_{n-1} + d_n p_n + e_n p_{n+1}
    for the orthonormal p_n."""
    n = np.arange(N, dtype=float)
    s = 2 * n + a + b
    d = (b * b - a * a) / (s * (s + 2))
    n, s = n[:-1], s[:-1]
    e = 2 / (s + 2) * np.sqrt((n + 1) * (n + a + 1) * (n + b + 1) * (n + a + b + 1) / ((s + 1) * (s + 3)))
    return d, e


def _basis_values(a, b, N, theta):
    """s^a c^b p_n^(a,b)(cos theta) for n < N, shape theta.shape + (N,)."""
    d, e = _jacobi_matrix(a, b, N)
    x = np.cos(theta)
    # p_0^2 = (a + b + 1) C(a + b, a) / 2, in logs so that large |k| does not overflow
    log_p0 = 0.5 * (math.log((a + b + 1) / 2) + math.lgamma(a + b + 1) - math.lgamma(a + 1) - math.lgamma(b + 1))
    F = np.empty(np.shape(theta) + (N,))
    F[..., 0] = math.exp(log_p0) * np.sin(theta / 2) ** a * np.cos(theta / 2) ** b
    F[..., 1] = (x - d[0]) * F[..., 0] / e[0]
    for n in range(1, N - 1):
        F[..., n + 1] = ((x - d[n]) * F[..., n] - e[n - 1] * F[..., n - 1]) / e[n]
    return F


def _sample(coeffs, k, theta):
    """(Y1, Y2) at interior angles from Galerkin coefficients of shape (2N,)
    or (2N, count); the component axis is last."""
    A, B = _exponents(k)
    N = len(coeffs) // 2
    theta = np.asarray(theta, dtype=float)
    Y1 = _basis_values(A, B, N, theta) @ coeffs[:N]
    Y2 = _basis_values(B, A, N, theta) @ coeffs[N:]
    return np.stack([Y1, Y2], axis=-1)


def _tridiag(lower, diag, upper):
    n = len(diag)
    T = np.zeros((n, n))
    T.flat[::n + 1], T.flat[1::n + 1], T.flat[n::n + 1] = diag, upper, lower
    return T


def _galerkin_diagonals(mode, spec, params):
    """The bands of the Galerkin matrix T = [[X, A12], [A12^T, X']]: X's
    diagonal and off-diagonal, and A12's diagonal and upper diagonal.  X'
    has X's diagonal and minus its off-diagonal, and A12's lower diagonal is
    minus its upper one."""
    k, N = mode.k, spec.N
    d, e = _jacobi_matrix(*_exponents(k), N)
    aw = params.a * mode.omega
    am = params.a * mode.m
    L = np.arange(N) + abs(k) + 0.5
    sigma = math.copysign(1.0, k)
    return -am * d, -am * e, sigma * (L + 2 * aw * L * d), sigma * (aw * e)


def discretize_angular(mode, spec, params):
    """Symmetric 2N x 2N Galerkin matrix whose eigenvalues are the xi_n."""
    x_diag, x_off, c_diag, c_off = _galerkin_diagonals(mode, spec, params)
    A12 = _tridiag(-c_off, c_diag, c_off)
    return np.block([[_tridiag(x_off, x_diag, x_off), A12], [A12.T, _tridiag(-x_off, x_diag, -x_off)]])


def _parity_signs(N):
    """D = diag((-1)^n), n < N, as a vector."""
    return np.where(np.arange(N) % 2, -1.0, 1.0)


def _parity_blocks(mode, spec, params):
    """The bands (diag, off) of the parity blocks X + Y and X - Y of
    `discretize_angular`'s matrix T (module docstring): X = T[:N, :N] and
    Y = T[:N, N:] D, entry by entry with the arithmetic of T, so that they
    equal the bands of the fold of T exactly.  Both blocks are symmetric
    tridiagonal."""
    x_diag, x_off, c_diag, c_off = _galerkin_diagonals(mode, spec, params)
    D = _parity_signs(spec.N)
    # Y's upper diagonal A12[n, n+1] D[n+1]; its lower one is the same, since
    # A12's lower diagonal and D flip sign together
    y_diag, y_off = c_diag * D, c_off * D[1:]
    return (x_diag + y_diag, x_off + y_off), (x_diag - y_diag, x_off - y_off)


def _branch_indices(xi_sorted):
    # indices n in Z, symmetric around the gap at 0: negative values get
    # -1, -2, ... moving away from zero, positive values 1, 2, ...
    idx = np.empty(len(xi_sorted), dtype=int)
    neg = np.where(xi_sorted < 0)[0]
    pos = np.where(xi_sorted >= 0)[0]
    for rank, i in enumerate(reversed(neg)):
        idx[i] = -(rank + 1)
    for rank, i in enumerate(pos):
        idx[i] = rank + 1
    return idx


def _sturm_count(diag, off, shift):
    """How many eigenvalues of the symmetric tridiagonal matrix with bands
    (diag, off) lie below `shift`: the negative pivots of the LDL^T
    factorization of the matrix minus shift (Parlett 1998, ch. 7), one O(N)
    pass in Python floats."""
    tiny = np.finfo(float).tiny
    below, pivot = 0, 1.0
    for a, b2 in zip((diag - shift).tolist(), [0.0] + (off * off).tolist()):
        pivot = a - b2 / pivot
        if abs(pivot) < tiny:  # shift is an eigenvalue of a leading block
            pivot = -tiny
        below += pivot < 0.0
    return below


def _leading_eigenpairs(bands, count):
    """The `count` eigenpairs of smallest |xi| of the two N x N parity
    blocks, given by their bands (diag, off), from their leading M x M
    corners.

    M starts at min(N, max(32, 2 count)) and doubles until a certificate on
    the whole bands holds; M = N needs none.  The certificate:
    - residual: the zero-padded pair (xi, [v; 0]) misses only in row M, by
      e_{M-1} v_{M-1}; at most eps max|xi| makes it an exact eigenpair of a
      block within rounding of the true one, the backward error of `eigh`;
    - Sturm count: the blocks hold exactly `count` eigenvalues in
      [-(c + tol), c + tol], c the largest selected |xi|, so none whose
      vector lives past row M is passed over.  tol = 16 eps times a bound
      of the blocks' norm covers the rounding of both xi and the count.
    Returns xi, the corner vectors V (M x count) and a mask of the pairs from
    the odd block.
    """
    N = len(bands[0][0])
    eps = np.finfo(float).eps
    tol = 16 * eps * max(np.abs(d).max() + 2 * np.abs(e).max() for d, e in bands)
    M = min(N, max(32, 2 * count))
    while True:
        (even, u), (odd, v) = (np.linalg.eigh(_tridiag(e[:M - 1], d[:M], e[:M - 1])) for d, e in bands)
        vals = np.concatenate([even, odd])
        sel = np.argsort(np.abs(vals))[:count]
        xi, V, from_odd = vals[sel], np.concatenate([u, v], axis=1)[:, sel], sel >= M
        if M == N:
            return xi, V, from_odd
        coupling = np.where(from_odd, bands[1][1][M - 1], bands[0][1][M - 1])  # e_{M-1} of each pair's block
        c = np.abs(xi).max(initial=0.0) + tol
        if (np.all(np.abs(coupling * V[-1]) <= eps * np.abs(vals).max())
                and sum(_sturm_count(d, e, c) - _sturm_count(d, e, -c) for d, e in bands) == count):
            return xi, V, from_odd
        M = min(N, 2 * M)


def angular_eigenpairs(mode, spec, params, count=8, n_theta=129):
    """The `count` eigenvalues of smallest modulus with sampled eigenfunctions.

    The eigenpairs are those of the two N x N parity blocks of the Galerkin
    matrix (module docstring), taken from the blocks' leading M x M corners
    with a certificate that they are the N-basis answer to rounding
    (`_leading_eigenpairs`).  `coeffs` holds all 2N Galerkin coefficients,
    zero past the M-th of each component.  Eigenfunctions are normalized in
    L^2((0,pi), sin(theta) dtheta) and returned on an interior theta grid.
    A gap below 1e-10 between consecutive returned eigenvalues of one parity
    block is reported as a degeneracy error; a pair from the two blocks may
    agree to rounding.
    """
    if not 0 <= count <= spec.N:
        raise ValueError(f"count must be between 0 and the basis size N = {spec.N}, got {count}")
    N = spec.N
    xi, V, from_odd = _leading_eigenpairs(_parity_blocks(mode, spec, params), count)
    order = np.argsort(xi)
    xi, V, from_odd = xi[order], V[:, order], from_odd[order]
    # the blocks are decoupled, so only gaps within one block can be degenerate
    gaps = np.concatenate([np.diff(xi[~from_odd]), np.diff(xi[from_odd])])
    if len(gaps) and np.min(np.abs(gaps)) < 1e-10:
        raise ArithmeticError(f"degenerate angular eigenvalues detected: min gap {np.min(np.abs(gaps)):.2e}")
    theta = np.pi * (np.arange(n_theta) + 0.5) / n_theta
    M = len(V)
    C = np.concatenate([V, np.where(from_odd, -1.0, 1.0) * _parity_signs(M)[:, None] * V]) / math.sqrt(2.0)
    Y = _sample(C, mode.k, theta)  # (n_theta, count, 2), from the M nonzero coefficients
    # deterministic sign: largest-|Y1| sample positive.  The largest |Y| over
    # both components is often attained twice, at mirrored angles with
    # opposite signs, so a sign fixed on it would flip with rounding.
    pivot = Y[np.argmax(np.abs(Y[..., 0]), axis=0), np.arange(count), 0]
    flip = np.where(pivot < 0, -1.0, 1.0)
    Y = Y * flip[:, None]
    coeffs = np.zeros((2, N, count))
    coeffs[:, :M] = (C * flip).reshape(2, M, count)
    coeffs = coeffs.reshape(2 * N, count)
    indices = _branch_indices(xi)
    return [AngularEigenpair(xi=float(xi[j]), n=int(indices[j]), theta=theta,
                             Y=Y[:, j].astype(complex), N=spec.N, coeffs=coeffs[:, j].copy())
            for j in range(count)]


def eigenfunction_values(pair, mode, theta):
    """Evaluate an eigenpair's (Y1, Y2) at arbitrary interior angles."""
    return _sample(pair.coeffs, mode.k, theta)


def xi_continuation(omegas, mode, spec, params, branch_n=1, count=12):
    """Track xi_{branch_n}(omega) across a frequency sweep by nearest matching.

    Raises if consecutive xi values jump by more than half the local spectral
    gap, which would make the branch assignment ambiguous.
    """
    from .separation import ModeParams

    omegas = np.asarray(omegas, dtype=float)
    track = []
    prev = None
    for om in omegas:
        m = ModeParams(omega=float(om), k=mode.k, m=mode.m, xi=0.0)
        pairs = angular_eigenpairs(m, spec, params, count=count, n_theta=9)
        xs = np.array([p.xi for p in pairs])
        if prev is None:
            ns = np.array([p.n for p in pairs])
            sel = np.where(ns == branch_n)[0]
            if len(sel) == 0:
                raise ValueError(f"branch {branch_n} not within the first {count} eigenvalues")
            val = xs[sel[0]]
        else:
            j = int(np.argmin(np.abs(xs - prev)))
            gap = np.min(np.abs(np.delete(xs, j) - xs[j])) if len(xs) > 1 else np.inf
            if abs(xs[j] - prev) > 0.5 * gap:
                raise ArithmeticError(
                    f"branch tracking ambiguous at omega={om}: step {abs(xs[j]-prev):.3e} "
                    f"exceeds half the local gap {gap:.3e}"
                )
            val = xs[j]
        track.append(val)
        prev = val
    return np.array(track)
