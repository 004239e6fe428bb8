import math

import numpy as np
import pytest
from conftest import random_slow_params
from scipy.special import eval_jacobi, gammaln

from kndirac import angular
from kndirac.angular import (
    DiscretizationSpec,
    _basis_values,
    angular_eigenpairs,
    discretize_angular,
    eigenfunction_values,
    xi_continuation,
)
from kndirac.geometry import SpacetimeParams
from kndirac.separation import ModeParams

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)


# ---------------------------------------------------------------------------
# Oracle: the Galerkin matrix by Gauss-Legendre quadrature over a basis
# evaluated with scipy's eval_jacobi, one call per degree.  Every integrand is
# a polynomial in cos(theta), so the rule is exact up to rounding.

def _jacobi_norm(n, a, b):
    """L2 norm^2 of P_n^(a,b) under (1-x)^a (1+x)^b dx."""
    n = np.asarray(n, dtype=float)
    return np.exp(
        (a + b + 1) * math.log(2.0)
        - np.log(2 * n + a + b + 1)
        + gammaln(n + a + 1)
        + gammaln(n + b + 1)
        - gammaln(n + a + b + 1)
        - gammaln(n + 1)
    )


class ReferenceBasis:
    """Jacobi bases for the two components of one (k)-sector."""

    def __init__(self, k, N):
        self.N = N
        self.A = int(round(abs(k - 0.5)))
        self.B = int(round(abs(k + 0.5)))

    def _ab_norms(self, comp):
        a, b = (self.A, self.B) if comp == 0 else (self.B, self.A)
        # normalized so that <phi_n, phi_m>_{sin th dth} = delta_nm
        return a, b, np.sqrt(_jacobi_norm(np.arange(self.N), a, b) * 2.0 ** (-(a + b)))

    def values(self, theta, comp):
        a, b, norms = self._ab_norms(comp)
        theta = np.asarray(theta, float)
        x = np.cos(theta)
        pref = np.sin(theta / 2.0) ** a * np.cos(theta / 2.0) ** b
        P = np.stack([eval_jacobi(m, a, b, x) for m in range(self.N)], axis=-1)
        return pref[..., None] * P / norms

    def derivative_values(self, theta, comp):
        a, b, norms = self._ab_norms(comp)
        theta = np.asarray(theta, float)
        x = np.cos(theta)
        s = np.sin(theta / 2.0)
        c = np.cos(theta / 2.0)
        P = np.stack([eval_jacobi(m, a, b, x) for m in range(self.N)], axis=-1)
        dP = np.zeros_like(P)
        for m in range(1, self.N):
            dP[..., m] = 0.5 * (m + a + b + 1) * eval_jacobi(m - 1, a + 1, b + 1, x)
        pref = s**a * c**b
        dpref = (0.5 * a * s ** max(a - 1, 0) * c ** (b + 1) if a > 0 else np.zeros_like(s)) - (
            0.5 * b * s ** (a + 1) * c ** max(b - 1, 0) if b > 0 else np.zeros_like(s)
        )
        # d/dtheta [pref P(cos theta)] ; dx/dtheta = -sin theta
        return dpref[..., None] * P / norms + pref[..., None] * dP * (-np.sin(theta))[..., None] / norms


def reference_galerkin_matrix(mode, spec, params, nq=None):
    k = mode.k
    N = spec.N
    bas = ReferenceBasis(k, N)
    aw = params.a * mode.omega
    am = params.a * mode.m
    nq = nq or 2 * N + 2 * (bas.A + bas.B) + 16
    x, wq = np.polynomial.legendre.leggauss(nq)
    theta = np.arccos(x)
    st = np.sin(theta)
    ct = x
    F1 = bas.values(theta, 0)
    F2 = bas.values(theta, 1)
    dF2 = bas.derivative_values(theta, 1)
    # L- acting on component-2 basis, evaluated at the interior nodes
    w_theta = aw * st + k / st
    Lm_F2 = dF2 + ((0.5 * ct / st) + w_theta)[:, None] * F2
    # <f, g>_{sin th dth} = integral f g dx: plain Gauss-Legendre weights
    A12 = F1.T @ (wq[:, None] * Lm_F2)
    A11 = -am * (F1.T @ ((wq * ct)[:, None] * F1))
    A22 = am * (F2.T @ ((wq * ct)[:, None] * F2))
    A = np.block([[A11, A12], [A12.T, A22]])
    return 0.5 * (A + A.T)


def eigenfunction_derivatives(pair, mode, theta):
    """d/dtheta of (Y1, Y2) at arbitrary interior angles."""
    bas = ReferenceBasis(mode.k, pair.N)
    D1 = bas.derivative_values(theta, 0)
    D2 = bas.derivative_values(theta, 1)
    N = pair.N
    return np.stack([D1 @ pair.coeffs[:N], D2 @ pair.coeffs[N:]], axis=-1)


# ---------------------------------------------------------------------------

def sin_measure_inner(theta_nodes, weights, Ya, Yb):
    return np.sum(weights * (np.conj(Ya[:, 0]) * Yb[:, 0] + np.conj(Ya[:, 1]) * Yb[:, 1]))


def gl_grid(n=400):
    x, w = np.polynomial.legendre.leggauss(n)
    return np.arccos(x), w


def ode_residual(pair, mode, params, theta):
    """Pointwise residual of the first-order angular pair for an eigenpair."""
    Y = eigenfunction_values(pair, mode, theta)
    dY = eigenfunction_derivatives(pair, mode, theta)
    st, ct = np.sin(theta), np.cos(theta)
    w = params.a * mode.omega * st + mode.k / st
    am = params.a * mode.m
    Lp_Y1 = dY[:, 0] + (ct / (2 * st) - w) * Y[:, 0]
    Lm_Y2 = dY[:, 1] + (ct / (2 * st) + w) * Y[:, 1]
    r1 = Lp_Y1 + (pair.xi - am * ct) * Y[:, 1]
    r2 = (pair.xi + am * ct) * Y[:, 0] - Lm_Y2
    return max(np.abs(r1).max(), np.abs(r2).max())


def test_matrix_symmetric_real():
    mode = ModeParams(omega=0.9, k=0.5, m=0.4, xi=0.0)
    A = discretize_angular(mode, DiscretizationSpec(N=24), PAR)
    assert A.shape == (48, 48)
    assert np.isrealobj(A)
    assert np.abs(A - A.T).max() == 0.0


def test_spectrum_symmetric_when_am_zero():
    # am = 0, a*omega = 0: spectrum symmetric about zero (checked against the
    # dense high-N solve, not a baked-in table)
    par = SpacetimeParams(M=1.0, Q=0.3)
    mode = ModeParams(omega=0.0, k=0.5, m=0.0, xi=0.0)
    lo = angular_eigenpairs(mode, DiscretizationSpec(N=64), par, count=10)
    hi = angular_eigenpairs(mode, DiscretizationSpec(N=256), par, count=10)
    xs_lo = np.array([p.xi for p in lo])
    xs_hi = np.array([p.xi for p in hi])
    assert np.abs(xs_lo - xs_hi).max() < 1e-10  # Richardson-free: already converged
    assert np.abs(np.sort(xs_lo) + np.sort(xs_lo)[::-1]).max() < 1e-10


def test_self_convergence_doubling():
    mode = ModeParams(omega=1.1, k=1.5, m=0.5, xi=0.0)
    v128 = [p.xi for p in angular_eigenpairs(mode, DiscretizationSpec(N=128), PAR, count=5)]
    v256 = [p.xi for p in angular_eigenpairs(mode, DiscretizationSpec(N=256), PAR, count=5)]
    assert np.abs(np.array(v128) - np.array(v256)).max() < 1e-8


def test_eigenfunctions_solve_the_ode():
    # method-of-manufactured-solutions in reverse: computed eigenpairs must
    # satisfy the continuous system pointwise
    mode = ModeParams(omega=0.8, k=-1.5, m=0.6, xi=0.0)
    pairs = angular_eigenpairs(mode, DiscretizationSpec(N=64), PAR, count=6)
    theta = np.linspace(0.3, math.pi - 0.3, 41)
    for p in pairs:
        assert ode_residual(p, mode, PAR, theta) < 1e-9


def test_matrix_action_matches_quadrature_oracle():
    # Galerkin entries against an independent fine quadrature of <phi, T psi>
    mode = ModeParams(omega=0.7, k=0.5, m=0.3, xi=0.0)
    spec = DiscretizationSpec(N=12)
    A = discretize_angular(mode, spec, PAR)
    assert np.abs(A - reference_galerkin_matrix(mode, spec, PAR, nq=1500)).max() < 1e-10


@pytest.mark.parametrize("N", [16, 64, 256])
@pytest.mark.parametrize("k", [0.5, -0.5, 1.5, -1.5, 7.5, -40.5])
def test_closed_form_matches_quadrature_oracle(N, k):
    # the oracle's own rounding reaches about 5e-12 of max|A| at N = 256
    rng = np.random.default_rng([N, int(2 * k) + 100])
    par = SpacetimeParams(M=1.0, a=float(rng.uniform(-0.9, 0.9)), Q=0.2)
    mode = ModeParams(omega=float(rng.uniform(-2, 2)), k=k, m=float(rng.uniform(0, 1)), xi=0.0)
    spec = DiscretizationSpec(N=N)
    A = discretize_angular(mode, spec, par)
    ref = reference_galerkin_matrix(mode, spec, par)
    assert np.array_equal(A, A.T)
    assert np.abs(A - ref).max() <= 1e-11 * np.abs(ref).max()


def _random_case(N, k):
    rng = np.random.default_rng([N, int(2 * k) + 100, 7])
    par = random_slow_params(rng)
    mode = ModeParams(omega=float(rng.uniform(-2, 2)), k=k, m=float(rng.uniform(0, 1)), xi=0.0)
    return mode, DiscretizationSpec(N=N), par


@pytest.mark.parametrize("N", [16, 64, 256])
@pytest.mark.parametrize("k", [0.5, -0.5, 1.5, 7.5, -40.5])
def test_parity_blocks_of_the_galerkin_matrix(N, k):
    # P T P = [[X, Y], [Y, X]] with P = diag(I, D), D = diag((-1)^n) and Y
    # symmetric, bitwise: the sign flips of D are exact.  The bands that
    # `angular_eigenpairs` diagonalizes, built without T, are those of the
    # tridiagonal X +- Y exactly
    mode, spec, par = _random_case(N, k)
    T = discretize_angular(mode, spec, par)
    D = (-1.0) ** np.arange(N)
    X, Y = T[:N, :N], T[:N, N:] * D
    assert np.array_equal(D[:, None] * T[N:, N:] * D, X)
    assert np.array_equal(Y, Y.T)
    assert np.array_equal(D[:, None] * T[N:, :N], Y.T)
    for (diag, off), block in zip(angular._parity_blocks(mode, spec, par), (X + Y, X - Y)):
        assert np.array_equal(angular._tridiag(off, diag, off), block)


def assert_pairs_match_the_dense_solve(pairs, T):
    # oracle: eigh of the whole 2N x 2N matrix.  An eigenvector moves by
    # about the rounding of T (eps max|xi|) over its gap to the rest of the
    # spectrum; the largest miss measured is 0.8 of that
    vals, vecs = np.linalg.eigh(T)
    sel = np.argsort(np.abs(vals))[:len(pairs)]
    sel = sel[np.argsort(vals[sel])]
    xi = np.array([p.xi for p in pairs])
    assert np.all(np.abs(xi - vals[sel]) <= 1e-13 * np.maximum(1.0, np.abs(xi)))
    scale = np.abs(vals).max()
    for p, j in zip(pairs, sel):
        gap = np.abs(np.delete(vals, j) - vals[j]).min()
        ref = vecs[:, j]
        miss = min(np.abs(p.coeffs - ref).max(), np.abs(p.coeffs + ref).max())
        assert miss <= 16 * np.finfo(float).eps * scale / gap


# a = 0.9 and omega = 20: the 32 x 32 corners do not certify the eight pairs
# of smallest |xi|, the 64 x 64 ones do (test_eigh_sees_the_leading_corners)
LARGE_A_OMEGA = (ModeParams(omega=20.0, k=7.5, m=0.55, xi=0.0), DiscretizationSpec(N=256),
                 SpacetimeParams(M=1.0, a=0.9, Q=0.3))


def _dense_cases():
    for N in (16, 64, 256):
        for k in (0.5, -0.5, 1.5, 7.5, -40.5):
            yield pytest.param(*_random_case(N, k), 8, id=f"{k}-{N}")
    yield pytest.param(*LARGE_A_OMEGA, 8, id="a0.9-omega20")
    yield pytest.param(*_random_case(64, 1.5), 64, id="count-N")


@pytest.mark.parametrize("mode, spec, par, count", _dense_cases())
def test_eigenpairs_match_the_dense_solve(mode, spec, par, count):
    pairs = angular_eigenpairs(mode, spec, par, count=count)
    assert_pairs_match_the_dense_solve(pairs, discretize_angular(mode, spec, par))


@pytest.mark.parametrize("N", [128, 256])
def test_self_convergence_mode_matches_the_dense_solve(N):
    # N = 128 and N = 256 take the same certified 32 x 32 corners, so their
    # agreement (test_self_convergence_doubling, criterion 6) holds by
    # construction; each is checked here against its own dense 2N x 2N solve
    mode = ModeParams(omega=1.1, k=1.5, m=0.5, xi=0.0)
    spec = DiscretizationSpec(N=N)
    assert_pairs_match_the_dense_solve(angular_eigenpairs(mode, spec, PAR, count=6),
                                       discretize_angular(mode, spec, PAR))


@pytest.mark.parametrize("N", [64, 256])
def test_tunnelling_doublets_are_not_a_degeneracy(N):
    # the CLI's mode at omega = 40: the blocks' four eigenvalues of smallest
    # |xi| agree to rounding, one of each parity, which is no degeneracy of
    # either block (`kndirac angular --omega 40` used to exit 3 on them)
    mode = ModeParams(omega=40.0, k=0.5, m=0.55, xi=0.0)
    spec = DiscretizationSpec(N=N)
    pairs = angular_eigenpairs(mode, spec, PAR, count=8)
    D = (-1.0) ** np.arange(N)
    parity = []
    for p in pairs:
        v, w = p.coeffs[:N], p.coeffs[N:]  # [v; +-D v] / sqrt 2
        assert np.array_equal(w, D * v) or np.array_equal(w, -D * v)
        parity.append(np.array_equal(w, D * v))
    xi = np.array([p.xi for p in pairs])
    for j in range(0, 8, 2):
        assert abs(xi[j + 1] - xi[j]) <= 1e-13 * abs(xi[j]) and parity[j] != parity[j + 1]
    vals = np.linalg.eigvalsh(discretize_angular(mode, spec, PAR))
    ref = np.sort(vals[np.argsort(np.abs(vals))[:8]])
    assert np.all(np.abs(xi - ref) <= 1e-13 * np.maximum(1.0, np.abs(xi)))


def test_degeneracy_is_tested_within_each_parity_block(monkeypatch):
    # bands given through the `_parity_blocks` seam.  One block's spectrum
    # again in the other makes four doublets across the blocks, which pass;
    # a block split by a zero off-diagonal into two halves whose diagonals
    # differ by 1e-12 holds each eigenvalue twice, 1e-12 apart, and raises
    N = 64
    mode, spec = ModeParams(omega=1.3, k=0.5, m=0.55, xi=0.0), DiscretizationSpec(N=N)
    off = np.full(N - 1, 0.01)
    chain = np.arange(N, dtype=float) + 10.0, off
    monkeypatch.setattr(angular, "_parity_blocks", lambda mode, spec, params: (chain, chain))
    xi = [p.xi for p in angular_eigenpairs(mode, spec, PAR, count=8)]
    assert xi[0::2] == xi[1::2]
    half = np.arange(N // 2, dtype=float) + 10.0
    split = off.copy()
    split[N // 2 - 1] = 0.0
    twice = np.concatenate([half, half + 1e-12]), split
    monkeypatch.setattr(angular, "_parity_blocks", lambda mode, spec, params: (twice, (-chain[0], off)))
    with pytest.raises(ArithmeticError, match="degenerate angular eigenvalues"):
        angular_eigenpairs(mode, spec, PAR, count=8)


def _recorded_eigh(monkeypatch):
    shapes, eigh = [], np.linalg.eigh

    def recorded(a):
        shapes.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    return shapes


def test_eigh_takes_only_the_n_by_n_blocks(monkeypatch):
    shapes = _recorded_eigh(monkeypatch)
    mode, spec, par = _random_case(64, 1.5)
    angular_eigenpairs(mode, spec, par, count=8)
    assert shapes and all(s[0] <= 64 and s[1] <= 64 for s in shapes)


# the four angular modes of the benchmark's spectrum_cli workload (the CLI's
# defaults with N and k as given), then the large a omega mode
@pytest.mark.parametrize("mode, spec, par, corners", [
    (ModeParams(omega=1.3, k=0.5, m=0.55, xi=0.0), DiscretizationSpec(N=64), PAR, [32]),
    (ModeParams(omega=1.3, k=1.5, m=0.55, xi=0.0), DiscretizationSpec(N=128), PAR, [32]),
    (ModeParams(omega=1.3, k=1.5, m=0.55, xi=0.0), DiscretizationSpec(N=256), PAR, [32]),
    (ModeParams(omega=1.3, k=-40.5, m=0.55, xi=0.0), DiscretizationSpec(N=256), PAR, [32]),
    (*LARGE_A_OMEGA, [32, 64]),
], ids=["N64-k0.5", "N128-k1.5", "N256-k1.5", "N256-k-40.5", "a0.9-omega20"])
def test_eigh_sees_the_leading_corners(monkeypatch, mode, spec, par, corners):
    shapes = _recorded_eigh(monkeypatch)
    angular_eigenpairs(mode, spec, par, count=8)
    assert shapes == [(M, M) for M in corners for _ in ("even", "odd")]


def test_sturm_count_finds_an_eigenvalue_past_the_leading_corner(monkeypatch):
    # bands whose smallest |xi|, 0.1, sits at row 200.  The pairs of the
    # 32 x 32 corners pass the residual check (their last entries are about
    # 0.01^24), so only the Sturm count can reject them; the corners then
    # grow to N, and the answer is the dense solve of each block, bitwise
    N = 256
    n = np.arange(N, dtype=float)
    off = np.full(N - 1, 0.01)
    even_diag = n + 10.0
    even_diag[200] = 0.1
    bands = (even_diag, off), (-(n + 10.5), off)
    blocks = [angular._tridiag(e, d, e) for d, e in bands]
    monkeypatch.setattr(angular, "_parity_blocks", lambda mode, spec, params: bands)
    shapes = _recorded_eigh(monkeypatch)
    mode = ModeParams(omega=1.3, k=0.5, m=0.55, xi=0.0)
    pairs = angular_eigenpairs(mode, DiscretizationSpec(N=N), PAR, count=8)
    assert shapes[-1] == (N, N)
    vals, vecs = zip(*(np.linalg.eigh(B) for B in blocks))
    vals, vecs = np.concatenate(vals), np.concatenate(vecs, axis=1)
    sel = np.argsort(np.abs(vals))[:8]
    sel = sel[np.argsort(vals[sel])]
    assert [p.xi for p in pairs] == vals[sel].tolist()
    assert min(abs(p.xi) for p in pairs) == pytest.approx(0.1, abs=1e-4)
    for p, j in zip(pairs, sel):
        v = np.abs(vecs[:, j]) / math.sqrt(2.0)
        assert np.array_equal(np.abs(p.coeffs), np.concatenate([v, v]))


@pytest.mark.parametrize("k", [0.5, -1.5, 7.5, -40.5])
def test_recurrence_matches_eval_jacobi(k):
    N = 256
    ref = ReferenceBasis(k, N)
    theta = np.pi * (np.arange(129) + 0.5) / 129
    for comp, (a, b) in enumerate([(ref.A, ref.B), (ref.B, ref.A)]):
        F, F_ref = _basis_values(a, b, N, theta), ref.values(theta, comp)
        assert np.all(np.abs(F - F_ref) <= 1e-11 * np.abs(F_ref).max(axis=0))


@pytest.mark.parametrize("k", [0.5, -2.5, 7.5, -40.5])
def test_spectrum_at_zero_spin_closed_form(k):
    # a = 0: xi = +-(|k| + 1/2 + n), n = 0, 1, ...
    mode = ModeParams(omega=1.3, k=k, m=0.55, xi=0.0)
    N = 64
    pairs = angular_eigenpairs(mode, DiscretizationSpec(N=N), SpacetimeParams(M=1.0, Q=0.3), count=N)
    levels = abs(k) + 0.5 + np.arange(N // 2)
    expected = np.concatenate([-levels[::-1], levels])
    assert np.all(np.abs(np.array([p.xi for p in pairs]) - expected) <= 1e-13 * np.abs(expected))


def test_eigenfunction_sign_stable_under_rounding(monkeypatch):
    # Y must not change sign when the matrix moves by rounding: swap in the
    # quadrature oracle, which differs from the closed form by about 1e-12
    rng = np.random.default_rng(8)
    spec = DiscretizationSpec(N=48)
    cases = []
    for _ in range(120):
        par = random_slow_params(rng)
        mode = ModeParams(omega=float(rng.uniform(-1.5, 1.5)), k=float(rng.integers(-3, 3) + 0.5),
                          m=float(rng.uniform(0, 1)), xi=0.0)
        cases.append((par, mode, angular_eigenpairs(mode, spec, par, count=8)))

    # the bands of the fold of the quadrature oracle, in place of those built
    # from d_n, e_n
    def reference_parity_blocks(mode, spec, params):
        T = reference_galerkin_matrix(mode, spec, params)
        N = spec.N
        X, Y = T[:N, :N], T[:N, N:] * (-1.0) ** np.arange(N)
        return [(np.diagonal(B), np.diagonal(B, 1)) for B in (X + Y, X - Y)]

    monkeypatch.setattr(angular, "_parity_blocks", reference_parity_blocks)
    for par, mode, pairs in cases:
        for p, q in zip(pairs, angular_eigenpairs(mode, spec, par, count=8)):
            assert np.abs(p.Y - q.Y).max() < 1e-9


def test_eigenvalues_real_and_normalized():
    mode = ModeParams(omega=1.3, k=0.5, m=0.55, xi=0.0)
    pairs = angular_eigenpairs(mode, DiscretizationSpec(N=96), PAR, count=6)
    th, wq = gl_grid()
    for p in pairs:
        assert abs(np.imag(p.xi)) == 0.0  # real by symmetric construction
        Y = eigenfunction_values(p, mode, th)
        norm = sin_measure_inner(th, wq, Y, Y)
        assert abs(norm - 1.0) < 1e-8


def test_orthogonality_gram_matrix():
    mode = ModeParams(omega=1.0, k=1.5, m=0.4, xi=0.0)
    pairs = angular_eigenpairs(mode, DiscretizationSpec(N=96), PAR, count=6)
    th, wq = gl_grid()
    Ys = [eigenfunction_values(p, mode, th) for p in pairs]
    G = np.array([[sin_measure_inner(th, wq, Ya, Yb) for Yb in Ys] for Ya in Ys])
    assert np.abs(G - np.eye(6)).max() < 1e-8


def test_omega_independence_at_zero_spin():
    par = SpacetimeParams(M=1.0, Q=0.3)
    spec = DiscretizationSpec(N=48)
    ref = None
    for om in (0.0, 1.0, 5.0):
        mode = ModeParams(omega=om, k=0.5, m=0.7, xi=0.0)
        xs = np.array([p.xi for p in angular_eigenpairs(mode, spec, par, count=6)])
        if ref is None:
            ref = xs
        assert np.abs(xs - ref).max() < 1e-8


def test_branch_indices_symmetric():
    mode = ModeParams(omega=0.9, k=0.5, m=0.2, xi=0.0)
    pairs = angular_eigenpairs(mode, DiscretizationSpec(N=48), PAR, count=8)
    ns = [p.n for p in pairs]
    assert ns == sorted(ns)
    assert set(ns) == {-4, -3, -2, -1, 1, 2, 3, 4}


def test_nondegenerate_gaps_random_modes():
    rng = np.random.default_rng(43)
    spec = DiscretizationSpec(N=48)
    for _ in range(50):
        par = random_slow_params(rng)
        k = rng.integers(-3, 3) + 0.5
        mode = ModeParams(omega=float(rng.uniform(-1.5, 1.5)), k=float(k),
                          m=float(rng.uniform(0, 1)), xi=0.0)
        xs = np.array([p.xi for p in angular_eigenpairs(mode, spec, par, count=10)])
        assert np.min(np.diff(np.sort(xs))) > 1e-6


def test_continuation_constant_at_zero_spin():
    par = SpacetimeParams(M=1.0, Q=0.3)
    mode = ModeParams(omega=0.0, k=0.5, m=0.3, xi=0.0)
    track = xi_continuation(np.linspace(0.0, 2.0, 9), mode, DiscretizationSpec(N=32), par)
    assert np.ptp(track) < 1e-10


def test_continuation_smooth_and_reversible():
    mode = ModeParams(omega=0.0, k=0.5, m=0.0, xi=0.0)
    spec = DiscretizationSpec(N=48)
    # a*omega sweep over [0, 0.5]: omega in [0, 0.5/a]
    oms = np.linspace(0.0, 0.5 / PAR.a, 21)
    fwd = xi_continuation(oms, mode, spec, PAR, branch_n=1)
    bwd = xi_continuation(oms[::-1], mode, spec, PAR, branch_n=1)
    # reversing the sweep recovers the same branch values
    # (match the backward track at its final point to the forward start)
    assert abs(bwd[-1] - fwd[0]) < 1e-8
    assert np.abs(bwd[::-1] - fwd).max() < 1e-8
    # smoothness proxy: bounded second differences
    d2 = np.diff(fwd, 2) / (oms[1] - oms[0]) ** 2
    assert np.abs(d2).max() < 10.0


def test_spec_validation():
    with pytest.raises(ValueError):
        DiscretizationSpec(N=4)
    mode = ModeParams(omega=0.5, k=0.5, m=0.1, xi=0.0)
    with pytest.raises(ValueError):
        angular_eigenpairs(mode, DiscretizationSpec(N=8), PAR, count=64)
