import math
from itertools import permutations

import numpy as np
import pytest
from conftest import assert_batch_matches_pointwise, random_batch, random_regular_point, random_slow_params

from kndirac.dirac import (
    SPIN_MATRIX,
    assembled_dirac_stencil,
    b_term_closed,
    b_term_numeric,
    conjugated_stencil_numeric,
    dirac_stencil,
    gamma_weyl,
    general_dirac_matrices,
    spin_inner,
    transform_stencil,
)
from kndirac.geometry import BLPoint, SpacetimeParams, delta_sigma, inverse_metric
from kndirac.tetrads import OrthonormalTetrad, orthonormal_bl, orthonormal_u_ef

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
ETA = np.diag([1.0, -1.0, -1.0, -1.0])
GAM = gamma_weyl()


def anticommutator(A, B):
    return A @ B + B @ A


def test_gamma_clifford_exact():
    for a in range(4):
        for b in range(4):
            res = 0.5 * anticommutator(GAM.gamma[a], GAM.gamma[b]) - ETA[a, b] * np.eye(4)
            assert np.abs(res).max() == 0.0


def test_gamma_timelike_square():
    assert np.array_equal(0.5 * anticommutator(GAM.gamma[0], GAM.gamma[0]), np.eye(4))


def test_gamma_offdiagonal_anticommutes():
    assert np.abs(0.5 * anticommutator(GAM.gamma[1], GAM.gamma[2])).max() == 0.0


def test_gamma_entries_are_unit_gaussian_integers():
    for g in GAM.gamma:
        vals = set(np.round(g.flatten(), 12).tolist())
        assert vals <= {0, 1, -1, 1j, -1j}


def test_gamma0_block_structure():
    I2 = np.eye(2)
    assert np.array_equal(GAM.gamma[0][:2, 2:], -I2)
    assert np.array_equal(GAM.gamma[0][2:, :2], -I2)
    assert np.abs(GAM.gamma[0][:2, :2]).max() == 0.0


def test_gamma5_from_product():
    g5 = 1j * GAM.gamma[0] @ GAM.gamma[1] @ GAM.gamma[2] @ GAM.gamma[3]
    assert np.array_equal(g5, GAM.gamma5)
    assert np.array_equal(g5 @ g5, np.eye(4))
    for g in GAM.gamma:
        assert np.abs(anticommutator(g5, g)).max() == 0.0
    assert np.array_equal(np.diag(GAM.gamma5), np.array([-1, -1, 1, 1], dtype=complex))


def test_curved_gamma5_constant_across_points():
    # rho = (i/4!) eps_{jklm} G^j G^k G^l G^m with the metric Levi-Civita
    # tensor is point-independent
    rng = np.random.default_rng(17)
    vals = []
    for _ in range(100):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        p = BLPoint(r, th)
        G = general_dirac_matrices(orthonormal_u_ef(p, par)[0])
        _, sigma = delta_sigma(r, th, par)
        sg = sigma * math.sin(th)
        rho = np.zeros((4, 4), complex)
        for perm in permutations(range(4)):
            sgn = 1
            q = list(perm)
            for i in range(4):
                for j in range(i + 1, 4):
                    if q[i] > q[j]:
                        sgn = -sgn
            rho += sgn * G[perm[0]] @ G[perm[1]] @ G[perm[2]] @ G[perm[3]]
        rho *= 1j * sg / math.factorial(4)
        vals.append(rho)
    vals = np.array(vals)
    assert np.abs(vals - vals[0]).max() < 1e-9
    assert np.abs(np.abs(vals[0]) - np.abs(GAM.gamma5)).max() < 1e-10


def test_spin_inner_block_swap():
    psi = np.array([1, 0, 0, 0], complex)
    phi = np.array([0, 0, 1, 0], complex)
    assert spin_inner(psi, phi) == 1.0


def test_spin_inner_diagonal_vanishes():
    psi = np.array([1, 0, 0, 0], complex)
    assert spin_inner(psi, psi) == 0.0


def test_spin_inner_conjugate_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        phi = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert abs(spin_inner(psi, phi) - np.conj(spin_inner(phi, psi))) < 1e-14
    assert np.array_equal(SPIN_MATRIX, SPIN_MATRIX.conj().T)


def test_dirac_matrices_flat_limit():
    tet = OrthonormalTetrad(u=np.eye(4, dtype=complex), variance="vectors", chart="BL")
    G = general_dirac_matrices(tet)
    assert np.abs(G - GAM.gamma).max() == 0.0


def test_dirac_matrices_anticommutator_ef():
    p = BLPoint(3.0, 1.0)
    G = general_dirac_matrices(orthonormal_u_ef(p, PAR)[0])
    ginv = inverse_metric(p, "EF", PAR)
    for mu in range(4):
        for nu in range(4):
            res = 0.5 * anticommutator(G[mu], G[nu]) - ginv[mu, nu] * np.eye(4)
            assert np.abs(res).max() < 1e-10


def test_dirac_matrices_trace_identity():
    p = BLPoint(2.2, 0.9)
    G = general_dirac_matrices(orthonormal_u_ef(p, PAR)[0])
    ginv = inverse_metric(p, "EF", PAR)
    for mu in range(4):
        for nu in range(4):
            assert abs(np.trace(G[mu] @ G[nu]) - 4 * ginv[mu, nu]) < 1e-10


def test_dirac_matrices_both_charts_random():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(200):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        p = BLPoint(r, th)
        configs = [("EF", orthonormal_u_ef(p, par)[0])]
        if abs(delta_sigma(r, th, par)[0]) > 1e-6:
            configs.append(("BL", orthonormal_bl(p, par)))
        for chart, tet in configs:
            G = general_dirac_matrices(tet)
            ginv = inverse_metric(p, chart, par)
            for mu in range(4):
                for nu in range(mu, 4):
                    res = 0.5 * anticommutator(G[mu], G[nu]) - ginv[mu, nu] * np.eye(4)
                    worst = max(worst, np.abs(res).max())
    assert worst < 1e-9


@pytest.mark.parametrize("chart", ["EF", "BL"])
def test_dirac_matrices_and_inverse_metric_batched(chart):
    frame = {"EF": lambda p: orthonormal_u_ef(p, PAR)[0], "BL": lambda p: orthonormal_bl(p, PAR)}[chart]
    r, th = random_batch(np.random.default_rng(47), PAR)
    assert_batch_matches_pointwise(lambda p: general_dirac_matrices(frame(p)), r, th)
    assert_batch_matches_pointwise(lambda p: inverse_metric(p, chart, PAR), r, th)


STENCIL = dirac_stencil(BLPoint(2.5, 1.1), PAR)
BATCHED = {
    "b_term_closed": lambda p: b_term_closed(p, PAR),
    "b_term_numeric": lambda p: b_term_numeric(p, PAR),
    "dirac_stencil": lambda p: dirac_stencil(p, PAR).coeffs,
    "assembled_dirac_stencil": lambda p: assembled_dirac_stencil(p, PAR).coeffs,
    "transform_stencil": lambda p: transform_stencil(p, PAR, 0.55).coeffs,
    # one fixed stencil, broadcast over the points: the stencil at each point
    # would make the zeroth order a cancellation down to the differences' own
    # rounding, where the last bit of the stencil shows
    "conjugated_stencil_numeric": lambda p: conjugated_stencil_numeric(STENCIL, p, PAR, 0.55).coeffs,
}


@pytest.mark.parametrize("name", BATCHED)
def test_spin_connection_and_stencils_batched(name):
    # a (3, 4) batch, 8 points outside r_plus and 4 between the horizons
    r, th = (x.reshape(3, 4) for x in random_batch(np.random.default_rng(53), PAR, n_exterior=8, n_between=4))
    assert_batch_matches_pointwise(BATCHED[name], r, th)


def test_transform_rejects_a_batch_reaching_the_horizon():
    r = np.array([[3.0, 1.5], [PAR.r_plus, 0.6]])
    with pytest.raises(ValueError):
        transform_stencil(BLPoint(r, np.full(r.shape, 1.0)), PAR, 0.5)


def _gamma5_coefficients(B):
    # B = sum_a c_a gamma^a + d_a gamma^a gamma5; Tr(gamma^a gamma^b) = 4 eta,
    # Tr(gamma^a gamma5 gamma^b gamma5) = -4 eta, mixed traces vanish
    return np.array([
        -ETA[a, a] * np.trace(GAM.gamma[a] @ GAM.gamma5 @ B) / 4.0 for a in range(4)
    ])


def test_b_term_gamma5_parts_vanish_at_zero_spin():
    par = SpacetimeParams(M=1.0, Q=0.3)
    B = b_term_closed(BLPoint(3.0, 1.0), par)
    assert np.abs(_gamma5_coefficients(B)).max() < 1e-15
    # and they are present once a != 0
    B = b_term_closed(BLPoint(3.0, 1.0), PAR)
    assert np.abs(_gamma5_coefficients(B)).max() > 1e-3


def test_b_term_equatorial_zeros():
    B = b_term_closed(BLPoint(3.0, math.pi / 2), PAR)
    # at theta = pi/2 only the (r-M), r-weighted gamma0/gamma3 terms and the
    # r a gamma1 gamma5 term survive
    delta, sigma = delta_sigma(3.0, math.pi / 2, PAR)
    rp = PAR.r_plus
    expect = (1j * (3.0 - PAR.M) / (2 * math.sqrt(sigma) * rp)) * (GAM.gamma[0] + GAM.gamma[3])
    expect += (1j * 3.0 / (4 * sigma**1.5 * rp)) * (
        (delta - rp**2) * GAM.gamma[0] + (delta + rp**2) * GAM.gamma[3]
    )
    expect += (3.0 * PAR.a / (2 * sigma**1.5)) * (GAM.gamma[1] @ GAM.gamma5)
    assert np.abs(B - expect).max() < 1e-15


def test_b_term_closed_vs_numeric_random():
    rng = np.random.default_rng(29)
    worst = 0.0
    for _ in range(50):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        p = BLPoint(r, th)
        worst = max(worst, np.abs(b_term_numeric(p, par, h=1e-5) - b_term_closed(p, par)).max())
    assert worst < 1e-6


def test_b_term_numeric_second_order():
    p = BLPoint(1.2, 0.7)  # curvature large enough that h=1e-5 beats rounding
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        errs.append(np.abs(b_term_numeric(p, PAR, h=h) - b_term_closed(p, PAR)).max())
    slope = np.polyfit(np.log10([1e-3, 1e-4, 1e-5]), np.log10(errs), 1)[0]
    assert 1.7 < slope < 2.3
    # halving h quarters the discrepancy
    e1 = np.abs(b_term_numeric(p, PAR, h=2e-4) - b_term_closed(p, PAR)).max()
    e2 = np.abs(b_term_numeric(p, PAR, h=1e-4) - b_term_closed(p, PAR)).max()
    assert abs(e1 / e2 - 4.0) < 0.4


def test_b_term_numeric_schwarzschild_chiral_free():
    # the Levi-Civita term carries a factor a: no gamma5 content at a = 0
    par = SpacetimeParams(M=1.0)
    B = b_term_numeric(BLPoint(3.0, 1.0), par, h=1e-5)
    assert np.abs(_gamma5_coefficients(B)).max() < 1e-9


def test_b_term_residual_at_specific_point():
    par = SpacetimeParams(M=1.0, a=0.6, Q=0.48)
    p = BLPoint(5.0, 0.7)
    assert np.abs(b_term_numeric(p, par, h=1e-5) - b_term_closed(p, par)).max() < 1e-6


def test_stencil_block_zeros():
    st = dirac_stencil(BLPoint(3.0, 1.0), PAR)
    for mu in range(5):
        assert np.abs(st.coeffs[mu][:2, :2]).max() == 0.0
        assert np.abs(st.coeffs[mu][2:, 2:]).max() == 0.0


def test_stencil_theta_coefficient():
    p = BLPoint(3.0, 1.0)
    st = dirac_stencil(p, PAR)
    _, sigma = delta_sigma(p.r, p.theta, PAR)
    expect = 1j * GAM.gamma[1] / math.sqrt(sigma)
    assert np.abs(st.coeffs[2] - expect).max() < 1e-15


def test_stencil_dual_assembly():
    rng = np.random.default_rng(37)
    for _ in range(25):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        p = BLPoint(r, th)
        st = dirac_stencil(p, par)
        sa = assembled_dirac_stencil(p, par)
        assert np.abs(st.coeffs - sa.coeffs).max() < 1e-10


def test_transform_diagonal_is_mass_term():
    p = BLPoint(3.0, 1.0)
    m = 0.7
    tr = transform_stencil(p, PAR, m)
    Z = tr.mode_zeroth(omega=1.1, k=0.5)
    dlt = p.r + 1j * PAR.a * math.cos(p.theta)
    expect = np.array([1j * dlt * m, -1j * dlt * m, -1j * np.conj(dlt) * m, 1j * np.conj(dlt) * m])
    assert np.abs(np.diag(Z) - expect).max() < 1e-14


def test_transform_massless_diagonal_vanishes():
    p = BLPoint(2.1, 0.8)
    tr = transform_stencil(p, PAR, 0.0)
    for mu in range(5):
        assert np.abs(np.diag(tr.coeffs[mu])).max() == 0.0


def test_transform_matches_conjugation_oracle():
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(20):
        par = random_slow_params(rng)
        r, th = random_regular_point(rng, par)
        if abs(delta_sigma(r, th, par)[0]) < 1e-3:
            continue
        p = BLPoint(r, th)
        m = rng.uniform(0.0, 1.0)
        st = dirac_stencil(p, par)
        tr = transform_stencil(p, par, m)
        orc = conjugated_stencil_numeric(st, p, par, m, h=1e-5)
        worst = max(worst, np.abs(tr.coeffs - orc.coeffs).max())
    assert worst < 1e-6


def test_transform_rejects_horizon():
    p = BLPoint(PAR.r_plus, 1.0)
    with pytest.raises(ValueError):
        transform_stencil(p, PAR, 0.5)
