import math

import numpy as np
import pytest

from kndirac.geometry import (
    BLPoint,
    SpacetimeParams,
    azimuthal_shift,
    azimuthal_shift_derivative,
    bl_metric,
    bl_to_ef_jacobian,
    delta_sigma,
    ef_metric,
    horizons,
    interior_offset,
    inverse_metric,
    metric,
    temporal_minors,
    tortoise,
    tortoise_derivative,
    tortoise_inverse,
)

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)


def test_horizons_schwarzschild():
    h = horizons(SpacetimeParams(M=1.0))
    assert h.r_minus == 0.0
    assert h.r_plus == 2.0


def test_horizons_kerr():
    h = horizons(SpacetimeParams(M=1.0, a=0.6))
    assert math.isclose(h.r_minus, 0.2, abs_tol=1e-15)
    assert math.isclose(h.r_plus, 1.8, abs_tol=1e-15)


def test_horizons_kerr_newman():
    h = horizons(SpacetimeParams(M=1.0, a=0.6, Q=0.48))
    assert math.isclose(h.r_minus, 0.36, abs_tol=1e-15)
    assert math.isclose(h.r_plus, 1.64, abs_tol=1e-15)


@pytest.mark.parametrize("a,Q", [(1.0, 0.0), (0.8, 0.6), (0.0, 1.0), (0.9, 0.9)])
def test_extremal_rejected(a, Q):
    with pytest.raises(ValueError):
        SpacetimeParams(M=1.0, a=a, Q=Q)


def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError):
        SpacetimeParams(M=0.0)


def test_delta_vanishes_on_horizons_random_params():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        M = rng.uniform(0.5, 3.0)
        while True:
            a, Q = rng.uniform(-0.9, 0.9, 2) * M
            if a * a + Q * Q < 0.98 * M * M:
                break
        par = SpacetimeParams(M=M, a=a, Q=Q)
        for r in (par.r_plus, par.r_minus):
            d, _ = delta_sigma(r, 1.0, par)
            assert abs(d) < 1e-12 * M * M


def test_delta_sigma_values():
    par = SpacetimeParams(M=1.0, a=0.6)
    d, s = delta_sigma(2.0, math.pi / 2, par)
    assert math.isclose(d, 0.36, abs_tol=1e-14)
    assert math.isclose(s, 4.0, abs_tol=1e-14)
    d, s = delta_sigma(1.0, 0.0, par)
    assert math.isclose(d, -0.64, abs_tol=1e-14)
    assert math.isclose(s, 1.36, abs_tol=1e-14)


def test_tortoise_schwarzschild_value():
    par = SpacetimeParams(M=1.0)
    assert math.isclose(tortoise(4.0, par), 4.0 + 2.0 * math.log(2.0), rel_tol=1e-15)


def test_tortoise_diverges_at_outer_horizon():
    vals = [tortoise(PAR.r_plus + 10.0**-p, PAR) for p in (2, 4, 6, 8)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < -20


def test_tortoise_derivative_matches_finite_difference():
    par = SpacetimeParams(M=1.0, a=0.6)
    h = 1e-6
    fd = (tortoise(3.0 + h, par) - tortoise(3.0 - h, par)) / (2 * h)
    assert math.isclose(fd, tortoise_derivative(3.0, par), rel_tol=1e-9)


def test_tortoise_derivative_closed_form_on_grid():
    rs = np.linspace(PAR.r_plus + 0.1, 100.0, 400)
    h = 1e-6
    fd = (tortoise(rs + h, PAR) - tortoise(rs - h, PAR)) / (2 * h)
    d, _ = delta_sigma(rs, 0.0, PAR)
    closed = (rs * rs + PAR.a**2) / d
    assert np.max(np.abs(fd / closed - 1.0)) < 1e-6


def test_tortoise_inverse_roundtrip_exterior():
    r = tortoise_inverse(tortoise(4.0, PAR), "exterior", PAR)
    assert abs(r - 4.0) < 1e-12


@pytest.mark.parametrize("rstar,r_ref", [(-40.0, 1.7416198612243807), (-30.0, 1.741620839074741)])
def test_tortoise_inverse_near_horizon_floor(rstar, r_ref):
    # r_ref: the root reached when the Newton loop ran all 200 iterations;
    # stopping at the conditioning floor must land on the same root
    r = tortoise_inverse(rstar, "exterior", PAR)
    assert abs(r - r_ref) <= 1e-14 * r_ref
    delta, _ = delta_sigma(r, 0.0, PAR)
    f_floor = 64.0 * 2.3e-16 * (r * r + PAR.a**2) / abs(delta) * r
    assert abs(tortoise(r, PAR) - rstar) <= 1e-10 * max(1.0, abs(rstar)) + f_floor


def test_tortoise_inverse_far_field_window():
    par = SpacetimeParams(M=1.0)
    r = tortoise_inverse(1e6, "exterior", par)
    assert 1e6 - 50 < r < 1e6


def test_tortoise_inverse_interior_near_cauchy():
    r = tortoise_inverse(1e3, "interior", PAR)
    assert abs(r - PAR.r_minus) < 1e-6


def test_tortoise_roundtrip_both_branches():
    rng = np.random.default_rng(3)
    r_ext = PAR.r_plus + 10.0 ** rng.uniform(-2, 2, 50)
    for r in r_ext:
        back = tortoise_inverse(tortoise(r, PAR), "exterior", PAR)
        assert abs(back - r) < 1e-10 * max(1.0, r)
    r_int = PAR.r_minus + (PAR.r_plus - PAR.r_minus) * rng.uniform(0.05, 0.95, 50)
    for r in r_int:
        back = tortoise_inverse(tortoise(r, PAR), "interior", PAR)
        assert abs(back - r) < 1e-10


def test_interior_offset_deep_tail():
    eps = interior_offset(40.0, PAR)
    # consistency in log space where direct subtraction would underflow
    kp = (PAR.r_plus**2 + PAR.a**2) / (PAR.r_plus - PAR.r_minus)
    km = (PAR.r_minus**2 + PAR.a**2) / (PAR.r_plus - PAR.r_minus)
    rs = PAR.r_minus + eps + kp * math.log(PAR.r_plus - PAR.r_minus - eps) - km * math.log(eps)
    assert abs(rs - 40.0) < 1e-10
    assert eps < 1e-20


def test_azimuthal_shift_zero_spin():
    par = SpacetimeParams(M=1.0, Q=0.3)
    assert azimuthal_shift(5.0, par) == 0.0


def test_azimuthal_shift_value():
    par = SpacetimeParams(M=1.0, a=0.6)
    expect = (0.6 / 1.6) * math.log(0.2 / 1.8)
    assert math.isclose(azimuthal_shift(2.0, par), expect, rel_tol=1e-14)


def test_azimuthal_shift_derivative_matches_finite_difference():
    # d phitilde / dr = + a / Delta for the shift as defined; the ingoing
    # Boyer-Lindquist angle obeys d phi / dr = - a / Delta = -(d phitilde/dr),
    # which is what makes phihat = phi + phitilde constant along ingoing rays.
    par = SpacetimeParams(M=1.0, a=0.6)
    h = 1e-6
    fd = (azimuthal_shift(3.0 + h, par) - azimuthal_shift(3.0 - h, par)) / (2 * h)
    d, _ = delta_sigma(3.0, 0.0, par)
    assert math.isclose(fd, par.a / d, rel_tol=1e-8)
    assert math.isclose(azimuthal_shift_derivative(3.0, par), par.a / d, rel_tol=1e-15)


def test_ef_metric_schwarzschild_at_horizon():
    par = SpacetimeParams(M=1.0)
    g = ef_metric(2.0, 1.2, par)
    assert abs(g[0, 0]) < 1e-15  # 1 - 2M/r at r = 2M
    assert math.isclose(g[0, 1], -1.0, abs_tol=1e-15)  # -2M/r finite
    assert np.all(np.isfinite(g))


def test_metric_pullback_consistency():
    # EF components pulled back through tau = t + rstar - r, phihat = phi + phitilde
    # must reproduce the BL components.
    r, th = 3.0, 1.0
    J = bl_to_ef_jacobian(r, PAR)
    gE = ef_metric(r, th, PAR)
    gB = bl_metric(r, th, PAR)
    assert np.abs(J.T @ gE @ J - gB).max() < 1e-10


def test_metric_determinant():
    par = SpacetimeParams(M=1.0, a=0.6)
    r, th = 2.0, math.pi / 2
    _, sigma = delta_sigma(r, th, par)
    det = np.linalg.det(ef_metric(r, th, par))
    assert math.isclose(det, -(sigma**2) * math.sin(th) ** 2, rel_tol=1e-12)


def test_metric_symmetry_and_chart_dispatch():
    p = BLPoint(3.0, 1.0)
    for chart in ("BL", "EF"):
        g = metric(p, chart, PAR)
        assert np.abs(g - g.T).max() == 0.0
    with pytest.raises(ValueError):
        metric(p, "KS", PAR)


def test_ef_finite_bl_divergent_at_horizon():
    th = 1.0
    g_ef_h = ef_metric(PAR.r_plus, th, PAR)
    assert np.all(np.isfinite(g_ef_h))
    g_bl_near = bl_metric(PAR.r_plus + 1e-7, th, PAR)
    assert abs(g_bl_near[1, 1]) > 1e6


def test_signature_split():
    rng = np.random.default_rng(5)
    for _ in range(50):
        r = PAR.r_plus + 10.0 ** rng.uniform(-1, 2)
        th = rng.uniform(0.1, math.pi - 0.1)
        for g in (bl_metric(r, th, PAR), ef_metric(r, th, PAR)):
            ev = np.linalg.eigvalsh(g)
            assert np.sum(ev > 0) == 1 and np.sum(ev < 0) == 3
        # interior point: EF only
        r_in = PAR.r_minus + (PAR.r_plus - PAR.r_minus) * rng.uniform(0.1, 0.9)
        ev = np.linalg.eigvalsh(ef_metric(r_in, th, PAR))
        assert np.sum(ev > 0) == 1 and np.sum(ev < 0) == 3


def test_inverse_metric():
    p = BLPoint(2.5, 0.8)
    g = metric(p, "EF", PAR)
    ginv = inverse_metric(p, "EF", PAR)
    assert np.abs(g @ ginv - np.eye(4)).max() < 1e-12


def test_temporal_minors_positive_at_sample():
    d1, d2, d3 = temporal_minors(3.0, math.pi / 2, SpacetimeParams(M=1.0, a=0.6))
    assert d1 > 0 and d2 > 0 and d3 > 0


def test_temporal_minors_match_submatrix_determinants():
    # the closed forms are the actual leading principal minors of
    # A = -g_EF|_{tau = const} in the (r, phihat, theta) basis
    rng = np.random.default_rng(11)
    for _ in range(25):
        r = PAR.r_minus + 10.0 ** rng.uniform(-2, 2)
        th = rng.uniform(0.1, math.pi - 0.1)
        A = -ef_metric(r, th, PAR)[np.ix_([1, 3, 2], [1, 3, 2])]
        d1, d2, d3 = temporal_minors(r, th, PAR)
        assert math.isclose(d1, A[0, 0], rel_tol=1e-12)
        assert math.isclose(d2, np.linalg.det(A[:2, :2]), rel_tol=1e-10)
        assert math.isclose(d3, np.linalg.det(A), rel_tol=1e-10)


def test_temporal_minor_closed_forms():
    # d2 = sin^2(theta) (Sigma + 2 M r - Q^2): the angular factor is dropped in
    # the printed value, which coincides with ours at theta = pi/2; d3 = Sigma d2
    # holds identically.
    r, th = 2.2, math.pi / 2
    _, sigma = delta_sigma(r, th, PAR)
    d1, d2, d3 = temporal_minors(r, th, PAR)
    core = sigma + 2 * PAR.M * r - PAR.Q**2
    assert math.isclose(d2, core, rel_tol=1e-14)
    assert math.isclose(d3, sigma * d2, rel_tol=1e-14)
    r, th = 1.3, 0.7
    _, sigma = delta_sigma(r, th, PAR)
    d1, d2, d3 = temporal_minors(r, th, PAR)
    assert math.isclose(d2 / math.sin(th) ** 2, sigma + 2 * PAR.M * r - PAR.Q**2, rel_tol=1e-14)
    assert math.isclose(d3, sigma * d2, rel_tol=1e-14)


def test_temporal_minors_positive_on_grid():
    rs = np.linspace(PAR.r_minus + 1e-6, 100.0, 200)
    ths = np.linspace(0.01, math.pi - 0.01, 50)
    R, T = np.meshgrid(rs, ths)
    d1, d2, d3 = temporal_minors(R, T, PAR)
    assert np.all(d1 > 0) and np.all(d2 > 0) and np.all(d3 > 0)


def test_blpoint_validates_theta():
    with pytest.raises(ValueError):
        BLPoint(3.0, 0.0)
    with pytest.raises(ValueError):
        BLPoint(3.0, math.pi)


def test_bl_metric_raises_on_horizon():
    with pytest.raises(ValueError):
        bl_metric(PAR.r_plus, 1.0, PAR)


def test_tortoise_inverse_invalid_region():
    with pytest.raises(ValueError):
        tortoise_inverse(1.0, "inside", PAR)
