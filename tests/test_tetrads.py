import math

import numpy as np
import pytest
from conftest import assert_batch_matches_pointwise, random_batch, random_slow_params

from kndirac.geometry import BLPoint, SpacetimeParams, bl_metric, delta_sigma, ef_metric
from kndirac.tetrads import (
    NullTetrad,
    OrthonormalTetrad,
    _gram,
    ef_null_tetrad,
    np_condition_residual,
    orthonormal_bl,
    orthonormal_from_null,
    orthonormal_u_ef,
    symmetric_bl_tetrad,
)

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
MINK = np.diag([1.0, -1.0, -1.0, -1.0])


# ---------------------------------------------------------------------------
# Test-only frame operations: independent routes to the closed-form frames of
# kndirac.tetrads (Gram-Schmidt, the BL -> EF chart change and the class-3
# rotation that regularizes the frame at the horizon).

def metric_pairing(g, x, y):
    """Bilinear pairing g_{mu nu} x^mu y^nu (no complex conjugation), per point."""
    return (x[..., None, :] @ g @ y[..., :, None])[..., 0, 0]


def dyad_metric_residual(tet, g):
    """Largest violation of g(u_a, u_b) = eta_ab, per point."""
    return np.max(np.abs(_gram(g, tet.u) - MINK), axis=(-2, -1))


def gram_schmidt_tetrad(frame, g):
    """Pseudo-orthonormalize four independent vectors against the metric g.

    The first vector must be timelike; it is normalized to g(u,u) = +1, the
    remaining three to -1.  Orthonormal input is returned unchanged up to
    rounding (idempotence).
    """
    frame = [np.asarray(v, dtype=complex) for v in frame]
    if metric_pairing(g, frame[0], frame[0]).real <= 0:
        raise ValueError("first frame vector must be timelike")
    out = []
    signs = [1.0, -1.0, -1.0, -1.0]
    for i, v in enumerate(frame):
        w = v.copy()
        for j, u in enumerate(out):
            w = w - signs[j] * metric_pairing(g, u, w) * u
        norm2 = metric_pairing(g, w, w)
        if abs(norm2) < 1e-14:
            raise ValueError("frame is degenerate (or null after projection)")
        if (norm2.real > 0) != (signs[i] > 0):
            raise ValueError(f"vector {i} has the wrong causal character")
        out.append(w / np.sqrt(abs(norm2)))
    return OrthonormalTetrad(u=np.array(out), variance="vectors", chart="BL")


def null_from_orthonormal(tet):
    """NP frame from an orthonormal tetrad: l,n from (u0 +- u3), m from u1 + i u2."""
    u0, u1, u2, u3 = np.moveaxis(tet.u, -2, 0)
    l = (u0 + u3) / math.sqrt(2.0)
    n = (u0 - u3) / math.sqrt(2.0)
    m = (u1 + 1j * u2) / math.sqrt(2.0)
    return NullTetrad(l=l, n=n, m=m, mbar=np.conj(m), variance=tet.variance, chart=tet.chart)


def class3_rotation(nt, C):
    """NP gauge rotation (l, n, m, mbar) -> (C l, n/C, (C/|C|) m, conj(C)/|C| mbar)."""
    C = complex(C)
    if C == 0:
        raise ValueError("class-3 rotation parameter must be nonzero")
    phase = C / abs(C)
    return NullTetrad(
        l=C * nt.l,
        n=nt.n / C,
        m=phase * nt.m,
        mbar=np.conj(phase) * nt.mbar,
        variance=nt.variance,
        chart=nt.chart,
    )


def bl_to_ef_vector(v, r, params):
    """Push a BL coordinate-basis vector into the horizon-penetrating chart."""
    delta, _ = delta_sigma(r, 0.0, params)
    out = np.array(v, dtype=complex)
    out[..., 0] = v[..., 0] + ((r * r + params.a**2) / delta - 1.0) * v[..., 1]
    out[..., 3] = v[..., 3] + (params.a / delta) * v[..., 1]
    return out


def bl_to_ef_form(w, r, params):
    """Pull a BL covector into the horizon-penetrating chart."""
    delta, _ = delta_sigma(r, 0.0, params)
    out = np.array(w, dtype=complex)
    out[..., 1] = (
        w[..., 1]
        - ((r * r + params.a**2) / delta - 1.0) * w[..., 0]
        - (params.a / delta) * w[..., 3]
    )
    return out


def transform_null_tetrad(nt, r, params):
    """Chart change BL -> EF of a whole NP frame (vectors or forms)."""
    if nt.chart != "BL":
        raise ValueError(f"expected chart BL, got {nt.chart}")
    mover = bl_to_ef_vector if nt.variance == "vectors" else bl_to_ef_form
    return NullTetrad(
        l=mover(nt.l, r, params),
        n=mover(nt.n, r, params),
        m=mover(nt.m, r, params),
        mbar=mover(nt.mbar, r, params),
        variance=nt.variance,
        chart="EF",
    )


# ---------------------------------------------------------------------------


def test_gram_schmidt_identity_on_minkowski():
    frame = [np.eye(4)[i] for i in range(4)]
    tet = gram_schmidt_tetrad(frame, MINK)
    assert np.abs(tet.u - np.eye(4)).max() < 1e-14


def test_gram_schmidt_on_ef_coordinate_frame():
    par = SpacetimeParams(M=1.0, a=0.6, Q=0.3)
    g = ef_metric(3.0, 1.0, par)
    frame = [np.eye(4)[i] for i in range(4)]
    tet = gram_schmidt_tetrad(frame, g)
    assert dyad_metric_residual(tet, g) < 1e-10


def test_gram_schmidt_idempotent():
    g = ef_metric(3.0, 1.0, PAR)
    tet = gram_schmidt_tetrad([np.eye(4)[i] for i in range(4)], g)
    again = gram_schmidt_tetrad(list(tet.u), g)
    assert np.abs(again.u - tet.u).max() < 1e-10


def test_gram_schmidt_rejects_degenerate_frame():
    frame = [np.eye(4)[0], np.eye(4)[1], np.eye(4)[1], np.eye(4)[3]]
    with pytest.raises(ValueError):
        gram_schmidt_tetrad(frame, MINK)


def test_gram_schmidt_rejects_spacelike_first_vector():
    frame = [np.eye(4)[1], np.eye(4)[0], np.eye(4)[2], np.eye(4)[3]]
    with pytest.raises(ValueError):
        gram_schmidt_tetrad(frame, MINK)


def test_null_from_orthonormal_minkowski_values():
    tet = OrthonormalTetrad(u=np.eye(4, dtype=complex), variance="vectors", chart="BL")
    nt = null_from_orthonormal(tet)
    s = 1 / math.sqrt(2)
    assert np.abs(nt.l - s * np.array([1, 0, 0, 1])).max() < 1e-15
    assert np.abs(nt.n - s * np.array([1, 0, 0, -1])).max() < 1e-15
    assert np.abs(nt.m - s * np.array([0, 1, 1j, 0])).max() < 1e-15
    assert np.abs(nt.mbar - np.conj(nt.m)).max() == 0.0


def test_null_orthonormal_roundtrip():
    vec, _ = ef_null_tetrad(BLPoint(2.4, 0.9), PAR)
    back = null_from_orthonormal(orthonormal_from_null(vec))
    for x, y in zip(back.vectors(), vec.vectors()):
        assert np.abs(x - y).max() < 1e-12


def test_np_conditions_random_points_both_constructions():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        par = random_slow_params(rng)
        r = par.r_plus + 10.0 ** rng.uniform(-1.5, 2)
        th = rng.uniform(0.1, math.pi - 0.1)
        p = BLPoint(r, th)
        nt = null_from_orthonormal(orthonormal_from_null(symmetric_bl_tetrad(p, par)))
        assert np_condition_residual(nt, bl_metric(r, th, par)) < 1e-10


def test_class3_identity():
    vec, _ = ef_null_tetrad(BLPoint(2.0, 1.1), PAR)
    rot = class3_rotation(vec, 1.0)
    for x, y in zip(rot.vectors(), vec.vectors()):
        assert np.abs(x - y).max() == 0.0


def test_class3_rejects_zero():
    vec, _ = ef_null_tetrad(BLPoint(2.0, 1.1), PAR)
    with pytest.raises(ValueError):
        class3_rotation(vec, 0.0)


def test_class3_preserves_np_conditions():
    rng = np.random.default_rng(2)
    g = ef_metric(2.7, 1.3, PAR)
    vec, _ = ef_null_tetrad(BLPoint(2.7, 1.3), PAR)
    for _ in range(100):
        C = complex(rng.normal(), rng.normal())
        if abs(C) < 1e-3:
            continue
        rot = class3_rotation(vec, C)
        assert np_condition_residual(rot, g) < 1e-12
        assert abs(metric_pairing(g, rot.l, rot.n) - 1.0) < 1e-12


def test_construction_chain_reproduces_ef_tetrad():
    # symmetric BL frame -> chart change -> class-3 rotation with
    # C = sqrt|Delta| / r_plus equals the closed-form horizon-regular frame
    rng = np.random.default_rng(4)
    for _ in range(25):
        par = random_slow_params(rng)
        r = par.r_plus + 10.0 ** rng.uniform(-1.5, 1.5)
        th = rng.uniform(0.1, math.pi - 0.1)
        p = BLPoint(r, th)
        delta, _ = delta_sigma(r, th, par)
        chain = class3_rotation(
            transform_null_tetrad(symmetric_bl_tetrad(p, par), r, par),
            math.sqrt(abs(delta)) / par.r_plus,
        )
        closed, _ = ef_null_tetrad(p, par)
        for x, y in zip(chain.vectors(), closed.vectors()):
            assert np.abs(x - y).max() < 1e-10


def test_symmetric_bl_tetrad_np_conditions():
    p = BLPoint(3.0, 1.0)
    nt = symmetric_bl_tetrad(p, PAR)
    assert np_condition_residual(nt, bl_metric(p.r, p.theta, PAR)) < 1e-10


def test_symmetric_bl_schwarzschild_null():
    par = SpacetimeParams(M=1.0)
    p = BLPoint(5.0, math.pi / 2)
    nt = symmetric_bl_tetrad(p, par)
    g = bl_metric(p.r, p.theta, par)
    assert abs(metric_pairing(g, nt.l, nt.l)) < 1e-15
    # l is the outgoing null direction: positive t and r components
    assert nt.l[0].real > 0 and nt.l[1].real > 0


def test_symmetric_bl_interior_sign_flip():
    th = 1.0
    r_in = 0.5 * (PAR.r_plus + PAR.r_minus)
    nt = symmetric_bl_tetrad(BLPoint(r_in, th), PAR)
    # eps(Delta) = -1 flips n's overall sign relative to the exterior form
    delta, sigma = delta_sigma(r_in, th, PAR)
    assert delta < 0
    raw = np.array([r_in**2 + PAR.a**2, -delta, 0.0, PAR.a]) / math.sqrt(2 * sigma * abs(delta))
    assert np.abs(nt.n + raw).max() < 1e-14
    assert np_condition_residual(nt, bl_metric(r_in, th, PAR)) < 1e-10


def test_symmetric_bl_rejects_horizon():
    with pytest.raises(ValueError):
        symmetric_bl_tetrad(BLPoint(PAR.r_plus, 1.0), PAR)


def test_ef_tetrad_np_conditions_at_horizon():
    p = BLPoint(PAR.r_plus, 1.0)
    vec, _ = ef_null_tetrad(p, PAR)
    assert np_condition_residual(vec, ef_metric(p.r, p.theta, PAR)) < 1e-10


def test_ef_tetrad_lowering_consistency():
    rng = np.random.default_rng(9)
    for _ in range(100):
        par = random_slow_params(rng)
        r = par.r_minus + 10.0 ** rng.uniform(-1.5, 2)
        th = rng.uniform(0.1, math.pi - 0.1)
        vec, forms = ef_null_tetrad(BLPoint(r, th), par)
        g = ef_metric(r, th, par)
        for x, y in zip(vec.vectors(), forms.vectors()):
            assert np.abs(g @ x - y).max() < 1e-10


def test_ef_tetrad_schwarzschild_l_components():
    par = SpacetimeParams(M=1.0)
    r, th = 2.0, 1.0  # at the horizon r = 2M
    delta, sigma = delta_sigma(r, th, par)
    vec, _ = ef_null_tetrad(BLPoint(r, th), par)
    f = 1.0 / (math.sqrt(2 * sigma) * par.r_plus)
    assert np.abs(vec.l - f * np.array([2 * r * r - delta, delta, 0, 0])).max() < 1e-14
    assert np.all(np.isfinite(vec.l))


def test_ef_tetrad_np_conditions_random():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        par = random_slow_params(rng)
        r = par.r_minus + 10.0 ** rng.uniform(-2, 2)
        th = rng.uniform(0.05, math.pi - 0.05)
        vec, _ = ef_null_tetrad(BLPoint(r, th), par)
        assert np_condition_residual(vec, ef_metric(r, th, par)) < 1e-10


def test_ef_tetrad_smooth_across_horizon():
    # bounded difference quotients across r_plus
    th = 1.1
    eps = 1e-6
    va, _ = ef_null_tetrad(BLPoint(PAR.r_plus + eps, th), PAR)
    vb, _ = ef_null_tetrad(BLPoint(PAR.r_plus - eps, th), PAR)
    for xa, xb in zip(va.vectors(), vb.vectors()):
        assert np.abs(xa - xb).max() / (2 * eps) < 1e2


def test_orthonormal_u1_exact():
    p = BLPoint(2.8, 0.7)
    uvec, _ = orthonormal_u_ef(p, PAR)
    _, sigma = delta_sigma(p.r, p.theta, PAR)
    assert np.abs(uvec.u[1] - np.array([0, 0, 1 / math.sqrt(sigma), 0])).max() < 1e-15


def test_orthonormal_matches_null_combination():
    rng = np.random.default_rng(13)
    for _ in range(50):
        par = random_slow_params(rng)
        r = par.r_minus + 10.0 ** rng.uniform(-1, 2)
        th = rng.uniform(0.1, math.pi - 0.1)
        p = BLPoint(r, th)
        uvec, uform = orthonormal_u_ef(p, par)
        g = ef_metric(r, th, par)
        assert dyad_metric_residual(uvec, g) < 1e-10
        for a in range(4):
            assert np.abs(g @ uvec.u[a] - uform.u[a]).max() < 1e-10


def test_orthonormal_timelike_at_horizon():
    p = BLPoint(PAR.r_plus, 1.0)
    uvec, _ = orthonormal_u_ef(p, PAR)
    g = ef_metric(p.r, p.theta, PAR)
    assert abs(metric_pairing(g, uvec.u[0], uvec.u[0]) - 1.0) < 1e-12
    assert dyad_metric_residual(uvec, g) < 1e-10


def test_chart_mixing_rejected():
    nt = symmetric_bl_tetrad(BLPoint(3.0, 1.0), PAR)
    ef = NullTetrad(l=nt.l, n=nt.n, m=nt.m, mbar=nt.mbar, variance="vectors", chart="EF")
    with pytest.raises(ValueError):
        transform_null_tetrad(ef, 3.0, PAR)


BATCHED = {
    "symmetric_bl": lambda p: np.stack(symmetric_bl_tetrad(p, PAR).vectors(), axis=-2),
    "ef_vectors": lambda p: np.stack(ef_null_tetrad(p, PAR)[0].vectors(), axis=-2),
    "ef_forms": lambda p: np.stack(ef_null_tetrad(p, PAR)[1].vectors(), axis=-2),
    "u_ef_vectors": lambda p: orthonormal_u_ef(p, PAR)[0].u,
    "u_ef_forms": lambda p: orthonormal_u_ef(p, PAR)[1].u,
    "u_bl": lambda p: orthonormal_bl(p, PAR).u,
    "np_residual_bl": lambda p: np_condition_residual(symmetric_bl_tetrad(p, PAR),
                                                      bl_metric(p.r, p.theta, PAR)),
    "np_residual_ef": lambda p: np_condition_residual(ef_null_tetrad(p, PAR)[0],
                                                      ef_metric(p.r, p.theta, PAR)),
}


@pytest.mark.parametrize("name", sorted(BATCHED))
def test_batch_matches_pointwise(name):
    # a scalar point is the 0-d case of the batched code; ten of the forty
    # points lie between the horizons, where the symmetric BL frame has eps = -1
    r, th = random_batch(np.random.default_rng(43), PAR)
    assert np.count_nonzero(delta_sigma(r, th, PAR)[0] < 0) == 10
    assert_batch_matches_pointwise(BATCHED[name], r, th)
