import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kndirac.geometry import (
    BLPoint,
    SpacetimeParams,
    _exterior_tortoise,
    _kappas,
    azimuthal_shift,
    azimuthal_shift_derivative,
    bl_metric,
    bl_to_ef_jacobian,
    delta_sigma,
    ef_metric,
    horizons,
    interior_offset,
    inverse_metric,
    log_offset,
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


@pytest.mark.parametrize("field,value", [("M", math.inf), ("M", math.nan), ("a", math.nan), ("a", -math.inf),
                                         ("Q", math.nan), ("Q", math.inf)])
def test_non_finite_params_rejected(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SpacetimeParams(**{"M": 1.0, "a": 0.3, "Q": 0.2, field: value})


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


# M=1, a=0.6, Q=0.3: exterior roots r(rstar) computed with 50 digits
FAR_ROOTS = [(1e3, 986.21621697433211528), (1e4, 9981.5833977285339356),
             (1e5, 99976.974648739460723), (1e6, 999972.36903805687032)]


def test_exterior_seed_far_miss():
    # r = rstar - kp log rstar, without the km log r term, missed by 2.0-4.0
    # here and cost a Newton sweep per node
    from kndirac.geometry import _far_seed

    rs = np.array([x for x, _ in FAR_ROOTS])
    seed = PAR.r_plus + np.exp(_far_seed(rs, PAR))
    assert np.abs(seed - np.array([r for _, r in FAR_ROOTS])).max() < 1e-2


@pytest.mark.parametrize("rstar,r_ref", FAR_ROOTS)
def test_tortoise_inverse_far_roots(rstar, r_ref):
    # converged roots within the inversion's tolerance, 1e-12 max(1, |rstar|)
    # on rstar; dr/drstar is about 1 this far out
    assert abs(tortoise_inverse(rstar, "exterior", PAR) - r_ref) <= 1e-12 * rstar


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


class _CountingNumpy:
    """numpy with its `log` calls counted: `interior_offset` takes one per
    Newton sweep, plus one for the r_plus-side seed."""

    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        self.logs += 1
        return np.log(x)


def _cauchy_rate(par):
    return 0.5 * (par.r_plus - par.r_minus) / (par.r_minus**2 + par.a**2)


@pytest.mark.parametrize("par", [SpacetimeParams(M=1.0, a=0.6, Q=0.3), SpacetimeParams(M=1.0, a=0.3, Q=0.6),
                                 SpacetimeParams(M=1.2, a=0.8, Q=0.4), SpacetimeParams(M=0.9, a=0.5, Q=0.5)])
def test_interior_offset_newton_sweeps(par, monkeypatch):
    # between the midpoint and the near-horizon tail, a seed clamped near the
    # r_plus end of the branch takes 18-20 sweeps
    import kndirac.geometry

    counting = _CountingNumpy()
    monkeypatch.setattr(kndirac.geometry, "np", counting)
    for alpha_rstar in np.linspace(0.4, 5.0, 47):
        counting.logs = 0
        interior_offset(alpha_rstar / _cauchy_rate(par), par)
        assert counting.logs <= 8


# M=1, a=0.3, Q=0.6: points where rounding keeps the Newton step above the
# relative stop, so only the residual's rounding floor can end the loop;
# eps_ref is the root computed with 50 digits
@pytest.mark.parametrize("alpha_rstar,eps_ref", [
    (4.585, 0.3616392912065139), (5.695, 0.1584414324020266), (6.055, 0.1031968586805222),
    (6.2, 0.08456588900333877), (6.335, 0.06934840793577314)])
def test_interior_offset_at_rounding_floor(alpha_rstar, eps_ref, monkeypatch):
    import kndirac.geometry

    par = SpacetimeParams(M=1.0, a=0.3, Q=0.6)
    counting = _CountingNumpy()
    monkeypatch.setattr(kndirac.geometry, "np", counting)
    eps = interior_offset(alpha_rstar / _cauchy_rate(par), par)
    assert abs(eps - eps_ref) <= 1e-14 * eps_ref
    assert counting.logs <= 8


def test_interior_offset_held_at_the_cap(monkeypatch):
    # far from the Cauchy horizon width - eps is below the resolution of
    # width: the iterate rests on the cap while the Newton step points past
    # it, so only a stop that measures the move made can end the loop
    import kndirac.geometry

    par = SpacetimeParams(M=1.0, a=0.95, Q=0.3)
    counting = _CountingNumpy()
    monkeypatch.setattr(kndirac.geometry, "np", counting)
    eps = interior_offset(-30.0 / _cauchy_rate(par), par)
    width = par.r_plus - par.r_minus
    assert 0.0 < width - eps <= 2e-15 * width  # the cap, log(eps) <= log(width) - 1e-15
    assert counting.logs <= 8


def test_tortoise_inverse_stops_on_the_floor(monkeypatch):
    # below about rstar = -75 the root lies under the floor r_plus (1 + 1e-15),
    # where the residual never meets the stop test: the iterate rests on the
    # floor, and running out the 200 sweeps there took 405 logs
    import kndirac.geometry

    counting = _CountingNumpy()
    monkeypatch.setattr(kndirac.geometry, "np", counting)
    r = tortoise_inverse(np.array([-300.0, -120.0, -40.0]), "exterior", PAR)
    assert counting.logs <= 20
    monkeypatch.undo()
    assert np.all(r[:2] == PAR.r_plus * (1.0 + 1e-15))
    assert r[2] == tortoise_inverse(-40.0, "exterior", PAR)


@pytest.mark.parametrize("region", ["exterior", "interior"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_log_offset_rejects_non_finite_rstar(region, bad):
    # a NaN used to run all 200 sweeps and return NaN, and an exterior +inf
    # returned NaN with RuntimeWarnings
    for rstar in (bad, np.array([3.0, bad])):
        for inverse in (lambda x: log_offset(x, region, PAR), lambda x: tortoise_inverse(x, region, PAR)):
            with pytest.raises(ValueError, match=f"rstar must be finite, got {bad!r}"):
                inverse(rstar)
    if region == "interior":
        with pytest.raises(ValueError, match="rstar must be finite"):
            interior_offset(bad, PAR)


@pytest.mark.parametrize("region", ["exterior", "interior"])
def test_log_offset_failure_names_the_rstar(region, monkeypatch):
    # a residual that rounding cannot settle (here a log off by 1e-6,
    # alternating in sign) runs out the sweeps: the solver raises instead of
    # returning an unconverged offset
    import kndirac.geometry

    class NoisyNumpy:
        calls = 0

        def __getattr__(self, name):
            return getattr(np, name)

        def log(self, x):
            NoisyNumpy.calls += 1
            return np.log(x) + (-1e-6) ** (NoisyNumpy.calls % 2) * 1e-6

    monkeypatch.setattr(kndirac.geometry, "np", NoisyNumpy())
    with pytest.raises(ArithmeticError, match=r"did not converge at rstar=5\.0"):
        log_offset(np.array([5.0]), region, PAR)


# Hypothesis draws of the slow parameter space: Kerr-Newman holes up to
# a^2 + Q^2 = 0.99 M^2, and the Schwarzschild (exterior only), Kerr and
# Reissner-Nordstrom limits
@st.composite
def slow_holes(draw, interior):
    M = draw(st.floats(0.25, 4.0))
    limits = ["kerr-newman", "kerr", "reissner-nordstrom"] + ([] if interior else ["schwarzschild"])
    limit = draw(st.sampled_from(limits))
    q = 0.0 if limit == "schwarzschild" else draw(st.floats(1e-6 if interior else 0.0, 0.99))
    phi = {"kerr": 0.0, "reissner-nordstrom": 0.5 * math.pi}.get(limit) or draw(st.floats(0.0, 0.5 * math.pi))
    sign = draw(st.sampled_from([1.0, -1.0]))
    return SpacetimeParams(M=M, a=sign * M * math.sqrt(q) * math.cos(phi), Q=M * math.sqrt(q) * math.sin(phi))


class _LogCounter:
    def __init__(self):
        self.logs = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def log(self, x):
        self.logs += 1
        return np.log(x)


def _interior_tortoise(s, par):
    """rstar and drstar/ds at s = log(r - r_minus) on the interior branch."""
    kp, km = _kappas(par)
    e, width = math.exp(s), par.r_plus - par.r_minus
    return par.r_minus + e + kp * math.log(width - e) - km * s, e - kp * e / (width - e) - km


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(par=slow_holes(interior=False), rstar=st.lists(st.floats(-300.0, 1e6), min_size=1, max_size=3))
def test_tortoise_inverse_round_trip_exterior(par, rstar):
    # tortoise(r) meets rstar to 1e-12 max(1, |rstar|) plus its conditioning
    # floor, or r rests on r_plus (1 + 1e-15) with the root beneath it
    import kndirac.geometry

    rs = np.array(rstar)
    counter = _LogCounter()
    with mock.patch.object(kndirac.geometry, "np", counter):
        r = tortoise_inverse(rs, "exterior", par)
    assert counter.logs <= 14  # a sweep each, 3 for the far seed and 2 for the step in r
    floor = par.r_plus * (1.0 + 1e-15)
    assert np.all(r >= floor)
    below = _exterior_tortoise(math.log(floor - par.r_plus), par)
    for ri, rsi in zip(r, rs):
        if ri == floor:
            assert rsi <= below + 1e-12 * max(1.0, abs(rsi))
            continue
        drs = (ri * ri + par.a**2) / ((ri - par.r_plus) * (ri - par.r_minus))
        bound = 1e-12 * max(1.0, abs(rsi)) + 64 * 2.3e-16 * drs * ri
        assert abs(tortoise(ri, par) - rsi) <= bound


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(par=slow_holes(interior=True), alpha_rstar=st.lists(st.floats(-40.0, 60.0), min_size=1, max_size=3))
def test_tortoise_inverse_round_trip_interior(par, alpha_rstar):
    # rstar(s) meets rstar to 1e-12 max(1, |rstar|) plus its conditioning
    # floor, or s rests on the cap log(width) - 1e-15 with the root beyond it
    import kndirac.geometry

    alpha = 0.5 * (par.r_plus - par.r_minus) / (par.r_minus**2 + par.a**2)
    rs = np.array(alpha_rstar) / alpha
    counter = _LogCounter()
    with mock.patch.object(kndirac.geometry, "np", counter):
        r = tortoise_inverse(rs, "interior", par)
    # one log per sweep and one for the r_plus-side seed; sweeps grow like
    # log(1 / (a^2 + Q^2)) toward Schwarzschild, 17 at a^2 + Q^2 = 1e-6 M^2
    assert counter.logs <= 20
    s = log_offset(rs, "interior", par)
    assert np.array_equal(r, par.r_minus + np.exp(s))
    cap = math.log(par.r_plus - par.r_minus) - 1e-15
    assert np.all(s <= cap)
    for si, rsi in zip(s, rs):
        rstar_s, slope = _interior_tortoise(si, par)
        bound = 1e-12 * max(1.0, abs(rsi)) + 64 * 2.3e-16 * abs(slope) * max(1.0, abs(si))
        if si == cap:
            assert rsi <= rstar_s + bound
        else:
            assert abs(rstar_s - rsi) <= bound


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
