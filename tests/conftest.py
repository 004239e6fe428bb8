import math

import numpy as np

from kndirac.geometry import SpacetimeParams


def random_slow_params(rng):
    """Slow triple with both horizons well separated from r = 0 and from
    each other (0.1 <= (a^2+Q^2)/M^2 <= 0.9)."""
    M = rng.uniform(0.5, 2.5)
    while True:
        a, Q = rng.uniform(-0.9, 0.9, 2) * M
        s = (a * a + Q * Q) / (M * M)
        if 0.1 <= s <= 0.9:
            return SpacetimeParams(M=M, a=a, Q=Q)


def random_exterior_point(rng, params):
    r = params.r_plus + params.M * 10.0 ** rng.uniform(-1.5, 2.0)
    theta = rng.uniform(0.1, math.pi - 0.1)
    return r, theta


def random_regular_point(rng, params):
    """Point anywhere above the Cauchy horizon (both blocks), poles excluded."""
    r = params.r_minus + params.M * 10.0 ** rng.uniform(-1.2, 2.0)
    theta = rng.uniform(0.1, math.pi - 0.1)
    return r, theta


def random_mode(rng, require_massive=False):
    from kndirac.separation import ModeParams

    omega = rng.uniform(0.4, 2.0) * rng.choice([-1.0, 1.0])
    k = (rng.integers(-3, 3) + 0.5)
    m = rng.uniform(0.2, 0.6 * abs(omega)) if require_massive else rng.uniform(0.0, 0.8)
    xi = rng.uniform(0.8, 2.5) * rng.choice([-1.0, 1.0])
    return ModeParams(omega=float(omega), k=float(k), m=float(m), xi=float(xi))


def random_batch(rng, params, n_exterior=30, n_between=10):
    """Exterior points and points between the horizons, where Delta < 0,
    as one batch (r, theta)."""
    r = np.concatenate([
        params.r_plus + params.M * 10.0 ** rng.uniform(-2.0, 2.0, n_exterior),
        rng.uniform(params.r_minus, params.r_plus, n_between),
    ])
    theta = rng.uniform(0.1, math.pi - 0.1, r.size)
    return r, theta


def assert_batch_matches_pointwise(evaluate, r, theta, rtol=1e-14):
    """evaluate(BLPoint) on the whole batch, of any shape, against its
    per-point values stacked, componentwise, relative to each component's
    largest size."""
    from kndirac.geometry import BLPoint

    batch = evaluate(BLPoint(r, theta))
    stacked = np.array([evaluate(BLPoint(r[i], theta[i])) for i in np.ndindex(r.shape)])
    stacked = stacked.reshape(r.shape + stacked.shape[1:])
    assert batch.shape == stacked.shape
    scale = np.abs(stacked).max(axis=tuple(range(r.ndim)))
    assert np.all(np.abs(batch - stacked) <= rtol * scale)
