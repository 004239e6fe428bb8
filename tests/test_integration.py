"""Full-pipeline check: an angular eigenvalue feeds the radial machinery.

The separation constant is quantized by the angular problem; everything
downstream must accept the solver's xi unchanged.  This drives one mode all
the way through: angular eigenpair -> separated-operator residual with the
transformed Dirac stencil -> far-field fit -> Cauchy-horizon fit.
"""

import numpy as np

from kndirac.angular import DiscretizationSpec, angular_eigenpairs, eigenfunction_values
from kndirac.dirac import transform_stencil
from kndirac.geometry import BLPoint, SpacetimeParams
from kndirac.radial import cauchy_rate, far_field_trajectory, fit_horizon, fit_infinity, integrate
from kndirac.separation import ModeParams
from test_angular import eigenfunction_derivatives
from test_separation import integrate_radial_tilde

PAR = SpacetimeParams(M=1.0, a=0.6, Q=0.3)


def test_angular_eigenvalue_through_radial_pipeline():
    base = ModeParams(omega=1.1, k=0.5, m=0.4, xi=0.0)
    pair = angular_eigenpairs(base, DiscretizationSpec(N=64), PAR, count=4)[2]  # n = +1
    assert pair.n == 1
    mode = ModeParams(omega=base.omega, k=base.k, m=base.m, xi=pair.xi)

    # the separated ansatz built from the solver's eigenfunction and an
    # integrated radial solution annihilates the transformed Dirac operator
    r0 = PAR.r_plus + 1.0
    ev_r = integrate_radial_tilde(mode, PAR, r0, r0 + 1.0, np.array([0.9 + 0.2j, -0.5 + 0.1j]))
    r, th = r0 + 0.6, np.array([1.2])
    X, dX = ev_r(r)
    Y = eigenfunction_values(pair, mode, th)[0]
    dY = eigenfunction_derivatives(pair, mode, th)[0]
    phi = np.array([X[1] * Y[1], X[0] * Y[0], X[0] * Y[1], X[1] * Y[0]])
    dphi_r = np.array([dX[1] * Y[1], dX[0] * Y[0], dX[0] * Y[1], dX[1] * Y[0]])
    dphi_t = np.array([X[1] * dY[1], X[0] * dY[0], X[0] * dY[1], X[1] * dY[0]])
    p = BLPoint(r, float(th[0]))
    tr = transform_stencil(p, PAR, mode.m)
    out = tr.apply_mode(mode.omega, mode.k, phi, dphi_r, dphi_t)
    assert np.abs(out).max() < 1e-8 * np.abs(phi).max()

    # far-field asymptotics with the quantized xi
    traj = far_field_trajectory(mode, PAR, np.array([0.8 + 0.3j, -0.45 + 0.9j]),
                                u_min=1e3, u_max=1e5, n_samples=25)
    fit = fit_infinity(traj, mode, PAR)
    assert -1.3 < fit.slope < -0.7

    # Cauchy-horizon asymptotics with the same mode
    al = cauchy_rate(PAR)
    itraj = integrate(mode, PAR, (0.0, 32.0 / al), np.array([1.0 + 0.2j, -0.6 + 0.4j]),
                      tol=1e-11, branch="interior")
    hfit = fit_horizon(itraj, mode, PAR)
    assert abs(hfit.rate - hfit.alpha) < 0.1 * hfit.alpha
