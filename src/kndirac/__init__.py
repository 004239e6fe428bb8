"""Dirac modes on slow Kerr-Newman spacetime in horizon-penetrating
coordinates: geometry, tetrads, the separated radial and angular systems, and
numerical verification of the radial asymptotics at infinity and at the
Cauchy horizon."""

from .geometry import (
    BLPoint,
    SpacetimeParams,
    azimuthal_shift,
    delta_sigma,
    ef_metric,
    bl_metric,
    metric,
    inverse_metric,
    temporal_minors,
    tortoise,
    tortoise_inverse,
)
from .tetrads import (
    NullTetrad,
    OrthonormalTetrad,
    ef_null_tetrad,
    orthonormal_from_null,
    orthonormal_u_ef,
    symmetric_bl_tetrad,
)
from .dirac import (
    DiracStencil,
    b_term_closed,
    b_term_numeric,
    dirac_stencil,
    gamma_weyl,
    general_dirac_matrices,
    spin_inner,
    transform_stencil,
)
from .separation import (
    ModeParams,
    angular_operator,
    radial_operator,
    separation_residual,
)
from .angular import AngularEigenpair, DiscretizationSpec, angular_eigenpairs, xi_continuation
from .radial import (
    HorizonAsymptotics,
    InfinityAsymptotics,
    RadialTrajectory,
    asymptotic_phases,
    far_field_trajectory,
    fit_horizon,
    fit_infinity,
    integrate,
    theta_boost,
    w_roots,
)

__version__ = "0.1.0"
