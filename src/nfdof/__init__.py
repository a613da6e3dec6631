"""Exact spatial bandwidth, K numbers and LoS channel rank for linear arrays.

Lengths are in wavelength units throughout (K0 = 2*pi); angles in radians.
"""

__version__ = "0.1.0"

from .bandwidth import (
    OrientationAngles,
    local_bandwidth_closed,
    local_bandwidth_oracle,
    max_bandwidth,
    omega_from_angles,
    omega_grid,
    reduce_phi_prime,
    spatial_frequency,
)
from .channel import (
    ChannelMatrix,
    SingularSpectrum,
    antenna_grid,
    edof_quadratic,
    edof_threshold,
    los_channel,
    singular_spectrum,
)
from .geometry import (
    ArraySegment,
    K0,
    PolarPlacement,
    canonicalize,
    geometry_angles,
    optimal_orientation,
    subtended_angle_oracle,
    unit,
)
from .knumber import (
    KNumber,
    OrientationSearchResult,
    k_number_center,
    k_number_max,
    k_number_numeric,
    maximize_k,
)
from .numerics import QuadratureRule, hermitian_eigenvalues, integrate
from .scenario import Scenario, SweepSpec, SweepTable, parse_scenario, parse_scenarios
from .validation import ValidationReport, run_validation

__all__ = [
    "__version__",
    "K0",
    "ArraySegment",
    "PolarPlacement",
    "canonicalize",
    "geometry_angles",
    "optimal_orientation",
    "subtended_angle_oracle",
    "unit",
    "OrientationAngles",
    "local_bandwidth_closed",
    "local_bandwidth_oracle",
    "max_bandwidth",
    "omega_from_angles",
    "omega_grid",
    "reduce_phi_prime",
    "spatial_frequency",
    "KNumber",
    "OrientationSearchResult",
    "k_number_center",
    "k_number_max",
    "k_number_numeric",
    "maximize_k",
    "ChannelMatrix",
    "SingularSpectrum",
    "antenna_grid",
    "edof_quadratic",
    "edof_threshold",
    "los_channel",
    "singular_spectrum",
    "QuadratureRule",
    "hermitian_eigenvalues",
    "integrate",
    "Scenario",
    "SweepSpec",
    "SweepTable",
    "parse_scenario",
    "parse_scenarios",
    "ValidationReport",
    "run_validation",
]
