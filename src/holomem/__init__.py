"""Gaussian input-output simulator for a double-pass volume-hologram memory.

The package models the storage of a multimode light signal in the
collective spin of an extended atomic ensemble as exact linear maps over
light and spin quadrature amplitudes, evaluates the multipixel
coherent-state fidelity of the full write-read cycle, and validates the
analytic maps against direct numerical integration of the coupled
light-spin equations with the grating carrier resolved.
"""

from .algebra import (
    CovarianceSpec,
    LinearInOutMap,
    ModeLabel,
    compose,
    identity_map,
    light,
    propagate_covariance,
    spin_p,
    spin_x,
    standard_register,
)
from .basis import legendre_poly, project_onto_basis, q_matrix, theta
from .fidelity import (
    CLASSICAL_BENCHMARK,
    CLONING_BENCHMARK,
    FidelityReport,
    PixelNoiseModel,
    fidelity_from_covariance,
    noise_covariance,
    squeezing_sweep,
    vacuum_fidelity,
)
from .oracle import (
    OracleGrid,
    OracleResult,
    compare,
    extract_map,
    numerical_full_cycle,
)
from .protocol import (
    NoiseCoefficients,
    ProtocolConfig,
    classical_single_pass_cycle,
    cycle_register,
    double_pass_write,
    extract_noise,
    full_cycle,
    interpass_transform,
    single_pass,
)

__version__ = "0.1.0"

__all__ = [
    "CLASSICAL_BENCHMARK",
    "CLONING_BENCHMARK",
    "CovarianceSpec",
    "FidelityReport",
    "LinearInOutMap",
    "ModeLabel",
    "NoiseCoefficients",
    "OracleGrid",
    "OracleResult",
    "PixelNoiseModel",
    "ProtocolConfig",
    "classical_single_pass_cycle",
    "compare",
    "compose",
    "cycle_register",
    "double_pass_write",
    "extract_map",
    "extract_noise",
    "fidelity_from_covariance",
    "full_cycle",
    "identity_map",
    "interpass_transform",
    "legendre_poly",
    "light",
    "noise_covariance",
    "numerical_full_cycle",
    "project_onto_basis",
    "propagate_covariance",
    "q_matrix",
    "single_pass",
    "spin_p",
    "spin_x",
    "squeezing_sweep",
    "standard_register",
    "theta",
    "vacuum_fidelity",
]
