"""Gaussian input-output simulator for a double-pass volume-hologram memory.

The package models the storage of a multimode light signal in the
collective spin of an extended atomic ensemble as exact linear maps over
light and spin quadrature amplitudes, evaluates the multipixel
coherent-state fidelity of the full write-read cycle, and validates the
analytic maps against direct numerical integration of the coupled
light-spin equations with the grating carrier resolved.

`import holomem` runs no submodule: each public name, and each submodule
in _EXPORTS, is imported on first attribute access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "algebra": (
        "CovarianceSpec", "LinearInOutMap", "ModeLabel", "compose", "light", "spin_p",
        "spin_x", "standard_register",
    ),
    "basis": ("legendre_poly", "project_onto_basis", "q_matrix", "theta"),
    "fidelity": (
        "CLASSICAL_BENCHMARK", "CLONING_BENCHMARK", "FidelityReport", "PixelNoiseModel",
        "fidelity_from_covariance", "noise_covariance", "squeezing_sweep", "vacuum_fidelity",
    ),
    "oracle": ("OracleGrid", "OracleResult", "compare", "extract_map", "numerical_full_cycle"),
    "protocol": (
        "NoiseCoefficients", "ProtocolConfig", "cycle_register", "double_pass_write",
        "extract_noise", "full_cycle", "interpass_transform", "single_pass",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    if name in _EXPORTS:
        # Importing a submodule binds it in this namespace.
        return import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
