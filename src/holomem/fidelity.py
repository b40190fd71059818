"""Multipixel coherent-state fidelity of the storage cycle.

The retrieved field is A_out = A_in + F per pixel, with the added noise
F = c_x1 x_1 + c_p0 p_0 + c_p2 p_2 of three independent spin modes.  For
an N-pixel coherent input, with noise quadrature covariances C^X and C^P,
F_N = [det(I + C^X) det(I + C^P)]^(-1/2) and F_av = F_N^(1/N) per pixel.
Vacuum spins give C^X = C^P = (11/60) I, hence F_av = 60/71 ~ 0.845, above
the classical benchmark 1/2 and the cloning limit 2/3; squeezing the three
spin modes drives F_av toward 1.

The coefficients c and their realify'd rows come from a cycle of order 4 at
most (protocol_noise, cached per ProtocolConfig); per squeezing r,
squeezing_sweep forms one 2x6 S Sigma S^T.  Pixels are independent, so a
covariance is one variance per quadrature and log det is
N (log1p(var_x) + log1p(var_p)), whatever N.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import CovarianceSpec, squeezed_variance, transport_covariance
from .protocol import NoiseCoefficients, ProtocolConfig, extract_noise, retrieval_cycle

CLASSICAL_BENCHMARK = 0.5
CLONING_BENCHMARK = 2.0 / 3.0

_CROSS_TOL = 1e-12


def check_pixel_count(name: str, value) -> int:
    """value as a pixel count, or a ValueError naming the parameter."""
    try:
        count = operator.index(value)  # NumPy integers pass; NaN, inf and 2.5 do not
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if count < 1:
        raise ValueError(f"{name} must be >= 1")
    try:
        float(count)  # log_det and F_av take it as a float
    except OverflowError:
        raise ValueError(f"{name} is out of the float range") from None
    return count


class PixelNoiseModel:
    """Noise quadrature covariances over N independent pixellized transverse modes.

    Each of cov_x and cov_p is a scalar variance, meaning that variance
    times the N x N identity.  It must be >= 0; it may be infinite (the
    antisqueezed partner of an ideal squeeze), which gives zero fidelity.
    Reading cov_x or cov_p builds the N x N matrix; log_det never builds it.
    """

    def __init__(self, pixel_count: int, cov_x, cov_p):
        self.pixel_count = check_pixel_count("pixel_count", pixel_count)
        self._var_x = _checked_variance("cov_x", cov_x)
        self._var_p = _checked_variance("cov_p", cov_p)

    @property
    def cov_x(self) -> np.ndarray:
        return _as_matrix(self._var_x, self.pixel_count)

    @property
    def cov_p(self) -> np.ndarray:
        return _as_matrix(self._var_p, self.pixel_count)

    def log_det(self) -> float:
        """log det(I + C^X) + log det(I + C^P)."""
        n = self.pixel_count
        return n * math.log1p(self._var_x) + n * math.log1p(self._var_p)


def _checked_variance(name: str, var) -> float:
    """var as a float variance >= 0, or a ValueError naming the field."""
    if np.ndim(var) != 0:
        raise ValueError(f"{name} must be a scalar variance, got shape {np.shape(var)}")
    var = float(var)
    # written so that NaN fails too
    if not var >= 0:
        raise ValueError(f"{name} must be a variance >= 0, got {var}")
    return var


def _as_matrix(var: float, n: int) -> np.ndarray:
    # fill_diagonal, not var * eye: 0 * inf off the diagonal would be NaN
    matrix = np.zeros((n, n))
    np.fill_diagonal(matrix, var)
    return matrix


@dataclass(frozen=True)
class FidelityReport:
    """Fidelity of the N-pixel transfer and its per-pixel average."""

    pixel_count: int
    f_n: float
    f_av: float
    beats_classical: bool
    beats_cloning: bool
    squeezing_r: float | None = None


def noise_covariance(
    noise: NoiseCoefficients,
    spin_spec: CovarianceSpec,
    pixel_count: int,
) -> PixelNoiseModel:
    """Pixel noise covariances var F_X, var F_P of F = (F_X + i F_P)/sqrt(2), from noise.rows.

    Specs that would correlate F_X with F_P (unequal re/im variances on a
    mode with complex coefficient) are rejected: the model has no cross block.
    """
    variances = [spin_spec.variance_pair(label) for label, _ in noise.items()]
    return _pixel_model(noise, np.array(variances, dtype=float).reshape(-1), pixel_count)


def _pixel_model(noise: NoiseCoefficients, variances: np.ndarray, pixels: int) -> PixelNoiseModel:
    """noise_covariance from the six quadrature variances of (x_1, p_0, p_2)."""
    cov = transport_covariance(noise.rows, variances)
    if abs(cov[0, 1]) > _CROSS_TOL:
        raise ValueError("X/P noise cross-correlations are not representable")
    return PixelNoiseModel(pixels, cov[0, 0], cov[1, 1])


def fidelity_from_covariance(
    model: PixelNoiseModel, squeezing_r: float | None = None
) -> FidelityReport:
    """Determinant-formula fidelity of an N-pixel coherent input."""
    # log-determinants: det_x * det_p overflows from about 2100 vacuum pixels on
    n = model.pixel_count
    log_det = model.log_det()
    f_n = math.exp(-log_det / 2)
    f_av = math.exp(-log_det / (2 * n))
    return FidelityReport(
        pixel_count=n,
        f_n=f_n,
        f_av=f_av,
        beats_classical=f_av > CLASSICAL_BENCHMARK,
        beats_cloning=f_av > CLONING_BENCHMARK,
        squeezing_r=squeezing_r,
    )


@lru_cache(maxsize=128)
def protocol_noise(config: ProtocolConfig = ProtocolConfig()) -> NoiseCoefficients:
    """Added-noise coefficients of the cycle at config, kept for the last 128 configs.

    kappa away from 1 raises on every call.
    """
    return extract_noise(retrieval_cycle(config))


def vacuum_fidelity(pixel_count: int = 1) -> FidelityReport:
    """Fidelity with unsqueezed (vacuum) spins; F_av = 60/71."""
    noise = protocol_noise(ProtocolConfig())
    model = noise_covariance(noise, CovarianceSpec.vacuum(), pixel_count)
    return fidelity_from_covariance(model)


def squeezing_sweep(
    r_values: Sequence[float], pixel_count: int = 1, config: ProtocolConfig = ProtocolConfig()
) -> list[FidelityReport]:
    """Fidelity versus initial spin squeezing of the three noise modes at config.

    Monotone increasing in r with limit F_av -> 1; the closed form is
    F_av(r) = (1 + (11/60) e^{-2r})^{-1}.
    """
    noise = protocol_noise(config)
    reports = []
    for r in r_values:
        # the squeezed variance on all six noise quadratures; no conjugate partner is in the row
        model = _pixel_model(noise, np.full(6, squeezed_variance(r)), pixel_count)
        reports.append(fidelity_from_covariance(model, squeezing_r=float(r)))
    return reports
