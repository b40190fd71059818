"""Multipixel coherent-state fidelity of the storage cycle.

The retrieved field decomposes as A_out = A_in + F per pixel, with F built
from three independent spin modes.  For an N-pixel coherent input the
fidelity is the determinant formula

    F_N = [det(I + C^X) det(I + C^P)]^(-1/2)

over the noise quadrature covariances, and the average fidelity per pixel
is F_av = F_N^(1/N).  Vacuum spins give C^X = C^P = (11/60) I, hence
F_av = 60/71 ~ 0.845, above both the classical benchmark 1/2 and the
cloning limit 2/3; squeezing the three contributing spin modes drives
F_av toward 1.

Pixels are independent, so the protocol's covariances are a variance times
the identity.  Such a model is carried as one variance per quadrature and
its log-determinant is N (log1p(var_x) + log1p(var_p)): the cost does not
depend on N.  Only explicitly given (correlated) N x N matrices are
factored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import CovarianceSpec, LinearInOutMap, light, propagate_covariance
from .protocol import NoiseCoefficients, ProtocolConfig, extract_noise, full_cycle

CLASSICAL_BENCHMARK = 0.5
CLONING_BENCHMARK = 2.0 / 3.0

_CROSS_TOL = 1e-12


class PixelNoiseModel:
    """Noise quadrature covariances over N pixellized transverse modes.

    Each of cov_x and cov_p is either a scalar variance, meaning that
    variance times the N x N identity (independent pixels), or an explicit
    N x N matrix (correlated pixels).  A scalar must be >= 0; it may be
    infinite (the antisqueezed partner of an ideal squeeze), which gives
    zero fidelity.  A matrix must be finite, symmetric and positive
    semidefinite.  Reading cov_x or cov_p always gives the N x N matrix,
    built on demand for a scalar; log_det never builds it.
    """

    def __init__(self, pixel_count: int, cov_x, cov_p):
        if pixel_count < 1:
            raise ValueError("pixel_count must be >= 1")
        try:
            float(pixel_count)  # log_det and F_av take it as a float
        except OverflowError:
            raise ValueError("pixel_count is out of the float range") from None
        self.pixel_count = pixel_count
        self._cov_x = _checked_covariance("cov_x", cov_x, pixel_count)
        self._cov_p = _checked_covariance("cov_p", cov_p, pixel_count)

    @property
    def cov_x(self) -> np.ndarray:
        return _as_matrix(self._cov_x, self.pixel_count)

    @property
    def cov_p(self) -> np.ndarray:
        return _as_matrix(self._cov_p, self.pixel_count)

    def log_det(self) -> float:
        """log det(I + C^X) + log det(I + C^P)."""
        n = self.pixel_count
        return _log_det_one_plus(self._cov_x, n) + _log_det_one_plus(self._cov_p, n)


def _checked_covariance(name: str, cov, n: int) -> float | np.ndarray:
    """A validated scalar variance (as a float) or N x N matrix."""
    if np.ndim(cov) == 0:
        var = float(cov)
        # written so that NaN fails too
        if not var >= 0:
            raise ValueError(f"{name} must be a variance >= 0, got {var}")
        return var
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (n, n):
        raise ValueError(f"{name} must be a scalar or {n}x{n}")
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"{name} must be finite")
    if not np.allclose(cov, cov.T):
        raise ValueError(f"{name} must be symmetric")
    if np.min(np.linalg.eigvalsh(cov)) < -1e-12:
        raise ValueError(f"{name} must be positive semidefinite")
    return cov


def _as_matrix(cov: float | np.ndarray, n: int) -> np.ndarray:
    if isinstance(cov, np.ndarray):
        return cov
    # fill_diagonal, not cov * eye: 0 * inf off the diagonal would be NaN
    matrix = np.zeros((n, n))
    np.fill_diagonal(matrix, cov)
    return matrix


def _log_det_one_plus(cov: float | np.ndarray, n: int) -> float:
    """log det(I + C) for an N x N covariance C."""
    if isinstance(cov, np.ndarray):
        return float(np.linalg.slogdet(np.eye(n) + cov)[1])
    return n * math.log1p(cov)


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
    """Pixel noise covariances from the added-noise coefficients.

    The noise F = (F_X + i F_P)/sqrt(2) = sum_k c_k m_k of independent spin
    inputs is propagated as a one-row map, so var F_X and var F_P are the
    (re, re) and (im, im) entries of its quadrature covariance.  Spin modes
    are independent across pixels, so both covariances are that variance
    times the identity, and the model carries just the two variances.
    Specs that would correlate F_X with F_P (unequal re/im variances on a
    mode with complex coefficient) are rejected, as the pixel model carries
    no cross block.
    """
    labels, coefficients = zip(*noise.items())
    row = LinearInOutMap(labels, (light(),), [coefficients])
    cov = propagate_covariance(row, spin_spec).matrix
    if abs(cov[0, 1]) > _CROSS_TOL:
        raise ValueError("X/P noise cross-correlations are not representable")
    return PixelNoiseModel(pixel_count, cov[0, 0], cov[1, 1])


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


def protocol_noise(order_max: int = 4) -> NoiseCoefficients:
    """Added-noise coefficients of the optimally coupled cycle (kappa = 1)."""
    return extract_noise(full_cycle(ProtocolConfig(kappa=1.0, order_max=order_max)))


def vacuum_fidelity(pixel_count: int = 1, order_max: int = 4) -> FidelityReport:
    """Fidelity with unsqueezed (vacuum) spins; F_av = 60/71."""
    model = noise_covariance(protocol_noise(order_max), CovarianceSpec.vacuum(), pixel_count)
    return fidelity_from_covariance(model)


def squeezed_spec(noise: NoiseCoefficients, r: float) -> CovarianceSpec:
    """Squeeze both quadratures of the three contributing spin modes by r."""
    return CovarianceSpec.with_squeezing([label for label, _ in noise.items()], r)


def squeezing_sweep(
    r_values: Sequence[float],
    pixel_count: int = 1,
    noise: NoiseCoefficients | None = None,
) -> list[FidelityReport]:
    """Fidelity versus initial spin squeezing of the three noise modes.

    Monotone increasing in r with limit F_av -> 1; the closed form is
    F_av(r) = (1 + (11/60) e^{-2r})^{-1}.
    """
    if noise is None:
        noise = protocol_noise()
    reports = []
    for r in r_values:
        model = noise_covariance(noise, squeezed_spec(noise, r), pixel_count)
        reports.append(fidelity_from_covariance(model, squeezing_r=float(r)))
    return reports
