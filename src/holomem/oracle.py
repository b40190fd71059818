"""Direct integration of the coupled light-spin equations on a z grid.

This module validates the analytic single-pass map independently: it
resolves the fast grating carrier exp(+/- i Delta_k z) on a longitudinal
grid and integrates

    da/dz = (kappa / sqrt(LT)) P(z) exp(-i Delta_k z)
    dX/dt = (2 kappa / sqrt(LT)) Im[a(z, t) exp(+i Delta_k z)]
    dP/dt = 0

for one pass of duration T (retardation neglected, diffraction folded into
the grating phase per transverse mode).  Without a collective spin
rotation during the interaction P is static, so a(z) does not depend on
time and X grows linearly over the pulse: one z sweep integrates the pass
exactly in time.  The response is R-linear rather than C-linear, so the
sweep carries each field as its pair of responses to the input amplitudes
and to their conjugates, and yields the whole input-output map at once:
the C-linear block comparable with the analytic coefficients, and a
conjugate-amplitude (counter-rotating) block that decays like
1/(Delta_k L) and is reported separately as leakage.

The z integrals of carrier-weighted fields use a Filon-type rule (exact
integration of the carrier against a piecewise-linear envelope), so the
accuracy does not degrade as the grating phase grows at fixed points per
period.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from .algebra import (
    LinearInOutMap,
    ModeLabel,
    compose,
    light,
    light_commutator_from_quadratures,
    realify,
    standard_register,
)
from .basis import LegendreBasis, project_onto_basis
from .protocol import cycle_register, interpass_transform

MIN_POINTS_PER_PERIOD = 20
DEFAULT_POINTS_PER_PERIOD = 40


@dataclass(frozen=True)
class OracleGrid:
    """Discretization and physics parameters of one oracle pass.

    grating_phase is Delta_k_z * L; transverse_phase_shift lumps the
    per-transverse-mode diffraction correction q^2 L / (2 k_0) into an
    effective grating phase (the oracle is one-dimensional per transverse
    mode).  z_points = None picks the default resolution of
    40 points per grating period.  Time needs no grid: the pass is exact
    in time (see _PassIntegrator.pass_map).  Cell length and pulse duration
    are free scales.
    """

    grating_phase: float = 200 * np.pi
    kappa: float = 1.0
    order_max: int = 4
    z_points: int | None = None
    transverse_phase_shift: float = 0.0
    length: float = 1.0
    duration: float = 1.0

    def __post_init__(self):
        for name in ("kappa", "grating_phase", "transverse_phase_shift", "length", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.order_max < 0:
            raise ValueError("order_max must be nonnegative")
        if self.length <= 0 or self.duration <= 0:
            raise ValueError("length and duration must be positive")
        if self.effective_phase <= 0:
            raise ValueError("effective grating phase must be positive")
        if self.z_points is None:
            intervals = int(np.ceil(DEFAULT_POINTS_PER_PERIOD * self.periods))
            intervals += intervals % 2  # even interval count for Simpson
            object.__setattr__(self, "z_points", intervals + 1)
        per_period = (self.z_points - 1) / self.periods
        if per_period < MIN_POINTS_PER_PERIOD * (1 - 1e-9):
            raise ValueError(
                f"z resolution too coarse: {per_period:.1f} points per grating "
                f"period, need >= {MIN_POINTS_PER_PERIOD}"
            )

    @property
    def effective_phase(self) -> float:
        return self.grating_phase - self.transverse_phase_shift

    @property
    def delta_k(self) -> float:
        return self.effective_phase / self.length

    @property
    def periods(self) -> float:
        """Number of 2 pi interference layers along the cell."""
        return self.effective_phase / (2 * np.pi)

    def refined(self, factor: int = 2) -> "OracleGrid":
        """Same physics on a grid with `factor` times finer z steps."""
        return replace(self, z_points=(self.z_points - 1) * factor + 1)

    def register(self) -> tuple[ModeLabel, ...]:
        return standard_register(self.order_max)


def _carrier_segment_weights(phi: float) -> tuple[complex, complex]:
    """Weights of the endpoint values of a linear envelope against e^{i phi s}.

    W0 = int_0^1 (1-s) e^{i phi s} ds,  W1 = int_0^1 s e^{i phi s} ds.
    """
    if abs(phi) < 1e-3:
        # series in (i phi): W0 = sum z^k/(k+2)!, W1 = sum z^k (k+1)/(k+2)!
        z = 1j * phi
        w0 = 1 / 2 + z / 6 + z**2 / 24 + z**3 / 120 + z**4 / 720
        w1 = 1 / 2 + z / 3 + z**2 / 8 + z**3 / 30 + z**4 / 144
        return complex(w0), complex(w1)
    iphi = 1j * phi
    expi = np.exp(iphi)
    w1 = (expi * (iphi - 1) + 1) / iphi**2
    w0 = (expi - 1) / iphi - w1
    return complex(w0), complex(w1)


class _PassIntegrator:
    """Precomputed workspace for repeated single-pass integrations."""

    def __init__(self, grid: OracleGrid):
        self.grid = grid
        self.basis = LegendreBasis(length=grid.length, order_max=grid.order_max)
        self.z = self.basis.grid(grid.z_points)
        self.h = self.z[1] - self.z[0]
        dk = grid.delta_k
        self.carrier_pos = np.exp(1j * dk * self.z)  # e^{+i Delta_k z}
        self.carrier_neg = np.conj(self.carrier_pos)
        self.thetas = np.array(
            [self.basis.theta(n, self.z) for n in range(grid.order_max + 1)]
        )
        # Filon weights for the source integral against e^{-i Delta_k z}:
        # the segment factor e^{-i Delta_k z_j} is the sampled negative carrier.
        self._w0, self._w1 = _carrier_segment_weights(-dk * self.h)

    def _cumulative_source_integral(self, p_field: np.ndarray) -> np.ndarray:
        """F[j] = int_{-L/2}^{z_j} P(z') e^{-i Delta_k z'} dz', piecewise-linear P."""
        seg = self.h * self.carrier_neg[:-1] * (self._w0 * p_field[:-1] + self._w1 * p_field[1:])
        return np.concatenate([[0.0], np.cumsum(seg)])

    def pass_map(self) -> tuple[np.ndarray, np.ndarray]:
        """One pass as out = linear @ u + conjugate @ conj(u) over the register.

        Spin amplitudes v seed Hermitian (pixel-level) fields
        2 theta_n(z) Re[v e^{i Delta_k z}]; the light amplitude is the
        pulse-averaged convention, so the instantaneous boundary value is
        v/sqrt(T).  P never evolves, so one z sweep gives the field a(z)
        for the whole pulse; X then grows by T times its constant rate
        2 coupling Im[a(z) e^{+i Delta_k z}], and the pulse-averaged output
        is a(L/2) sqrt(T).  Both are exact in time.

        Every step is R-linear, so each field is carried as its pair of
        responses to u and conj(u): Re w = (w + conj w)/2 and
        Im w = (w - conj w)/(2i) swap and conjugate the pair, while the
        carrier products, the source integral and the projection act on
        each part alone.  With c = e^{-i Delta_k z}, a seed v theta gives
        X or P the parts (theta/c, theta c), read out as Proj(theta) and
        Proj(theta c^2); p_k drives a(z) = alpha u + beta conj(u) with
        alpha, beta the source integrals of theta_k/c and theta_k c.
        """
        grid = self.grid
        n_spin = grid.order_max + 1
        dim = 1 + 2 * n_spin
        coupling = grid.kappa / np.sqrt(grid.length * grid.duration)
        sqrt_t = np.sqrt(grid.duration)
        x_rows, p_rows = slice(1, 1 + n_spin), slice(1 + n_spin, dim)
        counter = self.carrier_neg**2  # counter-rotating factor of a readout
        project = lambda field: project_onto_basis(field, self.basis)
        x_gain = -1j * grid.duration * coupling  # X gains x_gain (a/c - conj(a) c)
        linear = np.zeros((dim, dim), dtype=complex)
        conjugate = np.zeros((dim, dim), dtype=complex)

        # Light: a(z) = a_in / sqrt(T) along the whole cell.
        linear[0, 0] = 1.0
        linear[x_rows, 0] = -1j * coupling * sqrt_t * project(np.ones(self.z.size))
        conjugate[x_rows, 0] = 1j * coupling * sqrt_t * project(counter)

        # One spin order at a time: stacking them all as (n_spin, z) arrays
        # costs more peak memory than it saves time.
        for k, theta in enumerate(self.thetas):
            x_col, p_col = 1 + k, 1 + n_spin + k
            seed_linear = project(theta)
            seed_conjugate = project(theta * counter)
            linear[x_rows, x_col] = linear[p_rows, p_col] = seed_linear
            conjugate[x_rows, x_col] = conjugate[p_rows, p_col] = seed_conjugate

            alpha = coupling * self._cumulative_source_integral(theta * self.carrier_pos)
            beta = coupling * self._cumulative_source_integral(theta * self.carrier_neg)
            linear[0, p_col] = alpha[-1] * sqrt_t
            conjugate[0, p_col] = beta[-1] * sqrt_t
            linear[x_rows, p_col] = x_gain * project(alpha - np.conj(beta) * counter)
            conjugate[x_rows, p_col] = x_gain * project(beta - np.conj(alpha) * counter)
        return linear, conjugate


def integrate_single_pass(
    grid: OracleGrid, initial: Mapping[ModeLabel, complex] | Sequence[complex]
) -> np.ndarray:
    """Final register amplitudes after one pass from the given initial ones.

    `initial` is either a mapping from ModeLabel to complex amplitude
    (missing modes are zero) or a sequence aligned with grid.register().
    """
    register = grid.register()
    if isinstance(initial, Mapping):
        unknown = set(initial) - set(register)
        if unknown:
            raise ValueError(f"initial amplitudes for modes outside the register: {unknown}")
        amps = np.array([complex(initial.get(lab, 0.0)) for lab in register])
    else:
        amps = np.asarray(initial, dtype=complex)
        if amps.shape != (len(register),):
            raise ValueError(f"expected {len(register)} amplitudes, got shape {amps.shape}")
    linear, conjugate = _PassIntegrator(grid).pass_map()
    return linear @ amps + conjugate @ np.conj(amps)


@dataclass(frozen=True)
class OracleResult:
    """Numerically extracted single-pass map and its convergence metadata.

    `linear` holds the C-linear coefficients comparable with the analytic
    map; `conjugate` holds the response to conjugated input amplitudes, the
    counter-rotating leakage that the analytic treatment drops in the
    many-layer limit.  refinement_ratios lists the maximum coefficient
    change under successive 2x grid refinements; reported_tolerance bounds
    the remaining discretization error as twice the last change (geometric
    tail), and estimated_order is the observed convergence order.
    """

    register: tuple[ModeLabel, ...]
    linear: np.ndarray
    conjugate: np.ndarray
    grid: OracleGrid
    refinement_ratios: tuple[float, ...] = ()
    estimated_order: float | None = None
    reported_tolerance: float | None = None

    def to_map(self) -> LinearInOutMap:
        return LinearInOutMap(self.register, self.register, self.linear)

    def leakage_magnitude(self) -> float:
        """Largest conjugate-response coefficient, O(1/grating_phase)."""
        return float(np.max(np.abs(self.conjugate)))

    def light_commutator(self) -> float:
        """[a_out, a_out^dag] of the extracted map, leakage included."""
        s = realify(self.linear, self.conjugate)
        return light_commutator_from_quadratures(s, self.register, light())


def extract_map(grid: OracleGrid, refinement_levels: int = 0) -> OracleResult:
    """The full single-pass map, split into its C-linear and conjugate parts.

    With refinement_levels > 0 the extraction is repeated on 2x, 4x, ...
    finer grids to measure convergence; the reported coefficients are those
    of the requested grid.
    """
    linear, conjugate = _PassIntegrator(grid).pass_map()
    ratios: list[float] = []
    order = None
    tolerance = None
    prev_linear, prev_conjugate = linear, conjugate
    for level in range(1, refinement_levels + 1):
        fine_linear, fine_conjugate = _PassIntegrator(grid.refined(2**level)).pass_map()
        change = max(
            float(np.max(np.abs(fine_linear - prev_linear))),
            float(np.max(np.abs(fine_conjugate - prev_conjugate))),
        )
        ratios.append(change)
        prev_linear, prev_conjugate = fine_linear, fine_conjugate
    if len(ratios) >= 2 and ratios[-1] > 0:
        order = float(np.log2(ratios[-2] / ratios[-1]))
    if ratios:
        tolerance = 2 * ratios[-1]
    return OracleResult(
        register=grid.register(),
        linear=linear,
        conjugate=conjugate,
        grid=grid,
        refinement_ratios=tuple(ratios),
        estimated_order=order,
        reported_tolerance=tolerance,
    )


def numerical_stage_map(result: OracleResult, stage: str = "") -> LinearInOutMap:
    """Double-pass stage (pass, interpass transform, pass) from oracle data.

    Composes the numerically extracted C-linear single-pass map exactly the
    way the protocol composes the analytic one, so multi-pass coefficients
    can be cross-checked end to end.
    """
    register = standard_register(result.grid.order_max, stage)
    one = result.to_map().relabeled(register, register)
    interpass = interpass_transform(result.grid.order_max, stage)
    return compose(compose(one, interpass), one)


def numerical_full_cycle(result: OracleResult) -> LinearInOutMap:
    """Full write-read cycle built from the oracle's single-pass map."""
    register = cycle_register(result.grid.order_max)
    write = numerical_stage_map(result, "W").embedded(register)
    read = numerical_stage_map(result, "R").embedded(register)
    return compose(write, read)


@dataclass(frozen=True)
class ComparisonReport:
    """Deviation of an oracle map from the analytic coefficients."""

    passed: bool
    tolerance: float
    max_relative: float
    max_absolute: float
    max_zero_entry: float
    leakage: float
    violators: tuple[tuple[str, str, float], ...]

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [
            f"{status}: max relative deviation {self.max_relative:.3e} "
            f"(tolerance {self.tolerance:.3e})",
            f"max absolute deviation {self.max_absolute:.3e}; "
            f"largest analytically-zero entry {self.max_zero_entry:.3e}; "
            f"counter-rotating leakage {self.leakage:.3e}",
        ]
        for out_lab, in_lab, rel in self.violators:
            lines.append(f"  {out_lab} <- {in_lab}: relative deviation {rel:.3e}")
        return "\n".join(lines)


def compare(
    result: OracleResult,
    analytic: LinearInOutMap,
    tolerance: float,
    zero_threshold: float = 1e-9,
) -> ComparisonReport:
    """Check the extracted C-linear coefficients against an analytic map.

    The pass/fail verdict uses the relative deviation on entries where the
    analytic coefficient is nonzero; deviations on analytically-zero
    entries and the conjugate leakage block are reported for diagnosis but
    do not gate the verdict.
    """
    if analytic.input_register != result.register or analytic.output_register != result.register:
        raise ValueError("oracle and analytic registers do not match")
    reference = analytic.coefficients
    deviation = np.abs(result.linear - reference)
    nonzero = np.abs(reference) > zero_threshold
    relative = np.zeros_like(deviation)
    relative[nonzero] = deviation[nonzero] / np.abs(reference[nonzero])
    max_relative = float(relative.max()) if nonzero.any() else 0.0
    max_zero = float(deviation[~nonzero].max()) if (~nonzero).any() else 0.0
    order = np.argsort(relative, axis=None)[::-1]
    violators = []
    for flat in order[:5]:
        i, j = np.unravel_index(flat, relative.shape)
        if relative[i, j] <= 0:
            break
        violators.append((str(result.register[i]), str(result.register[j]), float(relative[i, j])))
    return ComparisonReport(
        passed=max_relative <= tolerance,
        tolerance=tolerance,
        max_relative=max_relative,
        max_absolute=float(deviation.max()),
        max_zero_entry=max_zero,
        leakage=result.leakage_magnitude(),
        violators=tuple(violators),
    )
