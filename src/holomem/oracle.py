"""Direct integration of the coupled light-spin equations on a z grid.

This module validates the analytic single-pass map independently: it
resolves the fast grating carrier exp(+/- i Delta_k z) on a longitudinal
grid and integrates

    da/dz = kappa P(z) exp(-i Delta_k z)
    dX/dt = 2 kappa Im[a(z, t) exp(+i Delta_k z)]
    dP/dt = 0

for one pass (retardation neglected, diffraction folded into the grating
phase per transverse mode).  z is measured in cell lengths and t in pulse
durations, on the unit cell [-1/2, 1/2] and a unit pulse.  A cell of
length L and a pulse of duration T enter the equations only through
kappa/sqrt(LT) and Delta_k L, which are the kappa and Delta_k here, so
the map has no other scale.

Without a collective spin rotation during the interaction P is static, so
a(z) does not depend on time and X grows linearly over the pulse: one z
sweep integrates the pass exactly in time.  The response is R-linear
rather than C-linear, so the sweep carries each field as its pair of
responses to the input amplitudes and to their conjugates, and yields the
whole input-output map at once: the C-linear block comparable with the
analytic coefficients, and a conjugate-amplitude (counter-rotating) block
that decays like 1/Delta_k and is reported separately as leakage.

The z integrals of carrier-weighted fields use a Filon-type rule (exact
integration of the carrier against a piecewise-linear envelope), so the
accuracy does not degrade as the grating phase grows at fixed points per
period.

Light couples to the spins once and the spins back once, so the pass map
is M0 + a M1 + a^2 M2 with a = kappa.  The blocks of M0, M1 and M2 depend
on the grid geometry alone: order_max, z points and effective grating
phase.  The z sweep, the Filon weights, the carrier phases and the G^{-1}
products that make them run once per geometry, and the finished blocks
are cached; an extraction on a grid seen before, at any coupling, only
scales them by a and a^2 and fills them into the two maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import (
    LinearInOutMap,
    ModeLabel,
    light,
    light_commutator_from_rows,
    realify,
    standard_register,
)
from .basis import (
    DEFAULT_POINTS_PER_PERIOD,
    cell_grid,
    check_resolution,
    sampled_basis,
    z_points,
)
from .protocol import check_parameters, cycle_from_write, double_pass, finite

# z points per chunk of the pass-map sums: the sweep's transient memory is
# O(order_max * _Z_CHUNK), however fine the grid.
_Z_CHUNK = 1024
# Most samples (order_max + 1) x z points of the basis on a grid refined
# once, as oracle-verify extracts it: this table, 134 MB at the cap, and the
# requested grid's are held at once (about 0.4 GB peak at the cap).  Order
# 60 at 10^3 periods and 40 points per period takes 4.9 million.
_MAX_BASIS_SAMPLES = 2**24
# Analytic coefficients at or below this count as zero in compare.
ZERO_THRESHOLD = 1e-9


@dataclass(frozen=True)
class OracleGrid:
    """Discretization and physics parameters of one oracle pass.

    The cell is the unit cell and the pulse the unit pulse (see the module
    docstring): kappa is the dimensionless coupling kappa/sqrt(LT) and
    grating_phase is Delta_k_z L, on the unit cell the wavenumber Delta_k.
    transverse_phase_shift lumps the per-transverse-mode diffraction
    correction q^2 L / (2 k_0) into an effective grating phase (the oracle
    is one-dimensional per transverse mode).  z_points = None picks the
    default resolution, DEFAULT_POINTS_PER_PERIOD points per grating
    period.  Time needs no grid: the pass is exact in time (see _pass_map).
    """

    grating_phase: float = 200 * np.pi
    kappa: float = 1.0
    order_max: int = 4
    z_points: int | None = None
    transverse_phase_shift: float = 0.0

    def __post_init__(self):
        check_parameters(
            self, ("kappa", "grating_phase", "transverse_phase_shift"), ("order_max",)
        )
        if self.order_max < 0:
            raise ValueError("order_max must be nonnegative")
        if self.effective_phase <= 0:
            raise ValueError("effective grating phase must be positive")
        if self.z_points is None:
            object.__setattr__(self, "z_points", z_points(self.periods, DEFAULT_POINTS_PER_PERIOD))
        check_parameters(self, (), ("z_points",))
        finite("z_points", self.z_points)  # else _check_size's :.3g raises OverflowError
        # A refined grid only adds points, so this covers every level.
        check_resolution(self.order_max, self.z_points, self.periods)
        self._check_size(1, f"{self.periods:g} grating-periods")

    @property
    def effective_phase(self) -> float:
        return self.grating_phase - self.transverse_phase_shift

    @property
    def periods(self) -> float:
        """Number of 2 pi interference layers along the cell."""
        return self.effective_phase / (2 * np.pi)

    def register(self) -> tuple[ModeLabel, ...]:
        return standard_register(self.order_max)

    def _check_size(self, refinement_levels: int, name: str) -> None:
        """A ValueError naming name unless the grid refined 2**refinement_levels times fits."""
        samples = (self.order_max + 1) * ((self.z_points - 1) * 2**refinement_levels + 1)
        if samples > _MAX_BASIS_SAMPLES:
            raise ValueError(
                f"z grid too large: {name} on {self.z_points:.3g} z points at order_max "
                f"{self.order_max} need {samples:.3g} basis samples at refinement level "
                f"{refinement_levels}, more than {_MAX_BASIS_SAMPLES}"
            )


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


def _z_sums(thetas: np.ndarray, weights: np.ndarray, z: np.ndarray, dk: float):
    """The sums over z behind every block of the pass map, chunk by chunk.

    With x = (w, w cos, w sin)(2 dk z) and y = (1, cos, sin)(2 dk z):
    theta_sums[(x, m), k] = sum_z x theta_m theta_k, prefix_sums[(x, m), (y, k)]
    = sum_z x theta_m S_yk with S_yk the exclusive prefix sum of y theta_k,
    and last_prefix[y, k] = S_yk at the last grid point.
    """
    n_spin = thetas.shape[0]
    # The running totals of the prefix sums carry over to the next chunk.
    left = np.empty((3, n_spin, _Z_CHUNK))
    prefix = np.empty((3, n_spin, _Z_CHUNK))
    carry = np.zeros((3, n_spin))
    theta_sums = np.zeros((3 * n_spin, n_spin))
    prefix_sums = np.zeros((3 * n_spin, 3 * n_spin))
    for start in range(0, z.size, _Z_CHUNK):
        stop = min(start + _Z_CHUNK, z.size)
        chunk = thetas[:, start:stop]
        phase = 2 * dk * z[start:stop]
        cos, sin = np.cos(phase), np.sin(phase)
        lhs, rhs = left[..., : stop - start], prefix[..., : stop - start]
        np.multiply(chunk, weights[start:stop], out=lhs[0])
        np.multiply(lhs[0], cos, out=lhs[1])
        np.multiply(lhs[0], sin, out=lhs[2])
        rhs[:, :, 0] = carry
        rhs[0, :, 1:] = chunk[:, :-1]
        np.multiply(chunk[:, :-1], cos[:-1], out=rhs[1, :, 1:])
        np.multiply(chunk[:, :-1], sin[:-1], out=rhs[2, :, 1:])
        np.cumsum(rhs, axis=2, out=rhs)
        carry = rhs[:, :, -1] + chunk[:, -1] * np.array([[1.0], [cos[-1]], [sin[-1]]])
        lhs = lhs.reshape(3 * n_spin, -1)
        theta_sums += lhs @ chunk.T
        prefix_sums += lhs @ rhs.reshape(3 * n_spin, -1).T
    return theta_sums, prefix_sums, rhs[:, :, -1].copy()


class _GridBlocks(NamedTuple):
    """The coupling-free blocks of one grid geometry's pass map.

    Light couples to the spins once and the spins back once, so the pass
    map is M0 + a M1 + a^2 M2 with a = kappa.  Each field stacks one block
    of the linear map and the same block of the conjugate map.

    seeds: M0's X <- X and P <- P blocks, G^{-1} gram and G^{-1} counter_gram.
    light_column: M1's X <- a column.
    light_row: M1's a <- P row.
    drive: M2's X <- P block, -i h G^{-1} (alpha - beta_counter) and
    -i h G^{-1} (beta - alpha_counter), alpha and beta without the coupling.

    Every array is read-only and O(order_max^2), whatever the number of z
    points: 242 kB together at order_max 60.
    """

    seeds: np.ndarray
    light_column: np.ndarray
    light_row: np.ndarray
    drive: np.ndarray


@lru_cache(maxsize=3)
def _grid_blocks(order_max: int, z_points: int, dk: float) -> _GridBlocks:
    """The z sweep of one grid geometry, assembled into its pass-map blocks.

    The Filon rule for the source integral of f c, with f = theta_k or
    f = theta_k c^2 and S_j = f_0 + ... + f_{j-1}, telescopes to
    h [(W0 + W1 e^{i Delta_k h}) S_j + W1 e^{i Delta_k h} (f_j - f_0)].
    Every readout Proj(g) = G^{-1} sum_z w theta g is then linear in the
    sums over z of theta_m (1, cos, sin)(2 Delta_k z) times theta_k and the
    prefix sums of theta_k (1, cos, sin)(2 Delta_k z): one pair of real
    matrix products per chunk of z gives all spin orders at once (_z_sums).
    The Filon weights, carrier phases and G^{-1} products run here, once
    per geometry.

    The cache holds the three grids of one extraction with two refinement
    levels, 0.73 MB at order_max 60, so repeated extractions on one grid
    sweep z once.
    """
    thetas, weights, gram_inverse = sampled_basis(order_max, z_points)
    z = cell_grid(z_points)
    theta_sums, prefix_sums, last_prefix = _z_sums(thetas, weights, z, dk)
    first, end = thetas[:, 0], thetas[:, -1]
    h = z[1] - z[0]
    n_spin = order_max + 1

    gram, gram_cos, gram_sin = theta_sums.reshape(3, n_spin, n_spin)
    # blocks[x][y][m, k] = sum_z (w, w cos, w sin)[x] theta_m (S, Tcos, Tsin)[y]_k
    blocks = prefix_sums.reshape(3, n_spin, 3, n_spin).transpose(0, 2, 1, 3)
    # theta_0 is the constant 1, so sum_z x theta_m = sum_z x theta_m theta_0.
    ones, ones_cos, ones_sin = theta_sums[:, 0].reshape(3, n_spin)
    counter_ones = ones_cos - 1j * ones_sin  # sum_z w theta_m c^2
    counter_gram = gram_cos - 1j * gram_sin  # sum_z w theta_m theta_k c^2
    counter_first, counter_end = np.exp(-2j * dk * z[0]), np.exp(-2j * dk * z[-1])

    w0, w1 = _carrier_segment_weights(-dk * h)
    step = w1 * np.exp(1j * dk * h)
    prefix_weight = w0 + step
    # Source integrals at z = 1/2, and sum_z w theta_m g for g = alpha_k,
    # beta_k, conj(beta_k) c^2 and conj(alpha_k) c^2 (G^{-1} of these is the
    # readout), all at unit coupling.
    alpha_end = h * (prefix_weight * last_prefix[0] + step * (end - first))
    beta_end = h * (
        prefix_weight * (last_prefix[1] - 1j * last_prefix[2])
        + step * (end * counter_end - first * counter_first)
    )
    alpha = h * (prefix_weight * blocks[0, 0] + step * (gram - np.outer(ones, first)))
    beta = h * (
        prefix_weight * (blocks[0, 1] - 1j * blocks[0, 2])
        + step * (counter_gram - counter_first * np.outer(ones, first))
    )
    beta_counter = h * (
        np.conj(prefix_weight)
        * (blocks[1, 1] + blocks[2, 2] + 1j * (blocks[1, 2] - blocks[2, 1]))
        + np.conj(step) * (gram - np.conj(counter_first) * np.outer(counter_ones, first))
    )
    alpha_counter = h * (
        np.conj(prefix_weight) * (blocks[1, 0] - 1j * blocks[2, 0])
        + np.conj(step) * (counter_gram - np.outer(counter_ones, first))
    )

    def stacked(linear, conjugate):
        table = np.array([linear, conjugate], dtype=complex)
        table.flags.writeable = False
        return table

    # X gains -i (a/c - conj(a) c) at unit coupling.
    return _GridBlocks(
        seeds=stacked(gram_inverse @ gram, gram_inverse @ counter_gram),
        light_column=stacked(
            -1j * (gram_inverse @ ones)[:, None], 1j * (gram_inverse @ counter_ones)[:, None]
        ),
        light_row=stacked(alpha_end, beta_end),
        drive=stacked(
            -1j * (gram_inverse @ (alpha - beta_counter)),
            -1j * (gram_inverse @ (beta - alpha_counter)),
        ),
    )


def _pass_map(grid: OracleGrid, refinement: int = 1) -> np.ndarray:
    """One pass as out = linear @ u + conjugate @ conj(u), stacked as [linear, conjugate].

    The z grid is the grid's own with `refinement` (>= 1) times finer
    steps: (grid.z_points - 1) * refinement + 1 points.

    Spin amplitudes v seed Hermitian (pixel-level) fields
    2 theta_n(z) Re[v e^{i Delta_k z}]; over the unit pulse the light
    amplitude is its boundary value.  P never evolves, so one z sweep gives
    the field a(z) for the whole pulse; X then grows by its constant rate
    2 kappa Im[a(z) e^{+i Delta_k z}], and the output light is a(1/2).
    Both are exact in time.

    Every step is R-linear, so each field is carried as its pair of
    responses to u and conj(u): Re w = (w + conj w)/2 and
    Im w = (w - conj w)/(2i) swap and conjugate the pair, while the carrier
    products, the source integral and the projection act on each part
    alone.  With c = e^{-i Delta_k z}, a seed v theta gives X or P the
    parts (theta/c, theta c), read out as Proj(theta) and Proj(theta c^2);
    p_k drives a(z) = alpha_k u + beta_k conj(u), with alpha_k, beta_k the
    source integrals of theta_k/c and theta_k c.

    Light couples to the spins once and back once, so the map is
    M0 + a M1 + a^2 M2 with a = kappa.  The blocks of M0, M1 and M2 depend
    on the grid geometry alone and come from the cached _grid_blocks,
    which runs the z sweep, the Filon weights and the G^{-1} products.  Per
    call, this function only fills two zeroed matrices with a-scaled blocks.
    """
    points = (grid.z_points - 1) * refinement + 1
    blocks = _grid_blocks(grid.order_max, points, grid.effective_phase)
    a = grid.kappa
    n_spin = grid.order_max + 1
    maps = np.zeros((2, 1 + 2 * n_spin, 1 + 2 * n_spin), dtype=complex)  # linear, conjugate
    x, p = slice(1, 1 + n_spin), slice(1 + n_spin, None)
    # Light: a(z) = a_in along the whole cell.
    maps[0, 0, 0] = 1.0
    maps[:, x, :1] = blocks.light_column * a
    # Seeds read back through the grating; P is never updated.
    maps[:, x, x] = maps[:, p, p] = blocks.seeds
    maps[:, 0, p] = blocks.light_row * a
    # (drive * a) * a: one product by a * a would round differently.
    maps[:, x, p] = blocks.drive * a * a
    return maps


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
        return float(np.abs(self.conjugate).max())

    def light_commutator(self) -> float:
        """[a_out, a_out^dag] of the extracted map, leakage included."""
        i = self.register.index(light())
        rows = realify(self.linear[i : i + 1], self.conjugate[i : i + 1])
        return light_commutator_from_rows(rows, self.register)


def extract_map(grid: OracleGrid, refinement_levels: int = 0) -> OracleResult:
    """The full single-pass map, split into its C-linear and conjugate parts.

    With refinement_levels > 0 the extraction is repeated on 2x, 4x, ...
    finer grids to measure convergence; the reported coefficients are those
    of the requested grid; the finest grid must fit OracleGrid's size cap.
    """
    grid._check_size(refinement_levels, f"refinement_levels {refinement_levels}")
    maps = prev = _pass_map(grid)
    ratios: list[float] = []
    order = None
    tolerance = None
    for level in range(1, refinement_levels + 1):
        fine = _pass_map(grid, 2**level)
        ratios.append(float(np.abs(fine - prev).max()))  # over both blocks
        prev = fine
    if len(ratios) >= 2 and ratios[-1] > 0:
        order = float(np.log2(ratios[-2] / ratios[-1]))
    if ratios:
        tolerance = 2 * ratios[-1]
    return OracleResult(
        register=grid.register(),
        linear=maps[0],
        conjugate=maps[1],
        grid=grid,
        refinement_ratios=tuple(ratios),
        estimated_order=order,
        reported_tolerance=tolerance,
    )


def numerical_full_cycle(result: OracleResult) -> LinearInOutMap:
    """Full write-read cycle of the oracle's pass, composed as full_cycle's."""
    n, write = result.grid.order_max, standard_register(result.grid.order_max, "W")
    return cycle_from_write(double_pass(result.to_map().relabeled(write, write), n, "W"), n)


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


def compare(result: OracleResult, analytic: LinearInOutMap, tolerance: float) -> ComparisonReport:
    """Check the extracted C-linear coefficients against an analytic map.

    The pass/fail verdict uses the relative deviation on entries where the
    analytic coefficient is nonzero (above ZERO_THRESHOLD); deviations on
    analytically-zero entries and the conjugate leakage block are reported
    for diagnosis but do not gate the verdict.
    """
    if analytic.input_register != result.register or analytic.output_register != result.register:
        raise ValueError("oracle and analytic registers do not match")
    reference = analytic.coefficients
    deviation = np.abs(result.linear - reference)
    magnitude = np.abs(reference)
    nonzero = magnitude > ZERO_THRESHOLD
    relative = np.divide(deviation, magnitude, out=np.zeros_like(deviation), where=nonzero)
    max_relative = float(relative.max())  # 0 where the reference is zero
    max_zero = float(np.max(deviation, where=~nonzero, initial=0.0))
    # The five largest relative deviations, NaN first; zeros are not violators.
    top = np.argsort(relative, axis=None)[::-1][:5]
    rows, cols = np.unravel_index(top, relative.shape)
    register = result.register
    violators = tuple(
        (str(register[i]), str(register[j]), rel)
        for i, j, rel in zip(rows.tolist(), cols.tolist(), relative.ravel()[top].tolist())
        if not rel <= 0
    )
    return ComparisonReport(
        passed=max_relative <= tolerance,
        tolerance=tolerance,
        max_relative=max_relative,
        max_absolute=float(deviation.max()),
        max_zero_entry=max_zero,
        leakage=result.leakage_magnitude(),
        violators=violators,
    )
