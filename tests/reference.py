"""Frozen closed-form coefficients used as independent cross-checks.

The package builds every multi-pass map by composing the single-pass
primitive; the tests check those compositions against the closed-form
coefficient polynomials below, which were derived by hand once and are
never computed from the package's own composition machinery.  The
straightforward label-scan composition the package once used is kept
here too, as the reference its indexed composition must reproduce, with
an entry-by-entry embedding as the reference for its cached one, and
so is the oracle's pass map as it was first computed: one spin order at a
time, with a Filon cumulative sum per source integral and a projector
solved against every grid point.  The package gets commutators from the
symplectic form and noise variances from S Sigma S^T; the complex
commutator pairing and the hand-derived noise sums it once used are kept
here as the references for both.
"""

from typing import Sequence

import numpy as np

from holomem import basis
from holomem.algebra import CovarianceSpec, LinearInOutMap, ModeLabel, light, spin_p, spin_x
from holomem.basis import simpson_weights
from holomem.oracle import _carrier_segment_weights

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)
SQRT15 = np.sqrt(15.0)


def single_pass_rows(k: float) -> dict[ModeLabel, dict[ModeLabel, complex]]:
    """Nonzero rows of one pass: light and the two lowest x modes."""
    return {
        light(): {light(): 1.0, spin_p(0): k},
        spin_x(0): {
            spin_x(0): 1.0,
            light(): -1j * k,
            spin_p(0): -1j * k**2 / 2,
            spin_p(1): 1j * k**2 / (2 * SQRT3),
        },
        spin_x(1): {
            spin_x(1): 1.0,
            spin_p(0): -1j * k**2 / (2 * SQRT3),
            spin_p(2): 1j * k**2 / (2 * SQRT15),
        },
    }


def write_stage_rows(k: float) -> dict[ModeLabel, dict[ModeLabel, complex]]:
    """The four displayed rows of one double-pass stage (write or read)."""
    return {
        light(): {
            light(): 1j * (1 - k**2),
            spin_p(0): 1j * k * (1 - k**2 / 2),
            spin_x(0): k,
            spin_p(1): 1j * k**3 / (2 * SQRT3),
        },
        spin_x(0): {
            light(): k * (1 - k**2 / 2),
            spin_p(0): -(1 - k**2 + k**4 / 6),
            spin_x(0): -1j * k**2 / 2,
            spin_x(1): 1j * k**2 / (2 * SQRT3),
            spin_p(1): k**4 / (4 * SQRT3),
            spin_p(2): -(k**4) / (12 * SQRT5),
        },
        spin_p(0): {
            spin_x(0): 1.0,
            light(): -1j * k,
            spin_p(0): -1j * k**2 / 2,
            spin_p(1): 1j * k**2 / (2 * SQRT3),
        },
        spin_p(1): {
            spin_x(1): 1.0,
            spin_p(0): -1j * k**2 / (2 * SQRT3),
            spin_p(2): 1j * k**2 / (2 * SQRT15),
        },
    }


def cycle_retrieved_light_row(k: float) -> dict[ModeLabel, complex]:
    """Retrieved-light row of the full write-read cycle."""
    return {
        light("W"): k**2 * (2 - k**2),
        light("R"): 1j * (1 - k**2),
        spin_p(0): -k * (1 - 1.5 * k**2 + k**4 / 3),
        spin_x(0): 1j * k * (1 - k**2),
        spin_x(1): 1j * k**3 / SQRT3,
        spin_p(1): -(k**3) / (2 * SQRT3) * (1 - k**2),
        spin_p(2): -(k**5) / (6 * SQRT5),
    }


def classical_retrieved_light_row(k: float) -> dict[ModeLabel, complex]:
    """Retrieved-light row of the single-pass (classical hologram) cycle."""
    return {
        light("W"): -1j * k**2,
        light("R"): 1.0,
        spin_x(0): k,
        spin_p(0): -1j * k**3 / 2,
        spin_p(1): 1j * k**3 / (2 * SQRT3),
    }


def noise_coefficients() -> dict[ModeLabel, complex]:
    """Added-noise coefficients of the optimally coupled cycle."""
    return {
        spin_x(1): 1j / SQRT3,
        spin_p(0): 1.0 / 6.0,
        spin_p(2): -1.0 / (6 * SQRT5),
    }


def squeezed_average_fidelity(r: float) -> float:
    """Closed-form per-pixel fidelity with the three noise modes squeezed."""
    return 1.0 / (1.0 + (11.0 / 60.0) * np.exp(-2.0 * r))


class CommutatorTable:
    """Canonical same-time pairing [m, m'^dag] between register modes.

    Light with itself gives 1; a spin x_n with the p_n of equal order (and
    stage) gives +/- i; all other pairs commute.  The convention follows the
    pixel-level picture in which the real and imaginary parts of each
    non-Hermitian amplitude are independent Hermitian quadratures and the
    conjugate pairs are (x_n)_r with (p_n)_r and (x_n)_i with (p_n)_i.
    """

    def pairing(self, first: ModeLabel, second: ModeLabel) -> complex:
        """[first, second^dag] as a c-number."""
        if first.kind == "a" and first == second:
            return 1.0 + 0.0j
        if first.order == second.order and first.stage == second.stage:
            if first.kind == "x" and second.kind == "p":
                return 1.0j
            if first.kind == "p" and second.kind == "x":
                return -1.0j
        return 0.0 + 0.0j

    def matrix(self, register: Sequence[ModeLabel]) -> np.ndarray:
        register = tuple(register)
        k = np.zeros((len(register), len(register)), dtype=complex)
        for i, a in enumerate(register):
            for j, b in enumerate(register):
                k[i, j] = self.pairing(a, b)
        return k


def output_commutator(
    inout_map: LinearInOutMap, table: CommutatorTable, out_label: ModeLabel
) -> complex:
    """[O, O^dag] of one output mode, from input commutators and the map.

    For O = sum_k c_k m_k this is sum_{k,l} c_k conj(c_l) [m_k, m_l^dag].
    An analytic protocol map that preserves the canonical structure returns
    exactly 1 for the retrieved light mode.
    """
    c = inout_map.coefficients[inout_map.out_index(out_label)]
    k = table.matrix(inout_map.input_register)
    return complex(c @ k @ np.conj(c))


def hand_noise_variances(noise, spin_spec: CovarianceSpec) -> tuple[float, float, float]:
    """(var F_X, var F_P, cov(F_X, F_P)) of F = sum_k c_k m_k, summed by hand.

    With independent spin inputs the Hermitian noise quadratures obey

        var F_X = sum_k [(Re c_k)^2 V_re(k) + (Im c_k)^2 V_im(k)]
        var F_P = sum_k [(Im c_k)^2 V_re(k) + (Re c_k)^2 V_im(k)]
        cov     = sum_k Re c_k Im c_k (V_re(k) - V_im(k))

    in terms of the per-mode quadrature variances V.  A term whose
    coefficient part is zero contributes nothing, even against an infinite
    variance.
    """

    def term(weight: float, variance: float) -> float:
        return weight * variance if weight else 0.0

    var_x = 0.0
    var_p = 0.0
    cross = 0.0
    for label, coeff in noise.items():
        v_re, v_im = spin_spec.variance_pair(label)
        re2, im2 = coeff.real**2, coeff.imag**2
        var_x += term(re2, v_re) + term(im2, v_im)
        var_p += term(im2, v_re) + term(re2, v_im)
        if v_re != v_im:
            cross += term(coeff.real * coeff.imag, v_re - v_im)
    return var_x, var_p, cross


def row_as_vector(row: dict[ModeLabel, complex], register) -> np.ndarray:
    """Dense coefficient vector of a sparse row over the given register."""
    vec = np.zeros(len(register), dtype=complex)
    for lab, coeff in row.items():
        vec[register.index(lab)] = coeff
    return vec


def tuple_scan_compose(first: LinearInOutMap, second: LinearInOutMap) -> LinearInOutMap:
    """`first`, then `second`, with every label looked up by scanning the registers.

    Outputs of `first` that `second` does not consume pass through
    unchanged, appended in their order in `first`'s output register.
    """
    produced = first.output_register
    consumed = second.input_register
    missing = [lab for lab in consumed if lab not in produced]
    if missing:
        raise ValueError(f"register mismatch: {missing[0]} not produced by first map")
    cols = [produced.index(lab) for lab in consumed]
    aligned = np.zeros((len(second.output_register), len(produced)), dtype=complex)
    aligned[:, cols] = second.coefficients
    passthrough = [lab for lab in produced if lab not in consumed]
    rows = np.zeros((len(passthrough), len(produced)), dtype=complex)
    for i, lab in enumerate(passthrough):
        rows[i, produced.index(lab)] = 1.0
    full = np.vstack([aligned, rows]) if passthrough else aligned
    out_register = second.output_register + tuple(passthrough)
    return LinearInOutMap(first.input_register, out_register, full @ first.coefficients)


def label_lookup_embedded(inner: LinearInOutMap, register) -> LinearInOutMap:
    """Endomap `inner` over `register`, every entry looked up by its labels.

    An entry whose two labels are both modes of `inner` takes inner's
    coefficient; every other entry is that of the identity.
    """
    register = tuple(register)
    missing = [lab for lab in inner.input_register if lab not in register]
    if missing:
        raise ValueError(f"embedding register is missing a mode: {missing[0]}")
    inner_modes = set(inner.input_register)
    mat = np.zeros((len(register), len(register)), dtype=complex)
    for i, out_label in enumerate(register):
        for j, in_label in enumerate(register):
            if out_label in inner_modes and in_label in inner_modes:
                mat[i, j] = inner.coefficient(out_label, in_label)
            elif i == j:
                mat[i, j] = 1.0
    return LinearInOutMap(register, register, mat)


class PerOrderPass:
    """One oracle pass swept one spin order at a time, in a cell of any length.

    The oracle works on the unit cell and a unit pulse; this reference
    carries the cell length L and the pulse duration T itself, with the
    coupling kappa/sqrt(LT) and the wavenumber Delta_k = grating phase / L,
    so comparing the two checks that L and T drop out.  It samples
    theta_n(z, L) order by order with basis.theta, projects with the
    (order_max+1, z) matrix G^{-1} Theta W, and integrates each source term
    by a Filon cumulative sum; the package computes the same map from
    chunked matrix products over all orders at once.
    """

    def __init__(self, grid, length=1.0, duration=1.0):
        self.grid = grid
        self.length, self.duration = length, duration
        self.z = np.linspace(-length / 2, length / 2, grid.z_points)
        self.h = self.z[1] - self.z[0]
        dk = grid.effective_phase / length
        self.carrier_pos = np.exp(1j * dk * self.z)  # e^{+i Delta_k z}
        self.carrier_neg = np.conj(self.carrier_pos)
        self.thetas = np.array([basis.theta(n, self.z, length) for n in range(grid.order_max + 1)])
        weighted = self.thetas * simpson_weights(self.z.size, self.h)
        self.projector = np.linalg.solve(weighted @ self.thetas.T, weighted)
        # Filon weights for the source integral against e^{-i Delta_k z}:
        # the segment factor e^{-i Delta_k z_j} is the sampled negative carrier.
        self._w0, self._w1 = _carrier_segment_weights(-dk * self.h)

    def project(self, field: np.ndarray) -> np.ndarray:
        return self.projector @ field.real + 1j * (self.projector @ field.imag)

    def cumulative_source_integral(self, p_field: np.ndarray) -> np.ndarray:
        """F[j] = int_{-L/2}^{z_j} P(z') e^{-i Delta_k z'} dz', piecewise-linear P."""
        seg = self.h * self.carrier_neg[:-1] * (self._w0 * p_field[:-1] + self._w1 * p_field[1:])
        return np.concatenate([[0.0], np.cumsum(seg)])

    def pass_map(self) -> tuple[np.ndarray, np.ndarray]:
        """(linear, conjugate) with out = linear @ u + conjugate @ conj(u)."""
        grid = self.grid
        n_spin = grid.order_max + 1
        dim = 1 + 2 * n_spin
        coupling = grid.kappa / np.sqrt(self.length * self.duration)
        sqrt_t = np.sqrt(self.duration)
        x_rows, p_rows = slice(1, 1 + n_spin), slice(1 + n_spin, dim)
        counter = self.carrier_neg**2
        x_gain = -1j * self.duration * coupling
        linear = np.zeros((dim, dim), dtype=complex)
        conjugate = np.zeros((dim, dim), dtype=complex)

        linear[0, 0] = 1.0
        linear[x_rows, 0] = -1j * coupling * sqrt_t * self.project(np.ones(self.z.size))
        conjugate[x_rows, 0] = 1j * coupling * sqrt_t * self.project(counter)
        for k, theta in enumerate(self.thetas):
            x_col, p_col = 1 + k, 1 + n_spin + k
            seed_linear = self.project(theta)
            seed_conjugate = self.project(theta * counter)
            linear[x_rows, x_col] = linear[p_rows, p_col] = seed_linear
            conjugate[x_rows, x_col] = conjugate[p_rows, p_col] = seed_conjugate

            alpha = coupling * self.cumulative_source_integral(theta * self.carrier_pos)
            beta = coupling * self.cumulative_source_integral(theta * self.carrier_neg)
            linear[0, p_col] = alpha[-1] * sqrt_t
            conjugate[0, p_col] = beta[-1] * sqrt_t
            linear[x_rows, p_col] = x_gain * self.project(alpha - np.conj(beta) * counter)
            conjugate[x_rows, p_col] = x_gain * self.project(beta - np.conj(alpha) * counter)
        return linear, conjugate
