"""Analytic input-output maps of the double-pass holographic memory.

One pass of signal light through the spin-polarized cell is a QND-type
interaction: the light picks up the lowest spin mode p_0, each spin mode
x_n records the light and its p-neighbours, and every p_n is conserved.
Write and read stages each consist of two such passes separated by a pi/2
spin rotation plus a pi/2 optical phase shift; at coupling kappa = 1 the
full write-read cycle returns the stored signal exactly, plus an added
noise operator built from three spin modes.

All multi-pass maps here are constructed by composing the single-pass
primitive, never by transcribing the closed-form coefficients; the closed
forms serve as independent cross-checks in the test suite.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .algebra import (
    LinearInOutMap,
    ModeLabel,
    compose,
    light,
    spin_p,
    spin_x,
    standard_register,
)
from .basis import q_matrix

# The analytic maps assume many interference layers along the cell.
MANY_LAYER_PHASE = 10 * np.pi

NOISE_TOLERANCE = 1e-12


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol parameters.

    kappa: dimensionless coupling constant (order unity for the memory to
        work; kappa = 1 is optimal for the double-pass cycle).
    order_max: Legendre truncation order of the spin register (>= 2, since
        the retrieved light involves spin orders up to 2).
    grating_phase: Delta k_z * L, the total grating phase across the cell.
        Only the oracle resolves it; here it gates a validity warning.
    """

    kappa: float = 1.0
    order_max: int = 4
    grating_phase: float = 200 * np.pi

    def __post_init__(self):
        for name in ("kappa", "grating_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.kappa < 0:
            raise ValueError(f"kappa must be nonnegative, got {self.kappa}")
        if self.order_max < 2:
            raise ValueError(f"order_max must be >= 2, got {self.order_max}")
        if self.grating_phase <= 0:
            raise ValueError("grating_phase must be positive")
        if self.grating_phase < MANY_LAYER_PHASE:
            warnings.warn(
                f"grating phase {self.grating_phase:.3g} < {MANY_LAYER_PHASE:.3g}: "
                "the cell holds few interference layers and the analytic maps "
                "are not reliable",
                stacklevel=2,
            )

    def resonant_depth(self, emission_probability: float) -> float:
        """Resonant optical depth alpha_0 implied by kappa^2 = 2 alpha_0 eta."""
        if not 0 < emission_probability < 1:
            raise ValueError("spontaneous emission probability must lie in (0, 1)")
        # A float product overflows to inf; kappa**2 would raise OverflowError.
        return (self.kappa * self.kappa) / (2 * emission_probability)


@lru_cache(maxsize=128)
def cycle_register(order_max: int) -> tuple[ModeLabel, ...]:
    """Register of the full cycle: write light, spins, fresh read light (cached)."""
    return standard_register(order_max, stage="W") + (light("R"),)


@lru_cache(maxsize=64)
def _shared_q_matrix(order_max: int) -> np.ndarray:
    """basis.q_matrix(order_max), built once per order and shared read-only."""
    q = q_matrix(order_max)
    q.flags.writeable = False
    return q


def single_pass(config: ProtocolConfig, stage: str = "") -> LinearInOutMap:
    """One pass of light through the cell.

    Over the register {a, x_0..N, p_0..N}:

        a'   = a + kappa p_0
        x_0' = x_0 - i kappa a - i (kappa^2/2) [p_0 + Q_{0,1} p_1]
        x_n' = x_n - i (kappa^2/2) [Q_{n,n-1} p_{n-1} + Q_{n,n+1} p_{n+1}]
        p_n' = p_n

    with p_{N+1} truncated to zero.  The p modes are conserved: that is the
    QND character of the pass.
    """
    n_max = config.order_max
    register = standard_register(n_max, stage)
    dim = len(register)
    q = _shared_q_matrix(n_max)
    kappa = config.kappa
    # A float product overflows to inf, which callers detect; kappa**2 would
    # raise OverflowError instead.
    second_order = -1j * (kappa * kappa) / 2
    mat = np.eye(dim, dtype=complex)
    n = np.arange(n_max + 1)
    x_i, p_i = 1 + n, 2 + n_max + n
    mat[0, p_i[0]] = kappa
    mat[x_i[0], 0] = -1j * kappa
    mat[x_i[0], p_i[0]] = second_order
    mat[x_i[1:], p_i[:-1]] = second_order * np.diagonal(q, -1)
    mat[x_i[:-1], p_i[1:]] = second_order * np.diagonal(q, 1)
    return LinearInOutMap(register, register, mat)


def interpass_transform(order_max: int, stage: str = "") -> LinearInOutMap:
    """pi/2 spin rotation and pi/2 optical phase shift between two passes.

    a -> i a,  x_n -> -p_n,  p_n -> x_n.
    """
    register = standard_register(order_max, stage)
    dim = len(register)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1j
    n = np.arange(order_max + 1)
    mat[1 + n, 2 + order_max + n] = -1.0
    mat[2 + order_max + n, 1 + n] = 1.0
    return LinearInOutMap(register, register, mat)


def double_pass(one: LinearInOutMap, order_max: int, stage: str = "") -> LinearInOutMap:
    """One full stage (write or read): pass, interpass transform, pass.

    `one` is a single pass over standard_register(order_max, stage): the
    analytic single_pass, or a pass map extracted by the oracle.
    """
    return compose(compose(one, interpass_transform(order_max, stage)), one)


def double_pass_write(config: ProtocolConfig, stage: str = "") -> LinearInOutMap:
    """One full stage of the analytic pass (see double_pass)."""
    return double_pass(single_pass(config, stage), config.order_max, stage)


def cycle_from_write(write: LinearInOutMap, order_max: int) -> LinearInOutMap:
    """Complete write-read cycle over {a@W, x_0..N, p_0..N, a@R}.

    `write` is one double-pass stage over standard_register(order_max, "W").
    The read stage consumes the write-stage spin outputs directly and a
    fresh light pulse a@R; in the output register the a@R coordinate holds
    the retrieved light and a@W the discarded write-stage light.  The
    coefficients of a stage do not depend on its light pulse, so the read
    stage is the write stage's matrix relabelled onto the read register.
    """
    register = cycle_register(order_max)
    read_register = standard_register(order_max, stage="R")
    read = write.relabeled(read_register, read_register)
    return compose(write.embedded(register), read.embedded(register))


def full_cycle(config: ProtocolConfig) -> LinearInOutMap:
    """Complete write-read cycle of the analytic pass (see cycle_from_write)."""
    return cycle_from_write(double_pass_write(config, stage="W"), config.order_max)


def classical_single_pass_cycle(config: ProtocolConfig) -> LinearInOutMap:
    """Single-pass write and read with an interstage spin rotation.

    This is the classical-hologram baseline: a single pass each way with
    p_n^(read in) = x_n^(write out).  At kappa = 1 the signal is restored
    with proper amplitude (times -i), but the light and the atoms keep a
    memory of their initial states, which caps the fidelity at the
    classical level.
    """
    n_max = config.order_max
    register = cycle_register(n_max)
    dim = len(register)
    write = single_pass(config, stage="W").embedded(register)
    read = single_pass(config, stage="R").embedded(register)
    rotation = np.eye(dim, dtype=complex)
    n = np.arange(n_max + 1)
    x_i, p_i = 1 + n, 2 + n_max + n
    rotation[x_i, x_i] = 0.0
    rotation[p_i, p_i] = 0.0
    rotation[x_i, p_i] = -1.0
    rotation[p_i, x_i] = 1.0
    rotate = LinearInOutMap(register, register, rotation)
    return compose(compose(write, rotate), read)


@dataclass(frozen=True)
class NoiseCoefficients:
    """Coefficients of the added noise f in a_retrieved = a_stored + f.

    At kappa = 1 the noise involves exactly three write-stage spin modes:
    f = c_x1 x_1 + c_p0 p_0 + c_p2 p_2.
    """

    x1: complex
    p0: complex
    p2: complex

    def items(self) -> tuple[tuple[ModeLabel, complex], ...]:
        return ((spin_x(1), self.x1), (spin_p(0), self.p0), (spin_p(2), self.p2))

    def power(self) -> float:
        """Sum of squared coefficient magnitudes (11/30 for this protocol)."""
        return abs(self.x1) ** 2 + abs(self.p0) ** 2 + abs(self.p2) ** 2


def extract_noise(cycle: LinearInOutMap) -> NoiseCoefficients:
    """Added-noise coefficients of the retrieved light of a full-cycle map.

    Valid only at kappa = 1, where the retrieved light carries the stored
    signal with unit coefficient and no trace of the read-in light; any
    other coupling is rejected (inspect the full map instead).  All
    non-signal coefficients outside {x_1, p_0, p_2} are asserted to vanish.
    """
    reg = cycle.input_register
    try:
        a_w = next(lab for lab in reg if lab.kind == "a" and lab.stage == "W")
        a_r = next(lab for lab in reg if lab.kind == "a" and lab.stage == "R")
    except StopIteration:
        raise ValueError("expected a full-cycle map with W and R light modes") from None
    row = cycle.row(a_r)
    # Phrased so that a NaN coefficient fails the check too.
    if not (abs(row[a_w] - 1.0) <= NOISE_TOLERANCE and abs(row[a_r]) <= NOISE_TOLERANCE):
        raise ValueError(
            "the noise decomposition a_out = a_in + f holds only at kappa = 1; "
            "use the full-cycle map directly for other couplings"
        )
    noise_labels = {spin_x(1), spin_p(0), spin_p(2)}
    for lab, coeff in row.items():
        if lab in noise_labels or lab in (a_w, a_r):
            continue
        if abs(coeff) > NOISE_TOLERANCE:
            raise ValueError(f"unexpected noise contribution from {lab}: {coeff}")
    return NoiseCoefficients(x1=row[spin_x(1)], p0=row[spin_p(0)], p2=row[spin_p(2)])

