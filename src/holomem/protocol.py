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
import operator
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .algebra import (
    LinearInOutMap,
    ModeLabel,
    compose,
    light,
    realify,
    spin_p,
    spin_x,
    standard_register,
)
from .basis import q_matrix

NOISE_TOLERANCE = 1e-12
# Largest coupling admitted: kappa^2 = 10^4, about 70 times the README
# sweep's 1.4, far above the memory's working point kappa = 1.  Below it
# the largest full-cycle entry is about 0.087 kappa^6 and the largest row
# power about kappa^12 / 63, at any order: no map nears the float range.
MAX_KAPPA = 100.0


def finite(name: str, value) -> float:
    """value as a float, or a ValueError naming the parameter if NaN, inf or past float range."""
    try:
        if math.isfinite(value):
            return float(value)
    except OverflowError:
        raise ValueError(f"{name} is out of the float range") from None
    raise ValueError(f"{name} must be finite, got {value}")


def check_parameters(params, finite_fields: tuple[str, ...], integers: tuple[str, ...]) -> None:
    """The checks ProtocolConfig and OracleGrid share, as a ValueError naming the field.

    Each field named in finite_fields must pass finite, kappa must lie in
    [0, MAX_KAPPA], and each field named in integers must be an integer
    (operator.index, so NumPy integers pass).  order_max must be at most
    1000, far above any order in use (60 at most), so that no register of
    a runaway order is ever built.
    """
    for name in finite_fields:
        finite(name, getattr(params, name))
    if params.kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {params.kappa}")
    if params.kappa > MAX_KAPPA:
        raise ValueError(f"kappa must be <= {MAX_KAPPA:g}, got {params.kappa}")
    for name in integers:
        value = getattr(params, name)
        try:
            operator.index(value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if params.order_max > 1000:
        raise ValueError("order_max must be <= 1000")


def few_layers(grating_phase: float, order_max: int) -> bool:
    """Whether the cell holds too few interference layers for the analytic maps at order_max.

    Calibrated on the oracle's 1% gate at kappa = 1 (README): orders 2 to 6
    fail up to 16 periods, higher orders while the grating overlap's end-point
    ratio (2 order_max + 1)/(dk L) exceeds about 0.1.  The deviation is
    finite-layer physics: a finer z grid or another kappa does not remove it.
    """
    return grating_phase < max(2 * np.pi * 17, (2 * order_max + 1) / 0.1)


@dataclass(frozen=True)
class ProtocolConfig:
    """Protocol parameters.

    kappa: dimensionless coupling constant in [0, MAX_KAPPA] (order unity
        for the memory to work; kappa = 1 is optimal for the double-pass cycle).
    order_max: Legendre truncation order of the spin register (>= 2, since
        the retrieved light involves spin orders up to 2).
    grating_phase: Delta k_z * L, the total grating phase across the cell,
        or None.  No map reads it; if given, it is checked and a cell that
        holds few interference layers at order_max (few_layers) warns.
    """

    kappa: float = 1.0
    order_max: int = 4
    grating_phase: float | None = None

    def __post_init__(self):
        check_parameters(self, ("kappa",), ("order_max",))
        if self.order_max < 2:
            raise ValueError(f"order_max must be >= 2, got {self.order_max}")
        if self.grating_phase is None:
            return
        if finite("grating_phase", self.grating_phase) <= 0:
            raise ValueError("grating_phase must be positive")
        if few_layers(self.grating_phase, self.order_max):
            warnings.warn(
                f"grating phase {self.grating_phase:.3g} at order_max {self.order_max}: "
                "the cell holds few interference layers and the analytic maps "
                "are not reliable",
                stacklevel=3,  # the caller of __init__
            )

    def resonant_depth(self, emission_probability: float) -> float:
        """Resonant optical depth alpha_0 implied by kappa^2 = 2 alpha_0 eta."""
        if not 0 < emission_probability < 1:
            raise ValueError("spontaneous emission probability must lie in (0, 1)")
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
    second_order = -1j * (kappa * kappa) / 2
    mat = np.eye(dim, dtype=complex)
    n = np.arange(n_max + 1)
    x_i, p_i = 1 + n, 2 + n_max + n
    mat[0, p_i[0]] = kappa
    mat[x_i[0], 0] = -1j * kappa
    mat[x_i[0], p_i[0]] = second_order
    mat[x_i[1:], p_i[:-1]] = second_order * np.diagonal(q, -1)
    mat[x_i[:-1], p_i[1:]] = second_order * np.diagonal(q, 1)
    # The standard register lists each label once by construction.
    return LinearInOutMap._owned(register, register, mat)


def interpass_transform(order_max: int, stage: str = "") -> LinearInOutMap:
    """pi/2 spin rotation and pi/2 optical phase shift between two passes.

    a -> i a,  x_n -> -p_n,  p_n -> x_n; built once per (order_max, stage), read-only.
    """
    return _interpass_transform(order_max, stage)


@lru_cache(maxsize=128)
def _interpass_transform(order_max: int, stage: str) -> LinearInOutMap:
    register = standard_register(order_max, stage)
    dim = len(register)
    mat = np.zeros((dim, dim), dtype=complex)
    mat[0, 0] = 1j
    n = np.arange(order_max + 1)
    mat[1 + n, 2 + order_max + n] = -1.0
    mat[2 + order_max + n, 1 + n] = 1.0
    return LinearInOutMap._owned(register, register, mat)


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
    stage is the write stage's read-only matrix over the read register.
    """
    if write.input_register != standard_register(order_max, stage="W"):
        raise ValueError("the write stage must act on standard_register(order_max, 'W')")
    register = cycle_register(order_max)
    read_register = standard_register(order_max, stage="R")
    read = LinearInOutMap._owned(read_register, read_register, write.coefficients)
    return compose(write.embedded(register), read.embedded(register))


def full_cycle(config: ProtocolConfig) -> LinearInOutMap:
    """Complete write-read cycle of the analytic pass (see cycle_from_write)."""
    return cycle_from_write(double_pass_write(config, stage="W"), config.order_max)


def retrieval_cycle(kappa: float) -> LinearInOutMap:
    """full_cycle at kappa and order 4, for its a@R row alone.

    At any order that row reads spin orders 0-2 only: light touches only x_0
    and p_0 in a pass, and Q moves one order per pass.
    """
    return full_cycle(ProtocolConfig(kappa, order_max=4))


def unit_gain(signal: complex, read_in: complex) -> bool:
    """Whether retrieved light with these coefficients is the stored signal plus noise.

    That needs a unit coefficient on the stored signal and none on the
    read-in light, each to NOISE_TOLERANCE.  Phrased so that a NaN
    coefficient fails it too.
    """
    return abs(signal - 1.0) <= NOISE_TOLERANCE and abs(read_in) <= NOISE_TOLERANCE


@dataclass(frozen=True)
class NoiseCoefficients:
    """Coefficients of the added noise f in a_retrieved = a_stored + f.

    At kappa = 1 the noise involves exactly three write-stage spin modes:
    f = c_x1 x_1 + c_p0 p_0 + c_p2 p_2.
    """

    x1: complex
    p0: complex
    p2: complex

    @cached_property
    def rows(self) -> np.ndarray:
        """realify'd f, read-only: its (re, im) rows over the quadratures of (x_1, p_0, p_2)."""
        rows = realify([[self.x1, self.p0, self.p2]])
        rows.flags.writeable = False
        return rows

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
    if not unit_gain(row[a_w], row[a_r]):
        raise ValueError(
            "the noise decomposition a_out = a_in + f holds only at kappa = 1; "
            "use the full-cycle map directly for other couplings"
        )
    noise_labels = {spin_x(1), spin_p(0), spin_p(2)}
    for lab, coeff in row.items():
        if lab in noise_labels or lab in (a_w, a_r):
            continue
        if not abs(coeff) <= NOISE_TOLERANCE:  # NaN included
            raise ValueError(f"unexpected noise contribution from {lab}: {coeff}")
    return NoiseCoefficients(x1=row[spin_x(1)], p0=row[spin_p(0)], p2=row[spin_p(2)])

