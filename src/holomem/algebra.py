"""Mode registers, linear input-output maps, commutators and covariances.

A register is an ordered tuple of ModeLabel, one entry per complex mode
amplitude: the signal light of a given stage, or a collective-spin
amplitude x_n / p_n of Legendre order n.  A LinearInOutMap stores the
complex coefficient matrix that expresses each output amplitude as a
linear combination of input amplitudes; maps over one register compose by
matrix product, and a map over fewer modes is embedded first.

Conventions (used consistently across the package):

* a = (X + iP)/sqrt(2) with vacuum variance <X^2> = <P^2> = 1/2 per real
  quadrature, hbar = 1.
* The simulation works at the pixel level where each complex amplitude m
  carries two independent Hermitian quadratures, its real and imaginary
  parts: m = (m_r + i m_i)/sqrt(2).  For spin amplitudes these are the
  cos/sin grating components (m_r = X_{n,c}, m_i = -X_{n,s}), which are
  independent degrees of freedom in the many-interference-layer regime.
* Same-time commutators: [a, a^dag] = 1 for light, [x_n, p_m^dag] = i
  delta_nm for the spins (and [x_n, p_m] = 0); every other pair commutes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

_KINDS = ("a", "x", "p")
VACUUM_VARIANCE = 0.5


class _ModeLabelFields(NamedTuple):
    kind: str
    order: int = 0
    stage: str = ""


class ModeLabel(_ModeLabelFields):
    """One quadrature degree of freedom in a register.

    kind: "a" for signal light, "x"/"p" for spin amplitudes.
    order: Legendre order for spin modes (0 for light).
    stage: optional tag distinguishing light pulses (e.g. "W" and "R");
        unused for spin modes.

    An immutable tuple (kind, order, stage), so hashing and equality run at
    C speed: every map construction and composition hashes whole registers.
    Every construction route (the constructor, _replace, unpickling) goes
    through the validating __new__.
    """

    __slots__ = ()

    def __new__(cls, kind: str, order: int = 0, stage: str = ""):
        if kind not in _KINDS:
            raise ValueError(f"unknown mode kind {kind!r}")
        if order < 0:
            raise ValueError(f"mode order must be nonnegative, got {order}")
        if kind == "a" and order != 0:
            raise ValueError("light modes carry no Legendre order")
        return super().__new__(cls, kind, order, stage)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def conjugate_partner(self) -> "ModeLabel | None":
        """Canonically conjugate spin label (x_n <-> p_n); None for light."""
        if self.kind == "x":
            return ModeLabel("p", self.order, self.stage)
        if self.kind == "p":
            return ModeLabel("x", self.order, self.stage)
        return None

    def __str__(self):
        if self.kind == "a":
            return f"a@{self.stage}" if self.stage else "a"
        return f"{self.kind}{self.order}"


def light(stage: str = "") -> ModeLabel:
    return ModeLabel("a", 0, stage)


def spin_x(order: int) -> ModeLabel:
    return ModeLabel("x", order)


def spin_p(order: int) -> ModeLabel:
    return ModeLabel("p", order)


@lru_cache(maxsize=128)
def standard_register(order_max: int, stage: str = "") -> tuple[ModeLabel, ...]:
    """Register {a, x_0..x_N, p_0..p_N} of one light pass (cached)."""
    xs = tuple(spin_x(n) for n in range(order_max + 1))
    ps = tuple(spin_p(n) for n in range(order_max + 1))
    return (light(stage),) + xs + ps


def _check_register(register: Sequence[ModeLabel]) -> tuple[ModeLabel, ...]:
    register = tuple(register)
    if len(set(register)) != len(register):
        raise ValueError("register lists a mode label more than once")
    return register


@dataclass(frozen=True)
class LinearInOutMap:
    """Complex linear map from input register amplitudes to output amplitudes.

    coefficients[i, j] is the weight of input mode input_register[j] in
    output mode output_register[i].  There are no affine offsets: the
    protocol is linear, and coherent displacements are irrelevant for the
    noise analysis.
    """

    input_register: tuple[ModeLabel, ...]
    output_register: tuple[ModeLabel, ...]
    coefficients: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "input_register", _check_register(self.input_register))
        object.__setattr__(self, "output_register", _check_register(self.output_register))
        # A copy: freezing the caller's own array would lock it for them.
        mat = np.array(self.coefficients, dtype=complex)
        if mat.shape != (len(self.output_register), len(self.input_register)):
            raise ValueError(
                f"coefficient matrix shape {mat.shape} does not match registers "
                f"({len(self.output_register)} out, {len(self.input_register)} in)"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "coefficients", mat)

    @classmethod
    def _owned(
        cls,
        input_register: tuple[ModeLabel, ...],
        output_register: tuple[ModeLabel, ...],
        coefficients: np.ndarray,
    ) -> "LinearInOutMap":
        """Map over registers already checked, taking over a complex matrix.

        For maps built inside the package: the registers come from maps that
        checked them, and the matrix either has no other owner or is already
        read-only, so it is frozen in place instead of copied.
        """
        inout_map = object.__new__(cls)
        object.__setattr__(inout_map, "input_register", input_register)
        object.__setattr__(inout_map, "output_register", output_register)
        coefficients.setflags(write=False)
        object.__setattr__(inout_map, "coefficients", coefficients)
        return inout_map

    def in_index(self, label: ModeLabel) -> int:
        return self.input_register.index(label)

    def out_index(self, label: ModeLabel) -> int:
        return self.output_register.index(label)

    def coefficient(self, out_label: ModeLabel, in_label: ModeLabel) -> complex:
        return complex(self.coefficients[self.out_index(out_label), self.in_index(in_label)])

    def row(self, out_label: ModeLabel) -> dict[ModeLabel, complex]:
        """Full output row as {input label: coefficient}."""
        r = self.coefficients[self.out_index(out_label)]
        return {lab: complex(c) for lab, c in zip(self.input_register, r)}

    def relabeled(
        self, input_register: Sequence[ModeLabel], output_register: Sequence[ModeLabel]
    ) -> "LinearInOutMap":
        """Same coefficients over renamed registers (sizes must match)."""
        return LinearInOutMap(input_register, output_register, self.coefficients)

    def embedded(self, register: Sequence[ModeLabel]) -> "LinearInOutMap":
        """Extend an endomap to a larger register, acting as identity elsewhere."""
        if self.input_register != self.output_register:
            raise ValueError("only endomaps (equal registers) can be embedded")
        register = tuple(register)
        block = _embed_plan(register, self.input_register)
        mat = np.eye(len(register), dtype=complex)
        mat[block] = self.coefficients
        return LinearInOutMap._owned(register, register, mat)


@lru_cache(maxsize=256)
def _embed_plan(
    register: tuple[ModeLabel, ...], inner: tuple[ModeLabel, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """np.ix_ block of `register` that holds the modes of `inner`, read-only."""
    position = {lab: i for i, lab in enumerate(_check_register(register))}
    try:
        idx = [position[lab] for lab in inner]
    except KeyError as exc:
        raise ValueError(f"embedding register is missing a mode: {exc.args[0]}") from None
    block = np.ix_(idx, idx)
    for index in block:
        index.flags.writeable = False
    return block


def compose(first: LinearInOutMap, second: LinearInOutMap) -> LinearInOutMap:
    """Map applying `first`, then `second` (coefficients second @ first).

    `second` must read exactly the register `first` writes, in its order;
    a map over fewer modes is lifted onto that register with `embedded`.
    """
    produced, consumed = first.output_register, second.input_register
    if consumed is not produced and consumed != produced:
        missing = next((lab for lab in consumed if lab not in produced), None)
        if missing is not None:
            raise ValueError(f"register mismatch: {missing} not produced by first map")
        raise ValueError(
            "register mismatch: second map does not read first's output register "
            "in order (lift it with embedded)"
        )
    return LinearInOutMap._owned(
        first.input_register, second.output_register, second.coefficients @ first.coefficients
    )


# ---------------------------------------------------------------------------
# Real-quadrature (pixel level) picture
# ---------------------------------------------------------------------------


def realify(linear: np.ndarray, conjugate: np.ndarray | None = None) -> np.ndarray:
    """Real quadrature matrix of the map m_out = linear m + conjugate conj(m).

    Each complex mode contributes the (re, im) pair of Hermitian quadratures
    of m = (m_r + i m_i)/sqrt(2); a C-linear coefficient c maps to the block
    [[Re c, -Im c], [Im c, Re c]] and an antilinear coefficient to
    [[Re, Im], [Im, -Re]].
    """
    linear = np.asarray(linear, dtype=complex)
    n_out, n_in = linear.shape
    s = np.zeros((2 * n_out, 2 * n_in))
    s[0::2, 0::2] = linear.real
    s[0::2, 1::2] = -linear.imag
    s[1::2, 0::2] = linear.imag
    s[1::2, 1::2] = linear.real
    if conjugate is not None:
        conjugate = np.asarray(conjugate, dtype=complex)
        s[0::2, 0::2] += conjugate.real
        s[0::2, 1::2] += conjugate.imag
        s[1::2, 0::2] += conjugate.imag
        s[1::2, 1::2] -= conjugate.real
    return s


def symplectic_form(register: Sequence[ModeLabel]) -> np.ndarray:
    """Antisymmetric Omega with [u_a, u_b] = i Omega_ab over the quadratures.

    Light pairs (a_r, a_i) are mutually conjugate; spin quadratures pair
    (x_n)_r with (p_n)_r and (x_n)_i with (p_n)_i.  Spin modes whose partner
    is absent from the register commute with everything.  Built once per
    register and shared read-only.
    """
    return _symplectic_form(tuple(register))


@lru_cache(maxsize=16)  # 0.5 MB each for an order-60 cycle register
def _symplectic_form(register: tuple[ModeLabel, ...]) -> np.ndarray:
    omega = np.zeros((2 * len(register), 2 * len(register)))
    for i, lab in enumerate(register):
        if lab.kind == "a":
            omega[2 * i, 2 * i + 1] = 1.0
            omega[2 * i + 1, 2 * i] = -1.0
        elif lab.kind == "x":
            partner = lab.conjugate_partner()
            if partner in register:
                j = register.index(partner)
                omega[2 * i, 2 * j] = 1.0
                omega[2 * j, 2 * i] = -1.0
                omega[2 * i + 1, 2 * j + 1] = 1.0
                omega[2 * j + 1, 2 * i + 1] = -1.0
    omega.flags.writeable = False
    return omega


def light_commutator_from_rows(rows: np.ndarray, register: Sequence[ModeLabel]) -> float:
    """[a_out, a_out^dag] from one output's (re, im) rows of a real-quadrature map u' = S u.

    This is (rows Omega rows^T)[0, 1], an entry of the output commutators
    S Omega S^T = [u'_a, u'_b] / i, which equal Omega when S preserves them.
    """
    return float((rows @ _symplectic_form(tuple(register)) @ rows.T)[0, 1])


# ---------------------------------------------------------------------------
# Covariance propagation
# ---------------------------------------------------------------------------


def squeezed_variance(r: float) -> float:
    """(1/2) e^{-2r}, the variance of a quadrature squeezed by a finite r >= 0."""
    if not math.isfinite(r):
        raise ValueError(f"squeezing parameter r must be finite, got {r}")
    if r < 0:
        raise ValueError("squeezing parameter r must be nonnegative")
    return VACUUM_VARIANCE * np.exp(-2 * float(r))  # float: -2r warns for a NumPy r > 9e307


@dataclass(frozen=True)
class CovarianceSpec:
    """Independent per-mode quadrature variances for the register inputs.

    Each complex mode carries a (re, im) variance pair; a mode not listed
    is in vacuum (1/2 per quadrature).  A zero variance is admitted as the
    ideal-squeezing limit, in which case the uncertainty-product check on
    the x/p pair is waived (the partner is implicitly unbounded; an
    infinite variance, the antisqueezed partner of an ideal squeeze, is
    admitted for the same reason).
    """

    variances: Mapping[ModeLabel, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "variances", dict(self.variances))
        for lab, (vr, vi) in self.variances.items():
            if math.isnan(vr) or math.isnan(vi):
                raise ValueError(f"NaN variance assigned to {lab}")
            if vr < 0 or vi < 0:
                raise ValueError(f"negative variance assigned to {lab}")
            if lab.kind == "a":
                if vr * vi > 0 and vr * vi < 0.25 * (1 - 1e-12):
                    raise ValueError(
                        f"light mode {lab}: quadrature variance product below 1/4"
                    )
        for lab, (vr, vi) in self.variances.items():
            partner = lab.conjugate_partner()
            if partner is None:
                continue
            pr, pi = self.variance_pair(partner)
            for v, pv in ((vr, pr), (vi, pi)):
                if v == 0 or pv == 0:
                    continue
                if v * pv < 0.25 * (1 - 1e-12):
                    raise ValueError(
                        f"{lab}/{partner}: quadrature variance product below 1/4"
                    )

    @classmethod
    def vacuum(cls) -> "CovarianceSpec":
        return cls()

    def variance_pair(self, label: ModeLabel) -> tuple[float, float]:
        """(re, im) variances of a mode; vacuum if it is not listed."""
        return self.variances.get(label, (VACUUM_VARIANCE, VACUUM_VARIANCE))


def transport_covariance(s: np.ndarray, variances: np.ndarray) -> np.ndarray:
    """S diag(variances) S^T, the covariance of u' = S u over independent inputs u.

    An infinite variance makes infinite each entry it reaches by a nonzero coefficient.
    """
    infinite = np.isinf(variances)
    cov = (s * np.where(infinite, 0.0, variances)) @ s.T
    if infinite.any():
        # Fill from the outer products of the infinite columns: a product
        # with them would give 0 * inf = NaN where a coefficient is zero.
        unbounded = s[:, infinite] @ s[:, infinite].T
        cov = np.where(unbounded == 0, cov, np.copysign(np.inf, unbounded))
    return cov

