"""Mode registers, linear input-output maps, commutators and covariances.

A register is an ordered tuple of ModeLabel, one entry per complex mode
amplitude: the signal light of a given stage, or a collective-spin
amplitude x_n / p_n of Legendre order n.  A LinearInOutMap stores the
complex coefficient matrix that expresses each output amplitude as a
linear combination of input amplitudes; maps compose by matrix product
with register bookkeeping.

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
from typing import Iterable, Mapping, Sequence

import numpy as np

_KINDS = ("a", "x", "p")
VACUUM_VARIANCE = 0.5


@dataclass(frozen=True)
class ModeLabel:
    """One quadrature degree of freedom in a register.

    kind: "a" for signal light, "x"/"p" for spin amplitudes.
    order: Legendre order for spin modes (0 for light).
    stage: optional tag distinguishing light pulses (e.g. "W" and "R");
        unused for spin modes.
    """

    kind: str
    order: int = 0
    stage: str = ""

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown mode kind {self.kind!r}")
        if self.order < 0:
            raise ValueError(f"mode order must be nonnegative, got {self.order}")
        if self.kind == "a" and self.order != 0:
            raise ValueError("light modes carry no Legendre order")

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


def standard_register(order_max: int, stage: str = "") -> tuple[ModeLabel, ...]:
    """Register {a, x_0..x_N, p_0..p_N} of one light pass."""
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
        mat = np.asarray(self.coefficients, dtype=complex)
        if mat.shape != (len(self.output_register), len(self.input_register)):
            raise ValueError(
                f"coefficient matrix shape {mat.shape} does not match registers "
                f"({len(self.output_register)} out, {len(self.input_register)} in)"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "coefficients", mat)

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
        self,
        input_register: Sequence[ModeLabel] | None = None,
        output_register: Sequence[ModeLabel] | None = None,
    ) -> "LinearInOutMap":
        """Same coefficients over renamed registers (sizes must match)."""
        return LinearInOutMap(
            input_register=self.input_register if input_register is None else tuple(input_register),
            output_register=self.output_register if output_register is None else tuple(output_register),
            coefficients=self.coefficients,
        )

    def embedded(self, register: Sequence[ModeLabel]) -> "LinearInOutMap":
        """Extend an endomap to a larger register, acting as identity elsewhere."""
        if self.input_register != self.output_register:
            raise ValueError("only endomaps (equal registers) can be embedded")
        register = _check_register(register)
        position = {lab: i for i, lab in enumerate(register)}
        try:
            idx = [position[lab] for lab in self.input_register]
        except KeyError as exc:
            raise ValueError(f"embedding register is missing a mode: {exc.args[0]}") from None
        mat = np.eye(len(register), dtype=complex)
        mat[np.ix_(idx, idx)] = self.coefficients
        return LinearInOutMap(register, register, mat)


def identity_map(register: Sequence[ModeLabel]) -> LinearInOutMap:
    register = tuple(register)
    return LinearInOutMap(register, register, np.eye(len(register), dtype=complex))


def compose(first: LinearInOutMap, second: LinearInOutMap) -> LinearInOutMap:
    """Map applying `first`, then `second` (coefficients second @ first).

    The input register of `second` must consist of labels produced by
    `first`; any output of `first` not consumed by `second` is padded
    through unchanged and appended to the composite output register.
    """
    produced = first.output_register
    consumed = second.input_register
    position = {lab: i for i, lab in enumerate(produced)}
    try:
        cols = [position[lab] for lab in consumed]
    except KeyError as exc:
        raise ValueError(f"register mismatch: {exc.args[0]} not produced by first map") from None
    kept = np.delete(np.arange(len(produced)), cols)
    n_second = len(second.output_register)
    full = np.zeros((n_second + len(kept), len(produced)), dtype=complex)
    full[:n_second, cols] = second.coefficients
    full[np.arange(n_second, len(full)), kept] = 1.0
    out_register = second.output_register + tuple(produced[i] for i in kept)
    return LinearInOutMap(first.input_register, out_register, full @ first.coefficients)


# ---------------------------------------------------------------------------
# Real-quadrature (pixel level) picture
# ---------------------------------------------------------------------------


def quadrature_register(register: Sequence[ModeLabel]) -> tuple[tuple[ModeLabel, str], ...]:
    """(label, "re"/"im") pairs, two Hermitian quadratures per complex mode."""
    out = []
    for lab in register:
        out.append((lab, "re"))
        out.append((lab, "im"))
    return tuple(out)


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
    is absent from the register commute with everything.
    """
    register = tuple(register)
    quads = quadrature_register(register)
    omega = np.zeros((len(quads), len(quads)))
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
    return omega


def light_commutator_from_quadratures(
    s: np.ndarray, register: Sequence[ModeLabel], out_label: ModeLabel
) -> float:
    """[a_out, a_out^dag] of a real-quadrature map u' = S u.

    This is the (re, im) entry of S Omega S^T, the output commutators
    [u'_a, u'_b] / i, which equal Omega when the map preserves them.
    """
    register = tuple(register)
    comm = s @ symplectic_form(register) @ s.T
    i = 2 * register.index(out_label)
    return float(comm[i, i + 1])


# ---------------------------------------------------------------------------
# Covariance propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CovarianceSpec:
    """Independent per-mode quadrature variances for the register inputs.

    Each complex mode carries a (re, im) variance pair; unlisted modes fall
    back to `default` (vacuum 1/2) unless default is None, in which case
    every mode the propagation touches must be listed explicitly.  A zero
    variance is admitted as the ideal-squeezing limit, in which case the
    uncertainty-product check on the x/p pair is waived (the partner is
    implicitly unbounded; an infinite variance, the antisqueezed partner
    of an ideal squeeze, is admitted for the same reason).
    """

    variances: Mapping[ModeLabel, tuple[float, float]] = field(default_factory=dict)
    default: float | None = VACUUM_VARIANCE

    def __post_init__(self):
        object.__setattr__(self, "variances", dict(self.variances))
        if self.default is not None and not math.isfinite(self.default):
            raise ValueError(f"default variance must be finite, got {self.default}")
        if self.default is not None and self.default <= 0:
            raise ValueError("default variance must be positive")
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
                if pv is None or v == 0 or pv == 0:
                    continue
                if v * pv < 0.25 * (1 - 1e-12):
                    raise ValueError(
                        f"{lab}/{partner}: quadrature variance product below 1/4"
                    )

    @classmethod
    def vacuum(cls) -> "CovarianceSpec":
        return cls()

    @classmethod
    def with_squeezing(cls, labels: Iterable[ModeLabel], r: float) -> "CovarianceSpec":
        """Squeeze both quadratures of each given mode to (1/2) e^{-2r}.

        The conjugate partners are antisqueezed to (1/2) e^{+2r} so the
        assignment stays a physical Gaussian state.
        """
        if not math.isfinite(r):
            raise ValueError(f"squeezing parameter r must be finite, got {r}")
        if r < 0:
            raise ValueError("squeezing parameter r must be nonnegative")
        sq = VACUUM_VARIANCE * np.exp(-2 * r)
        anti = VACUUM_VARIANCE * np.exp(2 * r)
        variances: dict[ModeLabel, tuple[float, float]] = {}
        for lab in labels:
            variances[lab] = (sq, sq)
            partner = lab.conjugate_partner()
            if partner is not None:
                variances[partner] = (anti, anti)
        return cls(variances=variances)

    def variance_pair(self, label: ModeLabel):
        """(re, im) variances of a mode; (None, None) if unassigned and no default."""
        if label in self.variances:
            return self.variances[label]
        if self.default is not None:
            return (self.default, self.default)
        return (None, None)


@dataclass(frozen=True)
class QuadratureCovariance:
    """Symmetric covariance over selected output quadratures."""

    quadratures: tuple[tuple[ModeLabel, str], ...]
    matrix: np.ndarray

    def variance(self, label: ModeLabel, part: str = "re") -> float:
        i = self.quadratures.index((label, part))
        return float(self.matrix[i, i])


def propagate_covariance(
    inout_map: LinearInOutMap,
    spec: CovarianceSpec,
    outputs: Sequence[ModeLabel] | None = None,
) -> QuadratureCovariance:
    """Covariance of output quadratures under the map, inputs independent.

    The complex map is lifted to the real-quadrature picture and the input
    covariance (diagonal, one variance per quadrature) is transported as
    S Sigma S^T.  Only the rows/columns of the requested output labels are
    returned (both quadratures of each).  An infinite input variance makes
    infinite every entry its quadrature reaches; a zero coefficient
    contributes nothing, even against an infinite variance.
    """
    if outputs is None:
        outputs = inout_map.output_register
    s = realify(inout_map.coefficients)
    out_idx = []
    for lab in outputs:
        i = inout_map.out_index(lab)
        out_idx.extend((2 * i, 2 * i + 1))
    s = s[out_idx]
    if spec.default is None:
        touched = np.any(np.abs(s) > 0, axis=0)
        for j, lab in enumerate(inout_map.input_register):
            if (touched[2 * j] or touched[2 * j + 1]) and lab not in spec.variances:
                raise ValueError(f"no variance assigned to input mode {lab}")
    diag = np.empty(2 * len(inout_map.input_register))
    for j, lab in enumerate(inout_map.input_register):
        vr, vi = spec.variance_pair(lab)
        diag[2 * j] = vr if vr is not None else 0.0
        diag[2 * j + 1] = vi if vi is not None else 0.0
    infinite = np.isinf(diag)
    cov = (s * np.where(infinite, 0.0, diag)) @ s.T
    if infinite.any():
        # Fill from the outer products of the infinite columns: a product
        # with them would give 0 * inf = NaN where a coefficient is zero.
        unbounded = s[:, infinite] @ s[:, infinite].T
        cov = np.where(unbounded == 0, cov, np.copysign(np.inf, unbounded))
    quads = tuple((lab, part) for lab in outputs for part in ("re", "im"))
    return QuadratureCovariance(quadratures=quads, matrix=cov)
