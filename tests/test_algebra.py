"""Registers, map composition, commutators and covariance propagation."""

import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holomem.algebra import (
    CovarianceSpec,
    LinearInOutMap,
    ModeLabel,
    compose,
    identity_map,
    light,
    propagate_covariance,
    spin_p,
    spin_x,
    standard_register,
    symplectic_form,
)
from holomem.protocol import ProtocolConfig, full_cycle, interpass_transform, single_pass

import reference


def test_mode_label_validation():
    with pytest.raises(ValueError):
        ModeLabel("b")
    with pytest.raises(ValueError):
        ModeLabel("x", -1)
    with pytest.raises(ValueError):
        ModeLabel("a", 2)
    assert str(light("W")) == "a@W"
    assert str(spin_p(3)) == "p3"


def test_register_rejects_duplicates():
    reg = (light(), light())
    with pytest.raises(ValueError, match="more than once"):
        LinearInOutMap(reg, reg, np.eye(2))


def test_compose_identity_is_neutral():
    reg = standard_register(2)
    m = LinearInOutMap(reg, reg, np.arange(49, dtype=complex).reshape(7, 7))
    assert_allclose(compose(identity_map(reg), m).coefficients, m.coefficients)
    assert_allclose(compose(m, identity_map(reg)).coefficients, m.coefficients)


def test_compose_rejects_register_mismatch():
    m1 = identity_map(standard_register(2))
    m2 = identity_map(standard_register(3))
    with pytest.raises(ValueError, match="register mismatch"):
        compose(m1, m2)


def test_compose_mismatch_names_the_label():
    m1 = identity_map(standard_register(2))
    m2 = identity_map(standard_register(3))
    with pytest.raises(ValueError, match="register mismatch: x3 not produced by first map"):
        compose(m1, m2)


def test_compose_pads_untouched_modes():
    reg = standard_register(2)
    sub = (light(),)
    phase = LinearInOutMap(sub, sub, np.array([[1j]]))
    padded = compose(identity_map(reg), phase)
    assert set(padded.output_register) == set(reg)
    assert padded.coefficient(light(), light()) == 1j
    assert padded.coefficient(spin_x(1), spin_x(1)) == 1.0


def test_compose_is_associative_on_random_maps():
    rng = np.random.default_rng(7)
    reg = standard_register(3)
    dim = len(reg)

    def random_map():
        mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        return LinearInOutMap(reg, reg, mat)

    for _ in range(20):
        a, b, c = random_map(), random_map(), random_map()
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert_allclose(left.coefficients, right.coefficients, atol=1e-12)


def test_embedded_endomap():
    inner = single_pass(ProtocolConfig(kappa=0.7, order_max=2))
    outer_reg = inner.input_register + (light("R"),)
    lifted = inner.embedded(outer_reg)
    assert lifted.coefficient(light("R"), light("R")) == 1.0
    assert lifted.coefficient(light(), spin_p(0)) == pytest.approx(0.7)


def test_embedded_rejects_a_register_missing_a_mode():
    inner = single_pass(ProtocolConfig(kappa=0.7, order_max=2))
    outer_reg = tuple(lab for lab in inner.input_register if lab != spin_p(2)) + (light("R"),)
    with pytest.raises(ValueError, match="embedding register is missing a mode: p2"):
        inner.embedded(outer_reg)


def test_output_commutator_identity_light():
    reg = standard_register(2)
    table = reference.CommutatorTable()
    assert reference.output_commutator(identity_map(reg), table, light()) == 1.0


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 1.7])
def test_output_commutator_single_pass_light(kappa):
    # a_out = a + kappa p0: the p0 term has no x0 partner in the row, so the
    # commutator stays exactly 1 at every coupling
    m = single_pass(ProtocolConfig(kappa=kappa))
    comm = reference.output_commutator(m, reference.CommutatorTable(), light())
    assert_allclose(comm, 1.0, atol=1e-14)


def test_output_commutator_full_cycle_at_unit_coupling():
    m = full_cycle(ProtocolConfig(kappa=1.0))
    comm = reference.output_commutator(m, reference.CommutatorTable(), light("R"))
    assert_allclose(comm, 1.0, atol=1e-12)


def test_symplectic_form_is_antisymmetric():
    omega = symplectic_form(standard_register(3))
    assert_allclose(omega, -omega.T)


def test_vacuum_covariance_of_identity():
    reg = standard_register(2)
    cov = propagate_covariance(identity_map(reg), CovarianceSpec.vacuum())
    assert_allclose(cov.matrix, 0.5 * np.eye(2 * len(reg)), atol=1e-15)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
def test_single_pass_light_output_variance(kappa):
    m = single_pass(ProtocolConfig(kappa=kappa))
    cov = propagate_covariance(m, CovarianceSpec.vacuum(), outputs=[light()])
    expected = (1 + kappa**2) / 2
    assert_allclose(cov.variance(light(), "re"), expected, rtol=1e-14)
    assert_allclose(cov.variance(light(), "im"), expected, rtol=1e-14)


def test_full_cycle_added_noise_variance():
    m = full_cycle(ProtocolConfig(kappa=1.0))
    cov = propagate_covariance(m, CovarianceSpec.vacuum(), outputs=[light("R")])
    assert_allclose(cov.variance(light("R"), "re") - 0.5, 11 / 60, atol=1e-12)
    assert_allclose(cov.variance(light("R"), "im") - 0.5, 11 / 60, atol=1e-12)


def test_infinite_variance_reaches_only_nonzero_coefficients():
    # p0 enters a@R with a real coefficient: its zero re variance adds
    # nothing, its infinite im variance makes only var P infinite
    m = full_cycle(ProtocolConfig(kappa=1.0))
    spec = CovarianceSpec(variances={spin_p(0): (0.0, math.inf)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cov = propagate_covariance(m, spec, outputs=[light("R")]).matrix
    assert cov[1, 1] == math.inf
    assert np.all(np.isfinite([cov[0, 0], cov[0, 1], cov[1, 0]]))
    # vacuum gives 1/2 + 11/60; p0's squeezed re quadrature removes (1/6)^2 / 2
    assert_allclose(cov[0, 0], 0.5 + 11 / 60 - (1 / 6) ** 2 / 2, rtol=1e-12)


def test_interpass_preserves_vacuum():
    m = interpass_transform(4)
    cov = propagate_covariance(m, CovarianceSpec.vacuum())
    assert_allclose(cov.matrix, 0.5 * np.eye(cov.matrix.shape[0]), atol=1e-15)


def test_covariance_scales_quadratically_with_coefficients():
    rng = np.random.default_rng(11)
    reg = standard_register(2)
    dim = len(reg)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    base = propagate_covariance(
        LinearInOutMap(reg, reg, mat), CovarianceSpec.vacuum()
    ).matrix
    scaled = propagate_covariance(
        LinearInOutMap(reg, reg, 3.0 * mat), CovarianceSpec.vacuum()
    ).matrix
    assert_allclose(scaled, 9.0 * base, rtol=1e-12, atol=1e-12)


def test_uncovered_input_mode_rejected():
    m = single_pass(ProtocolConfig(kappa=1.0, order_max=2))
    partial = CovarianceSpec(variances={light(): (0.5, 0.5)}, default=None)
    with pytest.raises(ValueError, match="no variance"):
        propagate_covariance(m, partial, outputs=[light()])


def test_covariance_spec_validation():
    with pytest.raises(ValueError, match="negative"):
        CovarianceSpec(variances={spin_x(0): (-0.1, 0.5)})
    # squeezing x0 without antisqueezing p0 violates the uncertainty product
    with pytest.raises(ValueError, match="below 1/4"):
        CovarianceSpec(variances={spin_x(0): (0.1, 0.1)})
    # with_squeezing antisqueezes the partner automatically
    spec = CovarianceSpec.with_squeezing([spin_x(0)], r=1.0)
    vr, vi = spec.variance_pair(spin_p(0))
    assert vr == pytest.approx(0.5 * np.exp(2.0))
    # zero variance is the ideal-squeezing limit and is admitted
    CovarianceSpec(variances={spin_x(0): (0.0, 0.0)})
    with pytest.raises(ValueError, match="NaN"):
        CovarianceSpec(variances={spin_x(0): (np.nan, 0.5)})
    with pytest.raises(ValueError, match="finite"):
        CovarianceSpec(default=np.inf)
    with pytest.raises(ValueError, match="finite"):
        CovarianceSpec.with_squeezing([spin_x(0)], r=np.nan)
