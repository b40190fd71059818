"""Registers, map composition, commutators and covariance propagation."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from holomem import algebra
from holomem.algebra import (
    CovarianceSpec,
    LinearInOutMap,
    ModeLabel,
    compose,
    light,
    realify,
    spin_p,
    spin_x,
    standard_register,
    symplectic_form,
    transport_covariance,
)
from holomem.protocol import (
    ProtocolConfig,
    cycle_register,
    full_cycle,
    interpass_transform,
    single_pass,
)

import reference


def identity_map(register):
    register = tuple(register)
    return LinearInOutMap(register, register, np.eye(len(register)))


def test_mode_label_validation():
    with pytest.raises(ValueError):
        ModeLabel("b")
    with pytest.raises(ValueError):
        ModeLabel("x", -1)
    with pytest.raises(ValueError):
        ModeLabel("a", 2)
    assert str(light("W")) == "a@W"
    assert str(spin_p(3)) == "p3"


def test_equal_fields_give_equal_labels_and_hashes():
    built = standard_register(3, "W")
    rebuilt = tuple(ModeLabel(lab.kind, lab.order, lab.stage) for lab in built)
    assert rebuilt == built and rebuilt is not built
    assert [hash(lab) for lab in rebuilt] == [hash(lab) for lab in built]
    assert set(rebuilt) == set(built)
    lookup = {lab: i for i, lab in enumerate(built)}
    assert [lookup[lab] for lab in rebuilt] == list(range(len(built)))
    assert ModeLabel(kind="x", order=1) == spin_x(1)


def test_mode_label_repr_and_immutability():
    label = spin_x(1)
    assert repr(label) == "ModeLabel(kind='x', order=1, stage='')"
    with pytest.raises(AttributeError):
        label.order = 2
    with pytest.raises(AttributeError):
        label.extra = 0
    assert label.conjugate_partner() == spin_p(1)
    assert light("R").conjugate_partner() is None


def test_every_mode_label_route_validates():
    label = spin_x(1)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(label, protocol))
        assert restored == label and type(restored) is ModeLabel
    # unpickling rebuilds the label from its reduce arguments
    rebuild, args = label.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[:2]
    assert rebuild(*args) == label
    with pytest.raises(ValueError, match="unknown mode kind 'b'"):
        rebuild(args[0], "b", *args[2:])
    assert label._replace(order=3) == spin_x(3)
    with pytest.raises(ValueError, match="mode order must be nonnegative, got -1"):
        label._replace(order=-1)
    with pytest.raises(ValueError, match="light modes carry no Legendre order"):
        light()._replace(order=1)


def test_registers_are_cached_tuples():
    assert standard_register(4, "W") is standard_register(4, "W")
    assert isinstance(standard_register(4), tuple)
    assert cycle_register(4) is cycle_register(4)
    assert cycle_register(4) == standard_register(4, "W") + (light("R"),)


def test_map_copies_the_callers_array():
    reg = (light(), spin_x(0), spin_p(0))
    mat = np.eye(3, dtype=complex)
    m = LinearInOutMap(reg, reg, mat)
    assert mat.flags.writeable
    assert not m.coefficients.flags.writeable
    mat[0, 1] = 5.0
    assert_allclose(m.coefficients, np.eye(3))


def test_embedding_plan_is_read_only():
    inner = single_pass(ProtocolConfig(kappa=0.7, order_max=2))
    register = inner.input_register + (light("R"),)
    inner.embedded(register)
    block = algebra._embed_plan(register, inner.input_register)
    assert block is algebra._embed_plan(register, inner.input_register)
    assert not any(index.flags.writeable for index in block)


def test_register_rejects_duplicates():
    reg = (light(), light())
    with pytest.raises(ValueError, match="more than once"):
        LinearInOutMap(reg, reg, np.eye(2))


def test_products_own_a_frozen_matrix_over_the_checked_registers():
    reg = standard_register(2)
    first = LinearInOutMap(reg, reg, np.arange(49, dtype=complex).reshape(7, 7))
    phase = LinearInOutMap((light(),), (light(),), np.array([[1j]]))
    for product in (compose(first, phase.embedded(reg)), phase.embedded(reg)):
        assert not product.coefficients.flags.writeable
        assert product.coefficients.dtype == complex
        assert product.input_register == product.output_register == reg
        with pytest.raises(ValueError):
            product.coefficients[0, 0] = 0
    # the operands stay as they were
    assert first.coefficients[0, 1] == 1 and phase.coefficients[0, 0] == 1j


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


def test_compose_is_one_product_over_one_register():
    rng = np.random.default_rng(5)
    reg = standard_register(2)
    rebuilt = tuple(ModeLabel(*lab) for lab in reg)
    shape = (len(reg), len(reg))
    first, second = (
        LinearInOutMap(reg, reg, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        for _ in range(2)
    )
    for consumed in (reg, rebuilt):
        product = compose(first, second.relabeled(consumed, consumed))
        assert product.input_register is reg and product.output_register == reg
        assert np.array_equal(product.coefficients, second.coefficients @ first.coefficients)
    # the same labels in another order, or only some of them, are not
    # reordered or padded: such a map is lifted with embedded first
    permuted = (reg[1], reg[0]) + reg[2:]
    with pytest.raises(ValueError, match="register mismatch: second map does not read"):
        compose(first, second.relabeled(permuted, permuted))
    phase = LinearInOutMap((light(),), (light(),), np.array([[1j]]))
    with pytest.raises(ValueError, match="register mismatch: second map does not read"):
        compose(first, phase)


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


def test_symplectic_form_is_cached_read_only():
    register = cycle_register(3)
    omega = symplectic_form(register)
    assert symplectic_form(list(register)) is omega
    assert not omega.flags.writeable
    with pytest.raises(ValueError):
        omega[0, 1] = 2.0
    fresh = algebra._symplectic_form.__wrapped__(register)
    assert fresh is not omega
    np.testing.assert_array_equal(omega, fresh)


def output_covariance(inout_map, spec):
    """S Sigma S^T over the (re, im) quadratures of every output, inputs drawn from spec."""
    variances = [spec.variance_pair(lab) for lab in inout_map.input_register]
    return transport_covariance(
        realify(inout_map.coefficients), np.array(variances, dtype=float).reshape(-1)
    )


def mode_block(inout_map, cov, label):
    """The 2x2 (re, im) covariance block of one output mode."""
    i = 2 * inout_map.out_index(label)
    return cov[i : i + 2, i : i + 2]


def test_vacuum_covariance_of_identity():
    reg = standard_register(2)
    cov = output_covariance(identity_map(reg), CovarianceSpec.vacuum())
    assert_allclose(cov, 0.5 * np.eye(2 * len(reg)), atol=1e-15)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
def test_single_pass_light_output_variance(kappa):
    m = single_pass(ProtocolConfig(kappa=kappa))
    cov = mode_block(m, output_covariance(m, CovarianceSpec.vacuum()), light())
    expected = (1 + kappa**2) / 2
    assert_allclose(np.diag(cov), [expected, expected], rtol=1e-14)


def test_full_cycle_added_noise_variance():
    m = full_cycle(ProtocolConfig(kappa=1.0))
    cov = mode_block(m, output_covariance(m, CovarianceSpec.vacuum()), light("R"))
    assert_allclose(np.diag(cov) - 0.5, [11 / 60, 11 / 60], atol=1e-12)


def test_infinite_variance_reaches_only_nonzero_coefficients():
    # p0 enters a@R with a real coefficient: its zero re variance adds
    # nothing, its infinite im variance makes only var P infinite
    m = full_cycle(ProtocolConfig(kappa=1.0))
    spec = CovarianceSpec(variances={spin_p(0): (0.0, math.inf)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = output_covariance(m, spec)
    cov = mode_block(m, full, light("R"))
    assert cov[1, 1] == math.inf
    assert np.all(np.isfinite([cov[0, 0], cov[0, 1], cov[1, 0]]))
    # vacuum gives 1/2 + 11/60; p0's squeezed re quadrature removes (1/6)^2 / 2
    assert_allclose(cov[0, 0], 0.5 + 11 / 60 - (1 / 6) ** 2 / 2, rtol=1e-12)


def test_interpass_preserves_vacuum():
    m = interpass_transform(4)
    cov = output_covariance(m, CovarianceSpec.vacuum())
    assert_allclose(cov, 0.5 * np.eye(cov.shape[0]), atol=1e-15)


def test_covariance_scales_quadratically_with_coefficients():
    rng = np.random.default_rng(11)
    reg = standard_register(2)
    dim = len(reg)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    base = output_covariance(LinearInOutMap(reg, reg, mat), CovarianceSpec.vacuum())
    scaled = output_covariance(LinearInOutMap(reg, reg, 3.0 * mat), CovarianceSpec.vacuum())
    assert_allclose(scaled, 9.0 * base, rtol=1e-12, atol=1e-12)


def test_unlisted_modes_are_vacuum_over_every_output():
    m = single_pass(ProtocolConfig(kappa=1.0, order_max=2))
    cov = output_covariance(m, CovarianceSpec(variances={light(): (0.5, 0.5)}))
    vacuum = output_covariance(m, CovarianceSpec.vacuum())
    assert cov.tobytes() == vacuum.tobytes()
    assert CovarianceSpec().variance_pair(spin_p(1)) == (0.5, 0.5)
    with pytest.raises(TypeError):
        CovarianceSpec(default=0.5)


def test_covariance_spec_validation():
    with pytest.raises(ValueError, match="negative"):
        CovarianceSpec(variances={spin_x(0): (-0.1, 0.5)})
    # squeezing x0 without antisqueezing p0 violates the uncertainty product
    with pytest.raises(ValueError, match="below 1/4"):
        CovarianceSpec(variances={spin_x(0): (0.1, 0.1)})
    # with_squeezing antisqueezes the partner automatically
    spec = reference.with_squeezing([spin_x(0)], r=1.0)
    vr, vi = spec.variance_pair(spin_p(0))
    assert vr == pytest.approx(0.5 * np.exp(2.0))
    # zero variance is the ideal-squeezing limit and is admitted
    CovarianceSpec(variances={spin_x(0): (0.0, 0.0)})
    with pytest.raises(ValueError, match="NaN"):
        CovarianceSpec(variances={spin_x(0): (np.nan, 0.5)})
    with pytest.raises(ValueError, match="finite"):
        reference.with_squeezing([spin_x(0)], r=np.nan)


SPIN_LABELS = st.builds(
    ModeLabel, kind=st.sampled_from(["x", "p"]), order=st.integers(min_value=0, max_value=4)
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    r=st.floats(min_value=0.0, allow_infinity=False),
    labels=st.lists(SPIN_LABELS, unique=True, max_size=6),
)
def test_with_squeezing_accepts_every_finite_nonnegative_r(r, labels):
    # the sweep in holomem.fidelity builds no spec per r, relying on this
    spec = reference.with_squeezing(labels, r)
    sq = algebra.squeezed_variance(r)
    for label in labels:
        if label.conjugate_partner() not in labels:
            assert spec.variance_pair(label) == (sq, sq)
