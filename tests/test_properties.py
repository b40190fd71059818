"""Property tests: physical invariants of the full cycle over random inputs.

Hypothesis draws the coupling and the Legendre truncation (up to aim 3's
order 60, and to 200 for the row of the retrieved light), the squeezing
and the pixel count for the closed-form fidelity, the coupling,
truncation and grating periods of the oracle's pass, random register
pairs for map composition and embedding, random complex maps for the
two commutator routes, and the truncation at the largest coupling
admitted; the draws are derandomized so the suite stays reproducible.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from holomem.algebra import (
    CovarianceSpec,
    LinearInOutMap,
    ModeLabel,
    compose,
    light,
    light_commutator_from_rows,
    realify,
    standard_register,
    symplectic_form,
)
from holomem.fidelity import (
    fidelity_from_covariance, noise_covariance, protocol_noise, squeezing_sweep,
)
from holomem.oracle import OracleGrid, compare, extract_map
from holomem.protocol import (
    MAX_KAPPA,
    ProtocolConfig,
    cycle_register,
    double_pass_write,
    full_cycle,
    retrieval_cycle,
    single_pass,
)

import reference

CYCLES = dict(
    kappa=st.floats(min_value=0.0, max_value=2.0),
    order_max=st.integers(min_value=2, max_value=60),
)
PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY_SETTINGS
@given(**CYCLES)
def test_full_cycle_is_symplectic(kappa, order_max):
    cycle = full_cycle(ProtocolConfig(kappa=kappa, order_max=order_max))
    assert cycle.input_register == cycle.output_register
    s = realify(cycle.coefficients)
    omega = symplectic_form(cycle.input_register)
    np.testing.assert_allclose(s @ omega @ s.T, omega, rtol=0, atol=1e-10)


@PROPERTY_SETTINGS
@given(**CYCLES)
def test_full_cycle_keeps_retrieved_light_commutator(kappa, order_max):
    cycle = full_cycle(ProtocolConfig(kappa=kappa, order_max=order_max))
    i = cycle.out_index(light("R"))
    rows = realify(cycle.coefficients[i : i + 1])
    comm = light_commutator_from_rows(rows, cycle.input_register)
    assert abs(comm - 1.0) <= 1e-10


@PROPERTY_SETTINGS
@given(
    r=st.floats(min_value=0.0, max_value=10.0),
    pixels=st.integers(min_value=1, max_value=10**6),
    order_max=CYCLES["order_max"],
)
@example(r=0.0, pixels=10**6, order_max=60)
@example(r=10.0, pixels=10**6, order_max=60)
def test_squeezed_fidelity_follows_the_closed_form_at_any_pixel_count(r, pixels, order_max):
    config = ProtocolConfig(order_max=order_max)
    (report,) = squeezing_sweep([r], pixel_count=pixels, config=config)
    assert abs(report.f_av - 1 / (1 + 11 / 60 * np.exp(-2 * r))) <= 1e-12


@PROPERTY_SETTINGS
@given(kappa=st.floats(min_value=0.0, max_value=2.5), order_max=st.integers(3, 200))
@example(kappa=1.0, order_max=200)
@example(kappa=2.5, order_max=200)
def test_retrieved_light_reads_spin_orders_up_to_2_at_any_order(kappa, order_max):
    # light touches only x_0 and p_0 in a pass, and Q moves one order per
    # pass: the a@R row is the order-4 row.  Past about order 60 its last
    # bits follow the BLAS path of the bigger product, so no bits are asserted.
    row, at_4 = (
        full_cycle(ProtocolConfig(kappa=kappa, order_max=order)).row(light("R"))
        for order in (order_max, 4)
    )
    scale = max(abs(coeff) for coeff in at_4.values())  # 1 to 27 on this kappa range
    for label, coeff in row.items():
        if label.kind != "a" and label.order > 2:
            assert coeff == 0, label
        else:
            assert abs(coeff - at_4[label]) <= 1e-15 * scale, label


@pytest.mark.parametrize("order_max", [2, 3, 60, 1000])
def test_vacuum_noise_and_fidelity_hold_at_any_order(order_max):
    noise = protocol_noise(ProtocolConfig(order_max=order_max))
    model = noise_covariance(noise, CovarianceSpec.vacuum(), pixel_count=1)
    assert abs(model.cov_x[0, 0] - 11 / 60) <= 1e-12
    assert abs(model.cov_p[0, 0] - 11 / 60) <= 1e-12
    assert abs(fidelity_from_covariance(model).f_av - 60 / 71) <= 1e-12


# Light of three stages and stage-tagged spin modes of low order.
LABELS = tuple(light(stage) for stage in ("", "W", "R")) + tuple(
    ModeLabel(kind, order, stage)
    for kind in ("x", "p")
    for order in range(4)
    for stage in ("", "W")
)


def _random_map(rng, inputs, outputs):
    shape = (len(outputs), len(inputs))
    coefficients = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return LinearInOutMap(tuple(inputs), tuple(outputs), coefficients)


@st.composite
def map_pairs(draw):
    """(first, second): in about half the draws second reads first's outputs.

    Otherwise second reads a permuted subset of them, and in about half of
    those draws also one mode that first does not produce.
    """
    registers = st.lists(st.sampled_from(LABELS), min_size=1, max_size=10, unique=True)
    first_in, produced = draw(registers), draw(registers)
    consumed = list(produced)
    if draw(st.booleans()):
        consumed = draw(st.permutations(produced))[: draw(st.integers(0, len(produced)))]
        if draw(st.booleans()):
            foreign = [lab for lab in LABELS if lab not in produced]
            consumed.insert(draw(st.integers(0, len(consumed))), draw(st.sampled_from(foreign)))
    second_out = draw(st.lists(st.sampled_from(LABELS), max_size=8, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_map(rng, first_in, produced), _random_map(rng, consumed, second_out)


@PROPERTY_SETTINGS
@given(map_pairs())
def test_compose_matches_tuple_scan_reference(maps):
    first, second = maps
    if second.input_register != first.output_register:
        # no reordering and no padding: the reference's message where it
        # finds a missing mode, a plain mismatch otherwise
        with pytest.raises(ValueError, match="register mismatch") as raised:
            compose(first, second)
        try:
            reference.tuple_scan_compose(first, second)
        except ValueError as exc:
            assert str(raised.value) == str(exc)
        return
    composed = compose(first, second)
    expected = reference.tuple_scan_compose(first, second)
    assert composed.input_register == expected.input_register
    assert composed.output_register == expected.output_register
    assert np.array_equal(composed.coefficients, expected.coefficients)


@st.composite
def embeddings(draw):
    """(inner, register): an endomap on a permuted subset of the register.

    In about half the draws inner also acts on one mode the register lacks.
    """
    register = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=12, unique=True))
    inner = draw(st.permutations(register))[: draw(st.integers(1, len(register)))]
    if draw(st.booleans()):
        foreign = [lab for lab in LABELS if lab not in register]
        inner.insert(draw(st.integers(0, len(inner))), draw(st.sampled_from(foreign)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_map(rng, inner, inner), tuple(register)


@PROPERTY_SETTINGS
@given(embeddings())
def test_embedded_matches_label_lookup_reference(embedding):
    inner, register = embedding
    try:
        expected = reference.label_lookup_embedded(inner, register)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            inner.embedded(register)
        assert str(raised.value) == str(exc)
        return
    lifted = inner.embedded(register)
    assert lifted.input_register == lifted.output_register == register
    assert np.array_equal(lifted.coefficients, expected.coefficients)


@PROPERTY_SETTINGS
@given(
    build_register=st.sampled_from([standard_register, cycle_register]),
    order_max=st.integers(min_value=0, max_value=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_light_commutator_matches_complex_pairing(build_register, order_max, seed):
    # any complex map, symplectic or not: the symplectic-form route agrees
    # with the complex pairing of tests/reference.py for every light output
    register = build_register(order_max)
    inout_map = _random_map(np.random.default_rng(seed), register, register)
    s = realify(inout_map.coefficients)
    table = reference.CommutatorTable()
    for label in register:
        if label.kind == "a":
            expected = reference.output_commutator(inout_map, table, label)
            i = 2 * register.index(label)
            comm = light_commutator_from_rows(s[i : i + 2], register)
            np.testing.assert_allclose(comm, expected, rtol=1e-12, atol=1e-12)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    kappa=st.floats(min_value=0.0, max_value=2.5),
    order_max=st.integers(min_value=2, max_value=20),
    periods=st.integers(min_value=100, max_value=300),
)
@example(kappa=2.5, order_max=20, periods=300)
def test_oracle_pass_keeps_light_commutator_and_is_quadratic_in_kappa(kappa, order_max, periods):
    # light couples to the spins once and back once, so the pass is M0 + a M1 + a^2 M2:
    # three couplings fix a fourth.  Each coupling reuses the geometry's cached blocks.
    grids = [
        OracleGrid(grating_phase=2 * np.pi * periods, kappa=a, order_max=order_max)
        for a in (0.0, 1.0, 2.0, kappa)
    ]
    results = [extract_map(grid) for grid in grids]
    for result in results:
        assert abs(result.light_commutator() - 1.0) <= 1e-9
    at_0, at_1, at_2, drawn = (np.stack([r.linear, r.conjugate]) for r in results)
    # Lagrange interpolation through a = 0, 1, 2
    predicted = (
        at_0 * (kappa - 1) * (kappa - 2) / 2
        - at_1 * kappa * (kappa - 2)
        + at_2 * kappa * (kappa - 1) / 2
    )
    assert np.abs(predicted - drawn).max() <= 1e-12 * np.abs(drawn).max()


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(order_max=st.integers(min_value=2, max_value=60))
@example(order_max=60)
def test_every_command_stays_finite_at_max_kappa(order_max):
    # The bound on kappa is what keeps every output finite, with no
    # overflow check after the fact: the maps of `maps`, the row quantities
    # of `sweep-kappa` and a small oracle report, at any order.  The largest
    # full-cycle entry is 0.087 kappa^6 and the largest row power about
    # kappa^12 / 63, whatever the order.
    config = ProtocolConfig(kappa=MAX_KAPPA, order_max=order_max)
    grid = OracleGrid(grating_phase=2 * np.pi * 10, kappa=MAX_KAPPA, order_max=order_max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        maps = [single_pass(config), double_pass_write(config), full_cycle(config)]
        cycle = retrieval_cycle(config)
        weights = np.abs(cycle.coefficients[cycle.out_index(light("R"))]) ** 2
        result = extract_map(grid, refinement_levels=1)
        report = compare(result, maps[0], 0.01)
        values = [
            *(m.coefficients for m in maps), weights, sum(weights),
            result.linear, result.conjugate, result.light_commutator(),
            result.reported_tolerance, *result.refinement_ratios,
            report.max_relative, report.max_absolute, report.max_zero_entry, report.leakage,
        ]
    for value in values:
        assert np.isfinite(value).all()
    full = maps[2].coefficients
    assert np.abs(full).max() <= 0.09 * MAX_KAPPA**6
    assert (np.abs(full) ** 2).sum(axis=1).max() <= MAX_KAPPA**12 / 63
