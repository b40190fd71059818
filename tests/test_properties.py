"""Property tests: physical invariants of the full cycle over random inputs.

Hypothesis draws the coupling and the Legendre truncation, random
register pairs for map composition, and random complex maps for the two
commutator routes; the draws are derandomized so the suite stays
reproducible.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holomem.algebra import (
    LinearInOutMap,
    ModeLabel,
    compose,
    light,
    light_commutator_from_quadratures,
    realify,
    standard_register,
    symplectic_form,
)
from holomem.protocol import ProtocolConfig, cycle_register, full_cycle

import reference

CYCLES = dict(
    kappa=st.floats(min_value=0.0, max_value=2.0),
    order_max=st.integers(min_value=2, max_value=30),
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
    s = realify(cycle.coefficients)
    comm = light_commutator_from_quadratures(s, cycle.input_register, light("R"))
    assert abs(comm - 1.0) <= 1e-10


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
    """(first, second): second reads a permuted subset of first's outputs.

    The rest of first's outputs pass through; in about half the draws
    second also reads one mode that first does not produce.
    """
    registers = st.lists(st.sampled_from(LABELS), min_size=1, max_size=10, unique=True)
    first_in, produced = draw(registers), draw(registers)
    consumed = draw(st.permutations(produced))[: draw(st.integers(0, len(produced)))]
    if draw(st.booleans()):
        foreign = [lab for lab in LABELS if lab not in produced]
        consumed.insert(draw(st.integers(0, len(consumed))), draw(st.sampled_from(foreign)))
    passthrough = set(produced) - set(consumed)
    second_out = draw(
        st.lists(
            st.sampled_from([lab for lab in LABELS if lab not in passthrough]),
            max_size=8,
            unique=True,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _random_map(rng, first_in, produced), _random_map(rng, consumed, second_out)


@PROPERTY_SETTINGS
@given(map_pairs())
def test_compose_matches_tuple_scan_reference(maps):
    first, second = maps
    try:
        expected = reference.tuple_scan_compose(first, second)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            compose(first, second)
        assert str(raised.value) == str(exc)
        return
    composed = compose(first, second)
    assert composed.input_register == expected.input_register
    assert composed.output_register == expected.output_register
    assert np.array_equal(composed.coefficients, expected.coefficients)


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
            comm = light_commutator_from_quadratures(s, register, label)
            np.testing.assert_allclose(comm, expected, rtol=1e-12, atol=1e-12)
