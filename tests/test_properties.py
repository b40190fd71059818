"""Property tests: physical invariants of the full cycle over random inputs.

Hypothesis draws the coupling and the Legendre truncation; the draws are
derandomized so the suite stays reproducible.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from holomem.algebra import (
    light,
    light_commutator_from_quadratures,
    realify,
    symplectic_form,
)
from holomem.protocol import ProtocolConfig, full_cycle

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
