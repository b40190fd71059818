"""Analytic protocol maps against the closed-form coefficient polynomials."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from holomem.algebra import LinearInOutMap, compose, light, spin_p, spin_x, standard_register
from holomem.protocol import (
    MAX_KAPPA,
    ProtocolConfig,
    cycle_from_write,
    cycle_register,
    double_pass_write,
    extract_noise,
    full_cycle,
    interpass_transform,
    single_pass,
)

import reference

KAPPA_SAMPLE = np.random.default_rng(20260809).uniform(0.0, 2.0, size=50)


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


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(kappa=-0.1)
    with pytest.raises(ValueError):
        ProtocolConfig(order_max=1)
    with pytest.raises(ValueError, match="kappa must be finite"):
        ProtocolConfig(kappa=np.nan)
    with pytest.raises(ValueError, match="grating_phase must be finite"):
        ProtocolConfig(grating_phase=np.inf)
    # an int past the float range is named, not an OverflowError naming no field
    with pytest.raises(ValueError, match="kappa is out of the float range"):
        ProtocolConfig(kappa=10**400)
    with pytest.raises(ValueError, match="grating_phase is out of the float range"):
        ProtocolConfig(grating_phase=10**400)
    # rejected at construction, by name, not later by a TypeError naming no field
    with pytest.raises(ValueError, match="order_max must be an integer, got 4.5"):
        ProtocolConfig(order_max=4.5)
    assert ProtocolConfig(order_max=np.int64(4)) == ProtocolConfig()
    # rejected before any register of that order is built
    with pytest.raises(ValueError, match="order_max must be <= 1000"):
        ProtocolConfig(order_max=10**400)
    # kappa is bounded where it enters, so no map nears the float range
    assert ProtocolConfig(kappa=MAX_KAPPA).kappa == MAX_KAPPA == 100
    for kappa in (np.nextafter(MAX_KAPPA, np.inf), 1e160, 10**200):
        with pytest.raises(ValueError, match="kappa must be <= 100, got "):
            ProtocolConfig(kappa=kappa)
    with pytest.warns(UserWarning, match="interference layers") as record:
        ProtocolConfig(grating_phase=8 * np.pi)
    # the warning names the line that built the config, not the dataclass __init__
    assert [w.filename for w in record] == [__file__]


def test_config_runs_the_few_layer_rule_only_on_a_given_phase():
    # order 60 at 100 periods fails the oracle's 1% gate (it passes from 175)
    with pytest.warns(UserWarning, match="interference layers"):
        ProtocolConfig(order_max=60, grating_phase=200 * np.pi)
    # warnings are errors: no phase, no rule, at any order
    assert ProtocolConfig(order_max=60).grating_phase is None
    ProtocolConfig(order_max=4, grating_phase=200 * np.pi)


def test_resonant_depth_diagnostic():
    config = ProtocolConfig(kappa=1.0)
    # kappa^2 = 2 alpha_0 eta
    assert config.resonant_depth(0.01) == pytest.approx(50.0)
    with pytest.raises(ValueError):
        config.resonant_depth(0.0)


def test_resonant_depth_overflows_to_inf():
    # kappa is bounded, but the emission probability can be tiny.
    assert ProtocolConfig(kappa=100.0).resonant_depth(1e-310) == float("inf")


def test_single_pass_at_zero_coupling_is_identity():
    m = single_pass(ProtocolConfig(kappa=0.0))
    assert_allclose(m.coefficients, np.eye(len(m.input_register)), atol=0)


def test_single_pass_owns_a_fresh_read_only_matrix_over_the_cached_register():
    config = ProtocolConfig(kappa=0.7, order_max=3)
    m = single_pass(config, "W")
    assert m.input_register is m.output_register is standard_register(3, "W")
    assert len(set(m.input_register)) == len(m.input_register)
    assert not m.coefficients.flags.writeable
    assert m.coefficients.dtype == complex and m.coefficients.shape == (9, 9)
    again = single_pass(config, "W")
    assert again.coefficients is not m.coefficients
    np.testing.assert_array_equal(again.coefficients, m.coefficients)


def test_single_pass_displayed_rows():
    k = 1.0
    m = single_pass(ProtocolConfig(kappa=k))
    reg = m.input_register
    for out_label, row in reference.single_pass_rows(k).items():
        expected = reference.row_as_vector(row, reg)
        assert_allclose(m.coefficients[reg.index(out_label)], expected, atol=1e-15)


@pytest.mark.parametrize("kappa", [0.3, 1.0, 1.9])
def test_single_pass_conserves_p(kappa):
    m = single_pass(ProtocolConfig(kappa=kappa, order_max=4))
    reg = m.input_register
    for n in range(5):
        i = reg.index(spin_p(n))
        expected = np.zeros(len(reg))
        expected[i] = 1.0
        assert_allclose(m.coefficients[i], expected, atol=0)


def test_interpass_squares_to_minus_identity():
    # a -> i(i a) = -a, x -> -p -> -x, p -> x -> -p
    ip = interpass_transform(3)
    twice = np.asarray(ip.coefficients) @ np.asarray(ip.coefficients)
    assert_allclose(twice, -np.eye(len(ip.input_register), dtype=complex), atol=0)


def test_interpass_transform_is_one_read_only_object_per_order_and_stage():
    built = {}
    for order in (2, 4, 30):
        for stage in ("", "W", "R"):
            ip = interpass_transform(order, stage)
            assert interpass_transform(order, stage=stage) is ip
            assert ip.input_register == ip.output_register == standard_register(order, stage)
            assert not ip.coefficients.flags.writeable
            with pytest.raises(ValueError):
                ip.coefficients[0, 0] = 0.0
            built[order, stage] = ip
        assert interpass_transform(order) is built[order, ""]
        # one matrix per order: the stage only names the light pulse
        assert_allclose(built[order, "W"].coefficients, built[order, "R"].coefficients, atol=0)
    assert len({id(ip) for ip in built.values()}) == len(built)


def test_cycle_reads_with_the_write_stage_matrix_and_rejects_other_registers():
    write = double_pass_write(ProtocolConfig(kappa=0.8), stage="W")
    cycle = cycle_from_write(write, 4)
    assert cycle.input_register == cycle_register(4)
    assert_allclose(cycle.coefficients, full_cycle(ProtocolConfig(kappa=0.8)).coefficients, atol=0)
    # a stage over the read light (or any other register) is not a write stage
    for stage in ("R", ""):
        with pytest.raises(ValueError, match="write stage"):
            cycle_from_write(double_pass_write(ProtocolConfig(kappa=0.8), stage=stage), 4)
    with pytest.raises(ValueError, match="write stage"):
        cycle_from_write(write, 3)


def test_write_stage_input_light_erased_at_unit_coupling():
    m = double_pass_write(ProtocolConfig(kappa=1.0))
    assert m.coefficient(light(), light()) == 0.0


def test_zero_coupling_stage_is_pure_interpass():
    m = double_pass_write(ProtocolConfig(kappa=0.0, order_max=3))
    ip = interpass_transform(3)
    assert_allclose(m.coefficients, ip.coefficients, atol=0)


@pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0, 1.37, 2.0])
def test_write_stage_matches_closed_forms(kappa):
    m = double_pass_write(ProtocolConfig(kappa=kappa))
    reg = m.input_register
    for out_label, row in reference.write_stage_rows(kappa).items():
        expected = reference.row_as_vector(row, reg)
        assert_allclose(
            m.coefficients[reg.index(out_label)], expected, atol=1e-13,
            err_msg=f"row {out_label} at kappa={kappa}",
        )


def test_write_stage_closed_forms_across_random_sample():
    for kappa in KAPPA_SAMPLE:
        m = double_pass_write(ProtocolConfig(kappa=float(kappa)))
        reg = m.input_register
        for out_label, row in reference.write_stage_rows(float(kappa)).items():
            expected = reference.row_as_vector(row, reg)
            assert_allclose(m.coefficients[reg.index(out_label)], expected, atol=1e-12)


@pytest.mark.parametrize("kappa", [0.0, 0.25, 1.0, 1.6, 2.0])
def test_full_cycle_retrieved_light_row(kappa):
    m = full_cycle(ProtocolConfig(kappa=kappa))
    reg = m.input_register
    expected = reference.row_as_vector(reference.cycle_retrieved_light_row(kappa), reg)
    assert_allclose(m.coefficients[reg.index(light("R"))], expected, atol=1e-13)


def test_full_cycle_at_zero_coupling_ignores_signal():
    m = full_cycle(ProtocolConfig(kappa=0.0))
    assert m.coefficient(light("R"), light("W")) == 0.0
    assert abs(m.coefficient(light("R"), light("R"))) == pytest.approx(1.0)


def test_full_cycle_discarded_write_light_row():
    # the a@W output coordinate holds the write-stage output light, which
    # the read stage never touches
    k = 0.8
    m = full_cycle(ProtocolConfig(kappa=k))
    row = m.row(light("W"))
    for lab, coeff in reference.write_stage_rows(k)[light()].items():
        target = light("W") if lab == light() else lab
        assert_allclose(complex(row[target]), coeff, atol=1e-13)


def test_truncation_does_not_touch_retrieved_light():
    k = 1.21
    small = full_cycle(ProtocolConfig(kappa=k, order_max=2))
    large = full_cycle(ProtocolConfig(kappa=k, order_max=6))
    small_row = small.row(light("R"))
    large_row = large.row(light("R"))
    for lab, coeff in small_row.items():
        assert_allclose(complex(large_row[lab]), complex(coeff), atol=1e-15)
    # the extra high orders never feed the retrieved light
    for lab, coeff in large_row.items():
        if lab not in small_row:
            assert abs(coeff) == 0.0


@pytest.mark.parametrize("kappa", [0.0, 1.0, 1.5])
def test_classical_cycle_matches_closed_form(kappa):
    m = classical_single_pass_cycle(ProtocolConfig(kappa=kappa))
    reg = m.input_register
    expected = reference.row_as_vector(reference.classical_retrieved_light_row(kappa), reg)
    assert_allclose(m.coefficients[reg.index(light("R"))], expected, atol=1e-14)


def test_classical_cycle_at_unit_coupling_spot_values():
    m = classical_single_pass_cycle(ProtocolConfig(kappa=1.0))
    assert m.coefficient(light("R"), light("W")) == pytest.approx(-1j)
    assert m.coefficient(light("R"), spin_x(0)) == pytest.approx(1.0)


def test_extract_noise_values():
    noise = extract_noise(full_cycle(ProtocolConfig(kappa=1.0)))
    expected = reference.noise_coefficients()
    assert_allclose(noise.x1, expected[spin_x(1)], atol=1e-13)
    assert_allclose(noise.p0, expected[spin_p(0)], atol=1e-13)
    assert_allclose(noise.p2, expected[spin_p(2)], atol=1e-13)
    assert_allclose(noise.power(), 11 / 30, atol=1e-13)


def test_extract_noise_rejects_other_couplings():
    with pytest.raises(ValueError, match="kappa = 1"):
        extract_noise(full_cycle(ProtocolConfig(kappa=1.2)))


def test_extract_noise_rejects_overflowed_cycle():
    # A NaN in the retrieved-light row of a library-built cycle compares
    # false against any tolerance.
    cycle = full_cycle(ProtocolConfig(kappa=1.0))
    register = cycle.input_register
    for column, message in ((light("W"), "kappa = 1"), (light("R"), "kappa = 1"),
                            (spin_x(3), "unexpected noise contribution from x3: \\(nan")):
        coefficients = cycle.coefficients.copy()
        coefficients[cycle.out_index(light("R")), cycle.in_index(column)] = np.nan
        with pytest.raises(ValueError, match=message):
            extract_noise(LinearInOutMap(register, register, coefficients))


def test_extract_noise_rejects_non_cycle_maps():
    with pytest.raises(ValueError, match="full-cycle"):
        extract_noise(single_pass(ProtocolConfig(kappa=1.0)))


def test_recovery_power_peaks_at_unit_coupling():
    kappas = np.linspace(0.0, np.sqrt(2.0), 283)
    powers = [
        abs(full_cycle(ProtocolConfig(kappa=float(k))).coefficient(light("R"), light("W"))) ** 2
        for k in kappas
    ]
    step = kappas[1] - kappas[0]
    assert kappas[int(np.argmax(powers))] == pytest.approx(1.0, abs=step + 1e-12)
    assert max(powers) <= 1.0 + 1e-12
    exact = abs(full_cycle(ProtocolConfig(kappa=1.0)).coefficient(light("R"), light("W"))) ** 2
    assert exact == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "builder, out_label",
    [
        (lambda c: single_pass(c), light()),
        (lambda c: interpass_transform(c.order_max), light()),
        (lambda c: double_pass_write(c), light()),
        (lambda c: full_cycle(c), light("R")),
        (lambda c: classical_single_pass_cycle(c), light("R")),
    ],
    ids=["single", "interpass", "write", "cycle", "classical"],
)
def test_light_commutator_preserved_at_unit_coupling(builder, out_label):
    m = builder(ProtocolConfig(kappa=1.0))
    comm = reference.output_commutator(m, reference.CommutatorTable(), out_label)
    assert comm == pytest.approx(1.0, abs=1e-12)


def test_cycle_register_layout():
    reg = cycle_register(3)
    assert reg[0] == light("W")
    assert reg[-1] == light("R")
    assert len(reg) == 2 * (3 + 1) + 2
    assert standard_register(3, "W") == reg[:-1]


@pytest.mark.parametrize("order_max", [2, 4, 30])
@pytest.mark.parametrize("kappa", [0.0, 0.7, 1.0, 1.3])
def test_full_cycle_read_stage_is_the_read_double_pass(order_max, kappa):
    # full_cycle builds one stage and relabels it onto the read light; the
    # cycle must equal the one whose read stage is built from its own passes.
    config = ProtocolConfig(kappa=kappa, order_max=order_max)
    register = cycle_register(order_max)
    write = double_pass_write(config, stage="W").embedded(register)
    read = double_pass_write(config, stage="R").embedded(register)
    expected = compose(write, read)
    cycle = full_cycle(config)
    assert cycle.input_register == expected.input_register
    assert cycle.output_register == expected.output_register
    assert np.array_equal(cycle.coefficients, expected.coefficients)
