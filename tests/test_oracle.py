"""PDE oracle: grid validation, invariants and agreement with the maps.

These tests run on deliberately small grids (tens of grating periods) so
the whole module stays fast; the production-resolution comparison at the
default grid lives in the acceptance suite.
"""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from holomem import algebra
from holomem.algebra import light, realify, spin_p, spin_x
from holomem.oracle import (
    _Z_CHUNK,
    _grid_blocks,
    _pass_map,
    OracleGrid,
    OracleResult,
    compare,
    extract_map,
    numerical_full_cycle,
    z_points,
)
from holomem.protocol import (
    ProtocolConfig,
    double_pass,
    double_pass_write,
    few_layers,
    full_cycle,
    single_pass,
)

import reference

SMALL = dict(grating_phase=20 * np.pi, kappa=1.0, order_max=4)


def small_grid(**overrides):
    params = {**SMALL, **overrides}
    return OracleGrid(**params)


def apply_pass(grid, initial):
    """Register amplitudes after one pass, from a dict by label or an aligned array."""
    if isinstance(initial, dict):
        initial = np.array([initial.get(label, 0.0) for label in grid.register()], dtype=complex)
    linear, conjugate = _pass_map(grid)
    return linear @ initial + conjugate @ np.conj(initial)


def analytic(grid):
    # Without the phase, as oracle-verify builds it: SMALL is a few-layer grid,
    # and no analytic map reads the phase.
    return single_pass(ProtocolConfig(kappa=grid.kappa, order_max=grid.order_max))


def test_grid_validation():
    with pytest.raises(ValueError, match="coarse"):
        OracleGrid(grating_phase=20 * np.pi, z_points=80)
    with pytest.raises(ValueError):
        OracleGrid(grating_phase=-1.0)
    with pytest.raises(ValueError):
        OracleGrid(kappa=-1.0)
    # rejected before any register of that order is built
    with pytest.raises(ValueError, match="order_max must be <= 1000"):
        OracleGrid(order_max=10**400)


def test_grid_size_is_capped_before_anything_is_allocated():
    # (order_max + 1) x z points of the once-refined grid, checked by
    # arithmetic: order 60 at 10^3 periods fits, 10^7 and 10^300 do not
    assert OracleGrid(grating_phase=2 * np.pi * 1e3, order_max=60).z_points == 40001
    for periods in (1e7, 1e300):
        with pytest.raises(ValueError, match="z grid too large: .* grating-periods"):
            OracleGrid(grating_phase=2 * np.pi * periods, order_max=60)


def test_grid_has_no_scale_fields():
    # the oracle works on the unit cell and a unit pulse: kappa and the
    # grating phase carry the cell length and the pulse duration
    names = [field.name for field in fields(OracleGrid)]
    assert names == ["grating_phase", "kappa", "order_max", "z_points", "transverse_phase_shift"]


def test_default_grid_resolution():
    grid = OracleGrid(grating_phase=200 * np.pi)
    assert grid.z_points == 4001  # 40 points per period, 100 periods
    assert grid.periods == pytest.approx(100.0)
    # the interval count rounds up to even: 40 * 2.51 = 100.4 -> 102
    assert OracleGrid(grating_phase=2 * np.pi * 2.51).z_points == 103
    assert z_points(2.51, 40) == 103 and z_points(2.5, 40) == 101


def test_transverse_shift_modifies_effective_phase():
    grid = small_grid(grating_phase=22 * np.pi, transverse_phase_shift=2 * np.pi)
    assert grid.effective_phase == pytest.approx(20 * np.pi)


def test_zero_coupling_leaves_amplitudes_unchanged():
    grid = small_grid(kappa=0.0)
    initial = {light(): 0.3 + 0.4j, spin_x(2): -1.0j, spin_p(1): 0.7}
    out = apply_pass(grid, initial)
    reg = grid.register()
    assert_allclose(out[reg.index(light())], 0.3 + 0.4j, atol=1e-14)
    # spin amplitudes come back through the grating projection, so they are
    # reproduced only up to the counter-rotating leakage
    leak = 1.0 / grid.grating_phase
    assert_allclose(out[reg.index(spin_x(2))], -1.0j, atol=10 * leak)
    assert_allclose(out[reg.index(spin_p(1))], 0.7, atol=10 * leak)


def test_zero_coupling_extracts_identity():
    # library-level twin of the CLI zero-coupling check: with no coupling the
    # C-linear block is exactly the identity, leakage goes to the conjugate block
    result = extract_map(small_grid(kappa=0.0))
    assert_allclose(result.linear, np.eye(len(result.register)), atol=1e-12)


def test_p_sector_never_evolves():
    # the update never touches P: its readout is identical at any coupling
    initial = np.zeros(11, dtype=complex)
    initial[1:] = np.linspace(0.2, 1.2, 10) * np.exp(1j * np.linspace(0.0, 2.0, 10))
    out_hot = apply_pass(small_grid(kappa=1.7), initial)
    out_cold = apply_pass(small_grid(kappa=0.0), initial)
    assert_allclose(out_hot[6:], out_cold[6:], atol=0)


def test_integrator_is_real_linear():
    grid = small_grid()
    rng = np.random.default_rng(5)
    u = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    v = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    alpha, beta = 0.7, -1.3
    combined = apply_pass(grid, alpha * u + beta * v)
    separate = alpha * apply_pass(grid, u) + beta * apply_pass(grid, v)
    assert_allclose(combined, separate, atol=1e-12)


def test_p0_probe_reads_out_into_light():
    grid = small_grid()
    out = apply_pass(grid, {spin_p(0): 1.0})
    assert_allclose(out[0], grid.kappa, rtol=0.02)


def test_extracted_map_agrees_with_analytic_on_small_grid():
    grid = small_grid()
    result = extract_map(grid)
    report = compare(result, analytic(grid), tolerance=0.05)
    assert report.passed, report.summary()
    assert report.max_relative > 0  # finite-layer deviation is visible


def test_compare_of_analytic_with_itself_is_zero():
    grid = small_grid()
    ref = analytic(grid)
    fake = OracleResult(
        register=grid.register(),
        linear=ref.coefficients,
        conjugate=np.zeros_like(ref.coefficients),
        grid=grid,
    )
    report = compare(fake, ref, tolerance=1e-12)
    assert report.passed
    assert report.max_relative == 0.0
    assert report.max_absolute == 0.0


def perturbed_result(grid, scale):
    """An OracleResult whose linear block is the analytic map times `scale`, entrywise."""
    ref = analytic(grid).coefficients
    return OracleResult(
        register=grid.register(),
        linear=ref * scale,
        conjugate=np.full_like(ref, 1e-3),
        grid=grid,
    )


def fixed_results():
    grid = small_grid()
    dim = len(grid.register())
    few = np.ones((dim, dim))
    few[0, 0], few[3, 3], few[6, 6] = 1.5, 1.25, 1.125  # three positive deviations
    tied = np.ones((dim, dim))
    np.fill_diagonal(tied, 1.5)  # eleven deviations of exactly 0.5
    nan = tied.copy()
    nan[2, 2] = np.nan  # first among the violators, then four of the ties
    return {
        "oracle": extract_map(grid, refinement_levels=1),
        "three positive": perturbed_result(grid, few),
        "tied": perturbed_result(grid, tied),
        "nan": perturbed_result(grid, nan),
        "exact": perturbed_result(grid, np.ones((dim, dim))),
    }


@pytest.mark.parametrize("name", ["oracle", "three positive", "tied", "nan", "exact"])
def test_compare_is_bit_identical_to_the_scan(name):
    result = fixed_results()[name]
    ref = analytic(result.grid)
    report = compare(result, ref, tolerance=0.05)
    # repr spells every float exactly, -0.0 and NaN included
    assert repr(report) == repr(reference.scan_compare(result, ref, 0.05))
    positive = {"oracle": 5, "three positive": 3, "tied": 5, "nan": 5, "exact": 0}[name]
    assert len(report.violators) == positive


def test_light_commutator_is_bit_identical_to_a_fresh_symplectic_product():
    for result in fixed_results().values():
        s = realify(result.linear, result.conjugate)
        omega = algebra._symplectic_form.__wrapped__(result.register)
        expected = float((s @ omega @ s.T)[0, 1])
        assert repr(result.light_commutator()) == repr(expected)


def test_refinement_sweeps_the_finer_grid_of_the_same_physics():
    grid = small_grid(z_points=401, transverse_phase_shift=0.5)
    refined = _pass_map(grid, 4)
    _grid_blocks.cache_clear()  # the finer grid is swept afresh
    fine = _pass_map(replace(grid, z_points=(grid.z_points - 1) * 4 + 1))
    assert refined.tobytes() == fine.tobytes()
    assert _pass_map(grid, 1).tobytes() == _pass_map(grid).tobytes()
    assert _pass_map(grid).tobytes() != fine.tobytes()
    with pytest.raises(ValueError, match="z grid too coarse"):
        _pass_map(grid, 0)


def test_compare_rejects_register_mismatch():
    grid = small_grid()
    result = extract_map(grid)
    other = single_pass(ProtocolConfig(kappa=grid.kappa, order_max=2))
    with pytest.raises(ValueError, match="register"):
        compare(result, other, tolerance=0.05)


def test_leakage_halves_when_phase_doubles():
    leak_20 = extract_map(small_grid()).leakage_magnitude()
    leak_40 = extract_map(small_grid(grating_phase=40 * np.pi)).leakage_magnitude()
    assert 0.35 <= leak_40 / leak_20 <= 0.65


def test_deviation_grows_tenfold_at_tenth_of_the_phase():
    # counter-rotating terms scale like 1/(grating phase)
    leak_small = extract_map(small_grid()).leakage_magnitude()
    leak_large = extract_map(
        OracleGrid(grating_phase=200 * np.pi, kappa=1.0, order_max=4)
    ).leakage_magnitude()
    assert 6.0 <= leak_small / leak_large <= 15.0


def test_fine_grid_agrees_within_half_percent():
    grid = OracleGrid(grating_phase=400 * np.pi, kappa=1.0, order_max=4)
    report = compare(extract_map(grid), analytic(grid), tolerance=0.005)
    assert report.passed, report.summary()


@pytest.mark.parametrize(
    "order_max, failing, passing",
    [(2, 16, 17), (4, 16, 17), (8, 20, 21), (20, 50, 51), (40, 112, 113), (60, 174, 175)],
)
def test_few_layer_rule_flags_each_calibration_row_at_its_failing_count(
    order_max, failing, passing
):
    # The README comparison (kappa = 1, 40 z points per period, 1%) fails at
    # the last failing period count and passes at the next one.
    reports = {}
    for periods in (failing, passing):
        grid = OracleGrid(
            grating_phase=2 * np.pi * periods, order_max=order_max, z_points=z_points(periods, 40)
        )
        reports[periods] = compare(extract_map(grid), analytic(grid), tolerance=0.01)
    assert not reports[failing].passed and reports[passing].passed
    assert few_layers(2 * np.pi * failing, order_max)


@pytest.mark.parametrize(
    "order_max, periods", [(4, 100), (4, 1000), (20, 300), (60, 1000)], ids=str
)
def test_few_layer_rule_passes_the_readme_bench_and_digest_grids(order_max, periods):
    assert not few_layers(2 * np.pi * periods, order_max)


def test_refinement_metadata():
    result = extract_map(small_grid(), refinement_levels=2)
    assert len(result.refinement_ratios) == 2
    assert result.reported_tolerance == pytest.approx(2 * result.refinement_ratios[-1])
    # the Filon/Simpson discretization converges at second order
    assert result.estimated_order == pytest.approx(2.0, abs=0.3)


def test_oracle_results_independent_of_cell_scales():
    # the reference carries a cell length and a pulse duration; the oracle
    # works on the unit cell and must give the same map
    base = extract_map(small_grid())
    linear, conjugate = reference.PerOrderPass(small_grid(), length=2.5, duration=3.0).pass_map()
    assert_allclose(base.linear, linear, atol=1e-12)
    assert_allclose(base.conjugate, conjugate, atol=1e-12)


def test_extracted_map_preserves_light_commutator():
    result = extract_map(small_grid(), refinement_levels=1)
    assert abs(result.light_commutator() - 1.0) <= result.reported_tolerance


def test_numerical_compositions_track_analytic_maps():
    grid = small_grid()
    result = extract_map(grid)
    config = ProtocolConfig(kappa=grid.kappa, order_max=grid.order_max)
    stage_dev = np.abs(
        double_pass(result.to_map(), grid.order_max).coefficients
        - double_pass_write(config).coefficients
    )
    assert stage_dev.max() < 0.06
    num_cycle = numerical_full_cycle(result)
    ana_cycle = full_cycle(config)
    assert num_cycle.input_register == ana_cycle.input_register
    row = num_cycle.out_index(light("R"))
    cycle_dev = np.abs(num_cycle.coefficients[row] - ana_cycle.coefficients[row])
    assert cycle_dev.max() < 0.1


def test_numerical_full_cycle_takes_the_protocol_route():
    # fed the analytic pass, the oracle's cycle is full_cycle bit for bit
    config = ProtocolConfig(kappa=1.3, order_max=4)
    one = single_pass(config).coefficients
    fake = OracleResult(
        register=small_grid().register(),
        linear=one,
        conjugate=np.zeros_like(one),
        grid=small_grid(kappa=1.3),
    )
    cycle = numerical_full_cycle(fake)
    assert cycle.input_register == full_cycle(config).input_register
    assert cycle.coefficients.tobytes() == full_cycle(config).coefficients.tobytes()


@pytest.mark.parametrize(
    "name, value",
    [
        ("kappa", np.nan),
        ("grating_phase", np.inf),
        ("transverse_phase_shift", np.nan),
        pytest.param("grating_phase", 10**400, id="grating_phase-huge_int"),
        pytest.param("z_points", 10**400, id="z_points-huge_int"),
    ],
)
def test_grid_rejects_non_finite_parameters(name, value):
    # an int past the float range is named too, not an OverflowError naming no field
    problem = "is out of the float range" if isinstance(value, int) else "must be finite"
    with pytest.raises(ValueError, match=f"{name} {problem}"):
        OracleGrid(**{"grating_phase": 20 * np.pi, name: value})


@pytest.mark.parametrize("name, value", [("order_max", 4.5), ("z_points", 4001.5)])
def test_grid_rejects_non_integer_counts(name, value):
    # rejected at construction, by name, not in extract_map by a TypeError naming no field
    with pytest.raises(ValueError, match=f"{name} must be an integer, got {value}"):
        OracleGrid(**{"grating_phase": 200 * np.pi, name: value})
    grid = OracleGrid(grating_phase=200 * np.pi, **{name: np.int64(value)})
    assert getattr(grid, name) == int(value)


@pytest.mark.parametrize("order_max", [4, 20])
def test_conjugate_seed_block_converges_to_the_exact_grating_overlap(order_max):
    # At kappa = 0 the pass only reads the seeds back through the grating,
    # so the conjugate X <- X block is the overlap of theta_m theta_k with
    # e^{-2i dk z}; the Simpson readout resolves it to fourth order.
    grid = OracleGrid(
        grating_phase=200 * np.pi, kappa=0.0, order_max=order_max, z_points=z_points(100, 40)
    )
    exact = reference.grating_overlap(order_max, grid.effective_phase)
    x = slice(1, order_max + 2)
    errors = [np.abs(_pass_map(grid, r)[1][x, x] - exact).max() for r in (1, 2, 4)]
    ratios = [coarse / fine for coarse, fine in zip(errors, errors[1:])]
    assert all(12 <= ratio <= 20 for ratio in ratios), (errors, ratios)


def euler_time_loop(grid, amplitudes, t_points=100, length=1.0, duration=1.0):
    """One pass integrated by explicit time steps, re-solving a(z) each step.

    This is the time loop the oracle ran before it integrated the pass
    exactly in time; it is kept here as the reference for that shortcut.
    It runs in a cell of the given length, for a pulse of the given duration.
    """
    integ = reference.PerOrderPass(grid, length, duration)
    n_spin = grid.order_max + 1
    coupling = grid.kappa / np.sqrt(length * duration)
    dt = duration / t_points
    x_field = 2 * np.real(np.outer(amplitudes[1 : 1 + n_spin], integ.carrier_pos))
    p_field = 2 * np.real(np.outer(amplitudes[1 + n_spin :], integ.carrier_pos))
    x_field = np.sum(x_field * integ.thetas, axis=0)
    p_field = np.sum(p_field * integ.thetas, axis=0)
    a_boundary = amplitudes[0] / np.sqrt(duration)
    a_time_sum = 0.0 + 0.0j
    for _ in range(t_points):
        a_of_z = a_boundary + coupling * integ.cumulative_source_integral(p_field)
        x_field = x_field + dt * 2 * coupling * np.imag(a_of_z * integ.carrier_pos)
        a_time_sum += a_of_z[-1] * dt
    x_out = integ.project(x_field * integ.carrier_neg)
    p_out = integ.project(p_field * integ.carrier_neg)
    return np.concatenate([[a_time_sum / np.sqrt(duration)], x_out, p_out])


@pytest.mark.parametrize("scales", [{}, {"length": 2.5, "duration": 3.0}])
def test_single_sweep_matches_euler_time_loop(scales):
    grid = small_grid(kappa=1.3)
    rng = np.random.default_rng(11)
    for _ in range(4):
        probe = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        expected = euler_time_loop(grid, probe, **scales)
        assert_allclose(apply_pass(grid, probe), expected, atol=1e-12)


@pytest.mark.parametrize("scales", [{}, {"length": 2.5, "duration": 3.0}])
def test_extracted_map_matches_probes_of_euler_time_loop(scales):
    # Probing mode k with amplitudes 1 and i gives out(e_k) = A_k + B_k and
    # out(i e_k) = i (A_k - B_k), so each column of the C-linear part A and
    # the conjugate part B follows from the pair.
    grid = small_grid(kappa=1.3)
    dim = len(grid.register())
    linear = np.empty((dim, dim), dtype=complex)
    conjugate = np.empty((dim, dim), dtype=complex)
    for k, probe in enumerate(np.eye(dim, dtype=complex)):
        out_unit = euler_time_loop(grid, probe, **scales)
        out_imag = euler_time_loop(grid, 1j * probe, **scales)
        linear[:, k] = (out_unit - 1j * out_imag) / 2
        conjugate[:, k] = (out_unit + 1j * out_imag) / 2
    result = extract_map(grid)
    assert_allclose(result.linear, linear, atol=1e-12)
    assert_allclose(result.conjugate, conjugate, atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    order_max=st.sampled_from([0, 1, 4, 20]),
    # below one chunk, exactly one, one point past it, and not a multiple
    z_points=st.sampled_from([_Z_CHUNK // 2 + 1, _Z_CHUNK, _Z_CHUNK + 1, 2 * _Z_CHUNK + 345]),
    points_per_period=st.floats(min_value=20.0, max_value=60.0),
    transverse_phase_shift=st.floats(min_value=0.0, max_value=5 * np.pi),
    kappa=st.floats(min_value=0.0, max_value=2.0),
    length=st.floats(min_value=0.3, max_value=3.0),
    duration=st.floats(min_value=0.3, max_value=3.0),
)
def test_pass_map_matches_per_order_reference(
    order_max, z_points, points_per_period, transverse_phase_shift, kappa, length, duration
):
    effective_phase = 2 * np.pi * (z_points - 1) / points_per_period
    grid = OracleGrid(
        grating_phase=effective_phase + transverse_phase_shift,
        transverse_phase_shift=transverse_phase_shift,
        kappa=kappa,
        order_max=order_max,
        z_points=z_points,
    )
    # the reference runs in a cell of the drawn length and duration
    linear, conjugate = reference.PerOrderPass(grid, length, duration).pass_map()
    result = extract_map(grid)
    assert_allclose(result.linear, linear, rtol=0, atol=1e-12)
    assert_allclose(result.conjugate, conjugate, rtol=0, atol=1e-12)


def test_oracle_rejects_grid_too_coarse_for_order():
    # 20 points per period over 2 periods cannot resolve theta_60
    with pytest.raises(ValueError, match="z grid too coarse: 81 points"):
        extract_map(OracleGrid(grating_phase=4 * np.pi, order_max=60, z_points=81))


def test_extract_map_peak_memory():
    # Memory guard independent of timing: z is swept in fixed chunks;
    # stacking whole (order_max + 1, z) arrays raises the traced peak.
    grid = OracleGrid(grating_phase=200 * np.pi)
    extract_map(grid, refinement_levels=1)  # fill the Legendre table cache
    _grid_blocks.cache_clear()  # so that the traced call sweeps z again
    tracemalloc.start()
    try:
        extract_map(grid, refinement_levels=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.1e6


def test_extract_map_peak_memory_at_order_60():
    # The sweep streams z in fixed chunks, so after the warm-up has built
    # both grids' tables its transient memory is O(order_max * chunk):
    # below half of one fine-grid (61, 24001) table.
    grid = OracleGrid(grating_phase=600 * np.pi, order_max=60)
    extract_map(grid, refinement_levels=1)
    _grid_blocks.cache_clear()
    tracemalloc.start()
    try:
        extract_map(grid, refinement_levels=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_grating_phase_sweep_keeps_only_the_last_grid_tables():
    # Every step of the sweep has new grids; the Legendre tables of the last
    # step's two grids take 2.1 MB, those of all five steps 10.8 MB.
    tracemalloc.start()
    try:
        for periods in range(100, 105):
            grid = OracleGrid(grating_phase=2 * np.pi * periods, order_max=20)
            extract_map(grid, refinement_levels=1)
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 4e6


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(
    order_max=st.sampled_from([0, 1, 4, 20]),
    kappa=st.floats(min_value=0.0, max_value=2.0),
)
def test_pass_map_on_a_cache_hit_equals_a_fresh_sweep(order_max, kappa):
    grid = small_grid(order_max=order_max, kappa=kappa)
    _grid_blocks.cache_clear()
    _pass_map(replace(grid, kappa=0.5))  # the entry comes from another call
    hit = _pass_map(grid)
    assert _grid_blocks.cache_info().hits == 1
    _grid_blocks.cache_clear()
    fresh = _pass_map(grid)
    assert _grid_blocks.cache_info().misses == 1
    for cached, swept in zip(hit, fresh):
        assert cached.tobytes() == swept.tobytes()


@pytest.mark.parametrize(
    "change",
    [{"z_points": 1001}, {"order_max": 5}, {"transverse_phase_shift": 0.1}],
    ids=["z_points", "order_max", "transverse_phase_shift"],
)
def test_grid_sums_are_never_reused_across_geometries(change):
    base = small_grid(z_points=801)
    _grid_blocks.cache_clear()
    _pass_map(base)
    _pass_map(replace(base, **change))
    assert _grid_blocks.cache_info().hits == 0
    assert _grid_blocks.cache_info().misses == 2


def test_cached_grid_sums_are_read_only():
    grid = small_grid()
    _grid_blocks.cache_clear()
    _pass_map(grid)
    blocks = _grid_blocks(grid.order_max, grid.z_points, grid.effective_phase)
    assert _grid_blocks.cache_info().hits == 1
    arrays = [value for value in blocks if isinstance(value, np.ndarray)]
    assert len(arrays) == 4
    for array in arrays:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0


def test_extractions_at_new_couplings_sweep_z_once():
    _grid_blocks.cache_clear()
    for kappa in (0.8, 1.0, 1.2):
        extract_map(small_grid(kappa=kappa), refinement_levels=1)
    info = _grid_blocks.cache_info()
    assert (info.misses, info.hits) == (2, 4)


def test_level_2_extractions_at_new_couplings_sweep_z_once():
    _grid_blocks.cache_clear()
    for kappa in (0.8, 1.0, 1.2):
        extract_map(small_grid(kappa=kappa), refinement_levels=2)
    info = _grid_blocks.cache_info()
    assert (info.misses, info.hits) == (3, 6)


def test_overflowing_coupling_gives_inf_and_never_nan():
    # kappa^2 overflows; the zero entries of the kappa^2 block must stay zero.
    with np.errstate(all="ignore"):
        result = extract_map(OracleGrid(kappa=1e200))
    entries = np.concatenate([result.linear.ravel(), result.conjugate.ravel()])
    assert not np.isnan(entries).any()
    assert np.isinf(entries).any()
