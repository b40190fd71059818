"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import time

import numpy as np

from holomem.algebra import CovarianceSpec, light
from holomem.fidelity import (
    CLASSICAL_BENCHMARK,
    CLONING_BENCHMARK,
    noise_covariance,
    fidelity_from_covariance,
    squeezing_sweep,
    vacuum_fidelity,
)
from holomem.oracle import OracleGrid, compare, extract_map
from holomem.protocol import (
    ProtocolConfig,
    double_pass_write,
    extract_noise,
    full_cycle,
    single_pass,
)

import reference

KAPPA_SAMPLE = np.random.default_rng(20260809).uniform(0.0, 2.0, size=50)


def report(number: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {text}")


def test_criterion_1_fidelity_reproduction():
    start = time.perf_counter()
    model = noise_covariance(
        extract_noise(full_cycle(ProtocolConfig(kappa=1.0))),
        CovarianceSpec.vacuum(),
        pixel_count=4,
    )
    rep = fidelity_from_covariance(model)
    elapsed = time.perf_counter() - start
    cov_ok = np.max(np.abs(model.cov_x - (11 / 60) * np.eye(4))) <= 1e-12 and np.max(
        np.abs(model.cov_p - (11 / 60) * np.eye(4))
    ) <= 1e-12
    f_ok = abs(rep.f_av - 60 / 71) <= 1e-12
    ok = cov_ok and f_ok and elapsed < 1.0
    report(1, ok, f"C = (11/60) I and F_av = 60/71 ~ 0.845 within 1e-12 in {elapsed:.3f}s")
    assert cov_ok and f_ok
    assert elapsed < 1.0


def test_criterion_2_full_cycle_coefficients():
    start = time.perf_counter()
    worst = 0.0
    for kappa in KAPPA_SAMPLE:
        cycle = full_cycle(ProtocolConfig(kappa=float(kappa)))
        reg = cycle.input_register
        expected = reference.row_as_vector(
            reference.cycle_retrieved_light_row(float(kappa)), reg
        )
        row = cycle.coefficients[cycle.out_index(light("R"))]
        worst = max(worst, float(np.max(np.abs(row - expected))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, ok, f"retrieved-light row matches closed forms at 50 random couplings "
                  f"(worst {worst:.2e}) in {elapsed:.3f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_3_write_stage_coefficients():
    worst = 0.0
    for kappa in KAPPA_SAMPLE:
        stage = double_pass_write(ProtocolConfig(kappa=float(kappa)))
        reg = stage.input_register
        for out_label, row in reference.write_stage_rows(float(kappa)).items():
            expected = reference.row_as_vector(row, reg)
            got = stage.coefficients[stage.out_index(out_label)]
            worst = max(worst, float(np.max(np.abs(got - expected))))
    ok = worst <= 1e-12
    report(3, ok, f"all four displayed write-stage rows match composition (worst {worst:.2e})")
    assert worst <= 1e-12


def test_criterion_4_noise_extraction():
    noise = extract_noise(full_cycle(ProtocolConfig(kappa=1.0)))
    expected = reference.noise_coefficients()
    devs = [
        abs(noise.x1 - 1j / np.sqrt(3)),
        abs(noise.p0 - 1 / 6),
        abs(noise.p2 + 1 / (6 * np.sqrt(5))),
        abs(noise.power() - 11 / 30),
    ]
    ok = max(devs) <= 1e-12
    report(4, ok, f"noise operator (i/sqrt3, 1/6, -1/(6 sqrt5)), power 11/30 "
                  f"(worst {max(devs):.2e}); other couplings vanish")
    assert max(devs) <= 1e-12
    # extract_noise itself asserts that every other non-signal coefficient
    # vanishes within 1e-12; reaching this point means it held


def test_criterion_5_oracle_equivalence():
    start = time.perf_counter()
    grid = OracleGrid(grating_phase=200 * np.pi, kappa=1.0, order_max=4)
    result = extract_map(grid)
    analytic = single_pass(
        ProtocolConfig(kappa=1.0, order_max=4, grating_phase=grid.grating_phase)
    )
    rep = compare(result, analytic, tolerance=0.01)
    doubled = extract_map(OracleGrid(grating_phase=400 * np.pi, kappa=1.0, order_max=4))
    ratio = doubled.leakage_magnitude() / result.leakage_magnitude()
    elapsed = time.perf_counter() - start
    ok = rep.passed and 0.35 <= ratio <= 0.65 and elapsed < 60.0
    report(5, ok, f"oracle agrees within 1% (max rel {rep.max_relative:.2e}); "
                  f"leakage halving ratio {ratio:.3f}; {elapsed:.1f}s")
    assert rep.passed, rep.summary()
    assert 0.35 <= ratio <= 0.65
    assert elapsed < 60.0


def test_criterion_5_oracle_equivalence_at_1000_periods():
    start = time.perf_counter()
    grid = OracleGrid(grating_phase=2000 * np.pi, kappa=1.0, order_max=4)
    result = extract_map(grid)
    analytic = single_pass(
        ProtocolConfig(kappa=1.0, order_max=4, grating_phase=grid.grating_phase)
    )
    rep = compare(result, analytic, tolerance=0.01)
    leak_100 = extract_map(
        OracleGrid(grating_phase=200 * np.pi, kappa=1.0, order_max=4)
    ).leakage_magnitude()
    leak_1000 = result.leakage_magnitude()
    elapsed = time.perf_counter() - start
    ok = rep.passed and leak_1000 < leak_100
    report(5, ok, f"1000 periods: oracle agrees within 1% (max rel {rep.max_relative:.2e}); "
                  f"leakage {leak_1000:.2e} below {leak_100:.2e} at 100 periods; {elapsed:.1f}s")
    assert rep.passed, rep.summary()
    assert leak_1000 < leak_100


def test_criterion_6_commutator_preservation():
    analytic_comm = reference.output_commutator(
        full_cycle(ProtocolConfig(kappa=1.0)), reference.CommutatorTable(), light("R")
    )
    analytic_ok = abs(analytic_comm - 1.0) <= 1e-12
    oracle_result = extract_map(
        OracleGrid(grating_phase=20 * np.pi, kappa=1.0, order_max=4),
        refinement_levels=1,
    )
    oracle_dev = abs(oracle_result.light_commutator() - 1.0)
    oracle_ok = oracle_dev <= oracle_result.reported_tolerance
    ok = analytic_ok and oracle_ok
    report(6, ok, f"[a,a+] = 1: analytic dev {abs(analytic_comm - 1.0):.2e}, oracle dev "
                  f"{oracle_dev:.2e} within reported tolerance "
                  f"{oracle_result.reported_tolerance:.2e}")
    assert analytic_ok
    assert oracle_ok


def test_criterion_7_optimal_coupling():
    kappas = np.linspace(0.0, 1.4, 141)
    powers = np.array(
        [
            abs(full_cycle(ProtocolConfig(kappa=float(k))).coefficient(light("R"), light("W"))) ** 2
            for k in kappas
        ]
    )
    best = int(np.argmax(powers))
    step = kappas[1] - kappas[0]
    argmax_ok = abs(kappas[best] - 1.0) <= step + 1e-12
    recovery_ok = abs(powers[best] - 1.0) <= 1e-12
    f_av = vacuum_fidelity().f_av
    bench_ok = f_av > CLONING_BENCHMARK > CLASSICAL_BENCHMARK
    ok = argmax_ok and recovery_ok and bench_ok
    report(7, ok, f"argmax at kappa = {kappas[best]:.2f} with power {powers[best]:.12f}; "
                  f"F_av = {f_av:.6f} beats 2/3 and 1/2")
    assert argmax_ok and recovery_ok and bench_ok


def test_criterion_8_squeezing_limit():
    r_values = np.linspace(0.0, 10.0, 101)
    f_av = [rep.f_av for rep in squeezing_sweep(r_values)]
    increasing = all(a < b for a, b in zip(f_av, f_av[1:]))
    limit_ok = f_av[-1] >= 1.0 - 1e-7
    ok = increasing and limit_ok
    report(8, ok, f"F_av strictly increasing in r; F_av(10) = {f_av[-1]:.12f} >= 1 - 1e-7")
    assert increasing
    assert limit_ok
