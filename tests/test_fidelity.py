"""Noise covariance, determinant-formula fidelity and the squeezing sweep."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from numpy.testing import assert_allclose

from holomem.algebra import CovarianceSpec, spin_p, spin_x
from holomem.fidelity import (
    CLASSICAL_BENCHMARK,
    CLONING_BENCHMARK,
    PixelNoiseModel,
    fidelity_from_covariance,
    noise_covariance,
    protocol_noise,
    squeezing_sweep,
    vacuum_fidelity,
)
from holomem.protocol import NoiseCoefficients, ProtocolConfig, extract_noise, full_cycle

import reference


def squeezed_spec(noise, r):
    """Both quadratures of the three noise modes squeezed by r, their partners antisqueezed."""
    return reference.with_squeezing([label for label, _ in noise.items()], r)


def test_vacuum_covariance_is_eleven_sixtieths():
    model = noise_covariance(protocol_noise(), CovarianceSpec.vacuum(), pixel_count=3)
    assert_allclose(model.cov_x, (11 / 60) * np.eye(3), atol=1e-14)
    assert_allclose(model.cov_p, (11 / 60) * np.eye(3), atol=1e-14)


def test_zero_noise_variances_give_zero_covariance():
    noise = protocol_noise()
    spec = CovarianceSpec(
        variances={label: (0.0, 0.0) for label, _ in noise.items()}
    )
    model = noise_covariance(noise, spec, pixel_count=2)
    assert_allclose(model.cov_x, 0.0, atol=0)
    assert_allclose(model.cov_p, 0.0, atol=0)


def test_squeezed_covariance_scales_exponentially():
    noise = protocol_noise()
    model = noise_covariance(noise, squeezed_spec(noise, r=1.0), pixel_count=1)
    assert_allclose(model.cov_x[0, 0], (11 / 60) * np.exp(-2.0), rtol=1e-12)
    assert_allclose(model.cov_p[0, 0], (11 / 60) * np.exp(-2.0), rtol=1e-12)


def test_noise_covariance_cross_checked_by_hand_sums():
    # independent route: the per-mode quadrature sums of tests/reference.py
    noise = protocol_noise()
    for spec in (
        CovarianceSpec.vacuum(),
        squeezed_spec(noise, r=1.0),
        CovarianceSpec(variances={spin_p(0): (0.0, math.inf)}),
    ):
        var_x, var_p, cross = reference.hand_noise_variances(noise, spec)
        model = noise_covariance(noise, spec, pixel_count=1)
        assert cross == 0.0
        assert_allclose(model.cov_x[0, 0], var_x, rtol=1e-13)
        assert_allclose(model.cov_p[0, 0], var_p, rtol=1e-13)


def test_noise_covariance_rejects_cross_correlations():
    # a complex coefficient with unequal re/im variances correlates F_X and F_P
    noise = NoiseCoefficients(x1=(1 + 1j) / 2, p0=0.1, p2=0.0)
    spec = CovarianceSpec(variances={spin_x(1): (0.5, 2.0), spin_p(1): (0.5, 0.5)})
    with pytest.raises(ValueError, match="cross"):
        noise_covariance(noise, spec, pixel_count=1)


def test_infinite_variance_gives_zero_fidelity_without_warning():
    # p_0 enters with a real coefficient: its zero re variance contributes
    # nothing to var F_X, its infinite im variance makes var F_P infinite
    spec = CovarianceSpec(variances={spin_p(0): (0.0, math.inf)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = noise_covariance(protocol_noise(), spec, pixel_count=2)
        report = fidelity_from_covariance(model)
        assert np.all(model.cov_p == np.diag([math.inf, math.inf]))
        assert np.all(np.isfinite(model.cov_x))
    assert report.f_n == 0.0 and report.f_av == 0.0


def test_pixel_noise_model_validation():
    with pytest.raises(ValueError):
        PixelNoiseModel(pixel_count=0, cov_x=np.zeros((0, 0)), cov_p=np.zeros((0, 0)))
    with pytest.raises(ValueError, match="pixel_count"):
        PixelNoiseModel(pixel_count=10**330, cov_x=0.5, cov_p=0.5)
    with pytest.raises(ValueError, match="pixel_count must be >= 1"):
        noise_covariance(protocol_noise(), CovarianceSpec.vacuum(), pixel_count=0)
    # a count of pixels is an integer; a NumPy integer is one
    for count in (math.nan, math.inf, 2.5):
        with pytest.raises(ValueError, match="pixel_count must be an integer"):
            PixelNoiseModel(pixel_count=count, cov_x=0.5, cov_p=0.5)
        with pytest.raises(ValueError, match="pixel_count must be an integer"):
            vacuum_fidelity(count)
    assert vacuum_fidelity(np.int64(3)) == vacuum_fidelity(3)


@pytest.mark.parametrize(
    "cov_x",
    [math.nan, -0.1, np.zeros((2, 3)), np.full((2, 2), math.nan), np.eye(2), np.zeros((2, 2))],
)
def test_pixel_noise_model_rejects_bad_cov_x(cov_x):
    # one variance per quadrature: a matrix, even a valid diagonal one, is rejected
    with pytest.raises(ValueError, match="cov_x"):
        PixelNoiseModel(pixel_count=2, cov_x=cov_x, cov_p=0.5)


def test_scalar_model_matches_explicit_identity_matrix():
    v = 11 / 60
    assert_allclose(PixelNoiseModel(5, v, v).cov_x, v * np.eye(5), rtol=0, atol=0)


def test_single_pixel_vacuum_fidelity():
    report = vacuum_fidelity(pixel_count=1)
    assert_allclose(report.f_n, 60 / 71, atol=1e-15)
    assert_allclose(report.f_av, 60 / 71, atol=1e-15)
    assert report.beats_classical and report.beats_cloning


def test_zero_covariance_gives_unit_fidelity():
    model = PixelNoiseModel(pixel_count=2, cov_x=0.0, cov_p=0.0)
    assert fidelity_from_covariance(model).f_n == 1.0


def test_ten_pixel_fidelity_is_power_of_single_pixel():
    report = vacuum_fidelity(pixel_count=10)
    assert_allclose(report.f_n, (60 / 71) ** 10, rtol=1e-12)
    assert_allclose(report.f_av, 60 / 71, rtol=1e-12)


def test_many_pixel_vacuum_fidelity_does_not_underflow():
    # the plain determinant product overflows here and gave f_av = 0
    report = vacuum_fidelity(pixel_count=2200)
    assert_allclose(report.f_av, 60 / 71, rtol=0, atol=1e-12)
    assert report.beats_classical and report.beats_cloning


def test_million_pixel_vacuum_fidelity_builds_no_pixel_matrix():
    # one 10^6 x 10^6 matrix would take 8 TB; the peak stays under 1 MB
    tracemalloc.start()
    try:
        report = vacuum_fidelity(pixel_count=10**6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert_allclose(report.f_av, 60 / 71, rtol=0, atol=1e-12)
    assert peak < 1_000_000


def test_fidelity_decreases_with_added_noise():
    f_base = fidelity_from_covariance(PixelNoiseModel(3, 0.2, 0.2)).f_av
    f_bumped = fidelity_from_covariance(PixelNoiseModel(3, 0.25, 0.2)).f_av
    assert f_bumped < f_base


def test_benchmarks():
    assert CLASSICAL_BENCHMARK == 0.5
    assert CLONING_BENCHMARK == pytest.approx(2 / 3)
    report = vacuum_fidelity()
    assert report.f_av > CLONING_BENCHMARK > CLASSICAL_BENCHMARK


def test_squeezing_sweep_matches_closed_form():
    r_values = np.linspace(0.0, 6.0, 25)
    reports = squeezing_sweep(r_values, pixel_count=1)
    for r, report in zip(r_values, reports):
        assert_allclose(report.f_av, reference.squeezed_average_fidelity(r), rtol=1e-12)


def test_squeezing_sweep_limits():
    reports = squeezing_sweep([0.0, np.log(np.sqrt(2.0)), 10.0])
    assert_allclose(reports[0].f_av, 60 / 71, atol=1e-14)
    # e^{-2r} = 1/2 at r = ln(sqrt(2)): F_av = (1 + 11/120)^{-1}
    assert_allclose(reports[1].f_av, 120 / 131, rtol=1e-12)
    assert reports[2].f_av >= 1.0 - 1e-8


def test_squeezing_sweep_is_monotone():
    r_values = np.linspace(0.0, 10.0, 60)
    f = [rep.f_av for rep in squeezing_sweep(r_values)]
    assert all(a < b for a, b in zip(f, f[1:]))


def test_fidelity_invariant_under_pixel_count():
    for pixels in (1, 2, 7):
        assert_allclose(vacuum_fidelity(pixel_count=pixels).f_av, 60 / 71, rtol=1e-12)


def test_cached_noise_is_the_uncached_extraction_bit_for_bit():
    cached = protocol_noise(1.0)
    fresh = extract_noise(full_cycle(ProtocolConfig(kappa=1.0, order_max=4)))
    # repr spells both parts of each complex exactly, -0.0 included
    assert repr(cached) == repr(fresh)
    assert protocol_noise(1.0) is cached
    # the quadrature rows are built once per coupling and shared read-only
    assert cached.rows.tobytes() == fresh.rows.tobytes()
    assert cached.rows is protocol_noise(1.0).rows
    assert not cached.rows.flags.writeable


def test_rejected_couplings_are_not_cached():
    before = protocol_noise.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="holds only at kappa = 1"):
            protocol_noise(1.2)
        with pytest.raises(ValueError, match="holds only at kappa = 1"):
            protocol_noise(0.9999999)
    assert protocol_noise.cache_info().currsize == before


# r = 354.9: the antisqueezed partners overflow to inf; r = 380: e^{-2r}
# underflows to 0.
SWEEP_R_VALUES = (0.0, math.log(math.sqrt(2.0)), 1.0, 10.0, 354.9, 380.0, 1e308)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(extra_r=st.floats(min_value=0.0, max_value=1e308))
@example(extra_r=0.0)
@example(extra_r=5e-324)
def test_squeezing_sweep_is_the_general_route_bit_for_bit(extra_r):
    # the sweep transports the cached noise rows; the general route builds a
    # squeezed CovarianceSpec per r and goes through noise_covariance.  The
    # CLI sweeps a NumPy array, whose -2r overflows (and must not warn) at 1e308.
    noise = protocol_noise(1.0)
    r_values = [*SWEEP_R_VALUES, extra_r]
    for pixels in (1, 2000, 10**6):
        models = [noise_covariance(noise, squeezed_spec(noise, r), pixels) for r in r_values]
        expected = [repr(fidelity_from_covariance(m, r)) for m, r in zip(models, r_values)]
        for values in (r_values, np.array(r_values)):
            reports = squeezing_sweep(values, pixel_count=pixels, kappa=1.0)
            assert [repr(report) for report in reports] == expected


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1e-300, -2.0])
def test_squeezing_sweep_rejects_bad_r_as_with_squeezing_does(r):
    with pytest.raises(ValueError) as expected:
        reference.with_squeezing([spin_x(1)], r)
    with pytest.raises(ValueError) as raised:
        squeezing_sweep([0.5, r])
    assert str(raised.value) == str(expected.value)
    assert str(expected.value).startswith("squeezing parameter r must be")
