"""Legendre mode functions, coupling matrix and projection quadrature."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import cumulative_trapezoid
from scipy.special import eval_legendre

from holomem.basis import (
    cell_grid,
    legendre_poly,
    project_onto_basis,
    q_matrix,
    sampled_basis,
    simpson_weights,
    theta,
)


@pytest.mark.parametrize("n", range(9))
def test_recurrence_matches_scipy(n):
    u = np.linspace(-1.0, 1.0, 501)
    assert_allclose(legendre_poly(n, u), eval_legendre(n, u), atol=1e-12)


@pytest.mark.parametrize("length", [1.0, 0.37, 2.5])
def test_theta0_is_flat(length):
    z = np.linspace(-length / 2, length / 2, 7)
    assert_allclose(theta(0, z, length), np.sqrt(1.0 / length), rtol=1e-14)


def test_theta1_vanishes_at_center():
    assert theta(1, 0.0, 1.0) == 0.0


def test_theta2_is_normalized():
    # independent check: plain trapezoid quadrature at >= 1e4 nodes
    length = 1.7
    z = np.linspace(-length / 2, length / 2, 20001)
    norm = np.trapezoid(theta(2, z, length) ** 2, z)
    assert_allclose(norm, 1.0, atol=1e-10)


def test_theta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theta(-1, 0.0, 1.0)
    with pytest.raises(ValueError):
        theta(0, 0.7, 1.0)
    with pytest.raises(ValueError):
        theta(0, 0.0, -1.0)


def test_gram_matrix_is_identity_gauss():
    # Gauss-Legendre nodes integrate the polynomial products exactly
    length = 1.3
    u, w = np.polynomial.legendre.leggauss(64)
    z = u * length / 2
    weights = w * length / 2
    thetas = np.array([theta(n, z, length) for n in range(5)])
    gram = (thetas * weights) @ thetas.T
    assert_allclose(gram, np.eye(5), atol=1e-10)


def test_gram_matrix_is_identity_grid():
    # same check through the Simpson projection path used by the oracle
    z = cell_grid(2001)
    for n in range(5):
        amps = project_onto_basis(theta(n, z), 4)
        expected = np.zeros(5)
        expected[n] = 1.0
        assert_allclose(amps, expected, atol=1e-6)


@pytest.mark.parametrize("extra_point", [0, 1])
def test_projection_is_exact_on_the_basis_at_coarsest_grid(extra_point):
    # the Gram correction makes the readout invert the sampled basis exactly,
    # for an odd and an even interval count alike
    order_max = 4
    z = cell_grid(4 * order_max + extra_point)
    for n in range(order_max + 1):
        amps = project_onto_basis(theta(n, z), order_max)
        assert_allclose(amps, np.eye(order_max + 1)[n], atol=1e-12)


@pytest.mark.parametrize("n_points", range(4, 10))
def test_simpson_weights_integrate_cubics_exactly(n_points):
    z = np.linspace(-0.35, 0.85, n_points)
    weights = simpson_weights(n_points, z[1] - z[0])
    assert np.all(weights > 0)
    for degree in range(4):
        exact = (0.85 ** (degree + 1) - (-0.35) ** (degree + 1)) / (degree + 1)
        assert_allclose(weights @ z**degree, exact, rtol=1e-13)


def test_simpson_weights_reject_fewer_than_three_intervals():
    with pytest.raises(ValueError):
        simpson_weights(3, 0.5)


@pytest.mark.parametrize("n", range(1, 5))
def test_legendre_integral_identity(n):
    # int_{-1}^{u} P_n = [P_{n+1}(u) - P_{n-1}(u)] / (2n+1)
    u = np.linspace(-1.0, 1.0, 4001)
    integral = cumulative_trapezoid(legendre_poly(n, u), u, initial=0.0)
    closed = (legendre_poly(n + 1, u) - legendre_poly(n - 1, u)) / (2 * n + 1)
    assert_allclose(integral, closed, atol=1e-6)


def test_q_matrix_values():
    q = q_matrix(2)
    assert_allclose(q[1, 0], 1 / np.sqrt(3), rtol=1e-14)
    assert_allclose(q[1, 2], -1 / np.sqrt(15), rtol=1e-14)
    assert q[0, 0] == 0.0
    assert np.count_nonzero(np.diag(q)) == 0


def test_q_matrix_antisymmetry_pattern():
    q = q_matrix(6)
    for n in range(6):
        assert_allclose(q[n, n + 1], -q[n + 1, n], rtol=1e-14)


def test_q_matrix_returns_a_fresh_writeable_array():
    first = q_matrix(4)
    assert first.flags.writeable
    first[:] = 7.0
    second = q_matrix(4)
    assert second is not first and second.flags.writeable
    assert second[1, 0] == pytest.approx(1 / np.sqrt(3), rel=1e-14)


def test_q_matrix_rejects_order_zero():
    with pytest.raises(ValueError):
        q_matrix(0)


def test_projection_of_basis_function():
    z = cell_grid(1501)
    amps = project_onto_basis(theta(0, z), 3)
    assert_allclose(amps, [1, 0, 0, 0], atol=1e-8)


def test_projection_of_linear_profile():
    z = cell_grid(2001)
    amps = project_onto_basis(z, 4)
    assert_allclose(amps[1], np.sqrt(1 / 12), rtol=1e-8)
    assert_allclose(amps[[0, 2, 4]], 0.0, atol=1e-10)


def test_projection_is_linear_in_the_profile():
    z = cell_grid(1201)
    amps = project_onto_basis(theta(1, z) + theta(2, z), 4)
    assert_allclose(amps, [0, 1, 1, 0, 0], atol=1e-8)


def test_projection_rejects_coarse_grid():
    with pytest.raises(ValueError, match="coarse"):
        project_onto_basis(np.ones(8), 4)


@pytest.mark.parametrize("length", [1.0, 2.5])
def test_sampled_table_matches_theta_up_to_order_60(length):
    # The unit-cell table is theta on a cell of any length, scaled:
    # theta_n(L z, L) = theta_n(z, 1) / sqrt(L).  On a dyadic grid L z and
    # 2 (L z) / L are exact, so theta sees the table's points bit for bit.
    z = cell_grid(2049)
    table = sampled_basis(60, z.size).thetas / np.sqrt(length)
    assert table.shape == (61, 2049)
    for n in range(61):
        assert_allclose(table[n], theta(n, length * z, length), rtol=1e-12, atol=0)
    # endpoints: P_n(+-1) = (+-1)^n
    norms = np.sqrt((2 * np.arange(61) + 1) / length)
    assert_allclose(table[:, -1], norms, rtol=1e-12)
    assert_allclose(table[:, 0], norms * (-1.0) ** np.arange(61), rtol=1e-12)


def test_sampled_basis_is_read_only():
    sampled = sampled_basis(4, 101)
    for table in sampled:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0


@pytest.mark.parametrize("order_max", [0, 1])
def test_sampled_basis_at_lowest_orders(order_max):
    z = cell_grid(5)
    thetas, weights, gram_inverse = sampled_basis(order_max, 5)
    assert thetas.shape == (order_max + 1, 5)
    assert gram_inverse.shape == (order_max + 1, order_max + 1)
    for n in range(order_max + 1):
        assert_allclose(thetas[n], theta(n, z), rtol=1e-12)
    assert_allclose(weights, simpson_weights(5, z[1] - z[0]), rtol=0)


def test_sampled_basis_rejects_negative_order():
    with pytest.raises(ValueError, match="order_max"):
        sampled_basis(-1, 5)
