"""Orthonormal Legendre mode functions on a finite cell.

The longitudinal profile of the collective spin is expanded over rescaled
Legendre polynomials

    theta_n(z) = sqrt((2n+1)/L) * P_n(2z/L),    z in [-L/2, L/2],

which form an orthonormal set on the cell.  Adjacent orders couple through
the tridiagonal matrix Q built from the Legendre integral recurrence; that
matrix carries the spin-to-spin transfer coefficients of the light pass.

The sampled tables and the projection work on the unit cell, L = 1: the
oracle measures z in cell lengths.  theta(n, z, length) keeps L, as the
independent reference for both.  z_points is the one rule for how many
grid points a number of grating periods gets.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Slack for floating point z-grids whose endpoints land a few ulp outside
# the cell.
_EDGE_TOL = 1e-12
# z points per grating period: the fewest an oracle grid accepts, and the default.
MIN_POINTS_PER_PERIOD = 20
DEFAULT_POINTS_PER_PERIOD = 40


def legendre_poly(n: int, u):
    """P_n(u) by the stable three-term recurrence.

    Args:
        n: polynomial order, n >= 0.
        u: scalar or array of evaluation points (orthogonality interval [-1, 1]).

    Returns:
        P_n evaluated at u, same shape as u.
    """
    if n < 0:
        raise ValueError(f"Legendre order must be nonnegative, got {n}")
    u = np.asarray(u, dtype=float)
    p_prev = np.ones_like(u)
    if n == 0:
        return p_prev
    p_cur = u.copy()
    for k in range(1, n):
        p_prev, p_cur = p_cur, ((2 * k + 1) * u * p_cur - k * p_prev) / (k + 1)
    return p_cur


def theta(n: int, z, length: float = 1.0):
    """Orthonormal longitudinal mode function theta_n(z) on [-L/2, L/2].

    theta_n(z) = N_n * sqrt(2/L) * P_n(2z/L) with N_n = sqrt((2n+1)/2), so
    that integral theta_n theta_m dz = delta_nm.

    Raises:
        ValueError: for negative order or z outside the cell.
    """
    if n < 0:
        raise ValueError(f"mode order must be nonnegative, got {n}")
    if length <= 0:
        raise ValueError(f"cell length must be positive, got {length}")
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(z) > length / 2 * (1 + _EDGE_TOL)):
        raise ValueError("z outside the cell [-L/2, L/2]")
    return np.sqrt((2 * n + 1) / length) * legendre_poly(n, 2 * z / length)


def q_matrix(order_max: int) -> np.ndarray:
    """Tridiagonal mode-coupling matrix over orders 0..order_max.

    Nonzero entries sit on the first off-diagonals only:

        Q[n, n-1] = 1/sqrt((2n-1)(2n+1))
        Q[n, n+1] = -1/sqrt((2n+1)(2n+3))

    so Q[n, n+1] = -Q[n+1, n].
    """
    if order_max < 1:
        raise ValueError(f"order_max must be >= 1, got {order_max}")
    q = np.zeros((order_max + 1, order_max + 1))
    n = np.arange(1, order_max + 1)
    coupling = 1.0 / np.sqrt((2 * n - 1) * (2 * n + 1))
    q[n, n - 1] = coupling
    q[n - 1, n] = -coupling
    return q


def cell_grid(n_points: int) -> np.ndarray:
    """Uniform z grid covering the unit cell [-1/2, 1/2], endpoints included."""
    return np.linspace(-0.5, 0.5, n_points)


def z_points(periods: float, per_period: int) -> int:
    """Points of a z grid at per_period per grating period, with an even interval count."""
    span = per_period * periods
    if not math.isfinite(span):
        raise ValueError(
            f"z grid too large: {periods:g} grating-periods at {per_period} points per period"
        )
    intervals = math.ceil(span)
    return intervals + intervals % 2 + 1


def simpson_weights(n_points: int, h: float) -> np.ndarray:
    """Quadrature weights of a uniform grid of n_points with spacing h.

    An even number of intervals gets composite Simpson; an odd number gets
    composite Simpson on all but the last three intervals and Simpson's 3/8
    rule on those.  Both are positive and exact for cubics.

    Raises:
        ValueError: for fewer than 3 intervals.
    """
    intervals = n_points - 1
    if intervals < 3:
        raise ValueError(f"need at least 4 grid points, got {n_points}")
    weights = np.zeros(n_points)
    simpson_end = intervals if intervals % 2 == 0 else intervals - 3
    if simpson_end:
        weights[0:simpson_end:2] += h / 3
        weights[1:simpson_end:2] += 4 * h / 3
        weights[2 : simpson_end + 1 : 2] += h / 3
    if simpson_end < intervals:
        weights[simpson_end:] += np.array([1.0, 3.0, 3.0, 1.0]) * 3 * h / 8
    return weights


class SampledBasis(NamedTuple):
    """The basis sampled on one uniform grid covering the cell.

    thetas[n] holds theta_n at the grid points, weights the quadrature
    weights (see simpson_weights) and gram_inverse the inverse of the
    discrete Gram matrix G = thetas W thetas^T.  All three are read-only.
    """

    thetas: np.ndarray
    weights: np.ndarray
    gram_inverse: np.ndarray


@lru_cache(maxsize=2)
def sampled_basis(order_max: int, n_points: int) -> SampledBasis:
    """theta_0..theta_order_max on cell_grid(n_points), from one recurrence pass.

    Every row is computed by the same arithmetic as theta(n, z), so the
    table agrees with it to the last bit.  The cache holds the two grids of
    one extraction with a refinement level; a sweep over grating phases
    needs new grids at every step and would otherwise keep them all.
    """
    if order_max < 0:
        raise ValueError(f"order_max must be nonnegative, got {order_max}")
    z = cell_grid(n_points)
    u = 2 * z
    thetas = np.empty((order_max + 1, n_points))
    thetas[0] = 1.0
    if order_max >= 1:
        thetas[1] = u
    for k in range(1, order_max):
        thetas[k + 1] = ((2 * k + 1) * u * thetas[k] - k * thetas[k - 1]) / (k + 1)
    thetas *= np.sqrt(2 * np.arange(order_max + 1) + 1.0)[:, None]
    weights = simpson_weights(n_points, z[1] - z[0])
    gram_inverse = np.linalg.inv((thetas * weights) @ thetas.T)
    for table in (thetas, weights, gram_inverse):
        table.flags.writeable = False
    return SampledBasis(thetas, weights, gram_inverse)


def check_resolution(order_max: int, n_points: int, periods: float) -> None:
    """Reject a z grid too coarse for its grating carrier or for theta_order_max.

    It needs MIN_POINTS_PER_PERIOD points per grating period (a 1e-9 slack
    admits a period count a few ulp off) and 4 per oscillation of P_order_max;
    a profile with no carrier passes periods = 0.  np.ceil keeps inf.
    """
    need = max(4 * max(1, order_max), np.ceil(MIN_POINTS_PER_PERIOD * periods * (1 - 1e-9)) + 1)
    if n_points < need:
        raise ValueError(
            f"z grid too coarse: {n_points} points, need >= {need:.0f} for {periods:g} "
            f"grating-periods, z-per-period >= {MIN_POINTS_PER_PERIOD} and order-max {order_max}"
        )


def project_onto_basis(samples, order_max: int) -> np.ndarray:
    """Mode amplitudes integral theta_n(z) f(z) dz of a sampled profile.

    The samples must live on cell_grid(samples.size), the unit cell
    endpoints included.  The integrals are Simpson-weighted sums (see
    simpson_weights), corrected by the inverse of the discrete Gram matrix
    of the sampled basis: a profile in the span of theta_0..theta_order_max
    gets its amplitudes exactly (to rounding), any other profile differs
    from plain Simpson by O(h^4).  Complex samples are projected
    componentwise, so the result is complex whenever the input is.

    Raises:
        ValueError: if the grid is too coarse for theta_order_max (see check_resolution).
    """
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError("samples must be a 1-D array over the z grid")
    check_resolution(order_max, samples.size, 0)
    thetas, weights, gram_inverse = sampled_basis(order_max, samples.size)
    return gram_inverse @ (thetas @ (weights * samples))
