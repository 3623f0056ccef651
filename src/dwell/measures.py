"""Uncertainties, well occupancies and information measures of states.

Each measure is computed for all states at once and returned as a tuple of
arrays with one entry per state, in the order its docstring gives; the
per-state record is `report.StateReport`.  Moments of x and p are band
quadratic forms of the coefficient vectors (quadrature-free); the entropic
functionals are Simpson integrals of sampled densities, with density
derivatives taken from the analytic Hermite derivative rather than finite
differences.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .basis import (
    band_matvec,
    momentum_squared_band,
    position_band,
    position_squared_band,
)
from .potential import WellGeometry, WellSide
from .spectrum import Spectrum
from .wavefunction import UniformGrid, probability_below, simpson

__all__ = [
    "Occupancy",
    "NotNormalized",
    "uncertainties",
    "well_occupancy",
    "classify_occupancy",
    "os_measure",
    "info_measures",
    "SHANNON_TOTAL_BOUND",
    "FISHER_PRODUCT_BOUND",
    "ONICESCU_PRODUCT_BOUND",
    "OS_TOTAL_BOUND",
]

# lower bounds saturated by the Gaussian ground state: Bialynicki-Birula and
# Mycielski for the Shannon sum; for the Fisher product, I_x = 4 <p^2> for a
# real state and Cramer-Rao gives I_p >= 1 / <p^2>
SHANNON_TOTAL_BOUND = 1.0 + math.log(math.pi)
FISHER_PRODUCT_BOUND = 4.0
# values the Gaussian takes, not bounds in either direction: the first
# excited oscillator state gives 9/16 of ONICESCU_PRODUCT_BOUND, and localized
# states of an anharmonic well can exceed either constant
ONICESCU_PRODUCT_BOUND = 1.0 / (2.0 * math.pi)
OS_TOTAL_BOUND = 0.5 * math.pi ** (-1.0 / 3.0) * math.exp(2.0 / 3.0)

NORMALIZATION_TOL = 1e-4
RHO_TINY = 1e-300

WELL_I_THRESHOLD = 0.9
WELL_II_THRESHOLD = 0.1


class NotNormalized(ValueError):
    """Density integral deviates from 1 beyond the accepted tolerance."""


class Occupancy(enum.Enum):
    WELL_I = "I"
    WELL_II = "II"
    BOTH = "both"


def uncertainties(
    spec: Spectrum, n_states: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean_x, delta_x, delta_p) of states 0..n_states-1, one entry per state.

    Exact first and second moments: all states (default: every computed
    one) share one band product per operator.  Eigenvectors are real, so <p>
    vanishes identically for stationary states and delta_p is sqrt(<p^2>).
    """
    c = spec.coefficients[:, :n_states]

    def expectation(band: np.ndarray) -> np.ndarray:
        return np.sum(c * band_matvec(band, c), axis=0)

    mean_x = expectation(position_band(spec.basis))
    mean_x2 = expectation(position_squared_band(spec.basis))
    mean_p2 = expectation(momentum_squared_band(spec.basis))
    delta_x = np.sqrt(np.maximum(mean_x2 - mean_x * mean_x, 0.0))
    delta_p = np.sqrt(np.maximum(mean_p2, 0.0))
    return mean_x, delta_x, delta_p


def classify_occupancy(p_well_I: float) -> Occupancy:
    if p_well_I >= WELL_I_THRESHOLD:
        return Occupancy.WELL_I
    if p_well_I <= WELL_II_THRESHOLD:
        return Occupancy.WELL_II
    return Occupancy.BOTH


def well_occupancy(
    grid: UniformGrid, psi: np.ndarray, geometry: WellGeometry
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(p_well_I, p_well_II, mass_left, mass_right) of every state in the
    (states, samples) rows psi, one entry per state; well I is the deeper.

    The probability on the deeper-well side is the density integral below
    the barrier over the full integral, for all states at once along the
    contiguous sample axis, so each equals its single-state value.  The
    masses are the unnormalized integrals of |psi|^2 left and right of the
    barrier.  A single well gives 1, 0, nan, nan for every state.  For an
    exactly symmetric double well the deeper side is taken as the left one
    (either choice integrates to 1/2).
    """
    rho = np.abs(psi) ** 2
    if not geometry.is_double_well:
        k = len(rho)
        return np.ones(k), np.zeros(k), np.full(k, math.nan), np.full(k, math.nan)
    below = probability_below(grid, rho, geometry.barrier[0])
    total = simpson(rho, grid.dx)
    p_i = below / total
    p_ii = 1.0 - p_i
    if geometry.deeper_well_side is WellSide.RIGHT:
        p_i, p_ii = p_ii, p_i
    return p_i, p_ii, below, total - below


def _check_density(rho: np.ndarray, dx: float) -> None:
    """Raise unless every row of rho integrates to 1 within tolerance."""
    totals = simpson(rho, dx)
    bad = np.abs(totals - 1.0) > NORMALIZATION_TOL
    if np.any(bad):
        raise NotNormalized(f"density integrates to {totals[np.argmax(bad)]:.8f}")


def os_measure(s: float, e: float) -> float:
    """Composite measure exp(2 S / 3) * E."""
    return math.exp(2.0 * s / 3.0) * e


def info_measures(
    xgrid: UniformGrid,
    psi_x: np.ndarray,
    dpsi_x: np.ndarray,
    pgrid: UniformGrid,
    psi_p: np.ndarray,
    dpsi_p: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """(s_x, s_p, i_x, i_p, e_x, e_p) of every state, one entry per state.

    psi and dpsi are (states, samples) rows on their grid; all states are
    integrated together along the contiguous sample axis, so each equals
    its single-state value.  S = -int rho ln rho (0 ln 0 = 0), I = int
    rho'^2 / rho with rho' = 2 Re(psi* psi'), and E = int rho^2.
    """
    per_space = []
    for grid, psi, dpsi in ((xgrid, psi_x, dpsi_x), (pgrid, psi_p, dpsi_p)):
        rho, drho = np.abs(psi) ** 2, 2.0 * np.real(np.conj(psi) * dpsi)
        _check_density(rho, grid.dx)
        rho_safe = np.maximum(rho, RHO_TINY)
        shannon = np.where(rho > 0.0, -rho * np.log(rho_safe), 0.0)
        fisher = np.where(rho > RHO_TINY, drho * drho / rho_safe, 0.0)
        per_space.append(tuple(simpson(f, grid.dx) for f in (shannon, fisher, rho * rho)))
    (s_x, i_x, e_x), (s_p, i_p, e_p) = per_space
    return s_x, s_p, i_x, i_p, e_x, e_p
