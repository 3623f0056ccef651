"""Uncertainties, well occupancies and information measures of states.

Each measure is computed for all states at once and returned as a tuple of
arrays with one entry per state, in the order its docstring gives; the
per-state record is `report.StateReport`.  Moments of x and p are band
quadratic forms of the coefficient vectors (quadrature-free), and so is
the position-space Fisher information: psi(x) is real, so I_x = 4 <p^2>.
The other entropic functionals are Simpson integrals of sampled densities,
the momentum density's derivative taken from the analytic Hermite
derivative rather than finite differences.  The momentum density is even
in p, so it is sampled on p >= 0 alone (`wavefunction.build_momentum_grid`),
whose even number of intervals makes p = 0 a panel boundary: each of its
integrals is twice the Simpson sum over that half-line, the same panels as
the full window, with half the samples, in real arithmetic.
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
# Mycielski for the Shannon sum; for the Fisher product, Cramer-Rao for the
# momentum density, I_p >= 1 / <p^2> (<p> = 0), times I_x = 4 <p^2>
SHANNON_TOTAL_BOUND = 1.0 + math.log(math.pi)
FISHER_PRODUCT_BOUND = 4.0
# values the Gaussian takes, not bounds in either direction: the first
# excited oscillator state gives 9/16 of ONICESCU_PRODUCT_BOUND, and localized
# states of an anharmonic well can exceed either constant
ONICESCU_PRODUCT_BOUND = 1.0 / (2.0 * math.pi)
OS_TOTAL_BOUND = 0.5 * math.pi ** (-1.0 / 3.0) * math.exp(2.0 / 3.0)

NORMALIZATION_TOL = 1e-4

WELL_I_THRESHOLD = 0.9
WELL_II_THRESHOLD = 0.1


class NotNormalized(ValueError):
    """Density integral deviates from 1 beyond the accepted tolerance."""


class Occupancy(enum.Enum):
    WELL_I = "I"
    WELL_II = "II"
    BOTH = "both"


def uncertainties(spec: Spectrum) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mean_x, delta_x, delta_p) of every state of `spec`, one entry per state.

    Exact first and second moments: all states share one band product per
    operator.  Eigenvectors are real, so <p> vanishes identically for
    stationary states and delta_p is sqrt(<p^2>).
    """
    c = spec.coefficients

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

    The masses are the unnormalized integrals of |psi|^2 left and right of
    the barrier, each a sum of its own whole Simpson panels (see
    `probability_below`): on a `build_grid` grid the barrier is a panel
    boundary.  Each well's probability is its mass over the sum of both, so
    both lie in [0, 1] and the smaller keeps its own relative precision.
    All states are integrated at once along the contiguous sample axis, so
    each equals its single-state value.  A single well gives 1, 0, nan, nan
    for every state.  The deeper side is the one `critical_points` finds by
    comparing the two minimum values exactly; where they are equal (a
    symmetric well) it is taken as the left one.
    """
    rho = np.abs(psi) ** 2
    if not geometry.is_double_well:
        k = len(rho)
        return np.ones(k), np.zeros(k), np.full(k, math.nan), np.full(k, math.nan)
    below, above = probability_below(grid, rho, geometry.barrier[0])
    total = below + above
    p_i, p_ii = below / total, above / total
    if geometry.deeper_well_side is WellSide.RIGHT:
        p_i, p_ii = p_ii, p_i
    return p_i, p_ii, below, above


def _shannon_onicescu(rho: np.ndarray, dx: float, space: str) -> tuple[np.ndarray, np.ndarray]:
    """(S, E) of each row of the `space` densities rho (row n: state n),
    `simpson` integrals at step dx; raise unless every row integrates to 1 within tolerance."""
    totals = simpson(rho, dx)
    bad = np.abs(totals - 1.0) > NORMALIZATION_TOL
    if np.any(bad):
        n = int(np.argmax(bad))
        raise NotNormalized(f"the {space} density of state {n} integrates to {totals[n]:.8f}")
    shannon = -rho * np.log(np.where(rho > 0.0, rho, 1.0))
    return simpson(shannon, dx), simpson(rho * rho, dx)


def os_measure(s: float, e: float) -> float:
    """Composite measure exp(2 S / 3) * E."""
    return math.exp(2.0 * s / 3.0) * e


def info_measures(
    xgrid: UniformGrid,
    psi_x: np.ndarray,
    pgrid: UniformGrid,
    psi_p: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> tuple[np.ndarray, ...]:
    """(s_x, s_p, i_p, e_x, e_p) of every state, one entry per state.

    psi_x holds (states, samples) rows on xgrid; psi_p is (a, b, da, db) as
    `wavefunctions` returns them, rows on the half-line pgrid with
    psi(p) = a + i b.  All states are integrated together along the
    contiguous sample axis, so each equals its single-state value.  S =
    -int rho ln rho (0 ln 0 = 0), E = int rho^2 and I_p = int rho'^2 / rho,
    with rho_p = a^2 + b^2 and rho_p' = 2 (a a' + b b') in real arithmetic.
    rho_p and rho_p'^2 / rho_p are even in p, and p = 0 is a panel
    boundary, so every p integral is twice the Simpson sum over the
    half-line: `simpson` at the step 2 dx, the same bits, which is the full
    window's Simpson sum and bit-exact under p -> -p.  I_x needs no grid:
    psi(x) is real, so it is 4 <p^2> (`StateReport.i_x`).
    """
    s_x, e_x = _shannon_onicescu(psi_x * psi_x, xgrid.dx, "position")
    a, b, da, db = psi_p
    rho = a * a + b * b
    p_step = 2.0 * pgrid.dx  # the half-line's Simpson sums, doubled
    s_p, e_p = _shannon_onicescu(rho, p_step, "momentum")
    drho = 2.0 * (a * da + b * db)
    # at a node rho'^2 / rho tends to 4 |psi'|^2, where it peaks; a density
    # below eps^2 of its row's peak is that narrow a spike, taken at its limit
    node = rho <= np.finfo(float).eps ** 2 * rho.max(axis=-1, keepdims=True)
    fisher = np.where(node, 4.0 * (da * da + db * db), drho * drho / np.where(node, 1.0, rho))
    return s_x, s_p, simpson(fisher, p_step), e_x, e_p
