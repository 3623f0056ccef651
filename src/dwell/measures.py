"""Uncertainties, well occupancies and information measures of states.

Moments of x and p are band quadratic forms of the coefficient vectors
(quadrature-free), computed for all states at once; the entropic functionals
are Simpson integrals of sampled densities, with density derivatives taken
from the analytic Hermite derivative rather than finite differences, and
are evaluated for all states of a grid at once.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .basis import (
    band_matvec,
    momentum_squared_band,
    position_band,
    position_squared_band,
)
from .potential import WellGeometry, WellSide
from .spectrum import Spectrum
from .wavefunction import GridFunction, probability_below, simpson

__all__ = [
    "UncertaintyReport",
    "InfoMeasures",
    "WellOccupancy",
    "Occupancy",
    "NotNormalized",
    "uncertainties",
    "well_occupancy",
    "classify_occupancy",
    "shannon",
    "fisher",
    "onicescu",
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


@dataclass(frozen=True)
class UncertaintyReport:
    mean_x: float
    delta_x: float
    delta_p: float

    @property
    def product(self) -> float:
        return self.delta_x * self.delta_p


@dataclass(frozen=True)
class WellOccupancy:
    """Probability split across the barrier; well I is the deeper well.

    `mass_left` and `mass_right` are the unnormalized integrals of |psi|^2
    on either side of the barrier (nan for a single well).
    """

    p_well_I: float
    p_well_II: float
    classification: Occupancy
    mass_left: float
    mass_right: float


@dataclass(frozen=True)
class InfoMeasures:
    s_x: float
    s_p: float
    i_x: float
    i_p: float
    e_x: float
    e_p: float

    @property
    def s_total(self) -> float:
        return self.s_x + self.s_p

    @property
    def i_product(self) -> float:
        return self.i_x * self.i_p

    @property
    def e_product(self) -> float:
        return self.e_x * self.e_p

    @property
    def os_x(self) -> float:
        return os_measure(self.s_x, self.e_x)

    @property
    def os_p(self) -> float:
        return os_measure(self.s_p, self.e_p)

    @property
    def os_total(self) -> float:
        return os_measure(self.s_total, self.e_product)


def uncertainties(spec: Spectrum, n_states: int | None = None) -> list[UncertaintyReport]:
    """Exact first and second moments of x and p for states 0..n_states-1.

    All states (default: every computed one) share one band product per
    operator.  Eigenvectors are real, so <p> vanishes identically for
    stationary states and delta_p is sqrt(<p^2>).
    """
    c = spec.coefficients[:, :n_states]

    def expectation(band: np.ndarray) -> np.ndarray:
        return np.sum(c * band_matvec(band, c), axis=0)

    mean_x = expectation(position_band(spec.basis))
    mean_x2 = expectation(position_squared_band(spec.basis))
    mean_p2 = expectation(momentum_squared_band(spec.basis))
    delta_x = np.sqrt(np.maximum(mean_x2 - mean_x * mean_x, 0.0))
    delta_p = np.sqrt(np.maximum(mean_p2, 0.0))
    return [
        UncertaintyReport(
            mean_x=float(mean_x[n]),
            delta_x=float(delta_x[n]),
            delta_p=float(delta_p[n]),
        )
        for n in range(c.shape[1])
    ]


def classify_occupancy(p_well_I: float) -> Occupancy:
    if p_well_I >= WELL_I_THRESHOLD:
        return Occupancy.WELL_I
    if p_well_I <= WELL_II_THRESHOLD:
        return Occupancy.WELL_II
    return Occupancy.BOTH


def well_occupancy(psi: GridFunction, geometry: WellGeometry) -> list[WellOccupancy]:
    """Barrier split of every sampled state, one record per column of psi.

    The probability on the deeper-well side is the density integral below
    the barrier over the full integral, for all states at once along the
    contiguous sample axis, so each equals its single-state value.
    Single-well geometries classify as well I with probability 1.  For an
    exactly symmetric double well the deeper side is taken as the left one
    (either choice integrates to 1/2).
    """
    rho = np.abs(_rows(psi.values)) ** 2
    if not geometry.is_double_well:
        return [WellOccupancy(1.0, 0.0, Occupancy.WELL_I, math.nan, math.nan)] * len(rho)
    below = probability_below(rho, psi.x0, psi.dx, geometry.barrier[0])
    total = simpson(rho, psi.dx)
    p_left = below / total
    p_right = 1.0 - p_left
    if geometry.deeper_well_side is WellSide.RIGHT:
        p_i, p_ii = p_right, p_left
    else:
        p_i, p_ii = p_left, p_right
    return [
        WellOccupancy(
            p_well_I=float(p_i[n]),
            p_well_II=float(p_ii[n]),
            classification=classify_occupancy(float(p_i[n])),
            mass_left=float(below[n]),
            mass_right=float(total[n] - below[n]),
        )
        for n in range(len(rho))
    ]


def _rows(values: np.ndarray) -> np.ndarray:
    """Samples of one or more states as a C-contiguous (states, samples) array."""
    values = np.asarray(values)
    return np.ascontiguousarray(values.reshape(len(values), -1).T)


def _check_density(rho: np.ndarray, dx: float) -> None:
    """Raise unless every row of rho integrates to 1 within tolerance."""
    totals = np.atleast_1d(simpson(rho, dx))
    bad = np.abs(totals - 1.0) > NORMALIZATION_TOL
    if np.any(bad):
        raise NotNormalized(f"density integrates to {totals[np.argmax(bad)]:.8f}")


def _shannon(rho: np.ndarray, dx: float):
    integrand = np.where(rho > 0.0, -rho * np.log(np.maximum(rho, RHO_TINY)), 0.0)
    return simpson(integrand, dx)


def _fisher(rho: np.ndarray, drho: np.ndarray, dx: float):
    integrand = np.where(rho > RHO_TINY, drho * drho / np.maximum(rho, RHO_TINY), 0.0)
    return simpson(integrand, dx)


def _onicescu(rho: np.ndarray, dx: float):
    return simpson(rho * rho, dx)


def _density_and_slope(
    psi: np.ndarray, dpsi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """rho = |psi|^2 and rho' = 2 Re(psi* psi')."""
    return np.abs(psi) ** 2, 2.0 * np.real(np.conj(psi) * dpsi)


def shannon(rho: GridFunction) -> float:
    """S = -int rho ln rho, with 0 ln 0 = 0."""
    vals = np.real(rho.values)
    _check_density(vals, rho.dx)
    return float(_shannon(vals, rho.dx))


def fisher(psi: GridFunction, dpsi: GridFunction) -> float:
    """I = int rho'^2 / rho with rho = |psi|^2, rho' = 2 Re(psi* psi')."""
    rho, drho = _density_and_slope(psi.values, dpsi.values)
    _check_density(rho, psi.dx)
    return float(_fisher(rho, drho, psi.dx))


def onicescu(rho: GridFunction) -> float:
    """E = int rho^2 (disequilibrium)."""
    vals = np.real(rho.values)
    _check_density(vals, rho.dx)
    return float(_onicescu(vals, rho.dx))


def os_measure(s: float, e: float) -> float:
    """Composite measure exp(2 S / 3) * E."""
    return math.exp(2.0 * s / 3.0) * e


def info_measures(
    psi_x: GridFunction,
    dpsi_x: GridFunction,
    psi_p: GridFunction,
    dpsi_p: GridFunction,
) -> list[InfoMeasures]:
    """Position/momentum measures of every sampled state, one per column.

    The values are (samples,) for one state or (samples, states); all
    states are integrated together, along the contiguous sample axis of a
    (states, samples) copy, so each equals its single-state value.
    """
    per_space = []
    for psi, dpsi in ((psi_x, dpsi_x), (psi_p, dpsi_p)):
        rho, drho = _density_and_slope(_rows(psi.values), _rows(dpsi.values))
        _check_density(rho, psi.dx)
        per_space.append(
            (
                _shannon(rho, psi.dx),
                _fisher(rho, drho, psi.dx),
                _onicescu(rho, psi.dx),
            )
        )
    (s_x, i_x, e_x), (s_p, i_p, e_p) = per_space
    return [
        InfoMeasures(
            s_x=float(s_x[n]),
            s_p=float(s_p[n]),
            i_x=float(i_x[n]),
            i_p=float(i_p[n]),
            e_x=float(e_x[n]),
            e_p=float(e_p[n]),
        )
        for n in range(len(s_x))
    ]
