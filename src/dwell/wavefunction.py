"""Grid evaluation of position/momentum wavefunctions and node analysis.

Hermite functions are evaluated through the normalized three-term recurrence
(no factorials ever materialize), which is stable for l <= a few hundred on
the |x_tilde| <= ~15 windows the grid builder produces.  Momentum-space
states use the Fourier convention psi_t(p) = (2 pi)^(-1/2) int psi(x)
exp(-i p x) dx, under which the basis functions map to (-i)^l phi_l(p; s)
with the dual scale s = 1/(4 sigma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .potential import QuarticPotential, WellGeometry, critical_points, turning_points
from .spectrum import Spectrum

__all__ = [
    "UniformGrid",
    "build_grid",
    "build_momentum_grid",
    "hermite_functions",
    "position_functions",
    "momentum_functions",
    "count_nodes",
    "simpson",
    "probability_below",
]

MIN_GRID_POINTS = 512
DEFAULT_GRID_POINTS = 4096
# sign changes where |psi| stays below this fraction of its peak are not
# resolvable in double precision (suppressed-well amplitudes, deep barriers)
NODE_AMPLITUDE_FLOOR = 1e-8


@dataclass(frozen=True)
class UniformGrid:
    """`n_points` intervals, `n_points + 1` samples from x0 to x0 + n*dx."""

    x0: float
    dx: float
    n_points: int

    @property
    def x(self) -> np.ndarray:
        return self.x0 + self.dx * np.arange(self.n_points + 1)

    @property
    def x_max(self) -> float:
        return self.x0 + self.dx * self.n_points


def _basic_simpson(y: np.ndarray, stop: int, dx: float):
    total = np.sum(
        y[..., 0:stop:2] + 4.0 * y[..., 1 : stop + 1 : 2] + y[..., 2 : stop + 2 : 2],
        axis=-1,
    )
    total *= dx / 3.0
    return total


def simpson(y: np.ndarray, dx: float):
    """Composite Simpson integral of uniform samples along the last axis.

    The arithmetic of scipy.integrate.simpson(y, dx=dx), operation for
    operation: an even sample count integrates all but the last interval by
    Simpson and adds Cartwright's correction for the last one.  Summing
    along the contiguous last axis makes a batched row equal its 1-D sum.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n % 2:
        return _basic_simpson(y, n - 2, dx)
    if n == 2:
        return 0.5 * dx * (y[..., -1] + y[..., -2]) + 0.0
    h = np.float64(dx)
    alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
    beta = (h**2 + 3.0 * h * h) / (6 * h)
    eta = (1 * h**3) / (6 * h * (h + h))
    total = _basic_simpson(y, n - 3, dx)
    total += alpha * y[..., -1] + beta * y[..., -2] - eta * y[..., -3]
    return total


def probability_below(grid: UniformGrid, rho: np.ndarray, x_split: float):
    """Integral over x <= x_split of the densities rho sampled on grid.

    Along the last axis, like `simpson`: Simpson up to the last sample below
    the split plus a trapezoid sliver with a linearly interpolated endpoint.
    """
    x, dx = grid.x, grid.dx
    if x_split <= x[0]:
        return np.zeros(rho.shape[:-1])
    if x_split >= x[-1]:
        return simpson(rho, dx)
    k = int(np.searchsorted(x, x_split, side="right") - 1)
    total = simpson(rho[..., : k + 1], dx) if k >= 1 else 0.0
    frac = (x_split - x[k]) / dx
    if frac > 0.0:
        v_split = rho[..., k] + frac * (rho[..., k + 1] - rho[..., k])
        total = total + 0.5 * (rho[..., k] + v_split) * (x_split - x[k])
    return total


def _decay_length(pot: QuarticPotential, x_t: float) -> float:
    """Airy decay scale past a turning point; harmonic fallback at tangency."""
    slope = abs(pot.derivative(x_t))
    curv = max(pot.second_derivative(x_t), 0.0)
    denom = slope ** (1.0 / 3.0) + curv ** 0.25 + 1e-30
    return 1.0 / denom


def _round_outward(lo: float, hi: float) -> tuple[float, float]:
    return math.floor(lo * 100.0) / 100.0, math.ceil(hi * 100.0) / 100.0


def build_grid(
    pot: QuarticPotential, e_max: float, points: int = DEFAULT_GRID_POINTS
) -> UniformGrid:
    """Position grid spanning all turning points at e_max plus decay padding.

    `points` is the number of intervals (samples = points + 1, kept odd so
    composite Simpson applies exactly).
    """
    if points < MIN_GRID_POINTS:
        raise ValueError(f"points must be >= {MIN_GRID_POINTS}")
    points += points % 2
    tps = turning_points(pot, e_max)
    if tps.size == 0:
        raise ValueError("e_max lies below the potential minimum")
    t_lo, t_hi = float(tps[0]), float(tps[-1])
    span = max(t_hi - t_lo, 1e-6)
    pad_lo = 1.2 * max(5.0 * _decay_length(pot, t_lo), 0.2 * span)
    pad_hi = 1.2 * max(5.0 * _decay_length(pot, t_hi), 0.2 * span)
    lo, hi = _round_outward(t_lo - pad_lo, t_hi + pad_hi)
    return UniformGrid(x0=lo, dx=(hi - lo) / points, n_points=points)


MOMENTUM_PAD_FACTOR = 6.0


def build_momentum_grid(
    pot: QuarticPotential, e_max: float, points: int = DEFAULT_GRID_POINTS
) -> UniformGrid:
    """Symmetric momentum grid sized from the maximal momentum variance.

    Every state below e_max satisfies <p^2> <= e_max - V_min, so extending
    the grid to 6 of those standard deviations keeps the unrepresented
    Gaussian-scale tail mass below ~1e-9 (a bare 1.5x classical bound leaves
    ~1e-4 outside for deep wells).
    """
    if points < MIN_GRID_POINTS:
        raise ValueError(f"points must be >= {MIN_GRID_POINTS}")
    points += points % 2
    v_min = critical_points(pot).global_minimum[1]
    if e_max <= v_min:
        raise ValueError("e_max lies below the potential minimum")
    p_max = MOMENTUM_PAD_FACTOR * math.sqrt(e_max - v_min)
    p_max = math.ceil(p_max * 100.0) / 100.0
    return UniformGrid(x0=-p_max, dx=2.0 * p_max / points, n_points=points)


def hermite_functions(xt: np.ndarray, n: int) -> np.ndarray:
    """Orthonormal Hermite functions h_0..h_{n-1} at the 1-D points xt.

    h_l(t) = (2^l l! sqrt(pi))^(-1/2) H_l(t) exp(-t^2/2), as an (n, points)
    array with one row per l.
    """
    out = np.empty((n, xt.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * xt * xt)
    if n > 1:
        out[1] = math.sqrt(2.0) * xt * out[0]
    tmp = np.empty_like(xt)
    for l in range(1, n - 1):
        row = out[l + 1]
        np.multiply(math.sqrt(2.0 / (l + 1)), xt, out=row)
        row *= out[l]
        np.multiply(math.sqrt(l / (l + 1.0)), out[l - 1], out=tmp)
        row -= tmp
    return out


def _expand(
    sigma: float, x: np.ndarray, coef: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """sum_l coef[l, j] phi_l(x; sigma) and its d/dx, one row per column j.

    One Hermite build serves both.  The derivative is taken in coefficient
    space: with t = s x, s = sqrt(2 sigma), h_l' = sqrt(2l) h_{l-1} - t h_l
    gives d/dx sum_l c_l phi_l = s (Phi(D c) - t Phi c), (D c)_{l-1} =
    sqrt(2l) c_l.
    """
    n, m = coef.shape
    scale = math.sqrt(2.0 * sigma)
    xt = scale * x
    amp = (2.0 * sigma) ** 0.25
    dcoef = np.zeros_like(coef)
    dcoef[:-1] = np.sqrt(2.0 * np.arange(1, n))[:, None] * coef[1:]
    both = np.hstack([coef, dcoef]).T @ hermite_functions(xt, n)
    values = amp * both[:m]
    derivs = (amp * scale) * (both[m:] - xt * both[:m])
    return values, derivs


def position_functions(
    spec: Spectrum, grid: UniformGrid, n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """(psi, dpsi) for states 0..n_states-1 as (n_states, samples) rows.

    One Hermite build serves all states and both arrays; each row is one
    state, contiguous in memory.
    """
    return _expand(spec.basis.sigma, grid.x, spec.coefficients[:, :n_states])


def momentum_functions(
    spec: Spectrum, grid: UniformGrid, n_states: int
) -> tuple[np.ndarray, np.ndarray]:
    """(psi_tilde, dpsi_tilde) for states 0..n_states-1 as complex
    (n_states, samples) rows.

    The momentum coefficients (-i)^l c_l are real for even l and imaginary
    for odd l, so both parts are expanded in real arithmetic with one
    Hermite build at the dual scale 1 / (4 sigma).
    """
    c = spec.coefficients[:, :n_states]
    phases = (-1j) ** np.arange(spec.n_basis)
    parts = np.hstack([phases.real[:, None] * c, phases.imag[:, None] * c])
    values, derivs = _expand(1.0 / (4.0 * spec.basis.sigma), grid.x, parts)
    k = c.shape[1]
    return values[:k] + 1j * values[k:], derivs[:k] + 1j * derivs[k:]


def count_nodes(
    grid: UniformGrid,
    psi: np.ndarray,
    turning: np.ndarray,
    geometry: WellGeometry,
    mass_left: float,
    mass_right: float,
    rho_floor: float = 0.01,
) -> tuple[int, int]:
    """(total, effective) sign changes of one state's row psi, sampled on
    grid, between the outer turning points.

    `turning` holds the turning points at the state's energy; `mass_left`
    and `mass_right` are its probability on either side of the barrier, as
    `measures.well_occupancy` returns them.  Effective nodes are those
    sitting in a well that carries at least `rho_floor` of the probability;
    nodes in a negligible well are the ones the ladder-of-states picture
    ignores.  Sign changes below the amplitude floor are skipped entirely
    (not resolvable in double precision).
    """
    if np.iscomplexobj(psi):
        raise ValueError("count_nodes expects a real wavefunction")
    if turning.size < 2:
        return (0, 0)
    t_lo, t_hi = float(turning[0]), float(turning[-1])
    x = grid.x
    floor = NODE_AMPLITUDE_FLOOR * float(np.max(np.abs(psi)))
    keep = (x > t_lo) & (x < t_hi) & (np.abs(psi) > floor)
    xs, vs = x[keep], psi[keep]
    if xs.size < 2:
        return (0, 0)
    flips = np.nonzero(vs[:-1] * vs[1:] < 0.0)[0]
    node_x = xs[flips] + (xs[flips + 1] - xs[flips]) * vs[flips] / (
        vs[flips] - vs[flips + 1]
    )
    total = int(flips.size)
    if not geometry.is_double_well:
        return (total, total)
    effective = int(np.sum(np.where(
        node_x < geometry.barrier[0], mass_left >= rho_floor, mass_right >= rho_floor
    )))
    return (total, effective)
