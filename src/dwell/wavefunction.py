"""Grid evaluation of position/momentum wavefunctions and node analysis.

Hermite functions are evaluated through the normalized three-term recurrence
(no factorials ever materialize), which is stable for l <= a few hundred on
the |x_tilde| <= ~15 windows the grid builder produces.  The recurrence is
written once (`_hermite_blocks`) and streamed in blocks of HERMITE_BLOCK =
50 rows through one reused buffer: `wavefunctions`, the one call that
samples states, allocates one such workspace per point, runs the
recurrence through it over the x samples and then over the p >= 0
samples, and contracts each block at once, so no (n_basis, samples)
table is held.

Momentum-space states use the Fourier convention psi_t(p) = (2 pi)^(-1/2)
int psi(x) exp(-i p x) dx, under which the basis functions map to (-i)^l
phi_l(p; s) with the dual scale s = 1/(4 sigma).  Those phases are real for
even l and imaginary for odd l, and h_l has the parity of l, so psi_t = a +
i b with a even and b odd in p: the p >= 0 half-line that
`build_momentum_grid` returns holds the whole state exactly, and rho_p is
even (see `defaults.grid_intervals` for the integrals over the half-line).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_GRID_POINTS, DEFAULT_RHO_FLOOR, grid_intervals
from .potential import QuarticPotential, WellGeometry, critical_points, turning_points
from .spectrum import Spectrum

__all__ = [
    "UniformGrid",
    "build_grid",
    "build_momentum_grid",
    "wavefunctions",
    "count_nodes",
    "simpson",
    "probability_below",
]

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


def simpson(y: np.ndarray, dx: float):
    """Composite Simpson integral of uniform samples along the last axis.

    The sample count must be odd: the panels are pairs of intervals counted
    from the first sample.  The arithmetic is that of
    scipy.integrate.simpson(y, dx=dx) for odd counts, operation for
    operation; summing along the contiguous last axis makes a batched row
    equal its 1-D sum.
    """
    y = np.asarray(y)
    n = y.shape[-1]
    if n % 2 == 0:
        raise ValueError(f"simpson needs an odd sample count, got {n}")
    stop = n - 2
    total = np.sum(
        y[..., 0:stop:2] + 4.0 * y[..., 1 : stop + 1 : 2] + y[..., 2 : stop + 2 : 2],
        axis=-1,
    )
    total *= dx / 3.0
    return total


def probability_below(grid: UniformGrid, rho: np.ndarray, x_split: float):
    """(below, above): integrals of the densities rho over the samples up to
    and from the panel boundary nearest x_split, along the last axis.

    Each is a sum of whole panels of `simpson`, so the two add up to
    `simpson(rho, grid.dx)` up to rounding, and each keeps its own relative
    precision however small it is.  `build_grid` puts a double well's
    barrier on a panel boundary, so for its grids these are the integrals
    over x <= barrier and x >= barrier.  A split outside the grid gives 0
    on one side and the whole integral on the other.
    """
    j = min(max(round((x_split - grid.x0) / (2.0 * grid.dx)), 0), grid.n_points // 2)
    return simpson(rho[..., : 2 * j + 1], grid.dx), simpson(rho[..., 2 * j :], grid.dx)


def _decay_length(pot: QuarticPotential, x_t: float) -> float:
    """Airy decay scale past a turning point; harmonic fallback at tangency,
    and the quartic's own scale c4^(-1/6) where both vanish.  cbrt and sqrt
    commute with scaling by powers of 2 (a 1/3 power does not), so the
    length for 4^j V(2^j x) is V's times 2^-j exactly."""
    slope = abs(pot.derivative(x_t))
    curv = max(pot.second_derivative(x_t), 0.0)
    return float(1.0 / max(np.cbrt(slope) + math.sqrt(math.sqrt(curv)), np.sqrt(np.cbrt(pot.c4))))


def build_grid(
    pot: QuarticPotential, e_max: float, points: int = DEFAULT_GRID_POINTS
) -> UniformGrid:
    """Position grid spanning all turning points at e_max plus decay padding.

    The grid has `grid_intervals(points)` intervals.  A double well's
    barrier lies on an even sample, a boundary of `simpson`'s panels: the
    window is moved by at most one interval, which the padding absorbs
    wherever it is wider, and a symmetric well's window, whose barrier is
    its middle sample, is not moved at all.  The window is not rounded:
    its edges and step come from the turning points and decay lengths
    alone, so the grid of 4^j V(2^j x) is V's scaled by 2^-j, bit for bit.
    """
    points = grid_intervals(points)
    tps = turning_points(pot, e_max)
    if not tps:
        raise ValueError("e_max lies below the potential minimum")
    t_lo, t_hi = tps[0], tps[-1]
    span = t_hi - t_lo
    pad_lo = 1.2 * max(5.0 * _decay_length(pot, t_lo), 0.2 * span)
    pad_hi = 1.2 * max(5.0 * _decay_length(pot, t_hi), 0.2 * span)
    lo = t_lo - pad_lo
    dx = (t_hi + pad_hi - lo) / points
    barrier = critical_points(pot).barrier
    if barrier is not None:
        lo = barrier[0] - 2 * round((barrier[0] - lo) / (2.0 * dx)) * dx
    return UniformGrid(x0=lo, dx=dx, n_points=points)


MOMENTUM_PAD_FACTOR = 6.0


def build_momentum_grid(
    pot: QuarticPotential, e_max: float, points: int = DEFAULT_GRID_POINTS
) -> UniformGrid:
    """The p >= 0 half of a momentum window [-p_max, p_max] sized from the
    maximal momentum variance: the samples k dx, k = 0..m/2, of its m =
    `grid_intervals(points)` intervals.

    Every state below e_max satisfies <p^2> <= e_max - V_min, so extending
    the grid to 6 of those standard deviations keeps the unrepresented
    Gaussian-scale tail mass below ~1e-9 (a bare 1.5x classical bound leaves
    ~1e-4 outside for deep wells).  The window is not rounded, so the grid
    of 4^j V(2^j x) is V's scaled by 2^j, bit for bit.
    """
    points = grid_intervals(points)
    v_min = critical_points(pot).global_minimum[1]
    if e_max <= v_min:
        raise ValueError("e_max lies below the potential minimum")
    p_max = MOMENTUM_PAD_FACTOR * math.sqrt(e_max - v_min)
    return UniformGrid(x0=0.0, dx=2.0 * p_max / points, n_points=points // 2)


# rows of the Hermite recurrence held at once: the table is streamed through
# one buffer of this many rows, each block contracted before the next is built
HERMITE_BLOCK = 50


def _hermite_blocks(t: np.ndarray, n: int, work: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """(l0, rows) for consecutive blocks of h_0..h_{n-1} at the 1-D points t:
    rows[j] is h_{l0 + j}, at most HERMITE_BLOCK rows.

    The normalized recurrence runs once, in one reused buffer: each block is
    a view of it that the next block overwrites, and the buffer's first two
    rows carry the two rows before the block.  The buffer is the first
    t.size columns of `work`, an array of HERMITE_BLOCK + 2 rows that the
    caller lends, and can lend to several passes.
    """
    buf = work[:, : t.size]
    views = list(buf)  # a view per row, made once per pass
    tmp = np.empty_like(t)
    for l0 in range(0, n, HERMITE_BLOCK):
        l1 = min(l0 + HERMITE_BLOCK, n)
        if l0:
            buf[:2] = buf[-2:]
        # sqrt(2 / l) t of every row l >= 2 of the block, in one product
        lo = max(l0, 2)
        scale = np.sqrt(2.0 / np.arange(lo, l1))[:, None]
        np.multiply(scale, t, out=buf[lo - l0 + 2 : l1 - l0 + 2])
        for l in range(l0, l1):
            row = views[l - l0 + 2]
            if l == 0:
                row[:] = math.pi ** -0.25 * np.exp(-0.5 * t * t)
            elif l == 1:
                np.multiply(math.sqrt(2.0) * t, views[2], out=row)
            else:
                row *= views[l - l0 + 1]
                np.multiply(math.sqrt((l - 1) / l), views[l - l0], out=tmp)
                row -= tmp
        yield l0, buf[2 : l1 - l0 + 2]


def wavefunctions(
    spec: Spectrum, xgrid: UniformGrid, pgrid: UniformGrid | None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """(psi_x, (a, b, da, db)) of every state of `spec`, as real
    (states, samples) rows, from one streamed Hermite pass per space.

    psi_x is psi on xgrid.  In momentum space psi(p) = a + i b on the
    half-line pgrid, with a even and b odd in p (see the module
    docstring), and da, db are d/dp of a, b.  A pgrid of None gives
    momentum rows of zero samples.

    The recurrence runs over the x samples at the scale sigma, then over
    the p samples at the dual scale sigma_p = 1 / (4 sigma), in one
    workspace of HERMITE_BLOCK + 2 rows by the larger sample count, freed
    before the outputs are scaled; each block of HERMITE_BLOCK rows is
    contracted at once into psi_x (all rows) in the x pass, and into a and
    b' (even rows) and b and a' (odd rows) in the p pass.  The derivative
    is taken in coefficient space: with t = s p, s = sqrt(2 sigma_p),
    h_l' = sqrt(2l) h_{l-1} - t h_l gives d/dp sum_l a_l phi_l =
    s (Phi(D a) - t Phi a), (D a)_{l-1} = sqrt(2l) a_l, so D moves even
    rows' coefficients to odd rows and odd to even.  At p = 0 every odd row
    is 0, so b and a' are 0 exactly.
    """
    c = spec.coefficients
    n, k = c.shape
    sigma = spec.basis.sigma
    sigma_p = 1.0 / (4.0 * sigma)
    scale = math.sqrt(2.0 * sigma_p)
    tx = math.sqrt(2.0 * sigma) * xgrid.x
    tp = scale * (pgrid.x if pgrid is not None else np.empty(0))
    # the nonzero part of (-i)^l c_l (a's coefficients at even l, b's at
    # odd l) and its D, which moves each to the other parity: an even row
    # carries a and b', an odd row b and a'
    phase = (-1j) ** np.arange(n)
    coef = (phase.real + phase.imag)[:, None] * c
    deriv = np.zeros_like(coef)
    deriv[:-1] = np.sqrt(2.0 * np.arange(1, n))[:, None] * coef[1:]
    weights = np.hstack([coef, deriv])
    sums_x = np.zeros((k, tx.size))
    sums_even = np.zeros((2 * k, tp.size))
    sums_odd = np.zeros((2 * k, tp.size))
    work = np.empty((HERMITE_BLOCK + 2, max(tx.size, tp.size)))
    for l0, rows in _hermite_blocks(tx, n, work):
        sums_x += c[l0 : l0 + len(rows)].T @ rows
    # HERMITE_BLOCK is even, so a block's even rows are even l
    for l0, rows in _hermite_blocks(tp, n, work) if tp.size else ():
        l1 = l0 + len(rows)
        sums_even += weights[l0:l1:2].T @ rows[0::2]
        sums_odd += weights[l0 + 1 : l1 : 2].T @ rows[1::2]
    del work, rows  # the last block is a view: free the workspace before the outputs
    amp = (2.0 * sigma_p) ** 0.25
    a, b = amp * sums_even[:k], amp * sums_odd[:k]
    da = (amp * scale) * (sums_odd[k:] - tp * sums_even[:k])
    db = (amp * scale) * (sums_even[k:] - tp * sums_odd[:k])
    return (2.0 * sigma) ** 0.25 * sums_x, (a, b, da, db)


def count_nodes(
    grid: UniformGrid,
    psi: np.ndarray,
    span: np.ndarray,
    geometry: WellGeometry,
    mass_left: np.ndarray,
    mass_right: np.ndarray,
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> tuple[np.ndarray, np.ndarray]:
    """(total, effective) sign changes of each of the real (states, samples)
    rows psi, sampled on grid, as integer arrays with one entry per state.

    A row's nodes are counted strictly inside its row of `span`, the
    state's outer turning points.  `mass_left` and `mass_right` are the
    states' probabilities on either side of the barrier, as
    `measures.well_occupancy` returns them.  Effective nodes are those
    sitting in a well that carries at least `rho_floor` of the probability;
    nodes in a negligible well are the ones the ladder-of-states picture
    ignores.  Samples where |psi| is below the amplitude floor of its row's
    peak are skipped (a sign change there is not resolvable in double
    precision); a node is a sign change between consecutive kept samples of
    one row.
    """
    if np.iscomplexobj(psi):
        raise ValueError("count_nodes expects a real wavefunction")
    x = grid.x
    amp = np.abs(psi)
    floor = NODE_AMPLITUDE_FLOOR * amp.max(axis=1, keepdims=True)
    rows, cols = np.nonzero((x > span[:, :1]) & (x < span[:, 1:]) & (amp > floor))
    xs, vs = x[cols], psi[rows, cols]
    flips = np.nonzero((vs[:-1] * vs[1:] < 0.0) & (rows[:-1] == rows[1:]))[0]
    state = rows[flips]
    total = np.bincount(state, minlength=len(psi))
    if not geometry.is_double_well:
        return total, total
    node_x = xs[flips] + (xs[flips + 1] - xs[flips]) * vs[flips] / (vs[flips] - vs[flips + 1])
    mass = np.where(node_x < geometry.barrier[0], mass_left[state], mass_right[state])
    return total, np.bincount(state[mass >= rho_floor], minlength=len(psi))
