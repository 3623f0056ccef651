"""Quartic polynomial potentials and their well geometry.

The model family is V(x) = c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0 with c4 > 0,
which covers the asymmetric double well c4 = alpha, c2 = -beta, c1 = gamma.
Everything here is exact polynomial arithmetic plus closed-form root finding;
no grids, no eigensolvers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .polyroots import cubic_real_roots, quartic_real_roots

__all__ = [
    "QuarticPotential",
    "WellGeometry",
    "WellSide",
    "critical_points",
    "turning_points",
    "mirror",
]

# two minimum values closer than this (relative) count as a symmetric well
SYMMETRY_TOL = 1e-12


class WellSide(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class QuarticPotential:
    """V(x) = c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0, confining (c4 > 0)."""

    c4: float
    c3: float = 0.0
    c2: float = 0.0
    c1: float = 0.0
    c0: float = 0.0

    def __post_init__(self) -> None:
        if not self.c4 > 0.0:
            raise ValueError(f"c4 must be positive, got {self.c4}")

    @classmethod
    def from_well_params(
        cls, alpha: float, beta: float, gamma: float, v0: float = 0.0
    ) -> "QuarticPotential":
        """Double-well parametrization V = alpha x^4 - beta x^2 + gamma x + v0."""
        return cls(c4=alpha, c3=0.0, c2=-beta, c1=gamma, c0=v0)

    @property
    def coefficients(self) -> tuple[float, float, float, float, float]:
        """Highest degree first, as used by the root solvers."""
        return (self.c4, self.c3, self.c2, self.c1, self.c0)

    def __call__(self, x):
        # Horner form
        x = np.asarray(x, dtype=float) if not np.isscalar(x) else x
        return (((self.c4 * x + self.c3) * x + self.c2) * x + self.c1) * x + self.c0

    def derivative(self, x):
        return ((4.0 * self.c4 * x + 3.0 * self.c3) * x + 2.0 * self.c2) * x + self.c1

    def second_derivative(self, x):
        return (12.0 * self.c4 * x + 6.0 * self.c3) * x + 2.0 * self.c2

    def shifted(self, offset: float) -> "QuarticPotential":
        """Same shape, constant term moved by `offset`."""
        return QuarticPotential(self.c4, self.c3, self.c2, self.c1, self.c0 + offset)


@dataclass(frozen=True)
class WellGeometry:
    """Local minima, optional barrier between them, and which well is deeper."""

    minima: tuple[tuple[float, float], ...]
    barrier: tuple[float, float] | None
    deeper_well_side: WellSide

    @property
    def is_double_well(self) -> bool:
        return self.barrier is not None

    @property
    def global_minimum(self) -> tuple[float, float]:
        return min(self.minima, key=lambda m: m[1])


def critical_points(pot: QuarticPotential) -> WellGeometry:
    """Classify the real roots of V' into minima and the barrier maximum.

    A double root of V' (merged inflection) confines nothing and is treated
    as part of a single-well geometry.
    """
    roots = cubic_real_roots(4.0 * pot.c4, 3.0 * pot.c3, 2.0 * pot.c2, pot.c1)
    minima: list[tuple[float, float]] = []
    maxima: list[tuple[float, float]] = []
    curvatures = [pot.second_derivative(r) for r in roots]
    curv_scale = max(abs(v) for v in curvatures) if len(roots) > 1 else 1.0
    for r, v2 in zip(roots, curvatures):
        if v2 > 1e-9 * curv_scale:
            minima.append((float(r), float(pot(r))))
        elif v2 < -1e-9 * curv_scale:
            maxima.append((float(r), float(pot(r))))
        # inflection-degenerate roots are dropped
    if not minima:
        # fully degenerate V' (e.g. triple root): the stationary point is
        # still the global minimum since c4 > 0
        r = float(roots[len(roots) // 2])
        minima = [(r, float(pot(r)))]
    minima.sort()
    if len(minima) == 2 and maxima:
        barrier = max(
            (m for m in maxima if minima[0][0] < m[0] < minima[1][0]),
            key=lambda m: m[1],
            default=None,
        )
    else:
        barrier = None
    if barrier is None:
        # keep only the global minimum: single-well geometry
        x_min, v_min = min(minima, key=lambda m: m[1])
        side = WellSide.LEFT if x_min < 0.0 else WellSide.RIGHT
        if abs(x_min) <= 1e-12:
            side = WellSide.SYMMETRIC
        return WellGeometry(((x_min, v_min),), None, side)
    v_left, v_right = minima[0][1], minima[1][1]
    if abs(v_left - v_right) <= SYMMETRY_TOL * (1.0 + abs(v_left)):
        side = WellSide.SYMMETRIC
    elif v_left < v_right:
        side = WellSide.LEFT
    else:
        side = WellSide.RIGHT
    return WellGeometry(tuple(minima), barrier, side)


def turning_points(pot: QuarticPotential, energy: float) -> np.ndarray:
    """Sorted real solutions of V(x) = E (0, 2 or 4 values, with multiplicity)."""
    return quartic_real_roots(
        pot.c4, pot.c3, pot.c2, pot.c1, pot.c0 - float(energy)
    )


def mirror(pot: QuarticPotential) -> QuarticPotential:
    """The x -> -x image: odd coefficients flip sign. Involution."""
    return QuarticPotential(pot.c4, -pot.c3, pot.c2, -pot.c1, pot.c0)
