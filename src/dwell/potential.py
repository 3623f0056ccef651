"""Quartic polynomial potentials and their well geometry.

The model family is V(x) = c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0 with c4 > 0,
which covers the asymmetric double well c4 = alpha, c2 = -beta, c1 = gamma.
Everything here is exact polynomial arithmetic plus real-root isolation
(`polyroots.real_roots`) in Python floats, with roots and turning points as
sorted tuples: no numpy, no grids, no eigensolvers.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

from .defaults import ScaleOutOfRange
from .polyroots import real_roots

__all__ = [
    "QuarticPotential",
    "WellGeometry",
    "WellSide",
    "critical_points",
    "delta_gamma",
    "turning_points",
    "mirror",
]

class WellSide(enum.Enum):
    LEFT = "left"
    RIGHT = "right"
    SYMMETRIC = "symmetric"


@dataclass(frozen=True)
class QuarticPotential:
    """V(x) = c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0, confining (c4 > 0), with
    finite coefficients."""

    c4: float
    c3: float = 0.0
    c2: float = 0.0
    c1: float = 0.0
    c0: float = 0.0

    def __post_init__(self) -> None:
        if not self.c4 > 0.0:
            raise ValueError(f"c4 must be positive, got {self.c4}")
        if not all(map(math.isfinite, self.coefficients)):
            raise ValueError(f"coefficients must be finite, got {self.coefficients}")

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
        """V at a float or elementwise on an ndarray (Horner form)."""
        return (((self.c4 * x + self.c3) * x + self.c2) * x + self.c1) * x + self.c0

    def derivative(self, x):
        return ((4.0 * self.c4 * x + 3.0 * self.c3) * x + 2.0 * self.c2) * x + self.c1

    def second_derivative(self, x):
        return (12.0 * self.c4 * x + 6.0 * self.c3) * x + 2.0 * self.c2

    def shifted(self, offset: float) -> "QuarticPotential":
        """Same shape, constant term moved by `offset`."""
        return QuarticPotential(self.c4, self.c3, self.c2, self.c1, self.c0 + offset)


def delta_gamma(alpha: float) -> float:
    """The gamma interval between level crossings of the double well of
    `from_well_params`: 2 sqrt(alpha), at every beta.

    Up to a constant, alpha x^4 - beta x^2 + gamma x = W'^2 + k W'' with
    W' = sqrt(alpha) x^2 - beta / (2 sqrt(alpha)) and k = gamma / delta_gamma,
    the tilted supersymmetric double well, whose two wells' Bohr-Sommerfeld
    numbers differ by exactly k at every energy.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == math.inf:
        raise ValueError(f"alpha must be finite, got {alpha}")
    return 2.0 * math.sqrt(alpha)


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
    """The extrema of V and the side of the deeper well.

    V' is a cubic with a positive leading coefficient, so it changes sign
    exactly at its real roots of odd multiplicity.  Those are V's extrema:
    one minimum, or a minimum, the barrier and a minimum from left to right.
    A root of even multiplicity is a merged inflection and confines nothing.
    The deeper side compares the two minimum values exactly (SYMMETRIC only
    when they are equal); a single well's side is the sign of its minimum.
    A well whose V' overflows, or whose extrema or their values leave
    double precision, raises ScaleOutOfRange.
    """
    slope = (4.0 * pot.c4, 3.0 * pot.c3, 2.0 * pot.c2, pot.c1)
    try:
        roots = real_roots(slope) if all(map(math.isfinite, slope)) else ()
    except ScaleOutOfRange:
        roots = ()
    extrema = [(x, pot(x)) for x, run in itertools.groupby(roots) if len(list(run)) % 2]
    if len(extrema) not in (1, 3) or not all(map(math.isfinite, itertools.chain(*extrema))):
        raise ScaleOutOfRange("the extrema of the well leave double precision")
    if len(extrema) == 1:
        return WellGeometry(tuple(extrema), None, _side(extrema[0][0], 0.0))
    left, barrier, right = extrema
    return WellGeometry((left, right), barrier, _side(left[1], right[1]))


def _side(a: float, b: float) -> WellSide:
    """LEFT if a < b, RIGHT if a > b, SYMMETRIC if they are equal."""
    return WellSide.LEFT if a < b else WellSide.RIGHT if a > b else WellSide.SYMMETRIC


def turning_points(pot: QuarticPotential, energy: float) -> tuple[float, ...]:
    """Real solutions of V(x) = E as a sorted tuple of floats (0, 2 or 4
    values, with multiplicity).

    They are bracketed by the roots of V', which do not depend on E:
    `real_roots` finds those once for all energies of one potential.
    """
    return real_roots((pot.c4, pot.c3, pot.c2, pot.c1, pot.c0 - float(energy)))


def mirror(pot: QuarticPotential) -> QuarticPotential:
    """The x -> -x image: odd coefficients flip sign. Involution."""
    return QuarticPotential(pot.c4, -pot.c3, pot.c2, -pot.c1, pot.c0)
