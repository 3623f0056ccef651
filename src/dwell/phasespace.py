"""Semiclassical phase-space quantities for one energy of a quartic potential.

Two action-like integrals are computed side by side: the forbidden-region
integral int sqrt(V - E) dx over the barrier between the outermost turning
points, and the classically allowed integral 2 int sqrt(E - V) dx (the area
enclosed by the contour p = +/- sqrt(E - V)).  Both integrands have inverse
square-root singularities at the turning points; mapping each interval
through x = mid + half * sin(theta) absorbs them (the sqrt of the simple
zeros at both ends becomes cos(theta)), after which Gauss-Legendre converges
spectrally.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .potential import QuarticPotential, turning_points

__all__ = ["Lobe", "PhaseSpaceResult", "area"]

DEFAULT_QUAD_NODES = 96


@dataclass(frozen=True)
class Lobe:
    """One classically allowed interval; its contour is p = +/- sqrt(E - V)."""

    x_lo: float
    x_hi: float


@dataclass(frozen=True)
class PhaseSpaceResult:
    barrier_action: float
    allowed_action: float
    lobes: tuple[Lobe, ...]

    @property
    def lobe_count(self) -> int:
        return len(self.lobes)


@functools.lru_cache(maxsize=None)
def _mapped_rule(nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on theta in [-pi/2, pi/2] as (w, sin theta, cos theta).

    Built once per node count: leggauss costs about 2 ms per call.
    """
    theta, w = np.polynomial.legendre.leggauss(nodes)
    theta = 0.5 * np.pi * theta
    rule = (0.5 * np.pi * w, np.sin(theta), np.cos(theta))
    for a in rule:
        a.setflags(write=False)
    return rule


def _sqrt_interval(
    pot: QuarticPotential, energy: float, a: float, b: float, sign: float, nodes: int
) -> float:
    """int_a^b sqrt(sign * (E - V)) dx with turning points at both ends."""
    if b <= a:
        return 0.0
    w, sin_theta, cos_theta = _mapped_rule(nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * sin_theta
    f = np.maximum(sign * (energy - pot(x)), 0.0)
    return float(np.sum(w * np.sqrt(f) * half * cos_theta))


def _allowed_segments(
    pot: QuarticPotential, energy: float, turning: np.ndarray | None = None
) -> list[tuple[float, float, bool]]:
    """Partition of [t_first, t_last] into (lo, hi, classically_allowed)."""
    if turning is None:
        turning = turning_points(pot, energy)
    tps = [float(t) for t in turning]
    segments = []
    for lo, hi in zip(tps[:-1], tps[1:]):
        if hi - lo <= 0.0:
            continue
        mid = 0.5 * (lo + hi)
        segments.append((lo, hi, bool(pot(mid) < energy)))
    return segments


def area(
    pot: QuarticPotential,
    energy: float,
    nodes: int = DEFAULT_QUAD_NODES,
    turning: np.ndarray | None = None,
) -> PhaseSpaceResult:
    """Barrier and allowed actions plus the lobe decomposition at one energy.

    `turning` (the turning points at `energy`) may be passed in when the
    caller already has them.
    """
    segments = _allowed_segments(pot, energy, turning)
    if not any(allowed for *_, allowed in segments):
        raise ValueError("energy lies below the potential minimum")
    barrier = 0.0
    allowed = 0.0
    lobes: list[Lobe] = []
    for lo, hi, is_allowed in segments:
        if is_allowed:
            allowed += 2.0 * _sqrt_interval(pot, energy, lo, hi, +1.0, nodes)
            lobes.append(Lobe(lo, hi))
        else:
            barrier += _sqrt_interval(pot, energy, lo, hi, -1.0, nodes)
    return PhaseSpaceResult(barrier, allowed, tuple(lobes))
