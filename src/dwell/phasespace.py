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

QUAD_NODES = 96

# the positive half of np.polynomial.legendre.leggauss(QUAD_NODES), nodes and
# their weights, ascending: leggauss symmetrizes its rule, so the negative half
# is its exact mirror image
_HALF_NODES = (
    0.016276744849602967, 0.04881298513604974, 0.08129749546442555,
    0.11369585011066592, 0.14597371465489695, 0.17809688236761861,
    0.2100313104605672, 0.24174315616384, 0.27319881259104917,
    0.30436494435449635, 0.3352085228926254, 0.3656968614723136,
    0.3957976498289086, 0.42547898840730053, 0.454709422167743,
    0.48345797392059636, 0.5116941771546677, 0.5393881083243575,
    0.5665104185613972, 0.593032364777572, 0.6189258401254686,
    0.6441634037849671, 0.6687183100439161, 0.6925645366421715,
    0.7156768123489676, 0.7380306437444001, 0.7596023411766475,
    0.7803690438674332, 0.8003087441391408, 0.8194003107379316,
    0.8376235112281871, 0.8549590334346014, 0.8713885059092965,
    0.8868945174024204, 0.9014606353158523, 0.9150714231208981,
    0.9277124567223087, 0.9393703397527552, 0.9500327177844377,
    0.9596882914487426, 0.9683268284632642, 0.9759391745851365,
    0.9825172635630147, 0.9880541263296237, 0.9925439003237626,
    0.9959818429872093, 0.9983643758631817, 0.9996895038832307,
)
_HALF_WEIGHTS = (
    0.03255061449236328, 0.03251611871386895, 0.0324471637140644,
    0.03234382256857602, 0.03220620479403032, 0.032034456231992796,
    0.03182875889441112, 0.03158933077072725, 0.03131642559686141,
    0.03101033258631393, 0.030671376123669266, 0.03029991542082777,
    0.029896344136328506, 0.029461089958168016, 0.02899461415055532,
    0.028497411065085413, 0.02797000761684837, 0.027412962726029232,
    0.02682686672559185, 0.026212340735672593, 0.025570036005349364,
    0.024900633222483814, 0.02420484179236482, 0.023483399085926292,
    0.022737069658329466, 0.02196664443874457, 0.021172939892191354,
    0.020356797154333365, 0.019519081140145382, 0.01866067962741174,
    0.017782502316045286, 0.016885479864245195, 0.015970562902562345,
    0.015038721026994927, 0.014090941772314894, 0.013128229566961646,
    0.012151604671088057, 0.01116210209983861, 0.010160770535008306,
    0.009148671230783011, 0.0081268769256983, 0.007096470791153821,
    0.006058545504235195, 0.005014202742928604, 0.003964554338444405,
    0.0029107318179352943, 0.0018539607889441585, 0.0007967920655518723,
)


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


@functools.cache
def _mapped_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The QUAD_NODES-point Gauss-Legendre rule on theta in [-pi/2, pi/2] as
    (w, sin theta, cos theta).

    The rule is the stored half mirrored, which equals leggauss(QUAD_NODES)
    bit for bit, so no command loads numpy.polynomial or runs its
    eigensolver to build a fixed rule.  Mapped once per process.
    """
    half = np.array(_HALF_NODES)
    theta = 0.5 * np.pi * np.concatenate([-half[::-1], half])
    w = np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS)
    rule = (0.5 * np.pi * w, np.sin(theta), np.cos(theta))
    for a in rule:
        a.setflags(write=False)
    return rule


def _sqrt_interval(pot: QuarticPotential, energy: float, a: float, b: float, sign: float) -> float:
    """int_a^b sqrt(sign * (E - V)) dx for a < b, with turning points at both ends."""
    w, sin_theta, cos_theta = _mapped_rule()
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * sin_theta
    f = np.maximum(sign * (energy - pot(x)), 0.0)
    return float(np.sum(w * np.sqrt(f) * half * cos_theta))


def area(pot: QuarticPotential, energy: float) -> PhaseSpaceResult:
    """Barrier and allowed actions plus the lobe decomposition at one energy.

    Consecutive turning points bound alternately allowed and forbidden
    intervals; each interval of nonzero width is classified at its midpoint.
    """
    tps = turning_points(pot, energy)
    barrier = 0.0
    allowed = 0.0
    lobes: list[Lobe] = []
    for lo, hi in zip(tps[:-1], tps[1:]):
        if hi - lo <= 0.0:
            continue
        if pot(0.5 * (lo + hi)) < energy:
            allowed += 2.0 * _sqrt_interval(pot, energy, lo, hi, +1.0)
            lobes.append(Lobe(lo, hi))
        else:
            barrier += _sqrt_interval(pot, energy, lo, hi, -1.0)
    if not lobes:
        raise ValueError("energy lies below the potential minimum")
    return PhaseSpaceResult(barrier, allowed, tuple(lobes))
