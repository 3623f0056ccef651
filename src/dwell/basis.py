"""Scaled oscillator basis and banded Hamiltonian for quartic potentials.

Basis convention: phi_l(x; sigma) = (2 sigma/pi)^(1/4) (2^l l!)^(-1/2)
H_l(sqrt(2 sigma) x) exp(-sigma x^2), so <0|x^2|0> = 1/(4 sigma).  With
x = s (a + a^dag), s = 1/(2 sqrt(sigma)), and -d^2/dx^2 = sigma(2 N + 1) -
sigma(a^2 + a^dag^2), every matrix element of H = -d^2/dx^2 + V(x) is a
closed-form ladder product.  With r_d(l) = sqrt((l+1)(l+2)...(l+d)) the
nonzero upper elements <l|.|l+d> are

    x     d=1: s r_1
    x^2   d=0: s^2 (2l+1)            d=2: s^2 r_2
    x^3   d=1: 3 s^3 (l+1) r_1       d=3: s^3 r_3
    x^4   d=0: s^4 (6l^2+6l+3)       d=2: s^4 (4l+6) r_2     d=4: s^4 r_4
    p^2   d=0: sigma (2l+1)          d=2: -sigma r_2

These are the exact infinite-dimensional elements, so the retained N x N
block is exact.  The Hamiltonian has bandwidth 4 and is returned in LAPACK
upper band storage: band[4 - d, j] = h[j - d, j].

The basis scale sigma is fixed by minimizing the trace of the position-space
matrix over sigma, which reduces to one cubic equation:

    8 S1 sigma^3 - 2 c2 S1 sigma - 3 c4 S2 = 0,

with S1 = sum(2l+1) = N^2 and S2 = sum(2l^2+2l+1).  Odd powers of x have no
diagonal elements, so c3 and c1 drop out and the cubic is exact for every
quartic polynomial.  For c4 > 0 it has exactly one positive root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .polyroots import real_roots
from .potential import QuarticPotential

__all__ = [
    "BasisSpec",
    "optimal_sigma",
    "assemble_position",
    "band_matvec",
    "position_band",
    "position_squared_band",
    "momentum_squared_band",
]

BANDWIDTH = 4  # the quartic term couples l to l +/- 4


@dataclass(frozen=True)
class BasisSpec:
    """Oscillator basis size and scale parameter."""

    n_basis: int
    sigma: float

    def __post_init__(self) -> None:
        if self.n_basis < 4:
            raise ValueError("n_basis must be at least 4 (quartic bandwidth)")
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


def _trace_sums(n_basis: int) -> tuple[float, float]:
    n = float(n_basis)
    s1 = n * n
    s2 = n * (n - 1.0) * (2.0 * n - 1.0) / 3.0 + n * (n - 1.0) + n
    return s1, s2


def optimal_sigma(pot: QuarticPotential, n_basis: int) -> float:
    """Positive root of the trace-stationarity cubic for this basis size."""
    if n_basis < 1:
        raise ValueError("n_basis must be positive")
    s1, s2 = _trace_sums(n_basis)
    roots = real_roots((8.0 * s1, 0.0, -2.0 * pot.c2 * s1, -3.0 * pot.c4 * s2))
    positive = roots[roots > 0.0]
    if positive.size == 0:
        raise ValueError("trace cubic has no positive root (requires c4 > 0)")
    return float(positive[-1])


def _band(
    basis: BasisSpec,
    c4: float = 0.0,
    c3: float = 0.0,
    c2: float = 0.0,
    c1: float = 0.0,
    c0: float = 0.0,
    kinetic: float = 0.0,
) -> np.ndarray:
    """Upper band (5 x N) of kinetic p^2 + c4 x^4 + c3 x^3 + c2 x^2 + c1 x + c0."""
    n, sigma = basis.n_basis, basis.sigma
    q = 4.0 * sigma  # s^2 = 1/q; dividing per element keeps rounding unbiased
    l = np.arange(n, dtype=float)
    r1 = np.sqrt(l + 1.0)
    r2 = r1 * np.sqrt(l + 2.0)
    r3 = r2 * np.sqrt(l + 3.0)
    r4 = r3 * np.sqrt(l + 4.0)
    k = kinetic * sigma
    diagonals = (
        c0 + k * (2.0 * l + 1.0) + c2 * (2.0 * l + 1.0) / q
        + c4 * (6.0 * l * l + 6.0 * l + 3.0) / (q * q),
        (c1 + 3.0 * c3 * (l + 1.0) / q) * r1 / math.sqrt(q),
        (c2 + c4 * (4.0 * l + 6.0) / q) * r2 / q - k * r2,
        c3 * r3 / (q * math.sqrt(q)),
        c4 * r4 / (q * q),
    )
    band = np.zeros((BANDWIDTH + 1, n))
    for d, values in enumerate(diagonals):
        band[BANDWIDTH - d, d:] = values[: n - d]
    return band


def band_matvec(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """h @ v for the symmetric matrix h stored as an upper band; v is N x k."""
    u = band.shape[0] - 1
    out = band[u][:, None] * v
    for d in range(1, u + 1):
        off = band[u - d, d:][:, None]
        out[:-d] += off * v[d:]
        out[d:] += off * v[:-d]
    return out


def assemble_position(pot: QuarticPotential, basis: BasisSpec) -> np.ndarray:
    """Position-space Hamiltonian h_lm = <l|H|m> in LAPACK upper band form (5 x N)."""
    return _band(basis, pot.c4, pot.c3, pot.c2, pot.c1, pot.c0, kinetic=1.0)


def position_band(basis: BasisSpec) -> np.ndarray:
    """Exact <l|x|m> as an upper band (tridiagonal)."""
    return _band(basis, c1=1.0)


def position_squared_band(basis: BasisSpec) -> np.ndarray:
    """Exact <l|x^2|m> as an upper band (pentadiagonal)."""
    return _band(basis, c2=1.0)


def momentum_squared_band(basis: BasisSpec) -> np.ndarray:
    """Exact <l|p^2|m> = <l|-d^2/dx^2|m> as an upper band (pentadiagonal)."""
    return _band(basis, kinetic=1.0)
