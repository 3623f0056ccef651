"""Quasi-degeneracy and well-localization rules in the asymmetry index k.

Level crossings of the asymmetric double well V = alpha x^4 - beta x^2 +
gamma x recur at integer multiples of a characteristic interval delta_gamma.
With k = gamma / delta_gamma the rules read |k| (gamma -> -gamma is the
mirror image x -> -x, and well I is the deeper well on either side):

  degeneracy   - integer k, odd:  pairs (n, n+1) for odd n >= k
               - integer k, even: pairs (n, n+1) for even n >= k (0 is even)
               - fractional k:    no quasi-degenerate pairs
  occupancy    - n < k: deeper well (I)
               - n >= k, integer k: spread over both wells
               - n >= k, fractional k: well I when parity(n) equals
                 parity(floor(k)), else well II

delta_gamma = 2 sqrt(alpha): up to a constant V = W'^2 + k W'' with
W' = sqrt(alpha) x^2 - beta / (2 sqrt(alpha)) and k = gamma / (2 sqrt(alpha)),
the tilted supersymmetric double well (Behtash, Dunne, Schaefer, Sulejmanpasic
and Unsal, PRL 115, 041601 (2015)), whose two wells' Bohr-Sommerfeld numbers
(1/pi) int sqrt(E - V) dx differ by exactly k at every energy.
`estimate_delta_gamma` measures the interval from the gap minima of a gamma
sweep alone; the tests hold it to the closed form.  With x = alpha^(-1/6) y,
H(alpha, beta, gamma) = alpha^(1/3) H(1, beta alpha^(-2/3), gamma alpha^(-1/2)),
so its probe at beta = 16 alpha^(2/3) over gammas in sqrt(alpha) x [0.05, 8.8]
is the same dimensionless well at every alpha.  The predictions are plain
functions of k: `predict_degeneracy(k, n_max)` and `predict_occupancy(k, n)`;
`validate_rules` evaluates them at k = gamma / delta_gamma.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .basis import band_matvec, position_band
from .measures import Occupancy, classify_occupancy, well_occupancy
from .potential import QuarticPotential, critical_points
from .spectrum import (
    DEFAULT_N_BASIS, DEGENERACY_REL_TOL, certified_states, quasi_degenerate_pairs, solve,
)
from .wavefunction import DEFAULT_GRID_POINTS, build_grid, position_functions

__all__ = [
    "DeltaGammaEstimate",
    "NoTransitionsFound",
    "RulePoint",
    "RuleValidationReport",
    "predict_degeneracy",
    "predict_occupancy",
    "estimate_delta_gamma",
    "validate_rules",
]

K_TOL = 0.02  # |k - round(k)| below this counts as integer k
SHARP_GAP_TOL = 1e-3  # a gap minimum this small (relative) marks a transition
GAMMA_SCAN_POINTS = 141  # coarse gamma samples per delta-gamma probe sweep
REFINE_TOL = 1e-12  # relative step at which a gap minimum counts as refined


class NoTransitionsFound(RuntimeError):
    """The probe sweep produced no sharp gap minima."""


def _integer_k(k: float) -> int | None:
    """round(k) when k lies within K_TOL of an integer, else None."""
    return int(round(k)) if abs(k - round(k)) <= K_TOL else None


def predict_degeneracy(k: float, n_max: int) -> tuple[tuple[int, int], ...]:
    """Predicted quasi-degenerate pairs among states 0..n_max (at |k|)."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ki = _integer_k(abs(k))
    if ki is None:
        return ()
    return tuple((n, n + 1) for n in range(ki, n_max) if (n - ki) % 2 == 0)


def predict_occupancy(k: float, n: int) -> Occupancy:
    """Which well state n inhabits according to the k-rules (at |k|)."""
    if n < 0:
        raise ValueError("state index must be non-negative")
    k = abs(k)
    ki = _integer_k(k)
    if ki is not None:
        return Occupancy.WELL_I if n < ki else Occupancy.BOTH
    if n < k:
        return Occupancy.WELL_I
    same_parity = n % 2 == math.floor(k) % 2
    return Occupancy.WELL_I if same_parity else Occupancy.WELL_II


@dataclass(frozen=True)
class DeltaGammaEstimate:
    delta_gamma: float
    uncertainty: float
    transitions: tuple[float, ...]
    beta_used: float


def _levels(alpha: float, beta: float, gamma: float, n_basis: int):
    """Energies E_n and slopes dE_n/dgamma = <n|x|n> of the six lowest states.

    The basis scale reads only c4 and c2, so H = H0 + gamma x holds exactly in
    the truncated basis along a gamma sweep, and Hellmann-Feynman is exact.
    """
    spec = solve(QuarticPotential.from_well_params(alpha, beta, gamma), n_basis, 6)
    v = spec.coefficients
    return spec.energies, np.sum(v * band_matvec(position_band(spec.basis), v), axis=0)


def _gap_slope(energies: np.ndarray, slopes: np.ndarray, m: int):
    """d(gap^2)/dgamma of the pair (m, m+1); the last axis indexes states."""
    gap = energies[..., m + 1] - energies[..., m]
    return 2.0 * gap * (slopes[..., m + 1] - slopes[..., m])


def _refine_minimum(levels_at, m: int, a: float, b: float, s_a: float, s_b: float):
    """Gamma and energies at the gap minimum of pair m, bracketed by a and b.

    Illinois regula falsi on the slope s of the squared gap (s_a < 0 <= s_b),
    so every iterate stays inside the bracket.  Near an avoided crossing
    gap^2 is close to a parabola and s close to linear: a few solves suffice.
    """
    while True:
        g = b - s_b * (b - a) / (s_b - s_a)
        energies, slopes = levels_at(g)
        s = _gap_slope(energies, slopes, m)
        if s == 0.0 or abs(g - b) <= REFINE_TOL * (1.0 + abs(g)):
            return g, energies
        if (s < 0.0) != (s_b < 0.0):
            a, s_a = b, s_b
        else:  # the same end is kept twice in a row: halve its slope
            s_a *= 0.5
        b, s_b = g, s


def estimate_delta_gamma(alpha: float, n_basis: int = DEFAULT_N_BASIS) -> DeltaGammaEstimate:
    """Estimate the characteristic transition interval from gap minima.

    Adjacent-level gaps E_{m+1} - E_m (m = 1, 2, 3) collapse sharply at the
    transition gammas; the pair (m, m+1) does so at every multiple k <= m of
    the interval with k = m (mod 2), so the union of all refined minima is
    the set {1, 2, 3} x delta_gamma.  Consecutive spacings of that set (the
    first one taken from zero) are reduced to the base interval and
    averaged; the spread is returned as the uncertainty.

    The probe is the same dimensionless well at every alpha: with
    x = alpha^(-1/6) y, H(alpha, beta, gamma) = alpha^(1/3) H(1, beta
    alpha^(-2/3), gamma alpha^(-1/2)), so beta = 16 alpha^(2/3) and gammas
    sqrt(alpha) x [0.05, 8.8] scan the alpha-1 problem at depth 16, where
    transition gaps are orders of magnitude below the level spacing, and
    the trace-optimal basis scales with it.  Each sign change of
    d(gap^2)/dgamma from negative to non-negative between neighbouring scan
    points brackets one minimum, refined by regula falsi on that slope before
    the sharpness test.
    """
    if not alpha > 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == math.inf:
        raise ValueError(f"alpha must be finite, got {alpha}")
    beta = 16.0 * alpha ** (2.0 / 3.0)
    gammas = math.sqrt(alpha) * np.linspace(0.05, 8.8, GAMMA_SCAN_POINTS)
    levels_at = functools.partial(_levels, alpha, beta, n_basis=n_basis)
    energies, slopes = map(np.array, zip(*map(levels_at, gammas)))

    found: list[float] = []
    for m in (1, 2, 3):
        s = _gap_slope(energies, slopes, m)
        for i in np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0)):
            g, e = _refine_minimum(levels_at, m, gammas[i], gammas[i + 1], s[i], s[i + 1])
            if e[m + 1] - e[m] <= SHARP_GAP_TOL * (1.0 + abs(e[m])):
                found.append(g)
    # merge the same transition seen through different gap curves
    found.sort()
    merge_tol = 1e-3 * (gammas[-1] - gammas[0])
    transitions: list[float] = []
    cluster: list[float] = []
    for tau in found:
        if cluster and tau - cluster[-1] > merge_tol:
            transitions.append(float(np.mean(cluster)))
            cluster = []
        cluster.append(tau)
    if cluster:
        transitions.append(float(np.mean(cluster)))

    if len(transitions) >= 2:
        diffs = np.diff([0.0] + transitions)
        base = float(np.min(diffs))
        units = np.maximum(1, np.round(diffs / base).astype(int))
        if np.all(np.abs(diffs / base - units) <= 0.15):
            estimates = diffs / units
            value = float(np.mean(estimates))
            return DeltaGammaEstimate(
                delta_gamma=value,
                uncertainty=float(np.max(np.abs(estimates - value))),
                transitions=tuple(transitions),
                beta_used=beta,
            )
    raise NoTransitionsFound(f"no sharp gap minima found for alpha={alpha} at beta={beta}")


@dataclass(frozen=True)
class RulePoint:
    """Rule-versus-measurement comparison at one gamma."""

    gamma: float
    k: float
    predicted_pairs: tuple[tuple[int, int], ...]
    detected_pairs: tuple[tuple[int, int], ...]
    occupancy_predicted: tuple[Occupancy, ...]
    occupancy_measured: tuple[Occupancy, ...]

    @property
    def at_transition(self) -> tuple[bool, ...]:
        """Per state: measured in both wells (every paired state is)."""
        return tuple(o is Occupancy.BOTH for o in self.occupancy_measured)

    @property
    def participates(self) -> bool:
        """Complete localization: every state either crisply in one well or
        a member of a detected pair; below the threshold beta states sit at
        intermediate probabilities instead."""
        paired = {i for ab in self.detected_pairs for i in ab}
        return all(
            o is not Occupancy.BOTH or n in paired
            for n, o in enumerate(self.occupancy_measured)
        )

    @property
    def pairs_match(self) -> bool:
        return self.predicted_pairs == self.detected_pairs

    @property
    def occupancy_agreement(self) -> float:
        hits = sum(
            p is m for p, m in zip(self.occupancy_predicted, self.occupancy_measured)
        )
        return hits / len(self.occupancy_predicted)


@dataclass(frozen=True)
class RuleValidationReport:
    alpha: float
    beta: float
    delta_gamma: float
    n_max: int
    points: tuple[RulePoint, ...] = field(default_factory=tuple)

    @property
    def participating(self) -> tuple[RulePoint, ...]:
        return tuple(p for p in self.points if p.participates)

    @property
    def occupancy_agreement(self) -> float:
        pts = self.participating
        if not pts:
            return float("nan")
        return float(np.mean([p.occupancy_agreement for p in pts]))

    @property
    def pairs_agreement(self) -> float:
        pts = self.participating
        if not pts:
            return float("nan")
        return float(np.mean([p.pairs_match for p in pts]))

    def transition_neighborhoods(self, n: int, gamma_max: float | None = None) -> int:
        """Number of contiguous gamma runs where state n sits at a transition."""
        pts = self.points if gamma_max is None else tuple(
            p for p in self.points if p.gamma <= gamma_max + 1e-9
        )
        flags = [p.at_transition[n] for p in pts]
        return int(
            sum(1 for i, f in enumerate(flags) if f and (i == 0 or not flags[i - 1]))
        )


def measured_occupancies(
    pot: QuarticPotential,
    n_max: int,
    n_basis: int = DEFAULT_N_BASIS,
    grid_points: int = DEFAULT_GRID_POINTS,
    rel_tol: float = DEGENERACY_REL_TOL,
) -> tuple[tuple[Occupancy, ...], tuple[tuple[int, int], ...]]:
    """Occupancies of states 0..n_max and the detected quasi-degenerate pairs.

    Within a quasi-degenerate pair the individual eigenvectors are arbitrary
    rotations of left/right-localized states once the gap falls below solver
    resolution, so pair membership itself marks a state as transitional
    (classified BOTH) regardless of the measured split.
    """
    spec = solve(pot, n_basis=n_basis, n_states=min(n_max + 2, certified_states(n_basis)))
    pairs = tuple(
        (a, b)
        for a, b, _ in quasi_degenerate_pairs(spec, rel_tol=rel_tol, n_max=n_max + 1)
    )
    paired = {i for ab in pairs for i in ab}
    grid = build_grid(pot, spec.energy(spec.n_verified - 1), grid_points)
    psi, _ = position_functions(spec, grid, n_max + 1)
    p_well_I = well_occupancy(grid, psi, critical_points(pot))[0]
    occs = tuple(
        Occupancy.BOTH if n in paired else classify_occupancy(p)
        for n, p in enumerate(p_well_I)
    )
    return occs, pairs


def validate_rules(
    alpha: float,
    beta: float,
    gamma_grid,
    delta_gamma: float,
    n_max: int = 5,
    n_basis: int = DEFAULT_N_BASIS,
    grid_points: int = DEFAULT_GRID_POINTS,
    rel_tol: float = DEGENERACY_REL_TOL,
) -> RuleValidationReport:
    """Compare rule predictions at k = gamma / delta_gamma with detected
    pairs and measured occupancies.

    Only participating points (see `RulePoint.participates`) enter the
    agreement statistics; below the threshold beta nothing is asserted.
    """
    if not delta_gamma > 0.0:
        raise ValueError("delta_gamma must be positive")
    points = []
    for gamma in map(float, gamma_grid):
        k = gamma / delta_gamma
        occs, pairs = measured_occupancies(
            QuarticPotential.from_well_params(alpha, beta, gamma),
            n_max, n_basis=n_basis, grid_points=grid_points, rel_tol=rel_tol,
        )
        points.append(
            RulePoint(
                gamma=gamma,
                k=k,
                predicted_pairs=predict_degeneracy(k, n_max + 1),
                detected_pairs=pairs,
                occupancy_predicted=tuple(predict_occupancy(k, n) for n in range(n_max + 1)),
                occupancy_measured=occs,
            )
        )
    return RuleValidationReport(
        alpha=alpha,
        beta=beta,
        delta_gamma=delta_gamma,
        n_max=n_max,
        points=tuple(points),
    )
