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

delta_gamma = 2 sqrt(alpha) (`potential.delta_gamma`): up to a constant
V = W'^2 + k W'' with W' = sqrt(alpha) x^2 - beta / (2 sqrt(alpha)) and
k = gamma / (2 sqrt(alpha)), the tilted supersymmetric double well (Cooper,
Khare and Sukhatme, Phys. Rep. 251, 267 (1995); Behtash, Dunne, Schaefer,
Sulejmanpasic and Unsal, PRL 115, 041601 (2015)), whose two wells'
Bohr-Sommerfeld numbers (1/pi) int sqrt(E - V) dx differ by exactly k at
every energy.  `validate-rules` uses that closed form.
`estimate_delta_gamma` is the paper's procedure and the library's check of
it: it measures the interval from the gap minima of a gamma sweep alone, and
the tests hold it to the closed form.  With x = alpha^(-1/6) y,
H(alpha, beta, gamma) = alpha^(1/3) H(1, beta alpha^(-2/3), gamma alpha^(-1/2)),
so its probe at beta = 16 alpha^(2/3) over 12 gammas in sqrt(alpha) x
[0.05, 8.8] is the same dimensionless well at every alpha.  So the probe
runs once per basis size, on the alpha-1 well, in 32 solves shared by every
alpha, and each alpha scales its transitions by sqrt(alpha).  The
predictions are plain functions of k: `predict_degeneracy(k, n_max)` and
`predict_occupancy(k, n)`; `validate_rules` evaluates them at
k = gamma / (2 sqrt(alpha)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_GRID_POINTS, DEFAULT_N_BASIS, DEGENERACY_REL_TOL, SolverError
from .measures import Occupancy, classify_occupancy, uncertainties, well_occupancy
from .potential import QuarticPotential, critical_points, delta_gamma
from .spectrum import quasi_degenerate_pairs, solve
from .wavefunction import build_grid, wavefunctions

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
GAMMA_SCAN_POINTS = 12  # coarse gamma samples per delta-gamma probe sweep
REFINE_TOL = 1e-12  # relative step at which a gap minimum counts as refined
PROBE_STATES = 5  # states of each delta-gamma probe solve


class NoTransitionsFound(SolverError):
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


def _levels(gamma: float, n_basis: int):
    """Energies E_n and slopes dE_n/dgamma = <n|x|n> of the PROBE_STATES
    lowest states of the probe well (alpha 1, beta 16) at gamma.

    The basis scale reads only c4 and c2, so H = H0 + gamma x holds exactly in
    the truncated basis along a gamma sweep, and Hellmann-Feynman is exact.
    """
    spec = solve(QuarticPotential.from_well_params(1.0, 16.0, gamma), n_basis, PROBE_STATES)
    return spec.energies, uncertainties(spec)[0]


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
        if s == 0.0 or abs(g - b) <= REFINE_TOL * abs(g):
            return g, energies
        if (s < 0.0) != (s_b < 0.0):
            a, s_a = b, s_b
        else:  # the same end is kept twice in a row: halve its slope
            s_a *= 0.5
        b, s_b = g, s


@functools.lru_cache(maxsize=None)
def _probe_transitions(n_basis: int) -> tuple[float, ...]:
    """Transition gammas of the alpha-1 probe (beta 16), one per transition.

    Adjacent-level gaps E_{m+1} - E_m (m = 1, 2, 3) collapse sharply at the
    transition gammas; the pair (m, m+1) does so at every multiple k <= m of
    the interval with k = m (mod 2), so the union of all refined minima is
    the set {1, 2, 3} x delta_gamma.  Each sign change of d(gap^2)/dgamma
    from negative to non-negative between neighbouring points of the scan
    over [0.05, 8.8] brackets one minimum, refined by regula falsi on that
    slope until its step is REFINE_TOL relative to gamma, before the
    sharpness test (a gap below SHARP_GAP_TOL relative to E_m).  Minima of
    different gap curves within 1e-3 of the scan's span are one transition.

    GAMMA_SCAN_POINTS = 12 samples suffice.  A minimum is bracketed when one
    sample lies on its falling side and the next on its rising side, that is
    between the gap maxima on either side of it.  The minima of one gap curve
    lie 2 delta_gamma = 4 apart, and the step is 8.75 / 11 = 0.795, so they
    are at least 5 steps apart.  The scan takes 12 solves and the four
    refinements (pair 1 at k = 1, pair 2 at k = 2, pair 3 at k = 1 and 3)
    20 more: 32 solves per basis size.
    """
    gammas = np.linspace(0.05, 8.8, GAMMA_SCAN_POINTS)
    levels_at = functools.partial(_levels, n_basis=n_basis)
    energies, slopes = map(np.array, zip(*map(levels_at, gammas)))

    found: list[float] = []
    for m in (1, 2, 3):
        s = _gap_slope(energies, slopes, m)
        for i in np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0)):
            g, e = _refine_minimum(levels_at, m, gammas[i], gammas[i + 1], s[i], s[i + 1])
            if e[m + 1] - e[m] <= SHARP_GAP_TOL * abs(e[m]):
                found.append(g)
    # merge the same transition seen through different gap curves
    minima = np.sort(found)
    cuts = np.flatnonzero(np.diff(minima) > 1e-3 * (gammas[-1] - gammas[0])) + 1
    return tuple(float(np.mean(c)) for c in np.split(minima, cuts) if c.size)


def estimate_delta_gamma(alpha: float, n_basis: int = DEFAULT_N_BASIS) -> DeltaGammaEstimate:
    """Estimate the characteristic transition interval from gap minima.

    With x = alpha^(-1/6) y, H(alpha, beta, gamma) = alpha^(1/3) H(1, beta
    alpha^(-2/3), gamma alpha^(-1/2)), so the probe at beta = 16 alpha^(2/3)
    over gammas sqrt(alpha) x [0.05, 8.8] is the alpha-1 well at depth 16,
    where transition gaps are orders of magnitude below the level spacing,
    at every alpha.  So it runs once per basis size, on that well
    (`_probe_transitions`, 32 solves shared by every alpha), and its
    transitions are scaled by sqrt(alpha); at alpha = 4^j the scaling is
    exact.  Consecutive spacings of the transitions (the first one taken
    from zero) are reduced to the base interval and averaged; the spread is
    returned as the uncertainty.
    """
    scale = 0.5 * delta_gamma(alpha)  # sqrt(alpha) exactly; checks alpha
    transitions = [scale * tau for tau in _probe_transitions(n_basis)]
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
            )
    beta = 16.0 * alpha ** (2.0 / 3.0)
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
    points: tuple[RulePoint, ...]

    def _mean(self, verdict: str) -> float:
        """Mean of a point's `verdict` over the participating points (nan if none)."""
        values = [getattr(p, verdict) for p in self.points if p.participates]
        return float(np.mean(values)) if values else float("nan")

    @property
    def occupancy_agreement(self) -> float:
        return self._mean("occupancy_agreement")

    @property
    def pairs_agreement(self) -> float:
        return self._mean("pairs_match")

    def transition_neighborhoods(self, n: int, gamma_max: float | None = None) -> int:
        """Number of contiguous gamma runs where state n sits at a transition."""
        pts = self.points if gamma_max is None else tuple(
            p for p in self.points if p.gamma <= gamma_max + 1e-9 * abs(gamma_max)
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
    """Occupancies of states 0..n_max and the detected quasi-degenerate pairs
    among states 0..n_max + 1.

    States 0..n_max + 1 are solved, so that a pair (n_max, n_max + 1) is
    seen, and a basis that does not certify n_max + 1 raises BasisTooSmall.
    The pairs come from that whole spectrum.  Every solved state is sampled
    on the grid built at the top energy, and states 0..n_max are
    classified.  A doublet split below solver resolution comes out of
    `solve` as its two equal-<x> states, so its occupancy is read from its
    own densities like every other state's.
    """
    spec = solve(pot, n_basis=n_basis, n_states=n_max + 2)
    pairs = tuple(quasi_degenerate_pairs(spec, rel_tol=rel_tol))
    grid = build_grid(pot, spec.energy(n_max + 1), grid_points)
    psi = wavefunctions(spec, grid, None)[0]
    p_well_I = well_occupancy(grid, psi, critical_points(pot))[0]
    return tuple(map(classify_occupancy, p_well_I[: n_max + 1])), pairs


def validate_rules(
    alpha: float,
    beta: float,
    gamma_grid,
    n_max: int = 5,
    n_basis: int = DEFAULT_N_BASIS,
    grid_points: int = DEFAULT_GRID_POINTS,
    rel_tol: float = DEGENERACY_REL_TOL,
) -> RuleValidationReport:
    """Compare rule predictions at k = gamma / delta_gamma, delta_gamma =
    2 sqrt(alpha) (`potential.delta_gamma`), with detected pairs and
    measured occupancies.

    A non-positive or non-finite alpha raises ValueError before any solve.
    Only participating points (see `RulePoint.participates`) enter the
    agreement statistics; below the threshold beta nothing is asserted.
    """
    interval = delta_gamma(alpha)
    points = []
    for gamma in map(float, gamma_grid):
        k = gamma / interval
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
    return RuleValidationReport(tuple(points))
