"""Quasi-degeneracy and well-localization rules in the asymmetry index k.

Empirically, level crossings of the asymmetric double well recur at integer
multiples of a characteristic interval delta_gamma that depends on the
quartic coefficient only.  With k = gamma / delta_gamma the observed rules
are:

  degeneracy   - integer k, odd:  pairs (n, n+1) for odd n >= k
               - integer k, even: pairs (n, n+1) for even n >= k (0 is even)
               - fractional k:    no quasi-degenerate pairs
  occupancy    - n < k: deeper well (I)
               - n >= k, integer k: spread over both wells
               - n >= k, fractional k: well I when parity(n) equals
                 parity(floor(k)), else well II

delta_gamma has no closed form here; it is estimated by locating the sharp
minima of adjacent-level gaps along a gamma sweep and averaging their
spacings.  The rule engine itself is a pure function of (k, n).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .measures import Occupancy, classify_occupancy, well_occupancy
from .potential import QuarticPotential, critical_points
from .spectrum import certified_states, quasi_degenerate_pairs, solve
from .wavefunction import build_grid, position_functions

__all__ = [
    "AsymmetryIndex",
    "DegeneracyPrediction",
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


class NoTransitionsFound(RuntimeError):
    """The probe sweep produced no sharp gap minima at any attempted beta."""


@dataclass(frozen=True)
class AsymmetryIndex:
    """k = gamma / delta_gamma; integer within K_TOL."""

    delta_gamma: float
    k: float

    @classmethod
    def from_gamma(cls, gamma: float, delta_gamma: float) -> "AsymmetryIndex":
        if delta_gamma <= 0.0:
            raise ValueError("delta_gamma must be positive")
        return cls(delta_gamma=delta_gamma, k=gamma / delta_gamma)

    @property
    def is_integer(self) -> bool:
        return abs(self.k - round(self.k)) <= K_TOL

    @property
    def k_integer(self) -> int | None:
        return int(round(self.k)) if self.is_integer else None

    @property
    def k_fraction_parity(self) -> int | None:
        """Parity (0/1) of floor(k) for fractional k, else None."""
        return None if self.is_integer else int(math.floor(self.k)) % 2


@dataclass(frozen=True)
class DegeneracyPrediction:
    pairs: tuple[tuple[int, int], ...]
    non_degenerate_below: int


def predict_degeneracy(index: AsymmetryIndex, n_max: int) -> DegeneracyPrediction:
    """Predicted quasi-degenerate pairs among states 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    ki = index.k_integer
    if ki is None:
        return DegeneracyPrediction((), int(math.ceil(index.k)))
    first = max(ki, 0)
    pairs = tuple(
        (n, n + 1) for n in range(first, n_max) if (n - ki) % 2 == 0
    )
    return DegeneracyPrediction(pairs, first)


def predict_occupancy(index: AsymmetryIndex, n: int) -> Occupancy:
    """Which well state n inhabits according to the k-rules."""
    if n < 0:
        raise ValueError("state index must be non-negative")
    ki = index.k_integer
    if ki is not None:
        return Occupancy.WELL_I if n < ki else Occupancy.BOTH
    if n < index.k:
        return Occupancy.WELL_I
    same_parity = n % 2 == index.k_fraction_parity
    return Occupancy.WELL_I if same_parity else Occupancy.WELL_II


@dataclass(frozen=True)
class DeltaGammaEstimate:
    delta_gamma: float
    uncertainty: float
    transitions: tuple[float, ...]
    beta_used: float


def _candidate_minima(gaps: np.ndarray) -> list[int]:
    """Interior local minima that dip well below the typical gap scale."""
    scale = float(np.median(gaps))
    return [
        i
        for i in range(1, len(gaps) - 1)
        if gaps[i] <= gaps[i - 1]
        and gaps[i] <= gaps[i + 1]
        and gaps[i] <= 0.25 * scale
    ]


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN_MEAN = 0.5 * (3.0 - math.sqrt(5.0))
_MAX_EVALUATIONS = 500


def _unit_sign(v: float) -> float:
    """sign(v) + (v == 0): -1 for negative v, else +1."""
    return -1.0 if v < 0.0 else 1.0


def _bounded_minimum(
    func: Callable[[float], float], lo: float, hi: float, xatol: float
) -> tuple[float, float]:
    """Brent's bounded scalar minimization of func on [lo, hi]; (x, func(x)).

    The method of scipy's fminbound (minimize_scalar with method="bounded"),
    operation for operation: the same constants, the same parabolic/golden
    branching and the same evaluation cap.  Bounds and objective values are
    coerced with float(), which is exact for np.float64, so every evaluation
    point and the result carry the same bits as scipy's.
    """
    a, b = float(lo), float(hi)
    fulc = a + _GOLDEN_MEAN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = float(func(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = True
        if abs(e) > tol1:  # try a parabolic fit
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _unit_sign(xm - xf)
            else:
                golden = True
        if golden:
            e = (a - xf) if xf >= xm else (b - xf)
            rat = _GOLDEN_MEAN * e

        x = xf + _unit_sign(rat) * max(abs(rat), tol1)
        fu = float(func(x))
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAX_EVALUATIONS:
            break
    return xf, fx


def estimate_delta_gamma(
    alpha: float,
    beta_probe: float | None = None,
    gamma_range: tuple[float, float] | None = None,
    n_basis: int = 100,
) -> DeltaGammaEstimate:
    """Estimate the characteristic transition interval from gap minima.

    Adjacent-level gaps E_{m+1} - E_m (m = 1, 2, 3) collapse sharply at the
    transition gammas; the pair (m, m+1) does so at every multiple k <= m of
    the interval with k = m (mod 2), so the union of all refined minima is
    the set {1, 2, 3} x delta_gamma.  Consecutive spacings of that set (the
    first one taken from zero) are reduced to the base interval and
    averaged; the spread is returned as the uncertainty.

    The probe beta defaults to 16 sqrt(alpha), deep enough that transition
    gaps are orders of magnitude below the level spacing, and is raised
    automatically when the sweep shows no transitions.  Each coarse minimum
    is refined by bounded scalar minimization before the sharpness test.
    """
    beta = beta_probe if beta_probe is not None else 16.0 * math.sqrt(alpha)

    def energies_at(g: float) -> np.ndarray:
        pot = QuarticPotential.from_well_params(alpha, beta, g)
        return solve(pot, n_basis, 6).energies

    for attempt in range(4):
        if gamma_range is not None:
            lo, hi = gamma_range
        else:
            lo, hi = 0.05, 8.8 * math.sqrt(alpha) * (1.3 ** attempt)
        gammas = np.linspace(lo, hi, GAMMA_SCAN_POINTS)
        table = np.array([energies_at(g) for g in gammas])

        def gap_at(g: float, pair: int) -> float:
            e = energies_at(g)
            return float(e[pair + 1] - e[pair])

        found: list[float] = []
        for m in (1, 2, 3):
            gap = table[:, m + 1] - table[:, m]
            for i in _candidate_minima(gap):
                x, gap_min = _bounded_minimum(
                    lambda g: gap_at(g, m), gammas[i - 1], gammas[i + 1], 1e-8
                )
                if gap_min <= SHARP_GAP_TOL * (1.0 + abs(table[i, m])):
                    found.append(x)
        # merge the same transition seen through different gap curves
        found.sort()
        merge_tol = 1e-3 * (hi - lo)
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
        beta *= 1.5
    raise NoTransitionsFound(
        f"no sharp gap minima found for alpha={alpha} up to beta={beta / 1.5}"
    )


@dataclass(frozen=True)
class RulePoint:
    """Rule-versus-measurement comparison at one gamma."""

    gamma: float
    k: float
    participates: bool
    predicted_pairs: tuple[tuple[int, int], ...]
    detected_pairs: tuple[tuple[int, int], ...]
    occupancy_predicted: tuple[Occupancy, ...]
    occupancy_measured: tuple[Occupancy, ...]
    at_transition: tuple[bool, ...]

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
    n_basis: int = 100,
    grid_points: int = 2048,
    rel_tol: float = 1e-6,
) -> tuple[tuple[Occupancy, ...], tuple[bool, ...], tuple[tuple[int, int], ...]]:
    """Occupancy classification of states 0..n_max, robust at degeneracies.

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
    measured = [classify_occupancy(p) for p in p_well_I]
    at_transition = tuple(
        n in paired or occ is Occupancy.BOTH for n, occ in enumerate(measured)
    )
    occs = tuple(
        Occupancy.BOTH if transitional else occ
        for occ, transitional in zip(measured, at_transition)
    )
    return occs, at_transition, pairs


def validate_rules(
    alpha: float,
    beta: float,
    gamma_grid,
    n_max: int = 5,
    delta_gamma: float | None = None,
    n_basis: int = 100,
    grid_points: int = 2048,
    rel_tol: float = 1e-6,
) -> RuleValidationReport:
    """Compare rule predictions with detected pairs and measured occupancies.

    A gamma point participates in the agreement statistics only when every
    state is either crisply localized or part of a detected pair (the
    complete-localization regime); below the threshold beta nothing is
    asserted.
    """
    if delta_gamma is None:
        delta_gamma = estimate_delta_gamma(alpha, n_basis=n_basis).delta_gamma
    points = []
    for gamma in gamma_grid:
        pot = QuarticPotential.from_well_params(alpha, beta, float(gamma))
        index = AsymmetryIndex.from_gamma(float(gamma), delta_gamma)
        occs, at_transition, pairs = measured_occupancies(
            pot, n_max, n_basis=n_basis, grid_points=grid_points, rel_tol=rel_tol
        )
        predicted_occs = tuple(
            predict_occupancy(index, n) for n in range(n_max + 1)
        )
        prediction = predict_degeneracy(index, n_max + 1)
        # rule regime = complete localization: every state either crisply in
        # one well or a member of a quasi-degenerate pair; below the
        # threshold beta states sit at intermediate probabilities instead
        paired = {i for ab in pairs for i in ab}
        participates = all(
            o is not Occupancy.BOTH or n in paired for n, o in enumerate(occs)
        )
        points.append(
            RulePoint(
                gamma=float(gamma),
                k=index.k,
                participates=participates,
                predicted_pairs=tuple(prediction.pairs),
                detected_pairs=pairs,
                occupancy_predicted=predicted_occs,
                occupancy_measured=occs,
                at_transition=at_transition,
            )
        )
    return RuleValidationReport(
        alpha=alpha,
        beta=beta,
        delta_gamma=delta_gamma,
        n_max=n_max,
        points=tuple(points),
    )
