"""Correctness checks for the benchmark's CLI outputs.

Every check works on a parameter point: a (beta, gamma) pair of a sweep, or
an alpha of a rule scan.  A check returns the number of points that failed,
so the caller can count failures against the number attempted.

The energy oracle is independent of `dwell`: it builds the oscillator-basis
Hamiltonian from ladder operators at 150 basis functions and diagonalizes it
with numpy.  The CLI solves at 100 basis functions, so agreement also says
that the reported states are converged.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

ORACLE_N_BASIS = 150
ENERGY_REL_TOL = 1e-9
OCCUPANCY_SUM_TOL = 1e-12
# Bounds the acceptance tests assert (criterion 5).  The Onicescu and
# composite bounds are left out: they are Gaussian saturation values that
# excited states violate by design.
UNCERTAINTY_BOUND = 0.5 - 1e-9
SHANNON_BOUND = 1.0 + math.log(math.pi) - 1e-6
FISHER_BOUND = 4.0 - 1e-6
DELTA_GAMMA_TOL = 1e-6


def grid(start: float, stop: float, step: float) -> list[float]:
    """The values the CLI reads from 'start:stop:step' (stop inclusive)."""
    count = int((stop - start) / step + 1e-9) + 1
    return [start + i * step for i in range(count)]


def _trace_optimal_sigma(c4: float, c2: float, n_basis: int) -> float:
    """Scale at which the trace of H is stationary.

    In the basis phi_l(x; sigma), <l|p^2|l> = sigma (2l + 1),
    <l|x^2|l> = (2l + 1) / (4 sigma) and <l|x^4|l> = (6l^2 + 6l + 3) / (16
    sigma^2); odd powers have no diagonal.  Setting d Tr H / d sigma = 0
    gives 8 S1 sigma^3 - 2 c2 S1 sigma - c4 S4 = 0.
    """
    levels = np.arange(n_basis, dtype=float)
    s1 = float(np.sum(2.0 * levels + 1.0))
    s4 = float(np.sum(6.0 * levels**2 + 6.0 * levels + 3.0))
    roots = np.roots([8.0 * s1, 0.0, -2.0 * c2 * s1, -c4 * s4])
    real = roots[np.abs(roots.imag) <= 1e-12 * np.abs(roots)].real
    return float(np.max(real[real > 0.0]))


def _global_minimum(alpha: float, beta: float, gamma: float) -> float:
    """Lowest value of alpha x^4 - beta x^2 + gamma x."""
    def v(x: float) -> float:
        return ((alpha * x * x - beta) * x + gamma) * x

    best = math.inf
    for r in np.roots([4.0 * alpha, 0.0, -2.0 * beta, gamma]):
        if abs(r.imag) > 1e-7 * max(1.0, abs(r)):
            continue
        x = float(r.real)
        for _ in range(3):  # Newton polish on V'
            d2 = 12.0 * alpha * x * x - 2.0 * beta
            if d2 == 0.0:
                break
            x -= (4.0 * alpha * x**3 - 2.0 * beta * x + gamma) / d2
        best = min(best, v(x))
    return best


def oracle_energies(
    alpha: float, beta: float, gamma: float, n_states: int,
    n_basis: int = ORACLE_N_BASIS,
) -> np.ndarray:
    """Lowest energies of alpha x^4 - beta x^2 + gamma x, minimum moved to 0."""
    c4, c2, c1 = alpha, -beta, gamma
    c0 = -_global_minimum(alpha, beta, gamma)
    sigma = _trace_optimal_sigma(c4, c2, n_basis)
    m = n_basis + 4  # x^4 couples level l to l +/- 4
    a = np.diag(np.sqrt(np.arange(1.0, m)), 1)
    ad = a.T
    x = (a + ad) / (2.0 * math.sqrt(sigma))
    x2 = x @ x
    p2 = sigma * (np.diag(2.0 * np.arange(m) + 1.0) - a @ a - ad @ ad)
    h = p2 + c4 * (x2 @ x2) + c2 * x2 + c1 * x + c0 * np.eye(m)
    h = h[:n_basis, :n_basis]
    return np.linalg.eigvalsh(0.5 * (h + h.T))[:n_states]


# ---------------------------------------------------------------- sweeps


def _rows(text: str) -> list[dict[str, str]]:
    body = [line for line in text.splitlines() if not line.startswith("#")]
    return list(csv.DictReader(io.StringIO("\n".join(body))))


def _row_ok(row: dict[str, str], energy: float) -> bool:
    try:
        e = float(row["energy"])
        p_sum = float(row["p_well_I"]) + float(row["p_well_II"])
        checks = (
            row["error"] == "",
            abs(e - energy) <= ENERGY_REL_TOL * max(1.0, abs(energy)),
            abs(p_sum - 1.0) <= OCCUPANCY_SUM_TOL,
            float(row["uncertainty_product"]) >= UNCERTAINTY_BOUND,
            float(row["s_total"]) >= SHANNON_BOUND,
            float(row["i_product"]) >= FISHER_BOUND,
        )
    except (KeyError, TypeError, ValueError):
        return False
    return all(checks)


def check_sweep(
    text: str,
    alpha: float,
    points: list[tuple[float, float]],
    n_states: int,
    oracle: dict[tuple[float, float], np.ndarray],
) -> int:
    """Failed points of a sweep CSV.

    A point fails when its rows are missing, carry an error, or break an
    energy or bound check.  Rows for a point that was not requested fail
    every point, since the grid itself is then wrong.
    """
    by_point: dict[tuple[float, float], list[dict[str, str]]] = {}
    try:
        for row in _rows(text):
            if float(row["alpha"]) != alpha:
                return len(points)
            by_point.setdefault((float(row["beta"]), float(row["gamma"])), []).append(row)
    except (KeyError, TypeError, ValueError):
        return len(points)
    if set(by_point) - set(points):
        return len(points)
    failed = 0
    for point in points:
        rows = by_point.get(point, [])
        ok = [row.get("n") for row in rows] == [str(n) for n in range(n_states)] and all(
            _row_ok(row, e) for row, e in zip(rows, oracle[point])
        )
        failed += not ok
    return failed


def sweep_oracle(
    alpha: float, points: list[tuple[float, float]], n_states: int
) -> dict[tuple[float, float], np.ndarray]:
    return {(b, g): oracle_energies(alpha, b, g, n_states) for b, g in points}


def compare_bytes(reference: str, text: str, n_points: int) -> int:
    """Failed points when a warm sweep must repeat the cold sweep's bytes.

    Rows are grouped by their leading alpha,beta,gamma cells; every group
    that differs fails, and any difference at all fails at least one point.
    """
    if text == reference:
        return 0

    def groups(t: str) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for line in t.split("\n"):
            out.setdefault(",".join(line.split(",")[:3]), []).append(line)
        return out

    ref, got = groups(reference), groups(text)
    differing = sum(ref.get(k) != got.get(k) for k in set(ref) | set(got))
    return min(n_points, max(1, differing))


# ---------------------------------------------------------------- rules


def check_rules(text: str, alphas: list[float], gammas: list[float]) -> int:
    """Failed alphas of a validate-rules JSON document.

    delta_gamma must equal 2 sqrt(alpha) within 1e-6, and the rule points
    must sit on the requested gamma grid.
    """
    try:
        blocks = {float(b["alpha"]): b for b in json.loads(text)["results"]}
    except (KeyError, TypeError, ValueError):
        return len(alphas)
    failed = 0
    for alpha in alphas:
        block = blocks.get(alpha)
        try:
            ok = (
                abs(float(block["delta_gamma"]) - 2.0 * math.sqrt(alpha)) <= DELTA_GAMMA_TOL
                and [float(p["gamma"]) for p in block["points"]] == gammas
            )
        except (KeyError, TypeError, ValueError):
            ok = False
        failed += not ok
    return failed
