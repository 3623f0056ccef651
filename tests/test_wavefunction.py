import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import well_solve
from dwell import (
    QuarticPotential,
    build_grid,
    build_momentum_grid,
    count_nodes,
    critical_points,
    momentum_functions,
    position_functions,
    solve,
    turning_points,
    well_occupancy,
)
from dwell.wavefunction import hermite_functions, simpson

DATA = Path(__file__).parent / "data"


def test_hermite_recurrence_matches_high_precision_golden():
    entries = json.loads((DATA / "hermite_golden.json").read_text())
    ts = sorted({e["t"] for e in entries})
    phi = hermite_functions(np.array(ts), 100)
    col = {t: i for i, t in enumerate(ts)}
    for e in entries:
        ref = float(e["value"])
        got = phi[e["l"], col[e["t"]]]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-250)


def test_grid_covers_turning_points_with_padding():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    grid = build_grid(pot, 50.0, 1024)
    tps = turning_points(pot, 50.0)
    span = tps[-1] - tps[0]
    assert grid.x0 <= tps[0] - 0.2 * span
    assert grid.x_max >= tps[-1] + 0.2 * span


def test_grid_spans_both_wells_below_barrier():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 3.0)
    energy = -10.0  # below the barrier top (~0.23), above both minima
    grid = build_grid(pot, energy, 1024)
    tps = turning_points(pot, energy)
    assert len(tps) == 4
    assert grid.x0 < tps[0] and grid.x_max > tps[-1]


def test_ground_state_normalized_to_1e8():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    spec = well_solve(1.0, 10.0, 0.0)
    grid = build_grid(pot, 50.0, 4096)
    fine = build_grid(pot, 50.0, 8192)
    for g in (grid, fine):
        psi, _ = position_functions(spec, g, 1)
        assert abs(simpson(psi[0] ** 2, g.dx) - 1.0) <= 1e-8


def test_simpson_fourth_order_convergence():
    # wavefunction norms are converged to the floating-point floor already at
    # the minimum grid size, so probe the quadrature order on an oscillatory
    # integrand with a high-precision reference instead
    from scipy.integrate import quad

    f = lambda x: np.exp(np.sin(7.0 * x))
    ref, _ = quad(f, 0.0, 3.0, epsabs=1e-13, epsrel=1e-13, limit=200)

    def err(points):
        x = np.linspace(0.0, 3.0, points + 1)
        return abs(simpson(f(x), 3.0 / points) - ref)

    coarse, fine = err(512), err(1024)
    assert coarse > 1e-13  # not yet at the floating-point floor
    assert fine <= coarse / 8.0


def test_position_parity_of_symmetric_states():
    spec = well_solve(1.0, 12.0, 0.0)
    pot = QuarticPotential.from_well_params(1.0, 12.0, 0.0)
    grid = build_grid(pot, spec.energy(5), 2048)
    psi, _ = position_functions(spec, grid, 4)
    for n, sign in ((0, +1.0), (1, -1.0), (2, +1.0), (3, -1.0)):
        vals = psi[n]
        assert np.abs(vals - sign * vals[::-1]).max() <= 1e-10


def test_energy_functional_on_grid():
    # <psi|H|psi> by Simpson quadrature of psi'^2 + V psi^2
    pot = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    psi, dpsi = position_functions(spec, grid, 1)
    integrand = dpsi[0] ** 2 + pot(grid.x) * psi[0] ** 2
    e0 = simpson(integrand, grid.dx)
    assert e0 == pytest.approx(0.220496934, abs=1e-7)


def test_parseval_and_momentum_parity():
    spec = well_solve(1.0, 12.0, 0.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 12.0, 0.0)
    pgrid = build_momentum_grid(pot, spec.energy(6), 4096)
    psi_p, _ = momentum_functions(spec, pgrid, 6)
    for psi_t in psi_p:
        mags = np.abs(psi_t)
        assert abs(simpson(mags**2, pgrid.dx) - 1.0) <= 1e-6
        assert np.abs(mags - mags[::-1]).max() <= 1e-10


def test_momentum_matches_fourier_quadrature_oracle():
    """Direct e^{-ipx} Simpson transform of the position wavefunction."""
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    pgrid = build_momentum_grid(pot, spec.energy(3), 4096)
    x = grid.x
    w = np.ones(x.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= grid.dx / 3.0
    p_sub = pgrid.x[::16]
    kernel = np.exp(-1j * np.outer(p_sub, x))
    psi_x, _ = position_functions(spec, grid, 4)
    psi_p, _ = momentum_functions(spec, pgrid, 4)
    for n in range(4):
        oracle = kernel @ (w * psi_x[n]) / math.sqrt(2.0 * math.pi)
        mine = psi_p[n, ::16]
        assert np.abs(mine - oracle).max() <= 1e-7


def test_sampled_states_are_contiguous_rows():
    spec = well_solve(1.0, 12.0, 0.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 12.0, 0.0)
    xgrid = build_grid(pot, spec.energy(4), 1024)
    pgrid = build_momentum_grid(pot, spec.energy(4), 1024)
    for grid, arrays in (
        (xgrid, position_functions(spec, xgrid, 5)),
        (pgrid, momentum_functions(spec, pgrid, 5)),
    ):
        for rows in arrays:
            assert rows.shape == (5, grid.n_points + 1)
            assert rows.flags.c_contiguous


def test_grid_orthogonality():
    spec = well_solve(1.0, 20.0, 3.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    grid = build_grid(pot, spec.energy(6), 4096)
    psi, _ = position_functions(spec, grid, 7)
    for m in range(7):
        for n in range(m + 1, 7):
            overlap = simpson(psi[m] * psi[n], grid.dx)
            assert abs(overlap) <= 1e-6


def node_counts(pot, spec, n_states, points):
    """count_nodes of states 0..n_states-1 on a grid up to the top one."""
    grid = build_grid(pot, spec.energy(n_states - 1), points)
    psi, _ = position_functions(spec, grid, n_states)
    geometry = critical_points(pot)
    _, _, mass_left, mass_right = well_occupancy(grid, psi, geometry)
    return [
        count_nodes(
            grid,
            psi[n],
            turning_points(pot, spec.energy(n)),
            geometry,
            mass_left[n],
            mass_right[n],
        )
        for n in range(n_states)
    ]


def test_effective_nodes_localized_ladder():
    # beta = 20, gamma = 1 (k = 0.5): states alternate wells, effective
    # nodes follow each well's own ladder
    pot = QuarticPotential.from_well_params(1.0, 20.0, 1.0)
    spec = solve(pot, 100, 7)
    counts = node_counts(pot, spec, 7, 4096)
    expected = [0, 0, 1, 1, 2, 2]
    for n, want in enumerate(expected):
        _, effective = counts[n]
        assert effective == want


def test_effective_nodes_shallow_well_ground():
    # beta = 20, gamma = 7 (k = 3.5): n = 4 is the shallow well's ground state
    pot = QuarticPotential.from_well_params(1.0, 20.0, 7.0)
    spec = solve(pot, 100, 7)
    _, effective = node_counts(pot, spec, 7, 4096)[4]
    assert effective == 0


def test_total_nodes_equal_state_index_symmetric():
    pot = QuarticPotential.from_well_params(1.0, 8.0, 0.0)
    spec = solve(pot, 100, 9)
    for n, (total, _) in enumerate(node_counts(pot, spec, 9, 4096)):
        assert total == n


def test_total_nodes_random_potentials(rng):
    for _ in range(50):
        pot = QuarticPotential.from_well_params(
            rng.uniform(0.3, 2.0), rng.uniform(0.0, 9.0), rng.uniform(-2.5, 2.5)
        )
        spec = solve(pot, 100, 9)
        n = int(rng.integers(0, 9))
        total, _ = node_counts(pot, spec, 9, 2048)[n]
        assert total == n


def test_grid_point_minimum_enforced():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        build_grid(pot, 10.0, 100)
    with pytest.raises(ValueError):
        build_momentum_grid(pot, 10.0, 100)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 100, 101, 4096, 4097])
def test_simpson_reproduces_scipy_bit_for_bit(rng, n):
    from scipy.integrate import simpson as scipy_simpson

    for _ in range(20):
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        dx = float(rng.uniform(1e-3, 2.0))
        assert simpson(y, dx) == scipy_simpson(y, dx=dx)
    rows = rng.standard_normal((5, n))
    batched = simpson(rows, 0.37)
    assert [float(v) for v in batched] == [scipy_simpson(r, dx=0.37) for r in rows]
