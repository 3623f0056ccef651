import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from conftest import (
    confining_quartics,
    hermite_derivative_matrix,
    mirrored,
    momentum_expansion,
    one_shot_hermite,
    position_expansion,
    reference_count_nodes,
    scalable_pots,
    well_solve,
)
from dwell import (
    QuarticPotential,
    area,
    build_grid,
    build_momentum_grid,
    count_nodes,
    critical_points,
    solve,
    turning_points,
    well_occupancy,
)
from dwell.basis import BasisSpec
from dwell.defaults import grid_intervals
from dwell.spectrum import Spectrum
from dwell.wavefunction import (
    HERMITE_BLOCK,
    UniformGrid,
    _hermite_blocks,
    probability_below,
    simpson,
    wavefunctions,
)

DATA = Path(__file__).parent / "data"


def test_hermite_recurrence_matches_high_precision_golden():
    entries = json.loads((DATA / "hermite_golden.json").read_text())
    ts = sorted({e["t"] for e in entries})
    t = np.array(ts)
    work = np.empty((HERMITE_BLOCK + 2, t.size))
    phi = np.vstack([rows.copy() for _, rows in _hermite_blocks(t, 100, work)])
    col = {t: i for i, t in enumerate(ts)}
    for e in entries:
        ref = float(e["value"])
        got = phi[e["l"], col[e["t"]]]
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-250)


@pytest.mark.parametrize("n", [1, 2, 49, 50, 51, 100])
def test_streamed_rows_equal_a_one_shot_recurrence(n):
    # block edges at 50 rows: the two rows carried into each block must
    # continue the recurrence exactly
    t = np.linspace(-14.0, 14.0, 1001)
    want = one_shot_hermite(t, n)
    starts = []
    for l0, rows in _hermite_blocks(t, n, np.empty((HERMITE_BLOCK + 2, t.size))):
        assert len(rows) <= HERMITE_BLOCK
        assert np.array_equal(rows, want[l0 : l0 + len(rows)])
        starts.append(l0)
    assert starts == list(range(0, n, HERMITE_BLOCK))


@pytest.mark.parametrize("n_basis", [4, 49, 50, 51, 100])
def test_streamed_contraction_matches_the_whole_table(n_basis, rng):
    # every row lands in exactly one block's products, and the momentum
    # parts take the even and odd rows with the phases (-i)^l
    coef = np.linalg.qr(rng.standard_normal((n_basis, 3)))[0]
    spec = Spectrum(BasisSpec(n_basis, 0.7), np.arange(3.0), coef)
    xgrid = UniformGrid(-6.0, 12.0 / 512, 512)
    pgrid = UniformGrid(0.0, 8.0 / 514, 257)
    psi_x, (a, b, da, db) = wavefunctions(spec, xgrid, pgrid)
    want_x = position_expansion(spec, xgrid.x, 3)
    want_p, want_dp = momentum_expansion(spec, pgrid.x, 3)
    for got, want in ((psi_x, want_x), (a + 1j * b, want_p), (da + 1j * db, want_dp)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    # without a p grid the x rows are the same, bit for bit
    assert np.array_equal(wavefunctions(spec, xgrid, None)[0], psi_x)


def test_odd_parts_vanish_exactly_at_zero_momentum():
    # every odd Hermite row is 0 at t = 0, so b(0) and a'(0) are exact zeros
    # and the half-line's first sample is the even function's own value
    spec = well_solve(1.0, 12.0, 1.5, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 12.0, 1.5)
    e_top = spec.energy(6)
    xgrid, pgrid = build_grid(pot, e_top, 4094), build_momentum_grid(pot, e_top, 4094)
    _, (a, b, da, db) = wavefunctions(spec, xgrid, pgrid)
    assert pgrid.x[0] == 0.0
    assert np.all(b[:, 0] == 0.0) and np.all(da[:, 0] == 0.0)


def test_one_workspace_holds_the_recurrence_of_both_spaces():
    # the x pass and then the p pass run through one buffer of
    # HERMITE_BLOCK + 2 rows by the larger sample count, freed before the
    # outputs are scaled: the traced peak is that buffer beside the
    # unscaled sums (the outputs' size), one block's product, the sample
    # points and a scratch row, with room for the coefficient arrays.  A
    # buffer for x and p side by side would take 0.8 MB more.
    import tracemalloc

    spec = well_solve(1.0, 20.0, 3.0, n_states=8)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    e_top = spec.energy(7)
    xgrid, pgrid = build_grid(pot, e_top, 4096), build_momentum_grid(pot, e_top, 4096)
    nx, n_p = xgrid.n_points + 1, pgrid.n_points + 1
    workspace = (HERMITE_BLOCK + 2) * max(nx, n_p) * 8
    wavefunctions(spec, xgrid, pgrid)  # numpy's first-call caches
    tracemalloc.start()
    try:
        psi_x, psi_p = wavefunctions(spec, xgrid, pgrid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    outputs = psi_x.nbytes + sum(rows.nbytes for rows in psi_p)
    assert psi_x.shape == (8, nx) and all(rows.shape == (8, n_p) for rows in psi_p)
    product = max(psi_x.nbytes, 2 * psi_p[0].nbytes)
    samples = (nx + n_p + max(nx, n_p)) * 8
    assert workspace + outputs < peak <= workspace + outputs + product + samples + 65536


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
        psi = wavefunctions(spec, g, None)[0][:1]
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
    psi = wavefunctions(spec, grid, None)[0][:4]
    for n, sign in ((0, +1.0), (1, -1.0), (2, +1.0), (3, -1.0)):
        vals = psi[n]
        assert np.abs(vals - sign * vals[::-1]).max() <= 1e-10


def test_energy_functional_on_grid():
    # <psi|H|psi> by Simpson quadrature of psi'^2 + V psi^2
    pot = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    psi = wavefunctions(spec, grid, None)[0][:1]
    dpsi = spec.coefficients[:, :1].T @ hermite_derivative_matrix(spec.basis.sigma, grid.x, 100)
    integrand = dpsi[0] ** 2 + pot(grid.x) * psi[0] ** 2
    e0 = simpson(integrand, grid.dx)
    assert e0 == pytest.approx(0.220496934, abs=1e-7)


def test_parseval_and_momentum_parity():
    # the half-line parts hold the whole state: a + i b matches the full
    # expansion at p and a - i b at -p, and the mirrored rho_p integrates to 1
    spec = well_solve(1.0, 12.0, 0.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 12.0, 0.0)
    e_top = spec.energy(6)
    xgrid, pgrid = build_grid(pot, e_top, 4096), build_momentum_grid(pot, e_top, 4096)
    _, (a, b, _, _) = wavefunctions(spec, xgrid, pgrid)
    a, b = a[:6], b[:6]
    assert np.abs(2.0 * simpson(a * a + b * b, pgrid.dx) - 1.0).max() <= 1e-6
    psi_t, _ = momentum_expansion(spec, mirrored(pgrid), 6)
    half = pgrid.n_points
    assert np.abs(psi_t[:, half:] - (a + 1j * b)).max() <= 1e-10
    assert np.abs(psi_t[:, half::-1] - (a - 1j * b)).max() <= 1e-10


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
    psi_x, (a, b, _, _) = wavefunctions(spec, grid, pgrid)
    # psi(-p) = a - i b: the transform at -p checks the parity as well
    for sign in (1.0, -1.0):
        kernel = np.exp(-1j * np.outer(sign * p_sub, x))
        for n in range(4):
            oracle = kernel @ (w * psi_x[n]) / math.sqrt(2.0 * math.pi)
            mine = a[n, ::16] + sign * 1j * b[n, ::16]
            assert np.abs(mine - oracle).max() <= 1e-7


def test_sampled_states_are_contiguous_rows():
    spec = well_solve(1.0, 12.0, 0.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 12.0, 0.0)
    xgrid = build_grid(pot, spec.energy(4), 1024)
    pgrid = build_momentum_grid(pot, spec.energy(4), 1024)
    psi_x, psi_p = wavefunctions(spec, xgrid, pgrid)
    psi_x, psi_p = psi_x[:5], tuple(r[:5] for r in psi_p)
    for samples, arrays in ((xgrid.x.size, (psi_x,)), (pgrid.x.size, psi_p)):
        for rows in arrays:
            assert rows.shape == (5, samples)
            assert rows.flags.c_contiguous


def test_grid_orthogonality():
    spec = well_solve(1.0, 20.0, 3.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    grid = build_grid(pot, spec.energy(6), 4096)
    psi = wavefunctions(spec, grid, None)[0]
    for m in range(7):
        for n in range(m + 1, 7):
            overlap = simpson(psi[m] * psi[n], grid.dx)
            assert abs(overlap) <= 1e-6


def node_counts(pot, spec, n_states, points):
    """count_nodes of states 0..n_states-1 on a grid up to the top one, as
    (total, effective) pairs."""
    grid = build_grid(pot, spec.energy(n_states - 1), points)
    psi = wavefunctions(spec, grid, None)[0][:n_states]
    geometry = critical_points(pot)
    _, _, mass_left, mass_right = well_occupancy(grid, psi, geometry)
    turning = [turning_points(pot, spec.energy(n)) for n in range(n_states)]
    span = np.array([(tps[0], tps[-1]) for tps in turning])
    return list(zip(*count_nodes(grid, psi, span, geometry, mass_left, mass_right)))


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


@pytest.mark.parametrize("beta", [0.5, 2.0, 5.0, 10.0, 20.0, 30.0])
def test_batched_node_counts_match_the_per_row_reference(beta):
    # single wells (beta 0.5 and the large gammas), deep doublets, and bands
    # of 1, 8 and 30 states, each counted in one call on its report grid
    for gamma in [g / 2.0 for g in range(-4, 15)]:
        pot = QuarticPotential.from_well_params(1.0, beta, gamma)
        geometry = critical_points(pot)
        for n_states in (1, 8, 30):
            spec = solve(pot, 100, n_states)
            grid = build_grid(pot, spec.energy(n_states - 1))
            psi = wavefunctions(spec, grid, None)[0]
            _, _, mass_left, mass_right = well_occupancy(grid, psi, geometry)
            turning = [turning_points(pot, e) for e in spec.energies]
            # the span state_reports takes: the outermost lobe edges, which
            # are the outer turning points
            lobes = [area(pot, e).lobes for e in spec.energies]
            span = np.array([(ls[0].x_lo, ls[-1].x_hi) for ls in lobes])
            assert np.array_equal(span, [(tps[0], tps[-1]) for tps in turning])
            total, effective = count_nodes(grid, psi, span, geometry, mass_left, mass_right)
            assert total.shape == effective.shape == (n_states,)
            want = [
                reference_count_nodes(
                    grid, psi[n], turning[n], geometry, mass_left[n], mass_right[n]
                )
                for n in range(n_states)
            ]
            assert list(zip(total.tolist(), effective.tolist())) == want, (gamma, n_states)


def test_grid_point_minimum_enforced():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        build_grid(pot, 10.0, 100)
    with pytest.raises(ValueError):
        build_momentum_grid(pot, 10.0, 100)
    with pytest.raises(ValueError):
        grid_intervals(511)
    assert grid_intervals(512) == 512


@pytest.mark.parametrize("e_max", [-25.0, -30.0])
def test_momentum_grid_needs_e_max_above_the_minimum(e_max):
    # V = x^4 - 10 x^2 has V_min = -25: no momentum variance to size from
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    with pytest.raises(ValueError) as exc:
        build_momentum_grid(pot, e_max)
    assert str(exc.value) == "e_max lies below the potential minimum"


def test_count_nodes_rejects_complex_rows():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    grid = build_grid(pot, 10.0, 512)
    psi = np.ones((1, grid.n_points + 1), dtype=complex)
    span = np.array([[grid.x0, grid.x_max]])
    with pytest.raises(ValueError) as exc:
        count_nodes(grid, psi, span, critical_points(pot), np.ones(1), np.zeros(1))
    assert str(exc.value) == "count_nodes expects a real wavefunction"


@pytest.mark.parametrize("n", [3, 5, 7, 101, 4097])
def test_simpson_reproduces_scipy_bit_for_bit(rng, n):
    from scipy.integrate import simpson as scipy_simpson

    for _ in range(20):
        y = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8)
        dx = float(rng.uniform(1e-3, 2.0))
        assert simpson(y, dx) == scipy_simpson(y, dx=dx)
    rows = rng.standard_normal((5, n))
    batched = simpson(rows, 0.37)
    assert [float(v) for v in batched] == [scipy_simpson(r, dx=0.37) for r in rows]


@pytest.mark.parametrize("n", [2, 4, 6, 100, 4096])
def test_simpson_rejects_even_sample_counts(n):
    with pytest.raises(ValueError, match="odd sample count"):
        simpson(np.ones(n), 0.1)


def test_probability_below_is_exact_for_a_quadratic_density(rng):
    # Simpson's rule is exact for a quadratic, so a split on a panel
    # boundary integrates exactly on either side; any other split rounds to
    # the nearest boundary, and one outside the grid to its end
    grid = UniformGrid(x0=-1.3, dx=2.6 / 64, n_points=64)
    a, b, c = 0.3, 0.2, 0.5
    rho = a + b * grid.x + c * grid.x**2

    def closed_form(lo, hi):
        return sum(k * (hi**p - lo**p) / p for k, p in ((a, 1), (b, 2), (c, 3)))

    boundaries = grid.x[::2]
    for edge in boundaries:
        below, above = probability_below(grid, rho, edge)
        assert abs(below - closed_form(grid.x0, edge)) <= 1e-13
        assert abs(above - closed_form(edge, grid.x_max)) <= 1e-13
    for s in rng.uniform(grid.x0 - 1.0, grid.x_max + 1.0, 200):
        nearest = boundaries[np.argmin(np.abs(boundaries - s))]
        assert probability_below(grid, rho, s) == probability_below(grid, rho, nearest)
    assert probability_below(grid, rho, grid.x0 - 1.0) == (0.0, simpson(rho, grid.dx))
    assert probability_below(grid, rho, grid.x_max + 1.0) == (simpson(rho, grid.dx), 0.0)


def test_probability_below_grows_past_off_grid_nodes():
    # next to a node of an asymmetric psi the panel quadratic of psi^2 dips
    # below zero; the split moves only whole panels, each with a Simpson
    # value >= 0, so the side below never decreases and the side above
    # never increases
    grid = UniformGrid(x0=0.0, dx=5.0 / 64, n_points=64)
    rho = (np.sin(3.0 * grid.x) * np.exp(0.5 * grid.x)) ** 2
    panels = (rho[:-2:2] + 4.0 * rho[1:-1:2] + rho[2::2]) * grid.dx / 3.0
    below, above = np.array([probability_below(grid, rho, x) for x in grid.x[::2]]).T
    assert below[0] == 0.0 and above[-1] == 0.0
    assert np.allclose(np.diff(below), panels, rtol=1e-12, atol=0.0)
    assert np.allclose(above[:-1], np.cumsum(panels[::-1])[::-1], rtol=1e-12, atol=0.0)
    assert np.diff(below).min() >= 0.0 and np.diff(above).max() <= 0.0


@given(pot=confining_quartics())
def test_probability_below_grows_with_the_split(pot):
    # a step function of the split: constant between two panel midpoints,
    # moving one panel's Simpson value from above to below at each
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 1024)
    psi = wavefunctions(spec, grid, None)[0]
    rho = psi**2
    total = simpson(rho, grid.dx)
    splits = np.linspace(grid.x0, grid.x_max, 1001)
    sides = np.array([probability_below(grid, rho, s) for s in splits])
    below, above = sides[:, 0], sides[:, 1]
    assert np.all(below[0] == 0.0) and np.array_equal(above[0], total)
    assert np.array_equal(below[-1], total) and np.all(above[-1] == 0.0)
    assert np.diff(below, axis=0).min() >= -1e-14
    assert np.diff(above, axis=0).max() <= 1e-14
    assert np.all(np.abs(below + above - total) <= 4 * np.finfo(float).eps * total)
    panel = np.argmin(np.abs(splits[:, None] - grid.x[None, ::2]), axis=1)
    same = panel[1:] == panel[:-1]
    assert np.array_equal(below[1:][same], below[:-1][same])
    assert np.array_equal(above[1:][same], above[:-1][same])


def _check_barrier_on_panel_boundary(pot, e_max, points):
    x_b = critical_points(pot).barrier[0]
    grid = build_grid(pot, e_max, points)
    # the index on the grid's lattice, in or out of the window
    k = round((x_b - grid.x0) / grid.dx)
    assert k % 2 == 0
    assert abs(grid.x0 + k * grid.dx - x_b) <= 8 * np.finfo(float).eps * (
        abs(grid.x0) + abs(grid.x_max) + abs(x_b)
    )
    if 0 <= k <= grid.n_points:
        assert np.argmin(np.abs(grid.x - x_b)) == k
    # the window, moved by at most one interval, still covers every turning point
    tps = turning_points(pot, e_max)
    assert grid.x0 < tps[0] and grid.x_max > tps[-1]


@given(pot=confining_quartics(), lift=st.floats(0.05, 3.0), points=st.integers(512, 2050))
# a right well 6e-302 deep: at energy 0 three turning points lie within
# 1e-100 of the barrier top, where V' and V'' all but vanish, so the padding
# falls back on the quartic's own decay scale
@example(pot=QuarticPotential(1.0, 1.0, 0.0, -2.990141850786371e-201, 0.0), lift=1.0, points=512)
# a barrier 5.2e-17 deep: e_max rounds back to the rounded minimum value,
# which lies 3.5e-18 below V's true minimum, so there is no turning point
@example(pot=QuarticPotential(0.125, 1.9589361106495413e-140, -5.1085410565674846e-09, 0.0, 0.5),
         lift=0.25, points=512)
def test_build_grid_puts_the_barrier_on_a_panel_boundary(pot, lift, points):
    geometry = critical_points(pot)
    assume(geometry.is_double_well)
    v_min = geometry.global_minimum[1]
    e_max = v_min + lift * (geometry.barrier[1] - v_min)
    if not turning_points(pot, e_max):
        with pytest.raises(ValueError, match="e_max lies below the potential minimum"):
            build_grid(pot, e_max, points)
        return
    _check_barrier_on_panel_boundary(pot, e_max, points)


@given(
    beta=st.floats(0.5, 40.0),
    gamma=st.floats(-8.0, 8.0),
    points=st.sampled_from([512, 1024, 2046, 4094, 4096]),
)
def test_well_parameter_grids_put_the_barrier_on_a_panel_boundary(beta, gamma, points):
    pot = QuarticPotential.from_well_params(1.0, beta, gamma)
    geometry = critical_points(pot)
    assume(geometry.is_double_well)
    _check_barrier_on_panel_boundary(pot, geometry.barrier[1] + 1.0, points)


@pytest.mark.parametrize("points", [512, 513, 514, 515, 4094, 4095, 4096, 65533])
def test_every_grid_has_a_multiple_of_4_intervals(points):
    # the half-line then has an even number of intervals, so p = 0 is a
    # panel boundary, and a symmetric well's barrier x = 0 is the middle
    # sample of its window, which stays symmetric to the bit
    for beta in (10.0, 30.0):
        pot = QuarticPotential.from_well_params(1.0, beta, 0.0)
        e_top = well_solve(1.0, beta, 0.0).energy(7)
        grid, pgrid = build_grid(pot, e_top, points), build_momentum_grid(pot, e_top, points)
        assert grid.n_points == grid_intervals(points) == points + (-points % 4)
        assert grid.n_points == 2 * pgrid.n_points
        assert grid.n_points % 4 == 0 and pgrid.n_points % 2 == 0
        assert grid.x0 == -grid.x_max


@given(pot=scalable_pots, lift=st.floats(0.05, 3.0), j=st.integers(-30, 30))
# x^4 - 20 x^2 + 3 x at 2^16, whose windows rounded to a step of 0.01 lost
# the density
@example(pot=QuarticPotential.from_well_params(1.0, 20.0, 3.0), lift=25.0, j=16)
# a window 53 away from the barrier: decay lengths from a power 1/3 (rounded)
# were an ulp apart, which the barrier shift turned into 2.7e-13
@example(pot=QuarticPotential(0.1, 7.024611152931705, 0.47917347317506076, 0.0, 0.0),
         lift=0.47917347317506076, j=-1)
def test_grid_windows_scale_with_the_potential(pot, lift, j):
    # 4^j V(2^j x): turning points, decay lengths, barrier and V_min all
    # scale exactly, so the position grid is V's times 2^-j and the momentum
    # grid V's times 2^j, bit for bit
    scaled = QuarticPotential(
        *(math.ldexp(c, j * (6 - i)) for i, c in enumerate(pot.coefficients))
    )
    e_max = critical_points(pot).global_minimum[1] + lift
    e_scaled = math.ldexp(e_max, 2 * j)
    for build, power in ((build_grid, -j), (build_momentum_grid, j)):
        grid, grid_s = build(pot, e_max, 512), build(scaled, e_scaled, 512)
        assert grid_s == UniformGrid(
            math.ldexp(grid.x0, power), math.ldexp(grid.dx, power), grid.n_points
        )


@given(pot=confining_quartics())
def test_well_occupancy_masses_split_at_the_barrier_sample(pot):
    geometry = critical_points(pot)
    assume(geometry.is_double_well)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 1024)
    psi = wavefunctions(spec, grid, None)[0]
    _, _, below, above = well_occupancy(grid, psi, geometry)
    k = int(np.argmin(np.abs(grid.x - geometry.barrier[0])))
    rho = psi**2
    total = simpson(rho, grid.dx)
    assert np.array_equal(below, simpson(rho[:, : k + 1], grid.dx))
    assert np.array_equal(above, simpson(rho[:, k:], grid.dx))
    assert np.all(np.abs(below + above - total) <= 4 * np.finfo(float).eps * total)
