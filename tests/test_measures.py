import math

import numpy as np
import pytest

from conftest import hermite_derivative_matrix, mirrored, momentum_expansion, well_solve
from dwell import (
    FISHER_PRODUCT_BOUND,
    ONICESCU_PRODUCT_BOUND,
    OS_TOTAL_BOUND,
    SHANNON_TOTAL_BOUND,
    NotNormalized,
    Occupancy,
    QuarticPotential,
    build_grid,
    build_momentum_grid,
    UniformGrid,
    critical_points,
    info_measures,
    mirror,
    solve,
    state_reports,
    uncertainties,
    wavefunctions,
    well_occupancy,
)
from dwell.cli import resolve_potential
from dwell.measures import classify_occupancy, os_measure
from dwell.wavefunction import simpson


def gaussian(sigma, x):
    """phi_0(x; sigma) and its derivative at the points x, one row each."""
    psi = (2.0 * sigma / math.pi) ** 0.25 * np.exp(-sigma * x * x)
    return psi[None], (-2.0 * sigma * x * psi)[None]


def gaussian_grid(sigma, points=4096, half_width=9.0):
    """A grid symmetric about 0 that holds phi_0(x; sigma)."""
    width = half_width / math.sqrt(2.0 * sigma)
    return UniformGrid(-width, 2.0 * width / points, points)


def gaussian_row(sigma):
    """(grid, psi, dpsi) of phi_0(x; sigma) sampled symmetrically, one row."""
    grid = gaussian_grid(sigma)
    return grid, *gaussian(sigma, grid.x)


def gaussian_half_line(sigma):
    """(grid, (a, b, da, db)) of phi_0(p; sigma) as momentum parts on the
    p >= 0 half of `gaussian_grid`'s window: a real, even state, so b = 0."""
    window = gaussian_grid(sigma)
    grid = UniformGrid(0.0, window.dx, window.n_points // 2)
    a, da = gaussian(sigma, grid.x)
    return grid, (a, np.zeros_like(a), da, np.zeros_like(da))


def gaussian_measures(sigma):
    """(s_x, s_p, i_p, e_x, e_p) of the oscillator ground state of position
    scale sigma; its momentum wavefunction is phi_0(p; 1/(4 sigma))."""
    grid, psi, _ = gaussian_row(sigma)
    measures = info_measures(grid, psi, *gaussian_half_line(1.0 / (4.0 * sigma)))
    return tuple(float(value) for (value,) in measures)


def test_gaussian_shannon_closed_form():
    # S = 0.5 ln(pi e / (2 sigma)); sigma = 0.5 gives 0.5 ln(pi e) in both spaces
    s_x, s_p, *_ = gaussian_measures(0.5)
    assert s_x == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)
    assert s_p == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)


def test_gaussian_fisher_closed_form():
    for sigma in (0.3, 0.5, 1.7):
        _, _, i_p, _, _ = gaussian_measures(sigma)
        assert i_p == pytest.approx(1.0 / sigma, rel=1e-9)


def test_gaussian_onicescu_closed_form():
    # int rho^2 = sqrt(sigma / pi) for rho = sqrt(2 sigma / pi) e^{-2 sigma x^2}
    for sigma in (0.4, 1.0):
        *_, e_x, e_p = gaussian_measures(sigma)
        assert e_x == pytest.approx(math.sqrt(sigma / math.pi), rel=1e-9)
        assert e_p == pytest.approx(math.sqrt(0.25 / (sigma * math.pi)), rel=1e-9)


def test_oscillator_ground_state_saturates_bounds():
    # position scale sigma and momentum scale 1/(4 sigma) saturate all four;
    # I_x = 4 <p^2> = 4 sigma
    s_x, s_p, i_p, e_x, e_p = gaussian_measures(0.8)
    assert s_x + s_p == pytest.approx(SHANNON_TOTAL_BOUND, abs=1e-7)
    assert 4.0 * 0.8 * i_p == pytest.approx(FISHER_PRODUCT_BOUND, rel=1e-9)
    assert e_x * e_p == pytest.approx(ONICESCU_PRODUCT_BOUND, rel=1e-9)
    assert os_measure(s_x + s_p, e_x * e_p) == pytest.approx(OS_TOTAL_BOUND, rel=1e-7)


def test_not_normalized_raises():
    grid, psi, _ = gaussian_row(0.5)
    pgrid, (a, b, da, db) = gaussian_half_line(0.5)
    with pytest.raises(NotNormalized,
                       match=r"^the position density of state 0 integrates to 1\.01"):
        info_measures(grid, 1.01**0.5 * psi, pgrid, (a, b, da, db))
    with pytest.raises(NotNormalized,
                       match=r"^the momentum density of state 0 integrates to 1\.01"):
        info_measures(grid, psi, pgrid, (1.01**0.5 * a, b, 1.01**0.5 * da, db))
    # the message names the first row, that is the state, whose density fails
    two = np.concatenate([psi, 1.01**0.5 * psi])
    p_two = tuple(np.concatenate([part, part]) for part in (a, b, da, db))
    with pytest.raises(NotNormalized, match=r"^the position density of state 1 integrates to "):
        info_measures(grid, two, pgrid, p_two)


def test_zero_density_regions_are_harmless():
    grid, psi, _ = gaussian_row(0.5)
    pgrid, (a, b, da, db) = gaussian_half_line(0.5)
    psi[:, :10] = 0.0
    psi[:, -10:] = 0.0
    # the half-line's outer end stands for both ends of the p window
    for rows in (a, da):
        rows[:, -10:] = 0.0
    (s_x,), _, (i_p,), *_ = info_measures(grid, psi, pgrid, (a, b, da, db))
    assert math.isfinite(s_x)
    assert math.isfinite(i_p)


def test_mean_x_vanishes_for_symmetric_wells():
    spec = well_solve(1.0, 20.0, 0.0)
    mean_x = uncertainties(spec)[0][:6]
    assert len(mean_x) == 6
    for m in mean_x:
        assert abs(m) <= 1e-10


def test_mirror_flips_mean_x_only():
    pot = QuarticPotential.from_well_params(1.0, 14.0, 2.0)
    spec = solve(pot, 100, 6)
    spec_m = solve(mirror(pot), 100, 6)
    mean_x, delta_x, delta_p = uncertainties(spec)
    mean_x_m, delta_x_m, delta_p_m = uncertainties(spec_m)
    assert mean_x_m == pytest.approx(-mean_x, abs=1e-10)
    assert delta_x_m == pytest.approx(delta_x, rel=1e-10)
    assert delta_p_m == pytest.approx(delta_p, rel=1e-10)


def test_algebraic_moments_match_grid_quadrature():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    x = grid.x
    psi = wavefunctions(spec, grid, None)[0][:2]
    dpsi = spec.coefficients[:, :2].T @ hermite_derivative_matrix(spec.basis.sigma, x, 100)
    moments = (m[:2] for m in uncertainties(spec))
    for n, (mean_x, delta_x, delta_p) in enumerate(zip(*moments, strict=True)):
        rho = psi[n] ** 2
        mean = simpson(x * rho, grid.dx)
        mean2 = simpson(x * x * rho, grid.dx)
        assert mean_x == pytest.approx(mean, abs=1e-8)
        assert delta_x == pytest.approx(
            math.sqrt(mean2 - mean * mean), abs=1e-8
        )
        p2 = simpson(dpsi[n] ** 2, grid.dx)
        assert delta_p == pytest.approx(math.sqrt(p2), abs=1e-8)


def barrier_split(pot, spec, n_states, points):
    """well_occupancy of states 0..n_states-1 on a grid up to the top one:
    (p_well_I, p_well_II, mass_left, mass_right)."""
    grid = build_grid(pot, spec.energy(n_states - 1), points)
    psi = wavefunctions(spec, grid, None)[0][:n_states]
    return well_occupancy(grid, psi, critical_points(pot))


def test_well_occupancy_symmetric_split():
    spec = well_solve(1.0, 20.0, 0.0)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 0.0)
    p_i, p_ii, _, _ = barrier_split(pot, spec, 6, 4096)
    assert len(p_i) == len(p_ii) == 6
    for a, b in zip(p_i, p_ii):
        assert a == pytest.approx(0.5, abs=1e-6)
        assert a + b == pytest.approx(1.0, abs=1e-8)
        assert classify_occupancy(a) is Occupancy.BOTH


def test_well_occupancy_localized_states():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 1.0)
    spec = solve(pot, 100, 6)
    p_i = barrier_split(pot, spec, 6, 4096)[0]
    assert classify_occupancy(p_i[1]) is Occupancy.WELL_II
    assert classify_occupancy(p_i[0]) is Occupancy.WELL_I
    pot3 = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec3 = solve(pot3, 100, 6)
    assert classify_occupancy(barrier_split(pot3, spec3, 6, 4096)[0][3]) is Occupancy.WELL_I


def test_single_well_occupancy():
    pot = QuarticPotential.from_well_params(1.0, 1.0, 10.0)
    spec = solve(pot, 100, 4)
    p_i, p_ii, mass_left, mass_right = barrier_split(pot, spec, 4, 2048)
    assert p_i[0] == 1.0
    assert classify_occupancy(p_i[0]) is Occupancy.WELL_I
    assert np.all(p_i == 1.0) and np.all(p_ii == 0.0)
    assert np.all(np.isnan(mass_left)) and np.all(np.isnan(mass_right))


def test_well_probabilities_lie_in_the_unit_interval():
    # the rows of `sweep --alpha 1 --beta 5,10,15,20,25,30 --gamma 0:7:0.25
    # --states 8`: a probability taken as 1 minus the other read
    # 1.0000000000000002 and -2.2e-16 in 39 of them, the first at beta 15,
    # gamma 7, n 0; each side's own panel sum keeps the smaller one at its
    # relative precision
    for beta in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        for gamma in (0.25 * i for i in range(29)):
            pot = resolve_potential(1.0, beta, gamma, "auto")
            spec = solve(pot, 100, 8)
            grid = build_grid(pot, spec.energy(7), 4096)
            psi = wavefunctions(spec, grid, None)[0]
            geometry = critical_points(pot)
            p_i, p_ii, _, _ = well_occupancy(grid, psi, geometry)
            assert np.all((p_i >= 0.0) & (p_i <= 1.0) & (p_ii >= 0.0) & (p_ii <= 1.0))
            if not geometry.is_double_well:
                continue
            rho = psi**2
            k = int(np.argmin(np.abs(grid.x - geometry.barrier[0])))
            sides = np.array([simpson(rho[:, : k + 1], grid.dx), simpson(rho[:, k:], grid.dx)])
            smaller = sides.min(axis=0) / simpson(rho, grid.dx)
            assert np.allclose(np.minimum(p_i, p_ii), smaller, rtol=1e-12, atol=0.0)
            if (beta, gamma) == (15.0, 7.0):
                assert p_i[0] == 1.0 and 0.0 < p_ii[0] < 1e-16


def test_fisher_analytic_matches_finite_differences():
    pot = QuarticPotential.from_well_params(1.0, 15.0, 2.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    pgrid = build_momentum_grid(pot, spec.energy(3), 4096)
    psi_x, psi_p = wavefunctions(spec, grid, pgrid)
    psi_x, (a, b, da, db) = psi_x[:3], tuple(r[:3] for r in psi_p)
    _, _, i_p, _, _ = info_measures(grid, psi_x, pgrid, (a, b, da, db))
    i_x = 4.0 * uncertainties(spec)[2][:3] ** 2
    assert len(i_x) == len(i_p) == 3
    # rho_p is even: the half-line and its mirror image give the window
    rho_p = a * a + b * b
    rho_p = np.concatenate([rho_p[:, :0:-1], rho_p], axis=1)
    for n in range(3):
        for rho, analytic, g in ((psi_x[n] ** 2, i_x[n], grid), (rho_p[n], i_p[n], pgrid)):
            # 5-point central stencil for rho'
            drho = np.zeros_like(rho)
            drho[2:-2] = (
                rho[:-4] - 8.0 * rho[1:-3] + 8.0 * rho[3:-1] - rho[4:]
            ) / (12.0 * g.dx)
            integrand = np.where(rho > 1e-300, drho**2 / np.maximum(rho, 1e-300), 0.0)
            fd = simpson(integrand, g.dx)
            assert analytic == pytest.approx(fd, rel=1e-5)


@pytest.mark.parametrize("points", [4094, 4096, 514])
@pytest.mark.parametrize("beta, gamma", [(30.0, 0.0), (10.0, 1.5)])
def test_half_line_integrals_match_the_full_window(points, beta, gamma):
    # 4094 and 514 intervals round up to 4096 and 516, so at every size the
    # half-line has an even number of intervals and p = 0 is a panel
    # boundary: twice the half-line's Simpson sum is the full window's.  The
    # full window is Simpson over the mirrored samples of an independent
    # complex evaluation, node rule and all
    pot = QuarticPotential.from_well_params(1.0, beta, gamma)
    spec = well_solve(1.0, beta, gamma)
    e_top = spec.energy(7)
    xgrid, pgrid = build_grid(pot, e_top, points), build_momentum_grid(pot, e_top, points)
    psi_x, psi_p = wavefunctions(spec, xgrid, pgrid)
    _, s_p, i_p, _, e_p = info_measures(xgrid, psi_x, pgrid, psi_p)
    a, b, _, _ = psi_p
    psi, dpsi = momentum_expansion(spec, mirrored(pgrid), 8)
    rho = np.abs(psi) ** 2
    drho = 2.0 * np.real(np.conj(psi) * dpsi)
    node = rho <= np.finfo(float).eps ** 2 * rho.max(axis=1, keepdims=True)
    fisher = np.where(node, 4.0 * np.abs(dpsi) ** 2, drho * drho / np.where(node, 1.0, rho))
    for got, integrand in (
        (2.0 * simpson(a * a + b * b, pgrid.dx), rho),
        (s_p, -rho * np.log(np.where(rho > 0.0, rho, 1.0))),
        (e_p, rho * rho),
        (i_p, fisher),
    ):
        np.testing.assert_allclose(got, simpson(integrand, pgrid.dx), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("beta, gamma", [(20.0, 0.5), (20.0, 3.5), (10.0, 0.5)])
def test_suppressed_well_probabilities_hold_their_precision_at_the_default_grid(beta, gamma):
    # each side of the split is its own sum of Simpson panels, so a
    # suppressed well's probability, down to 2e-21 here, keeps its relative
    # precision: at 4096 intervals every such cell lies within 9.6e-8 of a
    # 65536-interval evaluation of the same solve, where a trapezoid sum
    # misses them by up to 3.2e-4
    pot = QuarticPotential.from_well_params(1.0, beta, gamma)
    spec = well_solve(1.0, beta, gamma)
    geometry = critical_points(pot)
    cells = []
    for points in (4096, 65536):
        grid = build_grid(pot, spec.energy(7), points)
        psi_x = wavefunctions(spec, grid, None)[0]
        cells.append(np.concatenate(well_occupancy(grid, psi_x, geometry)[:2]))
    small = cells[1] < 1e-6
    assert small.any()
    np.testing.assert_allclose(cells[0][small], cells[1][small], rtol=1e-6, atol=0.0)


def test_bound_suite_at_localized_point():
    """At beta=20, gamma=3 the uncertainty, Shannon and Fisher bounds hold for
    n = 0..3.  The Onicescu and composite constants are Gaussian values, not
    theorems; here they hold for the localized, effectively nodeless states
    (a nodeless state spread over both wells, like the symmetric ground
    state, sits at 3/4 of the Onicescu value)."""
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec = solve(pot, 100, 5)
    grid = build_grid(pot, spec.energy(4), 4096)
    pgrid = build_momentum_grid(pot, spec.energy(4), 4096)
    psi_x, psi_p = wavefunctions(spec, grid, pgrid)
    psi_x, psi_p = psi_x[:4], tuple(r[:4] for r in psi_p)
    s_x, s_p, i_p, e_x, e_p = info_measures(grid, psi_x, pgrid, psi_p)
    _, delta_x, delta_p = (m[:4] for m in uncertainties(spec))
    i_x = 4.0 * delta_p**2
    assert len(s_x) == len(delta_x) == 4
    for n in range(4):
        assert delta_x[n] * delta_p[n] >= 0.5 - 1e-9
        assert s_x[n] + s_p[n] >= SHANNON_TOTAL_BOUND - 1e-6
        assert i_x[n] * i_p[n] >= FISHER_PRODUCT_BOUND - 1e-6
        if n in (0, 2):  # the two nodeless well-ground states
            assert e_x[n] * e_p[n] >= ONICESCU_PRODUCT_BOUND - 1e-6
            assert os_measure(s_x[n] + s_p[n], e_x[n] * e_p[n]) >= OS_TOTAL_BOUND - 1e-6


def test_excited_oscillator_state_breaks_quadratic_density_bounds():
    """phi_1 gives E_x E_p = (9/16)/(2 pi): the quadratic-density 'bounds'
    are values the Gaussian takes, and the first excited state falls below
    both."""
    sigma = 0.5
    width = 12.0
    grid = UniformGrid(-width, 2.0 * width / 8192, 8192)
    norm = (2.0 * sigma / math.pi) ** 0.25 * math.sqrt(2.0 * sigma) * math.sqrt(2.0)

    def phi_1(x):
        return (norm * x * np.exp(-sigma * x * x))[None], (
            norm * (1.0 - 2.0 * sigma * x * x) * np.exp(-sigma * x * x)
        )[None]

    psi, _ = phi_1(grid.x)
    assert simpson(psi**2, grid.dx) == pytest.approx(1.0, abs=1e-10)
    # at sigma = 1/2 the momentum wavefunction is -i times the same function:
    # a = 0 and b = -phi_1 on the half-line
    pgrid = UniformGrid(0.0, grid.dx, grid.n_points // 2)
    b, db = phi_1(pgrid.x)
    zero = np.zeros_like(b)
    (s_x,), (s_p,), _, (e_x,), (e_p,) = info_measures(grid, psi, pgrid, (zero, -b, zero, -db))
    assert e_x * e_p == pytest.approx((9.0 / 16.0) / (2.0 * math.pi), rel=1e-8)
    assert os_measure(s_x + s_p, e_x * e_p) < OS_TOTAL_BOUND


def test_scaling_invariance_of_total_shannon():
    lam = 1.3
    base = QuarticPotential.from_well_params(1.0, 12.0, 2.0)
    scaled = QuarticPotential.from_well_params(lam**6, lam**4 * 12.0, lam**3 * 2.0)
    results = []
    for pot in (base, scaled):
        spec = solve(pot, 100, 3)
        grid = build_grid(pot, spec.energy(2), 4096)
        pgrid = build_momentum_grid(pot, spec.energy(2), 4096)
        psi_x, psi_p = wavefunctions(spec, grid, pgrid)
        psi_x, psi_p = psi_x[:2], tuple(r[:2] for r in psi_p)
        results.append(info_measures(grid, psi_x, pgrid, psi_p))
    (s_x, s_p, *_), (s_x_scaled, s_p_scaled, *_) = results
    assert len(s_x) == len(s_x_scaled) == 2
    for n in range(2):
        assert s_x_scaled[n] + s_p_scaled[n] == pytest.approx(s_x[n] + s_p[n], abs=1e-6)
        assert s_x_scaled[n] == pytest.approx(s_x[n] - math.log(lam), abs=1e-6)
        assert s_p_scaled[n] == pytest.approx(s_p[n] + math.log(lam), abs=1e-6)


@pytest.mark.parametrize("beta", [5.0, 10.0, 20.0, 30.0])
def test_fisher_matches_moments_with_nodes_on_samples(beta):
    """The report's I_x is 4 <p^2> from the band; on the grid it is the
    Simpson integral of 4 psi'^2, with psi' from the derivative matrix, at
    gamma 0 and 3.3.  At gamma 0 each odd state has a node on a sample:
    x = 0 on the symmetric x grid, p = 0 on the p grid.  There rho'^2 / rho
    tends to 4 |psi'|^2, and the momentum Fisher integral keeps its moment
    identity I_p = 4 <x^2> (parity states)."""
    for gamma in (0.0, 3.3):
        pot = QuarticPotential.from_well_params(1.0, beta, gamma)
        spec = well_solve(1.0, beta, gamma)
        reports = state_reports(pot, n_states=8)
        grid = build_grid(pot, spec.energy(7), 4096)
        c = spec.coefficients[:, :8]
        dpsi = c.T @ hermite_derivative_matrix(spec.basis.sigma, grid.x, spec.n_basis)
        i_x = np.array([r.i_x for r in reports])
        np.testing.assert_allclose(4.0 * simpson(dpsi * dpsi, grid.dx), i_x, rtol=1e-9, atol=0.0)
        if gamma == 0.0:
            i_p, mean_x, delta_x = (np.array([getattr(r, k) for r in reports])
                                    for k in ("i_p", "mean_x", "delta_x"))
            np.testing.assert_allclose(i_p, 4.0 * (delta_x**2 + mean_x**2), rtol=1e-12, atol=0.0)
