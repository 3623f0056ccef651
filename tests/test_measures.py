import math

import numpy as np
import pytest

from conftest import well_solve
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
    momentum_functions,
    position_functions,
    solve,
    uncertainties,
    well_occupancy,
)
from dwell.measures import classify_occupancy, os_measure
from dwell.wavefunction import simpson


def gaussian_row(sigma, points=4096, half_width=9.0):
    """(grid, psi, dpsi) of phi_0(x; sigma) sampled symmetrically, one row."""
    width = half_width / math.sqrt(2.0 * sigma)
    grid = UniformGrid(-width, 2.0 * width / points, points)
    x = grid.x
    psi = (2.0 * sigma / math.pi) ** 0.25 * np.exp(-sigma * x * x)
    return grid, psi[None], (-2.0 * sigma * x * psi)[None]


def gaussian_measures(sigma):
    """(s_x, s_p, i_x, i_p, e_x, e_p) of the oscillator ground state of
    position scale sigma; its momentum wavefunction is phi_0(p; 1/(4 sigma))."""
    measures = info_measures(*gaussian_row(sigma), *gaussian_row(1.0 / (4.0 * sigma)))
    return tuple(float(value) for (value,) in measures)


def test_gaussian_shannon_closed_form():
    # S = 0.5 ln(pi e / (2 sigma)); sigma = 0.5 gives 0.5 ln(pi e) in both spaces
    s_x, s_p, *_ = gaussian_measures(0.5)
    assert s_x == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)
    assert s_p == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)


def test_gaussian_fisher_closed_form():
    for sigma in (0.3, 0.5, 1.7):
        _, _, i_x, i_p, _, _ = gaussian_measures(sigma)
        assert i_x == pytest.approx(4.0 * sigma, rel=1e-9)
        assert i_p == pytest.approx(1.0 / sigma, rel=1e-9)


def test_gaussian_onicescu_closed_form():
    # int rho^2 = sqrt(sigma / pi) for rho = sqrt(2 sigma / pi) e^{-2 sigma x^2}
    for sigma in (0.4, 1.0):
        *_, e_x, e_p = gaussian_measures(sigma)
        assert e_x == pytest.approx(math.sqrt(sigma / math.pi), rel=1e-9)
        assert e_p == pytest.approx(math.sqrt(0.25 / (sigma * math.pi)), rel=1e-9)


def test_oscillator_ground_state_saturates_bounds():
    # position scale sigma and momentum scale 1/(4 sigma) saturate all four
    s_x, s_p, i_x, i_p, e_x, e_p = gaussian_measures(0.8)
    assert s_x + s_p == pytest.approx(SHANNON_TOTAL_BOUND, abs=1e-7)
    assert i_x * i_p == pytest.approx(FISHER_PRODUCT_BOUND, rel=1e-9)
    assert e_x * e_p == pytest.approx(ONICESCU_PRODUCT_BOUND, rel=1e-9)
    assert os_measure(s_x + s_p, e_x * e_p) == pytest.approx(OS_TOTAL_BOUND, rel=1e-7)


def test_not_normalized_raises():
    grid, psi, dpsi = gaussian_row(0.5)
    bad = (grid, 1.01**0.5 * psi, 1.01**0.5 * dpsi)
    with pytest.raises(NotNormalized):
        info_measures(*bad, grid, psi, dpsi)
    with pytest.raises(NotNormalized):
        info_measures(grid, psi, dpsi, *bad)


def test_zero_density_regions_are_harmless():
    grid, psi, dpsi = gaussian_row(0.5)
    for rows in (psi, dpsi):
        rows[:, :10] = 0.0
        rows[:, -10:] = 0.0
    (s_x,), _, (i_x,), *_ = info_measures(grid, psi, dpsi, grid, psi, dpsi)
    assert math.isfinite(s_x)
    assert math.isfinite(i_x)


def test_mean_x_vanishes_for_symmetric_wells():
    spec = well_solve(1.0, 20.0, 0.0)
    mean_x, _, _ = uncertainties(spec, 6)
    assert len(mean_x) == 6
    for m in mean_x:
        assert abs(m) <= 1e-10


def test_mirror_flips_mean_x_only():
    pot = QuarticPotential.from_well_params(1.0, 14.0, 2.0)
    spec = solve(pot, 100, 6)
    spec_m = solve(mirror(pot), 100, 6)
    mean_x, delta_x, delta_p = uncertainties(spec, 6)
    mean_x_m, delta_x_m, delta_p_m = uncertainties(spec_m, 6)
    assert mean_x_m == pytest.approx(-mean_x, abs=1e-10)
    assert delta_x_m == pytest.approx(delta_x, rel=1e-10)
    assert delta_p_m == pytest.approx(delta_p, rel=1e-10)


def test_algebraic_moments_match_grid_quadrature():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    x = grid.x
    psi, dpsi = position_functions(spec, grid, 2)
    for n, (mean_x, delta_x, delta_p) in enumerate(zip(*uncertainties(spec, 2), strict=True)):
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
    psi, _ = position_functions(spec, grid, n_states)
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


def test_fisher_analytic_matches_finite_differences():
    pot = QuarticPotential.from_well_params(1.0, 15.0, 2.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    pgrid = build_momentum_grid(pot, spec.energy(3), 4096)
    psi_x, dpsi_x = position_functions(spec, grid, 3)
    psi_p, dpsi_p = momentum_functions(spec, pgrid, 3)
    _, _, i_x, i_p, _, _ = info_measures(grid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
    assert len(i_x) == len(i_p) == 3
    for n in range(3):
        for psi, analytic, g in ((psi_x[n], i_x[n], grid), (psi_p[n], i_p[n], pgrid)):
            rho = np.abs(psi) ** 2
            # 5-point central stencil for rho'
            drho = np.zeros_like(rho)
            drho[2:-2] = (
                rho[:-4] - 8.0 * rho[1:-3] + 8.0 * rho[3:-1] - rho[4:]
            ) / (12.0 * g.dx)
            integrand = np.where(rho > 1e-300, drho**2 / np.maximum(rho, 1e-300), 0.0)
            fd = simpson(integrand, g.dx)
            assert analytic == pytest.approx(fd, rel=1e-5)


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
    psi_x, dpsi_x = position_functions(spec, grid, 4)
    psi_p, dpsi_p = momentum_functions(spec, pgrid, 4)
    s_x, s_p, i_x, i_p, e_x, e_p = info_measures(grid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
    _, delta_x, delta_p = uncertainties(spec, 4)
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
    x = grid.x
    norm = (2.0 * sigma / math.pi) ** 0.25 * math.sqrt(2.0 * sigma) * math.sqrt(2.0)
    psi = norm * x * np.exp(-sigma * x * x)
    dpsi = norm * (1.0 - 2.0 * sigma * x * x) * np.exp(-sigma * x * x)
    assert simpson(psi**2, grid.dx) == pytest.approx(1.0, abs=1e-10)
    # at sigma = 1/2 the momentum wavefunction is -i times the same function
    (s_x,), (s_p,), _, _, (e_x,), (e_p,) = info_measures(
        grid, psi[None], dpsi[None], grid, -1j * psi[None], -1j * dpsi[None]
    )
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
        psi_x, dpsi_x = position_functions(spec, grid, 2)
        psi_p, dpsi_p = momentum_functions(spec, pgrid, 2)
        results.append(info_measures(grid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p))
    (s_x, s_p, *_), (s_x_scaled, s_p_scaled, *_) = results
    assert len(s_x) == len(s_x_scaled) == 2
    for n in range(2):
        assert s_x_scaled[n] + s_p_scaled[n] == pytest.approx(s_x[n] + s_p[n], abs=1e-6)
        assert s_x_scaled[n] == pytest.approx(s_x[n] - math.log(lam), abs=1e-6)
        assert s_p_scaled[n] == pytest.approx(s_p[n] + math.log(lam), abs=1e-6)
