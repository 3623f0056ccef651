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
from dwell.wavefunction import simpson


def gaussian_row(sigma, points=4096, half_width=9.0):
    """(grid, psi, dpsi) of phi_0(x; sigma) sampled symmetrically, one row."""
    width = half_width / math.sqrt(2.0 * sigma)
    grid = UniformGrid(-width, 2.0 * width / points, points)
    x = grid.x
    psi = (2.0 * sigma / math.pi) ** 0.25 * np.exp(-sigma * x * x)
    return grid, psi[None], (-2.0 * sigma * x * psi)[None]


def gaussian_measures(sigma):
    """Measures of the oscillator ground state of position scale sigma; its
    momentum wavefunction is phi_0(p; 1/(4 sigma))."""
    (meas,) = info_measures(*gaussian_row(sigma), *gaussian_row(1.0 / (4.0 * sigma)))
    return meas


def test_gaussian_shannon_closed_form():
    # S = 0.5 ln(pi e / (2 sigma)); sigma = 0.5 gives 0.5 ln(pi e) in both spaces
    meas = gaussian_measures(0.5)
    assert meas.s_x == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)
    assert meas.s_p == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)


def test_gaussian_fisher_closed_form():
    for sigma in (0.3, 0.5, 1.7):
        meas = gaussian_measures(sigma)
        assert meas.i_x == pytest.approx(4.0 * sigma, rel=1e-9)
        assert meas.i_p == pytest.approx(1.0 / sigma, rel=1e-9)


def test_gaussian_onicescu_closed_form():
    # int rho^2 = sqrt(sigma / pi) for rho = sqrt(2 sigma / pi) e^{-2 sigma x^2}
    for sigma in (0.4, 1.0):
        meas = gaussian_measures(sigma)
        assert meas.e_x == pytest.approx(math.sqrt(sigma / math.pi), rel=1e-9)
        assert meas.e_p == pytest.approx(math.sqrt(0.25 / (sigma * math.pi)), rel=1e-9)


def test_oscillator_ground_state_saturates_bounds():
    # position scale sigma and momentum scale 1/(4 sigma) saturate all four
    meas = gaussian_measures(0.8)
    assert meas.s_total == pytest.approx(SHANNON_TOTAL_BOUND, abs=1e-7)
    assert meas.i_product == pytest.approx(FISHER_PRODUCT_BOUND, rel=1e-9)
    assert meas.e_product == pytest.approx(ONICESCU_PRODUCT_BOUND, rel=1e-9)
    assert meas.os_total == pytest.approx(OS_TOTAL_BOUND, rel=1e-7)


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
    (meas,) = info_measures(grid, psi, dpsi, grid, psi, dpsi)
    assert math.isfinite(meas.s_x)
    assert math.isfinite(meas.i_x)


def test_mean_x_vanishes_for_symmetric_wells():
    spec = well_solve(1.0, 20.0, 0.0)
    for u in uncertainties(spec, 6):
        assert abs(u.mean_x) <= 1e-10


def test_mirror_flips_mean_x_only():
    pot = QuarticPotential.from_well_params(1.0, 14.0, 2.0)
    spec = solve(pot, 100, 6)
    spec_m = solve(mirror(pot), 100, 6)
    for u, um in zip(uncertainties(spec, 6), uncertainties(spec_m, 6)):
        assert um.mean_x == pytest.approx(-u.mean_x, abs=1e-10)
        assert um.delta_x == pytest.approx(u.delta_x, rel=1e-10)
        assert um.delta_p == pytest.approx(u.delta_p, rel=1e-10)


def test_algebraic_moments_match_grid_quadrature():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    x = grid.x
    psi, dpsi = position_functions(spec, grid, 2)
    for n, u in enumerate(uncertainties(spec, 2)):
        rho = psi[n] ** 2
        mean = simpson(x * rho, grid.dx)
        mean2 = simpson(x * x * rho, grid.dx)
        assert u.mean_x == pytest.approx(mean, abs=1e-8)
        assert u.delta_x == pytest.approx(
            math.sqrt(mean2 - mean * mean), abs=1e-8
        )
        p2 = simpson(dpsi[n] ** 2, grid.dx)
        assert u.delta_p == pytest.approx(math.sqrt(p2), abs=1e-8)


def barrier_split(pot, spec, n_states, points):
    """well_occupancy of states 0..n_states-1 on a grid up to the top one."""
    grid = build_grid(pot, spec.energy(n_states - 1), points)
    psi, _ = position_functions(spec, grid, n_states)
    return well_occupancy(grid, psi, critical_points(pot))


def test_well_occupancy_symmetric_split():
    spec = well_solve(1.0, 20.0, 0.0)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 0.0)
    occs = barrier_split(pot, spec, 6, 4096)
    assert len(occs) == 6
    for occ in occs:
        assert occ.p_well_I == pytest.approx(0.5, abs=1e-6)
        assert occ.p_well_I + occ.p_well_II == pytest.approx(1.0, abs=1e-8)
        assert occ.classification is Occupancy.BOTH


def test_well_occupancy_localized_states():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 1.0)
    spec = solve(pot, 100, 6)
    occs = barrier_split(pot, spec, 6, 4096)
    assert occs[1].classification is Occupancy.WELL_II
    assert occs[0].classification is Occupancy.WELL_I
    pot3 = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec3 = solve(pot3, 100, 6)
    assert barrier_split(pot3, spec3, 6, 4096)[3].classification is Occupancy.WELL_I


def test_single_well_occupancy():
    pot = QuarticPotential.from_well_params(1.0, 1.0, 10.0)
    spec = solve(pot, 100, 4)
    occ = barrier_split(pot, spec, 4, 2048)[0]
    assert occ.p_well_I == 1.0
    assert occ.classification is Occupancy.WELL_I


def test_fisher_analytic_matches_finite_differences():
    pot = QuarticPotential.from_well_params(1.0, 15.0, 2.0)
    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    pgrid = build_momentum_grid(pot, spec.energy(3), 4096)
    psi_x, dpsi_x = position_functions(spec, grid, 3)
    psi_p, dpsi_p = momentum_functions(spec, pgrid, 3)
    all_meas = info_measures(grid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
    for n, meas in enumerate(all_meas):
        for psi, analytic, g in ((psi_x[n], meas.i_x, grid), (psi_p[n], meas.i_p, pgrid)):
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
    all_meas = info_measures(grid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
    for n, (meas, unc) in enumerate(zip(all_meas, uncertainties(spec, 4))):
        assert unc.product >= 0.5 - 1e-9
        assert meas.s_total >= SHANNON_TOTAL_BOUND - 1e-6
        assert meas.i_product >= FISHER_PRODUCT_BOUND - 1e-6
        if n in (0, 2):  # the two nodeless well-ground states
            assert meas.e_product >= ONICESCU_PRODUCT_BOUND - 1e-6
            assert meas.os_total >= OS_TOTAL_BOUND - 1e-6


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
    (meas,) = info_measures(
        grid, psi[None], dpsi[None], grid, -1j * psi[None], -1j * dpsi[None]
    )
    assert meas.e_product == pytest.approx((9.0 / 16.0) / (2.0 * math.pi), rel=1e-8)
    assert meas.os_total < OS_TOTAL_BOUND


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
    for m_base, m_scaled in zip(*results):
        assert m_scaled.s_total == pytest.approx(m_base.s_total, abs=1e-6)
        assert m_scaled.s_x == pytest.approx(m_base.s_x - math.log(lam), abs=1e-6)
        assert m_scaled.s_p == pytest.approx(m_base.s_p + math.log(lam), abs=1e-6)
