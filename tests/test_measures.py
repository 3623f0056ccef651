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
    critical_points,
    fisher,
    grid_integral,
    info_measures,
    mirror,
    momentum_functions,
    onicescu,
    os_measure,
    position_functions,
    shannon,
    solve,
    uncertainties,
    well_occupancy,
)
from dwell.wavefunction import GridFunction


def gaussian_density(sigma, points=4096, half_width=9.0):
    """|phi_0(x; sigma)|^2 sampled symmetrically."""
    width = half_width / math.sqrt(2.0 * sigma)
    x = np.linspace(-width, width, points + 1)
    rho = math.sqrt(2.0 * sigma / math.pi) * np.exp(-2.0 * sigma * x * x)
    return GridFunction(x[0], x[1] - x[0], rho)


def gaussian_state(sigma, points=4096, half_width=9.0):
    width = half_width / math.sqrt(2.0 * sigma)
    x = np.linspace(-width, width, points + 1)
    psi = (2.0 * sigma / math.pi) ** 0.25 * np.exp(-sigma * x * x)
    dpsi = -2.0 * sigma * x * psi
    dx = x[1] - x[0]
    return GridFunction(x[0], dx, psi), GridFunction(x[0], dx, dpsi)


def test_gaussian_shannon_closed_form():
    # S = 0.5 ln(pi e / (2 sigma)); sigma = 0.5 gives 0.5 ln(pi e)
    s = shannon(gaussian_density(0.5))
    assert s == pytest.approx(0.5 * math.log(math.pi * math.e), abs=1e-9)


def test_gaussian_fisher_closed_form():
    for sigma in (0.3, 0.5, 1.7):
        psi, dpsi = gaussian_state(sigma)
        assert fisher(psi, dpsi) == pytest.approx(4.0 * sigma, rel=1e-9)


def test_gaussian_onicescu_closed_form():
    # int rho^2 = sqrt(sigma / pi) for rho = sqrt(2 sigma / pi) e^{-2 sigma x^2}
    for sigma in (0.4, 1.0):
        e = onicescu(gaussian_density(sigma))
        assert e == pytest.approx(math.sqrt(sigma / math.pi), rel=1e-9)


def test_oscillator_ground_state_saturates_bounds():
    # position scale sigma and momentum scale 1/(4 sigma) saturate all four
    sigma = 0.8
    s_x = shannon(gaussian_density(sigma))
    s_p = shannon(gaussian_density(1.0 / (4.0 * sigma)))
    assert s_x + s_p == pytest.approx(SHANNON_TOTAL_BOUND, abs=1e-7)
    psi_x, dpsi_x = gaussian_state(sigma)
    psi_p, dpsi_p = gaussian_state(1.0 / (4.0 * sigma))
    assert fisher(psi_x, dpsi_x) * fisher(psi_p, dpsi_p) == pytest.approx(
        FISHER_PRODUCT_BOUND, rel=1e-9
    )
    e_x = onicescu(gaussian_density(sigma))
    e_p = onicescu(gaussian_density(1.0 / (4.0 * sigma)))
    assert e_x * e_p == pytest.approx(ONICESCU_PRODUCT_BOUND, rel=1e-9)
    os_total = os_measure(s_x + s_p, e_x * e_p)
    assert os_total == pytest.approx(OS_TOTAL_BOUND, rel=1e-7)


def test_not_normalized_raises():
    rho = gaussian_density(0.5)
    bad = GridFunction(rho.x0, rho.dx, 1.01 * rho.values)
    with pytest.raises(NotNormalized):
        shannon(bad)
    with pytest.raises(NotNormalized):
        onicescu(bad)


def test_zero_density_regions_are_harmless():
    rho = gaussian_density(0.5)
    vals = rho.values.copy()
    vals[:10] = 0.0
    vals[-10:] = 0.0
    s = shannon(GridFunction(rho.x0, rho.dx, vals))
    assert math.isfinite(s)


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
        rho = psi[:, n] ** 2
        mean = grid_integral(GridFunction.on(grid, x * rho))
        mean2 = grid_integral(GridFunction.on(grid, x * x * rho))
        assert u.mean_x == pytest.approx(mean, abs=1e-8)
        assert u.delta_x == pytest.approx(
            math.sqrt(mean2 - mean * mean), abs=1e-8
        )
        p2 = grid_integral(GridFunction.on(grid, dpsi[:, n] ** 2))
        assert u.delta_p == pytest.approx(math.sqrt(p2), abs=1e-8)


def barrier_split(pot, spec, n_states, points):
    """well_occupancy of states 0..n_states-1 on a grid up to the top one."""
    grid = build_grid(pot, spec.energy(n_states - 1), points)
    psi, _ = position_functions(spec, grid, n_states)
    return well_occupancy(GridFunction.on(grid, psi), critical_points(pot))


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
    for n in range(3):
        for psi, dpsi, g in (
            (GridFunction.on(grid, psi_x[:, n]), GridFunction.on(grid, dpsi_x[:, n]), grid),
            (GridFunction.on(pgrid, psi_p[:, n]), GridFunction.on(pgrid, dpsi_p[:, n]), pgrid),
        ):
            analytic = fisher(psi, dpsi)
            rho = np.abs(psi.values) ** 2
            # 5-point central stencil for rho'
            drho = np.zeros_like(rho)
            drho[2:-2] = (
                rho[:-4] - 8.0 * rho[1:-3] + 8.0 * rho[3:-1] - rho[4:]
            ) / (12.0 * g.dx)
            integrand = np.where(rho > 1e-300, drho**2 / np.maximum(rho, 1e-300), 0.0)
            fd = grid_integral(GridFunction.on(g, integrand))
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
    all_meas = info_measures(
        GridFunction.on(grid, psi_x),
        GridFunction.on(grid, dpsi_x),
        GridFunction.on(pgrid, psi_p),
        GridFunction.on(pgrid, dpsi_p),
    )
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
    x = np.linspace(-width, width, 8193)
    dx = x[1] - x[0]
    psi = (2.0 * sigma / math.pi) ** 0.25 * math.sqrt(2.0 * sigma) * x * np.exp(
        -sigma * x * x
    ) * math.sqrt(2.0)
    rho = GridFunction(x[0], dx, psi**2)
    assert grid_integral(rho) == pytest.approx(1.0, abs=1e-10)
    e1 = onicescu(rho)
    assert e1 * e1 == pytest.approx((9.0 / 16.0) / (2.0 * math.pi), rel=1e-8)
    s1 = shannon(rho)
    assert os_measure(2.0 * s1, e1 * e1) < OS_TOTAL_BOUND


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
        results.append(
            info_measures(
                GridFunction.on(grid, psi_x),
                GridFunction.on(grid, dpsi_x),
                GridFunction.on(pgrid, psi_p),
                GridFunction.on(pgrid, dpsi_p),
            )
        )
    for m_base, m_scaled in zip(*results):
        assert m_scaled.s_total == pytest.approx(m_base.s_total, abs=1e-6)
        assert m_scaled.s_x == pytest.approx(m_base.s_x - math.log(lam), abs=1e-6)
        assert m_scaled.s_p == pytest.approx(m_base.s_p + math.log(lam), abs=1e-6)
