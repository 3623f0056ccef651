import math

import numpy as np
import pytest
from hypothesis import given

from conftest import confining_quartics, ladder_moments
from dwell import (
    NotNormalized,
    QuarticPotential,
    WellSide,
    build_grid,
    build_momentum_grid,
    count_nodes,
    critical_points,
    mirror,
    momentum_functions,
    position_functions,
    solve,
    state_reports,
    turning_points,
)
from dwell.phasespace import DEFAULT_QUAD_NODES
from dwell.wavefunction import hermite_functions, probability_below, simpson


def test_reports_accept_precomputed_spectrum():
    pot = QuarticPotential.from_well_params(1.0, 12.0, 1.0)
    spec = solve(pot, 100, 4)
    fresh = state_reports(pot, n_states=4, grid_points=1024)
    reused = state_reports(pot, n_states=4, grid_points=1024, spectrum=spec)
    for a, b in zip(fresh, reused):
        assert a.energy == b.energy
        assert a.occupancy is b.occupancy
        assert a.s_total == pytest.approx(b.s_total, rel=1e-14)


def test_report_fields_are_consistent():
    pot = QuarticPotential.from_well_params(1.0, 12.0, 1.0)
    reports = state_reports(pot, n_states=4, grid_points=1024)
    assert [r.n for r in reports] == [0, 1, 2, 3]
    energies = [r.energy for r in reports]
    assert energies == sorted(energies)
    for r in reports:
        assert r.uncertainty_product == pytest.approx(r.delta_x * r.delta_p, rel=1e-14)
        assert r.p_well_I + r.p_well_II == pytest.approx(1.0, abs=1e-8)
        assert r.effective_nodes <= r.total_nodes
        assert r.lobe_count in (1, 2)
        assert r.converged_flag
        assert np.isfinite(r.os_total)


# ------------------------------------------------ batched layer vs per state

REL = 1e-12
ABS_NEAR_ZERO = 1e-15

EQUIVALENCE_POINTS = {
    "parity path": QuarticPotential.from_well_params(1.0, 10.0, 0.0),
    "asymmetric": QuarticPotential.from_well_params(1.0, 10.0, 1.5),
    "doublet": QuarticPotential.from_well_params(1.0, 20.0, 2.0),
    "single well": QuarticPotential.from_well_params(1.0, 1.0, 10.0),
}


def fresh_rule_actions(pot, energy, nodes=DEFAULT_QUAD_NODES):
    """Barrier and allowed actions with a Gauss-Legendre rule built here."""
    theta, w = np.polynomial.legendre.leggauss(nodes)
    theta, w = 0.5 * np.pi * theta, 0.5 * np.pi * w
    tps = [float(t) for t in turning_points(pot, energy)]
    barrier = allowed = 0.0
    lobes = 0
    for lo, hi in zip(tps[:-1], tps[1:]):
        if hi - lo <= 0.0:
            continue
        sign = 1.0 if pot(0.5 * (lo + hi)) < energy else -1.0
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        f = np.maximum(sign * (energy - pot(mid + half * np.sin(theta))), 0.0)
        value = float(np.sum(w * np.sqrt(f) * half * np.cos(theta)))
        if sign > 0.0:
            allowed += 2.0 * value
            lobes += 1
        else:
            barrier += value
    return barrier, allowed, lobes


def reference_split(grid, psi, geometry):
    """(p_well_I, p_well_II, mass_left, mass_right) of one state's row from
    probability_below and simpson."""
    if not geometry.is_double_well:
        return 1.0, 0.0, math.nan, math.nan
    rho = psi**2
    below = probability_below(grid, rho, geometry.barrier[0])
    total = float(simpson(rho, grid.dx))
    p_left = below / total
    p_i, p_ii = p_left, 1.0 - p_left
    if geometry.deeper_well_side is WellSide.RIGHT:
        p_i, p_ii = p_ii, p_i
    return p_i, p_ii, below, total - below


def reference_measures(grid, psi, dpsi):
    """Shannon, Fisher and Onicescu integrals of one state's row, by simpson."""
    rho = np.abs(psi) ** 2
    drho = 2.0 * np.real(np.conj(psi) * dpsi)
    positive = rho > 1e-300
    safe = np.where(positive, rho, 1.0)
    return (
        float(simpson(-rho * np.log(safe), grid.dx)),
        float(simpson(np.where(positive, drho * drho / safe, 0.0), grid.dx)),
        float(simpson(rho * rho, grid.dx)),
    )


def per_state_reference(pot, spec, n_states, grid_points):
    """Every numeric StateReport field, one state at a time."""
    geometry = critical_points(pot)
    e_top = spec.energy(n_states - 1)
    xgrid = build_grid(pot, e_top, grid_points)
    pgrid = build_momentum_grid(pot, e_top, grid_points)
    psi_x, dpsi_x = position_functions(spec, xgrid, n_states)
    psi_p, dpsi_p = momentum_functions(spec, pgrid, n_states)
    x_mat, x2_mat, p2_mat = ladder_moments(spec.basis)
    rows = []
    for n in range(n_states):
        c = spec.vector(n)
        mean_x = c @ x_mat @ c
        delta_x = math.sqrt(max(c @ x2_mat @ c - mean_x**2, 0.0))
        delta_p = math.sqrt(c @ p2_mat @ c)
        psi = psi_x[n].copy()
        p_i, p_ii, mass_left, mass_right = reference_split(xgrid, psi, geometry)
        total, effective = count_nodes(
            xgrid, psi, turning_points(pot, spec.energy(n)), geometry, mass_left, mass_right
        )
        s_x, i_x, e_x = reference_measures(xgrid, psi, dpsi_x[n])
        s_p, i_p, e_p = reference_measures(pgrid, psi_p[n], dpsi_p[n])
        barrier, allowed, lobes = fresh_rule_actions(pot, spec.energy(n))
        rows.append({
            "energy": spec.energy(n),
            "mean_x": mean_x,
            "delta_x": delta_x,
            "delta_p": delta_p,
            "uncertainty_product": delta_x * delta_p,
            "p_well_I": p_i,
            "p_well_II": p_ii,
            "total_nodes": total,
            "effective_nodes": effective,
            "s_x": s_x,
            "s_p": s_p,
            "i_x": i_x,
            "i_p": i_p,
            "e_x": e_x,
            "e_p": e_p,
            "barrier_action": barrier,
            "allowed_action": allowed,
            "lobe_count": lobes,
        })
    return rows


MEASURES = ("s_x", "s_p", "i_x", "i_p", "e_x", "e_p")


def report_fields(rep):
    return {
        name: getattr(rep, name)
        for name in (
            "energy", "mean_x", "delta_x", "delta_p", "uncertainty_product",
            "p_well_I", "p_well_II", "total_nodes", "effective_nodes",
            "barrier_action", "allowed_action", "lobe_count", *MEASURES,
        )
    }


@pytest.mark.parametrize("name", list(EQUIVALENCE_POINTS))
def test_batched_reports_match_per_state_reference(name):
    pot = EQUIVALENCE_POINTS[name]
    n_states, grid_points = 8, 4096
    spec = solve(pot, 100, n_states)
    reports = state_reports(pot, n_states=n_states, grid_points=grid_points, spectrum=spec)
    reference = per_state_reference(pot, spec, n_states, grid_points)
    for rep, ref in zip(reports, reference):
        got = report_fields(rep)
        assert got.keys() == ref.keys()
        for key, want in ref.items():
            assert got[key] == pytest.approx(want, rel=REL, abs=ABS_NEAR_ZERO), (
                f"state {rep.n}: {key}"
            )


def hermite_derivative_matrix(sigma, x, n):
    """d phi_l / dx sampled on x, from h_l' = sqrt(2l) h_{l-1} - t h_l."""
    scale = math.sqrt(2.0 * sigma)
    t = scale * x
    h = hermite_functions(t, n)
    dh = -t * h
    dh[1:] += np.sqrt(2.0 * np.arange(1, n))[:, None] * h[:-1]
    return (2.0 * sigma) ** 0.25 * scale * dh


@pytest.mark.parametrize("name", ["asymmetric", "doublet"])
def test_coefficient_space_derivatives_match_derivative_matrix(name):
    pot = EQUIVALENCE_POINTS[name]
    spec = solve(pot, 100, 6)
    xgrid = build_grid(pot, spec.energy(5), 2048)
    pgrid = build_momentum_grid(pot, spec.energy(5), 2048)
    c = spec.coefficients
    sigma = spec.basis.sigma
    phases = (-1j) ** np.arange(spec.n_basis)
    for grid, (psi, dpsi), sig, coef in (
        (xgrid, position_functions(spec, xgrid, 6), sigma, c),
        (pgrid, momentum_functions(spec, pgrid, 6), 1.0 / (4.0 * sigma), phases[:, None] * c),
    ):
        amp = (2.0 * sig) ** 0.25
        phi = amp * hermite_functions(math.sqrt(2.0 * sig) * grid.x, spec.n_basis)
        want_psi = coef.T @ phi
        want_dpsi = coef.T @ hermite_derivative_matrix(sig, grid.x, spec.n_basis)
        assert np.abs(psi - want_psi).max() <= REL * np.abs(want_psi).max()
        assert np.abs(dpsi - want_dpsi).max() <= REL * np.abs(want_dpsi).max()


def reports_or_error(pot):
    try:
        return state_reports(pot, n_states=4, grid_points=1024)
    except NotNormalized as exc:  # basis too far off-centre for this grid
        return type(exc)


@given(pot=confining_quartics())
def test_mirror_keeps_reports_and_flips_mean_x(pot):
    # p_well_I itself is left out: probability_below integrates from the
    # left end, so the mirror image sees a different quadrature at the
    # barrier and the two agree only to the quadrature error (up to 7e-8 at
    # c4 = 1, c3 = 1, c2 = -1); the classification must still agree
    reports = reports_or_error(pot)
    mirrored = reports_or_error(mirror(pot))
    if reports is NotNormalized:
        assert mirrored is NotNormalized
        return
    for rep, rep_m in zip(reports, mirrored, strict=True):
        assert rep_m.occupancy is rep.occupancy
        assert rep_m.mean_x == pytest.approx(-rep.mean_x, abs=1e-10)
        for key in MEASURES:
            got, want = getattr(rep_m, key), getattr(rep, key)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-10), key
        assert rep_m.barrier_action == pytest.approx(rep.barrier_action, rel=1e-10, abs=1e-10)
        assert rep_m.allowed_action == pytest.approx(rep.allowed_action, rel=1e-10)
        assert rep_m.lobe_count == rep.lobe_count
