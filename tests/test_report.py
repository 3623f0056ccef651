import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given

from conftest import confining_quartics, ladder_moments
from dwell import (
    NotNormalized,
    Occupancy,
    QuarticPotential,
    WellOccupancy,
    WellSide,
    build_grid,
    build_momentum_grid,
    count_nodes,
    critical_points,
    fisher,
    grid_integral,
    mirror,
    momentum_functions,
    onicescu,
    position_functions,
    shannon,
    solve,
    state_reports,
    turning_points,
)
from dwell.measures import classify_occupancy
from dwell.phasespace import DEFAULT_QUAD_NODES
from dwell.wavefunction import GridFunction, hermite_functions, probability_below


def test_reports_accept_precomputed_spectrum():
    pot = QuarticPotential.from_well_params(1.0, 12.0, 1.0)
    spec = solve(pot, 100, 4)
    fresh = state_reports(pot, n_states=4, grid_points=1024)
    reused = state_reports(pot, n_states=4, grid_points=1024, spectrum=spec)
    for a, b in zip(fresh, reused):
        assert a.energy == b.energy
        assert a.occupancy is b.occupancy
        assert a.measures.s_total == pytest.approx(b.measures.s_total, rel=1e-14)


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
        assert r.converged
        assert np.isfinite(r.measures.os_total)


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


def reference_split(psi, geometry):
    """The barrier split of one state from probability_below and grid_integral."""
    if not geometry.is_double_well:
        return WellOccupancy(1.0, 0.0, Occupancy.WELL_I, math.nan, math.nan)
    rho = psi.density()
    below = probability_below(rho.values, rho.x0, rho.dx, geometry.barrier[0])
    total = grid_integral(rho)
    p_left = below / total
    p_i, p_ii = p_left, 1.0 - p_left
    if geometry.deeper_well_side is WellSide.RIGHT:
        p_i, p_ii = p_ii, p_i
    return WellOccupancy(p_i, p_ii, classify_occupancy(p_i), below, total - below)


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
        psi = GridFunction.on(xgrid, psi_x[:, n].copy())
        dpsi = GridFunction.on(xgrid, dpsi_x[:, n].copy())
        psi_t = GridFunction.on(pgrid, psi_p[:, n].copy())
        dpsi_t = GridFunction.on(pgrid, dpsi_p[:, n].copy())
        occ = reference_split(psi, geometry)
        total, effective = count_nodes(
            psi, turning_points(pot, spec.energy(n)), geometry, occ
        )
        barrier, allowed, lobes = fresh_rule_actions(pot, spec.energy(n))
        rows.append({
            "energy": spec.energy(n),
            "mean_x": mean_x,
            "delta_x": delta_x,
            "delta_p": delta_p,
            "uncertainty_product": delta_x * delta_p,
            "p_well_I": occ.p_well_I,
            "p_well_II": occ.p_well_II,
            "total_nodes": total,
            "effective_nodes": effective,
            "s_x": shannon(psi.density()),
            "s_p": shannon(psi_t.density()),
            "i_x": fisher(psi, dpsi),
            "i_p": fisher(psi_t, dpsi_t),
            "e_x": onicescu(psi.density()),
            "e_p": onicescu(psi_t.density()),
            "barrier_action": barrier,
            "allowed_action": allowed,
            "lobe_count": lobes,
        })
    return rows


def report_fields(rep):
    fields = {
        name: getattr(rep, name)
        for name in (
            "energy", "mean_x", "delta_x", "delta_p", "uncertainty_product",
            "p_well_I", "p_well_II", "total_nodes", "effective_nodes",
            "barrier_action", "allowed_action", "lobe_count",
        )
    }
    fields.update(dataclasses.asdict(rep.measures))
    return fields


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
    dh = -t[:, None] * h
    dh[:, 1:] += np.sqrt(2.0 * np.arange(1, n)) * h[:, :-1]
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
        want_psi = phi @ coef
        want_dpsi = hermite_derivative_matrix(sig, grid.x, spec.n_basis) @ coef
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
        got, want = dataclasses.asdict(rep_m.measures), dataclasses.asdict(rep.measures)
        for key in want:
            assert got[key] == pytest.approx(want[key], rel=1e-10, abs=1e-10), key
        assert rep_m.barrier_action == pytest.approx(rep.barrier_action, rel=1e-10, abs=1e-10)
        assert rep_m.allowed_action == pytest.approx(rep.allowed_action, rel=1e-10)
        assert rep_m.lobe_count == rep.lobe_count
