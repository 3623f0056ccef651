"""Per-state bundles of everything the sweep layer exports."""

from __future__ import annotations

from dataclasses import dataclass

from .measures import InfoMeasures, Occupancy, info_measures, uncertainties, well_occupancy
from .phasespace import area
from .potential import QuarticPotential, critical_points, turning_points
from .spectrum import Spectrum, solve
from .wavefunction import (
    DEFAULT_GRID_POINTS,
    build_grid,
    build_momentum_grid,
    count_nodes,
    momentum_functions,
    position_functions,
)

__all__ = ["StateReport", "state_reports"]


@dataclass(frozen=True)
class StateReport:
    """Everything reported about one eigenstate."""

    n: int
    energy: float
    mean_x: float
    delta_x: float
    delta_p: float
    uncertainty_product: float
    p_well_I: float
    p_well_II: float
    occupancy: Occupancy
    total_nodes: int
    effective_nodes: int
    measures: InfoMeasures
    barrier_action: float
    allowed_action: float
    lobe_count: int
    converged: bool


def state_reports(
    pot: QuarticPotential,
    n_basis: int = 100,
    n_states: int = 8,
    grid_points: int = DEFAULT_GRID_POINTS,
    rho_floor: float = 0.01,
    spectrum: Spectrum | None = None,
) -> list[StateReport]:
    """Solve and evaluate states 0..n_states-1 of one potential.

    Grids are shared across states (built at the highest reported energy);
    wavefunctions, moments, barrier splits and information measures are
    computed for all states at once, and the turning points of each state
    are found once and shared by the node count and the phase-space
    integrals.
    """
    spec = spectrum if spectrum is not None else solve(pot, n_basis, n_states)
    geometry = critical_points(pot)
    e_top = spec.energy(n_states - 1)
    xgrid = build_grid(pot, e_top, grid_points)
    pgrid = build_momentum_grid(pot, e_top, grid_points)
    psi_x, dpsi_x = position_functions(spec, xgrid, n_states)
    psi_p, dpsi_p = momentum_functions(spec, pgrid, n_states)
    moments = uncertainties(spec, n_states)
    measures = info_measures(xgrid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
    occupancies = well_occupancy(xgrid, psi_x, geometry)

    reports = []
    for n, (unc, meas, occ) in enumerate(zip(moments, measures, occupancies)):
        energy = spec.energy(n)
        turning = turning_points(pot, energy)
        total_nodes, effective_nodes = count_nodes(
            xgrid, psi_x[n], turning, geometry, occ, rho_floor
        )
        ps = area(pot, energy, turning=turning)
        reports.append(
            StateReport(
                n=n,
                energy=energy,
                mean_x=unc.mean_x,
                delta_x=unc.delta_x,
                delta_p=unc.delta_p,
                uncertainty_product=unc.product,
                p_well_I=occ.p_well_I,
                p_well_II=occ.p_well_II,
                occupancy=occ.classification,
                total_nodes=total_nodes,
                effective_nodes=effective_nodes,
                measures=meas,
                barrier_action=ps.barrier_action,
                allowed_action=ps.allowed_action,
                lobe_count=ps.lobe_count,
                converged=spec.converged(n),
            )
        )
    return reports
