"""The per-state record of everything the sweep layer exports.

`StateReport` is flat: each field and property is named after its output
column, and the derived columns (products, sums and composite measures) are
properties computed in Python floats from the stored fields.
"""

from __future__ import annotations

from dataclasses import dataclass

from .measures import (
    Occupancy,
    classify_occupancy,
    info_measures,
    os_measure,
    uncertainties,
    well_occupancy,
)
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
    p_well_I: float
    p_well_II: float
    occupancy: Occupancy
    total_nodes: int
    effective_nodes: int
    s_x: float
    s_p: float
    i_x: float
    i_p: float
    e_x: float
    e_p: float
    barrier_action: float
    allowed_action: float
    lobe_count: int
    converged_flag: bool

    @property
    def uncertainty_product(self) -> float:
        return self.delta_x * self.delta_p

    @property
    def s_total(self) -> float:
        return self.s_x + self.s_p

    @property
    def i_product(self) -> float:
        return self.i_x * self.i_p

    @property
    def e_product(self) -> float:
        return self.e_x * self.e_p

    @property
    def os_x(self) -> float:
        return os_measure(self.s_x, self.e_x)

    @property
    def os_p(self) -> float:
        return os_measure(self.s_p, self.e_p)

    @property
    def os_total(self) -> float:
        return os_measure(self.s_total, self.e_product)


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
    mean_x, delta_x, delta_p = uncertainties(spec, n_states)
    s_x, s_p, i_x, i_p, e_x, e_p = info_measures(xgrid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
    p_i, p_ii, mass_left, mass_right = well_occupancy(xgrid, psi_x, geometry)

    reports = []
    for n in range(n_states):
        energy = spec.energy(n)
        turning = turning_points(pot, energy)
        total_nodes, effective_nodes = count_nodes(
            xgrid, psi_x[n], turning, geometry, mass_left[n], mass_right[n], rho_floor
        )
        ps = area(pot, energy, turning=turning)
        reports.append(
            StateReport(
                n=n,
                energy=energy,
                mean_x=float(mean_x[n]),
                delta_x=float(delta_x[n]),
                delta_p=float(delta_p[n]),
                p_well_I=float(p_i[n]),
                p_well_II=float(p_ii[n]),
                occupancy=classify_occupancy(float(p_i[n])),
                total_nodes=total_nodes,
                effective_nodes=effective_nodes,
                s_x=float(s_x[n]),
                s_p=float(s_p[n]),
                i_x=float(i_x[n]),
                i_p=float(i_p[n]),
                e_x=float(e_x[n]),
                e_p=float(e_p[n]),
                barrier_action=ps.barrier_action,
                allowed_action=ps.allowed_action,
                lobe_count=ps.lobe_count,
                converged_flag=spec.converged(n),
            )
        )
    return reports
