"""The per-state record of everything the sweep layer exports.

`StateReport` is flat: each field and property is named after its output
column, and the derived columns (I_x = 4 delta_p^2, products, sums and
composite measures) are properties computed in Python floats from the
stored fields.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .defaults import DEFAULT_GRID_POINTS, DEFAULT_N_BASIS, DEFAULT_N_STATES, DEFAULT_RHO_FLOOR
from .measures import (
    Occupancy,
    classify_occupancy,
    info_measures,
    os_measure,
    uncertainties,
    well_occupancy,
)
from .phasespace import area
from .potential import QuarticPotential, critical_points
from .spectrum import solve
from .wavefunction import (
    build_grid,
    build_momentum_grid,
    count_nodes,
    wavefunctions,
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
    def i_x(self) -> float:
        """Fisher information of the real psi(x): int rho'^2 / rho =
        4 int psi'^2 = 4 <p^2>, from the band moment."""
        return 4.0 * self.delta_p * self.delta_p

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
    n_basis: int = DEFAULT_N_BASIS,
    n_states: int = DEFAULT_N_STATES,
    grid_points: int = DEFAULT_GRID_POINTS,
    rho_floor: float = DEFAULT_RHO_FLOOR,
) -> list[StateReport]:
    """Solve and evaluate states 0..n_states-1 of one potential.

    Grids are shared across states (built at the highest reported energy);
    wavefunctions, moments, barrier splits and information measures are
    computed for all states at once.  The phase-space integrals come first:
    each state's outermost lobe edges are its outer turning points, the
    span that one `count_nodes` call counts every state's nodes in.
    """
    spec = solve(pot, n_basis, n_states)
    geometry = critical_points(pot)
    e_top = spec.energy(n_states - 1)
    xgrid = build_grid(pot, e_top, grid_points)
    pgrid = build_momentum_grid(pot, e_top, grid_points)
    psi_x, psi_p = wavefunctions(spec, xgrid, pgrid)
    mean_x, delta_x, delta_p = uncertainties(spec)
    s_x, s_p, i_p, e_x, e_p = info_measures(xgrid, psi_x, pgrid, psi_p)
    p_i, p_ii, mass_left, mass_right = well_occupancy(xgrid, psi_x, geometry)

    phase = [area(pot, spec.energy(n)) for n in range(n_states)]
    span = np.array([(ps.lobes[0].x_lo, ps.lobes[-1].x_hi) for ps in phase])
    total_nodes, effective_nodes = count_nodes(
        xgrid, psi_x, span, geometry, mass_left, mass_right, rho_floor
    )
    return [
        StateReport(
            n=n,
            energy=spec.energy(n),
            mean_x=float(mean_x[n]),
            delta_x=float(delta_x[n]),
            delta_p=float(delta_p[n]),
            p_well_I=float(p_i[n]),
            p_well_II=float(p_ii[n]),
            occupancy=classify_occupancy(float(p_i[n])),
            total_nodes=int(total_nodes[n]),
            effective_nodes=int(effective_nodes[n]),
            s_x=float(s_x[n]),
            s_p=float(s_p[n]),
            i_p=float(i_p[n]),
            e_x=float(e_x[n]),
            e_p=float(e_p[n]),
            barrier_action=ps.barrier_action,
            allowed_action=ps.allowed_action,
            lobe_count=ps.lobe_count,
            converged_flag=spec.converged(n),
        )
        for n, ps in enumerate(phase)
    ]
