"""Spectra, information measures and phase-space analysis of 1D quartic
double-well potentials in a trace-optimized oscillator basis."""

from .basis import (
    BasisSpec,
    assemble_position,
    optimal_sigma,
)
from .measures import (
    FISHER_PRODUCT_BOUND,
    ONICESCU_PRODUCT_BOUND,
    OS_TOTAL_BOUND,
    SHANNON_TOTAL_BOUND,
    InfoMeasures,
    NotNormalized,
    Occupancy,
    UncertaintyReport,
    WellOccupancy,
    fisher,
    info_measures,
    onicescu,
    os_measure,
    shannon,
    uncertainties,
    well_occupancy,
)
from .phasespace import Lobe, PhaseSpaceResult, area
from .potential import (
    QuarticPotential,
    WellGeometry,
    WellSide,
    critical_points,
    mirror,
    turning_points,
)
from .report import StateReport, state_reports
from .rules import (
    AsymmetryIndex,
    DegeneracyPrediction,
    DeltaGammaEstimate,
    NoTransitionsFound,
    RuleValidationReport,
    estimate_delta_gamma,
    predict_degeneracy,
    predict_occupancy,
    validate_rules,
)
from .spectrum import (
    BasisTooSmall,
    ConvergenceFailure,
    SolverError,
    Spectrum,
    certified_states,
    quasi_degenerate_pairs,
    solve,
)
from .wavefunction import (
    GridFunction,
    UniformGrid,
    build_grid,
    build_momentum_grid,
    count_nodes,
    grid_integral,
    momentum_functions,
    position_functions,
)

__version__ = "0.1.0"
