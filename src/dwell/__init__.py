"""Spectra, information measures and phase-space analysis of 1D quartic
double-well potentials in a trace-optimized oscillator basis.

The exports load lazily (PEP 562): `import dwell` imports no numpy, so the
`python -m dwell` entry can choose the BLAS thread count before numpy loads.
"""

import importlib

# exported name -> submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BasisSpec", "assemble_position", "optimal_sigma"), "basis"),
    **dict.fromkeys(("ScaleOutOfRange", "SolverError", "certified_states"), "defaults"),
    **dict.fromkeys((
        "FISHER_PRODUCT_BOUND", "ONICESCU_PRODUCT_BOUND", "OS_TOTAL_BOUND",
        "SHANNON_TOTAL_BOUND", "NotNormalized", "Occupancy", "info_measures",
        "os_measure", "uncertainties", "well_occupancy",
    ), "measures"),
    **dict.fromkeys(("Lobe", "PhaseSpaceResult", "area"), "phasespace"),
    **dict.fromkeys((
        "QuarticPotential", "WellGeometry", "WellSide", "critical_points", "delta_gamma",
        "mirror", "turning_points",
    ), "potential"),
    **dict.fromkeys(("StateReport", "state_reports"), "report"),
    **dict.fromkeys((
        "DeltaGammaEstimate", "NoTransitionsFound", "RuleValidationReport",
        "estimate_delta_gamma", "predict_degeneracy", "predict_occupancy",
        "validate_rules",
    ), "rules"),
    **dict.fromkeys((
        "BasisTooSmall", "ConvergenceFailure", "Spectrum",
        "quasi_degenerate_pairs", "solve",
    ), "spectrum"),
    **dict.fromkeys((
        "UniformGrid", "build_grid", "build_momentum_grid", "count_nodes",
        "wavefunctions",
    ), "wavefunction"),
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
