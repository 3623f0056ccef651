"""The defaults and limits that the solver layers and the CLI's settings
share, and the base of every solver error.

This module imports no numpy, so that `dwell.cli` can build its settings,
parse a command line and answer a sweep from its cache without loading the
numerical stack, and so that the numpy-free well geometry can raise the
solver's errors.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_N_BASIS",
    "DEFAULT_N_STATES",
    "DEGENERACY_REL_TOL",
    "MIN_GRID_POINTS",
    "DEFAULT_GRID_POINTS",
    "DEFAULT_RHO_FLOOR",
    "grid_intervals",
    "certified_states",
    "SolverError",
    "ScaleOutOfRange",
]

DEFAULT_N_BASIS = 100  # oscillator functions unless a caller chooses
DEFAULT_N_STATES = 8  # states solved and reported unless a caller chooses
DEGENERACY_REL_TOL = 1e-6
MIN_GRID_POINTS = 512
DEFAULT_GRID_POINTS = 4096
# a well holding less probability than this carries no effective nodes
DEFAULT_RHO_FLOOR = 0.01


def grid_intervals(points: int) -> int:
    """`points` rounded up to a multiple of 4: the intervals of every grid
    (ValueError below MIN_GRID_POINTS).  The x grid's samples are then odd,
    as composite Simpson needs, and the p >= 0 half-line's intervals even,
    so p = 0 is a panel boundary and an even function's integral over the
    whole window is twice `simpson` over the half-line."""
    if points < MIN_GRID_POINTS:
        raise ValueError(f"points must be >= {MIN_GRID_POINTS}")
    return points + -points % 4


def certified_states(n_basis: int) -> int:
    """Number of lowest states an n_basis basis certifies: n <= n_basis // 3.

    Higher states are variationally corrupted by basis truncation.
    """
    return n_basis // 3 + 1


class SolverError(Exception):
    """Base class for diagonalization failures."""


class ScaleOutOfRange(SolverError):
    """The well's numbers do not fit in double precision: its extrema, its
    basis scale, its Hamiltonian band or its residuals."""
