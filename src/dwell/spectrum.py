"""Lowest eigenpairs of the quartic-potential Hamiltonian.

Solving is a thin pipeline: optimal sigma -> position-space band (bandwidth
4) -> selective symmetric band eigensolver (LAPACK dsbevx), which computes
only the lowest states.  dsbevx is the only LAPACK function called.  It is
taken from the LAPACK of numpy's own OpenBLAS, through ctypes, so that a
process maps one BLAS library; where numpy's LAPACK has no ILP64 dsbevx,
scipy's f2py wrapper is loaded instead, from the `scipy/linalg/_flapack`
extension file by location (no scipy package init runs) or else from
`scipy.linalg.lapack`.  Either is called as `scipy.linalg.eig_banded(
select="i")` calls it by default and returns the same bits; where LAPACK
does not converge, eig_banded raises numpy's linalg error and `solve`
raises ConvergenceFailure.  A well whose band or residuals do not fit in
double precision raises ScaleOutOfRange.

A tunneling doublet whose splitting is below solver resolution comes out
of the solver as an arbitrary rotation of its two states.  `solve` computes
one state more than asked, so that the top state's partner is present, and
turns each such pair into its two states of equal <x> before cropping (see
`_split_doublets`).  In a symmetric well these are the exact even and odd
states, even first, so every potential takes the same path.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.util
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

import numpy as np

from .basis import BasisSpec, assemble_position, band_matvec, optimal_sigma, position_band
from .defaults import (DEFAULT_N_BASIS, DEFAULT_N_STATES, DEGENERACY_REL_TOL, SolverError,
                       certified_states)
from .potential import QuarticPotential, mirror

__all__ = [
    "Spectrum",
    "SolverError",
    "ConvergenceFailure",
    "BasisTooSmall",
    "ScaleOutOfRange",
    "certified_states",
    "solve",
    "quasi_degenerate_pairs",
]

RESIDUAL_TOL = 1e-10


class ConvergenceFailure(SolverError):
    """Eigeniteration failed or residuals exceed the certification bound."""


class BasisTooSmall(SolverError):
    """Requested state index too close to the top of the variational basis."""


class ScaleOutOfRange(SolverError):
    """The well's band or residuals do not fit in double precision."""


@dataclass(frozen=True)
class Spectrum:
    """The lowest eigenvalues, ascending, with orthonormal coefficient vectors.

    `coefficients[:, n]` expands state n in the sigma-scaled oscillator
    basis (position representation; real).  Only the requested states are
    kept, and each of them is residual-checked.
    """

    basis: BasisSpec
    energies: np.ndarray
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        self.energies.setflags(write=False)
        self.coefficients.setflags(write=False)

    def energy(self, n: int) -> float:
        return float(self.energies[n])

    def converged(self, n: int) -> bool:
        return n < certified_states(self.n_basis)

    # read only by perfbench/spans.py, for its useful-eigenpair ratio
    @property
    def n_verified(self) -> int:
        return len(self.energies)

    @property
    def n_basis(self) -> int:
        return self.basis.n_basis


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0.0] = 1.0
    return vectors * signs


def _pair_starts(energies: np.ndarray, tol) -> list[int]:
    """First index n of each adjacent pair whose gap E_{n+1} - E_n is at
    most tol (one per gap, or one for all), greedy from the bottom: a pair
    overlapping the one taken below it is skipped."""
    starts: list[int] = []
    for n in np.flatnonzero(np.diff(energies) <= tol):
        if not starts or n > starts[-1] + 1:
            starts.append(int(n))
    return starts


_SPLIT_TOL = 4.0 * np.finfo(float).eps  # doublet gaps below this times ||H||


# eig_banded's 2 * dlamch('S'): LAPACK's safe minimum is DBL_MIN
_ABSTOL = 2.0 * sys.float_info.min
# dsbevx in the ILP64 LAPACK of numpy's OpenBLAS: numpy >= 2.0 wheels, then
# numpy 1.22-1.26 wheels.  The unsuffixed dsbevx_ is not taken: the width of
# its integers is unknown.
_ILP64_SYMBOLS = ("scipy_dsbevx_64_", "dsbevx_64_")


def _call_ilp64(dsbevx, band: np.ndarray, k: int):
    """(w, z, m, info) of the k lowest eigenpairs, from the Fortran routine
    `dsbevx` with 64-bit integers, allocated as scipy's f2py wrapper does."""
    kd, n = band.shape[0] - 1, band.shape[1]
    ab = np.array(band, dtype=float, order="F")  # dsbevx overwrites its band
    q, z = np.empty((n, n), order="F"), np.empty((n, k), order="F")
    w, work = np.empty(n), np.empty(7 * n)
    iwork, ifail = np.empty(5 * n, dtype=np.int64), np.empty(n, dtype=np.int64)
    i8, f8 = ctypes.c_int64, ctypes.c_double
    m, info = i8(), i8()
    args = (i8(n), i8(kd), ab, i8(kd + 1), q, i8(n), f8(0.0), f8(1.0), i8(1), i8(k),
            f8(_ABSTOL), m, w, z, i8(n), work, iwork, ifail, info)
    # Fortran takes every argument by reference, then the hidden length of
    # each character argument
    dsbevx(b"V", b"I", b"U", *(a.ctypes.data if isinstance(a, np.ndarray) else ctypes.byref(a)
                               for a in args), 1, 1, 1)
    return w, z, m.value, info.value


def _call_f2py(dsbevx, band: np.ndarray, k: int):
    """(w, z, m, info) from scipy's f2py wrapper, as eig_banded(select="i") calls it."""
    w, z, m, _, info = dsbevx(band, 0.0, 1.0, 1, k, compute_v=1, mmax=k, range=2, lower=0,
                              overwrite_ab=0, abstol=_ABSTOL)
    return w, z, m, info


def _f2py_dsbevx():
    """scipy's f2py dsbevx, from the `_flapack` extension file.

    Loading the file by location skips `scipy.linalg`'s package init, which
    is about half the time of `import dwell.cli` with it.  The module is
    private to scipy, so a missing file or one without dsbevx falls back to
    the public `scipy.linalg.lapack`, which exports the same function.
    """
    # the init function is found from the last part of the name; this one
    # keeps the module out of scipy.* in sys.modules
    name = "dwell._flapack"
    try:
        scipy_dirs = importlib.util.find_spec("scipy").submodule_search_locations
        paths = (os.path.join(scipy_dir, "linalg", "_flapack" + suffix)
                 for scipy_dir in scipy_dirs for suffix in EXTENSION_SUFFIXES)
        loader = ExtensionFileLoader(name, next(filter(os.path.isfile, paths)))
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader)
        )
        loader.exec_module(module)
        return module.dsbevx
    except (AttributeError, ImportError, StopIteration):
        from scipy.linalg import lapack

        return lapack.dsbevx


def _load_lapack():
    """dsbevx as one callable (band, k) -> (w, z, m, info).

    numpy's `_umath_linalg` links the LAPACK of numpy's OpenBLAS, so its
    ILP64 dsbevx is called through ctypes, which numpy has loaded already,
    and no second BLAS is mapped.  Where numpy's LAPACK exports none of
    `_ILP64_SYMBOLS` (conda, Accelerate, Windows), scipy's f2py wrapper is
    loaded instead.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        dsbevx = next(getattr(lib, s) for s in _ILP64_SYMBOLS if hasattr(lib, s))
    except (AttributeError, OSError, StopIteration):
        return functools.partial(_call_f2py, _f2py_dsbevx())
    dsbevx.restype = None
    # without argtypes, ctypes would pass each array address as a C int
    dsbevx.argtypes = [ctypes.c_char_p] * 3 + [ctypes.c_void_p] * 19 + [ctypes.c_size_t] * 3
    return functools.partial(_call_ilp64, dsbevx)


_dsbevx = _load_lapack()


def _lowest(band: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k lowest eigenpairs of an upper band, with the checks, call and
    cropping of `scipy.linalg.eig_banded(band, select="i", select_range=(0,
    k - 1))` at its defaults; `band` is left unchanged.  Where LAPACK does
    not converge, this raises ConvergenceFailure, not numpy's linalg error."""
    if not np.isfinite(band).all():
        raise ValueError("array must not contain infs or NaNs")
    if not 1 <= k <= band.shape[1]:
        raise ValueError("select_range out of bounds")
    w, v, m, info = _dsbevx(band, k)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of internal sbevx")
    if info > 0:
        raise ConvergenceFailure(f"sbevx did not converge (LAPACK info={info})")
    return w[:m], v[:, :m]


def _split_doublets(
    band: np.ndarray, basis: BasisSpec, energies: np.ndarray, vectors: np.ndarray
) -> None:
    """Put each unresolved doublet of `vectors` in its equal-<x> basis, in place.

    A pair whose gap is at most _SPLIT_TOL ||H|| (||H|| read as the band's
    largest absolute column sum) comes out of the solver as an arbitrary
    rotation of its two states.  With p, r the diagonal and q >= 0 the
    off-diagonal element of x on the pair, rotating by a = -atan2(p - r,
    2 q) / 2 gives the two states of equal <x>, the (L +/- R)/sqrt(2) of
    the left- and right-localized states; the one with more even-index
    weight comes first.  A parity pair has p = r = 0 exactly, so it keeps
    its exact parity vectors, even first.
    """
    tol = _SPLIT_TOL * np.abs(band).sum(axis=0).max()
    for n in _pair_starts(energies, tol):
        pair = vectors[:, n : n + 2]
        (p, q), (_, r) = pair.T @ band_matvec(position_band(basis), pair)
        v1, v2 = pair.T
        if q < 0.0:
            v2, q = -v2, -q
        a = -0.5 * math.atan2(p - r, 2.0 * q)
        rotated = [math.cos(a) * v1 + math.sin(a) * v2, math.cos(a) * v2 - math.sin(a) * v1]
        rotated.sort(key=lambda v: -np.sum(v[::2] ** 2))
        vectors[:, n], vectors[:, n + 1] = rotated


def solve(
    pot: QuarticPotential,
    n_basis: int = DEFAULT_N_BASIS,
    n_states: int = DEFAULT_N_STATES,
) -> Spectrum:
    """The lowest `n_states` eigenpairs in the trace-optimal oscillator basis.

    Every returned state is residual-checked; requesting states beyond the
    certified band (see `certified_states`) raises BasisTooSmall.
    """
    if n_states < 1 or n_states > n_basis:
        raise ValueError("n_states must be in [1, n_basis]")
    if n_states > certified_states(n_basis):
        raise BasisTooSmall(
            f"state {n_states - 1} requested with only {n_basis} basis functions "
            f"(certified up to state {certified_states(n_basis) - 1})"
        )
    basis = BasisSpec(n_basis=n_basis, sigma=optimal_sigma(pot, n_basis))
    # solve the mirror image x -> -x of a potential tilted left and flip the
    # odd rows of its vectors back, so that mirror images get mirrored
    # vectors to the last bit even where a doublet leaves them ill-conditioned
    mirrored = pot.c3 < 0.0 or (pot.c3 == 0.0 and pot.c1 < 0.0)
    # a well whose band or residuals leave double precision raises one
    # ScaleOutOfRange below instead of numpy's floating-point warnings
    with np.errstate(all="ignore"):
        band = assemble_position(mirror(pot) if mirrored else pot, basis)
    if not np.isfinite(band).all():
        raise ScaleOutOfRange(
            f"the Hamiltonian band overflows double precision at basis scale "
            f"sigma={basis.sigma:.3e}"
        )
    # one state more, so that the top state's doublet partner is present
    energies, vectors = _lowest(band, n_states + 1)
    _split_doublets(band, basis, energies, vectors)
    energies, vectors = energies[:n_states], vectors[:, :n_states]
    with np.errstate(all="ignore"):
        res_norms = np.linalg.norm(band_matvec(band, vectors) - vectors * energies, axis=0)
    if not np.isfinite(res_norms).all():
        worst = int(np.argmin(np.isfinite(res_norms)))
        raise ScaleOutOfRange(
            f"the residual of state {worst} at energy {energies[worst]:.3e} overflows "
            f"double precision"
        )
    # floored at sigma, an energy of the basis that scales with the potential
    bounds = RESIDUAL_TOL * np.maximum(basis.sigma, np.abs(energies))
    if np.any(res_norms > bounds):
        worst = int(np.argmax(res_norms / bounds))
        raise ConvergenceFailure(
            f"residual {res_norms[worst]:.3e} for state {worst} exceeds "
            f"{bounds[worst]:.3e}"
        )
    if mirrored:
        vectors[1::2] *= -1.0
    vectors = _fix_signs(vectors)
    return Spectrum(basis, energies, vectors)


def quasi_degenerate_pairs(
    spec: Spectrum, rel_tol: float = DEGENERACY_REL_TOL
) -> list[tuple[int, int]]:
    """Adjacent near-degenerate pairs (n, n+1) of `spec`, greedy from the bottom.

    A pair qualifies when |E_{n+1} - E_n| <= rel_tol * max(sigma, |E_n|),
    floored at the basis scale sigma like `solve`'s residual bound, so the
    test is the same for every scaled copy of a well; accepted pairs do not
    overlap.
    """
    if not rel_tol > 0.0:
        raise ValueError("rel_tol must be positive")
    bounds = rel_tol * np.maximum(spec.basis.sigma, np.abs(spec.energies[:-1]))
    return [(n, n + 1) for n in _pair_starts(spec.energies, bounds)]
