import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from dwell import QuarticPotential, critical_points, solve

settings.register_profile(
    "numerics",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numerics")


@functools.lru_cache(maxsize=96)
def _cached_solve(alpha, beta, gamma, n_basis, n_states, v0):
    pot = QuarticPotential.from_well_params(alpha, beta, gamma, v0)
    return solve(pot, n_basis=n_basis, n_states=n_states)


def well_solve(alpha, beta, gamma, n_basis=100, n_states=8, shift_min_to_zero=False):
    """Memoized solve of a double-well potential, optionally zero-shifted."""
    v0 = 0.0
    if shift_min_to_zero:
        raw = QuarticPotential.from_well_params(alpha, beta, gamma)
        v0 = -critical_points(raw).global_minimum[1]
    return _cached_solve(alpha, beta, gamma, n_basis, n_states, v0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@st.composite
def confining_quartics(draw, symmetric=False):
    """Random c4 > 0 quartics; c3 != 0 unless symmetric (then c1 = c3 = 0)."""
    c4 = draw(st.floats(0.1, 2.0))
    c2 = draw(st.floats(-20.0, 4.0))
    c0 = draw(st.floats(-1.0, 1.0))
    if symmetric:
        return QuarticPotential(c4, 0.0, c2, 0.0, c0)
    c3 = draw(st.floats(-2.0, 2.0).filter(lambda c: c != 0.0))
    c1 = draw(st.floats(-5.0, 5.0))
    return QuarticPotential(c4, c3, c2, c1, c0)


# ---------------------------------------------------------------- oracles
# Dense ladder-operator constructions, independent of the closed-form band
# built by dwell.basis.  Operators are formed on a space padded by the
# polynomial degree and truncated back, which makes the retained block equal
# to the exact infinite-dimensional matrix elements.

_PAD = 4


def lowering_operator(n):
    """Matrix of a on the first n oscillator states: a|m> = sqrt(m)|m-1>."""
    a = np.zeros((n, n))
    idx = np.arange(n - 1)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    return a


def dense_band(band):
    """Full symmetric matrix of a LAPACK upper band (band[u - d, j] = h[j - d, j])."""
    u = band.shape[0] - 1
    n = band.shape[1]
    h = np.zeros((n, n))
    for d in range(u + 1):
        j = np.arange(d, n)
        h[j - d, j] = band[u - d, d:]
        h[j, j - d] = band[u - d, d:]
    return h


def ladder_hamiltonian(pot, basis):
    """Dense position-space Hamiltonian from padded ladder-operator products."""
    n, sigma = basis.n_basis, basis.sigma
    m = n + _PAD
    a = lowering_operator(m)
    ad = a.T
    x = (a + ad) / (2.0 * math.sqrt(sigma))
    x2 = x @ x
    kinetic = sigma * np.diag(2.0 * np.arange(m) + 1.0) - sigma * (a @ a + ad @ ad)
    h = kinetic + pot.c4 * (x2 @ x2) + pot.c3 * (x2 @ x) + pot.c2 * x2
    h += pot.c1 * x + pot.c0 * np.eye(m)
    h = h[:n, :n]
    return 0.5 * (h + h.T)


def ladder_moments(basis):
    """Dense <l|x|m>, <l|x^2|m> and <l|p^2|m> from padded ladder operators."""
    n, sigma = basis.n_basis, basis.sigma
    m = n + _PAD
    a = lowering_operator(m)
    ad = a.T
    x = (a + ad) / (2.0 * math.sqrt(sigma))
    p2 = sigma * np.diag(2.0 * np.arange(m) + 1.0) - sigma * (a @ a + ad @ ad)
    return x[:n, :n], (x @ x)[:n, :n], p2[:n, :n]


def assemble_momentum(pot, basis):
    """Complex Hermitian matrix of the momentum-space Hamiltonian.

    Under psi_tilde(p) = (2 pi)^(-1/2) integral psi(x) exp(-i p x) dx the
    operator is p^2 + V(i d/dp), expanded in phi_l(p; sigma_t) with the dual
    scale sigma_t = 1/(4 sigma).  Equal to D h D^dag with D = diag((-i)^l),
    hence isospectral to the position representation.
    """
    n = basis.n_basis
    sigma_t = 1.0 / (4.0 * basis.sigma)
    m = n + _PAD
    b = lowering_operator(m)
    bd = b.T
    p = (b + bd) / (2.0 * math.sqrt(sigma_t))
    d1 = math.sqrt(sigma_t) * (b - bd)  # d/dp
    d2 = d1 @ d1
    # x maps to i d/dp, so c_k x^k maps to c_k (i d/dp)^k
    g = (p @ p + pot.c4 * (d2 @ d2) - pot.c2 * d2 + pot.c0 * np.eye(m)).astype(complex)
    g += (-1j * pot.c3) * (d2 @ d1)
    g += (1j * pot.c1) * d1
    g = g[:n, :n]
    return 0.5 * (g + g.conj().T)
