import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from dwell import QuarticPotential, critical_points, solve, turning_points
from dwell.cli import CSV_COLUMNS
from dwell.phasespace import QUAD_NODES
from dwell.wavefunction import DEFAULT_RHO_FLOOR, NODE_AMPLITUDE_FLOOR

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


# coefficients that stay normal numbers under 2^k V(2^-j x) for |k| <= 60 and
# |j| <= 30
normal_coeff = st.one_of(st.just(0.0), st.floats(-8.0, 8.0).filter(lambda c: abs(c) > 1e-100))
scalable_pots = st.builds(QuarticPotential, c4=st.floats(0.1, 2.0), c3=normal_coeff,
                          c2=normal_coeff, c1=normal_coeff, c0=normal_coeff)


# p^2 + lam^2 V(lam x) is lam^2 times p^2 + V(x) with x shrunk by lam, so a
# column of its states' reports is lam^power times V's, s_x moves by
# -ln(lam) and s_p by +ln(lam), and every other column is unchanged
REPORT_POWERS = {
    "energy": 2, "mean_x": -1, "delta_x": -1, "delta_p": 1,
    "i_x": 2, "i_p": -2, "e_x": 1, "e_p": -1,
}


def assert_reports_follow_the_scaling_law(reports, scaled, lam, rel, norms=None, states=None):
    """Each float column of `scaled` (the reports of lam^2 V(lam x)) equals
    `reports`' under the law to rel, relative or, below 1, absolute; every
    other column is equal.  Every column of `CSV_COLUMNS` is read through
    getattr, so derived properties are held to the law too.

    On grids scaled with the potential, -int rho ln rho moves by ln(lam)
    times the density's integral on the grid, which the finite window leaves
    a little short of 1: `norms` holds each state's (x, p) integrals, 1
    where omitted.  The Shannon shifts carry into s_total and, through
    exp(2 S / 3), into the powers of the composite measures.
    """
    log_lam = math.log(lam)
    for n in range(len(reports)) if states is None else states:
        norm_x, norm_p = norms[n] if norms else (1.0, 1.0)
        powers = {
            **REPORT_POWERS,
            "os_x": 1.0 - 2.0 * norm_x / 3.0,
            "os_p": 2.0 * norm_p / 3.0 - 1.0,
            "os_total": 2.0 * (norm_p - norm_x) / 3.0,
        }
        shifts = {"s_x": -norm_x * log_lam, "s_p": norm_p * log_lam,
                  "s_total": (norm_p - norm_x) * log_lam}
        for name in CSV_COLUMNS:
            if not hasattr(reports[n], name):
                continue
            value, got = getattr(reports[n], name), getattr(scaled[n], name)
            if isinstance(value, float):
                got = (got - shifts.get(name, 0.0)) / lam ** powers.get(name, 0)
                assert got == pytest.approx(value, rel=rel, abs=rel), (n, name)
            else:
                assert got == value, (n, name)


def one_shot_hermite(t, n):
    """Orthonormal Hermite functions h_0..h_{n-1} at the 1-D points t, as an
    (n, points) table: the normalized recurrence over all n rows at once,
    written apart from the library's streamed kernel."""
    out = np.empty((n, t.size))
    out[0] = math.pi ** -0.25 * np.exp(-0.5 * t * t)
    if n > 1:
        out[1] = math.sqrt(2.0) * t * out[0]
    for l in range(1, n - 1):
        out[l + 1] = math.sqrt(2.0 / (l + 1)) * t * out[l] - math.sqrt(l / (l + 1.0)) * out[l - 1]
    return out


def hermite_derivative_matrix(sigma, x, n):
    """d phi_l / dx sampled on x, from h_l' = sqrt(2l) h_{l-1} - t h_l."""
    scale = math.sqrt(2.0 * sigma)
    t = scale * x
    h = one_shot_hermite(t, n)
    dh = -t * h
    dh[1:] += np.sqrt(2.0 * np.arange(1, n))[:, None] * h[:-1]
    return (2.0 * sigma) ** 0.25 * scale * dh


def position_expansion(spec, x, n_states):
    """Real psi(x) of states 0..n_states-1 at the points x, from the whole
    `one_shot_hermite` table: an evaluation independent of the streamed
    kernel."""
    sigma = spec.basis.sigma
    h = one_shot_hermite(math.sqrt(2.0 * sigma) * x, spec.n_basis)
    return spec.coefficients[:, :n_states].T @ ((2.0 * sigma) ** 0.25 * h)


def momentum_expansion(spec, p, n_states):
    """Complex psi(p) and psi'(p) of states 0..n_states-1 at the points p,
    from the full (-i)^l c_l expansion on `one_shot_hermite` and the
    derivative matrix: an evaluation independent of the streamed half-line
    kernel, valid at negative p too."""
    sigma_p = 1.0 / (4.0 * spec.basis.sigma)
    n = spec.n_basis
    coef = ((-1j) ** np.arange(n))[:, None] * spec.coefficients[:, :n_states]
    amp = (2.0 * sigma_p) ** 0.25
    psi = coef.T @ (amp * one_shot_hermite(math.sqrt(2.0 * sigma_p) * p, n))
    return psi, coef.T @ hermite_derivative_matrix(sigma_p, p, n)


def mirrored(grid):
    """The samples k dx, k = -n..n, of the window whose p >= 0 half is the
    n-interval grid that `build_momentum_grid` returns: its samples with
    the exact mirror image of each."""
    half = grid.x
    return np.concatenate([-half[:0:-1], half])


def fresh_rule_actions(pot, energy, nodes=QUAD_NODES):
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


def reference_count_nodes(grid, psi, turning, geometry, mass_left, mass_right,
                          rho_floor=DEFAULT_RHO_FLOOR):
    """(total, effective) sign changes of one state's row psi between its
    outer turning points, one row at a time: the single-state algorithm that
    the batched `count_nodes` must reproduce count for count."""
    if len(turning) < 2:
        return (0, 0)
    t_lo, t_hi = float(turning[0]), float(turning[-1])
    x = grid.x
    floor = NODE_AMPLITUDE_FLOOR * float(np.max(np.abs(psi)))
    keep = (x > t_lo) & (x < t_hi) & (np.abs(psi) > floor)
    xs, vs = x[keep], psi[keep]
    if xs.size < 2:
        return (0, 0)
    flips = np.nonzero(vs[:-1] * vs[1:] < 0.0)[0]
    node_x = xs[flips] + (xs[flips + 1] - xs[flips]) * vs[flips] / (
        vs[flips] - vs[flips + 1]
    )
    total = int(flips.size)
    if not geometry.is_double_well:
        return (total, total)
    effective = int(np.sum(np.where(
        node_x < geometry.barrier[0], mass_left >= rho_floor, mass_right >= rho_floor
    )))
    return (total, effective)


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
