"""Property tests of the banded solver against dense ladder-operator oracles.

The oracles in conftest build the Hamiltonian from padded ladder-operator
products and diagonalize it densely, sharing nothing with the closed-form
band of dwell.basis or with the band eigensolver.
"""

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.linalg import eigh, eigvalsh

from conftest import (
    assemble_momentum,
    assert_reports_follow_the_scaling_law,
    confining_quartics,
    ladder_hamiltonian,
)
from dwell import (
    QuarticPotential,
    build_grid,
    build_momentum_grid,
    critical_points,
    mirror,
    quasi_degenerate_pairs,
    rules,
    solve,
    spectrum,
    state_reports,
    uncertainties,
    wavefunctions,
    well_occupancy,
)
from dwell.wavefunction import simpson

ENERGY_TOL = 1e-11
RESIDUAL_TOL = 1e-10


def check_against_oracle(pot, n_basis, n_states):
    spec = solve(pot, n_basis, n_states)
    assert spec.energies.shape == (n_states,)
    assert spec.coefficients.shape == (n_basis, n_states)
    h = ladder_hamiltonian(pot, spec.basis)
    ref = eigvalsh(h)[:n_states]
    assert np.all(
        np.abs(spec.energies - ref) <= ENERGY_TOL * np.maximum(1.0, np.abs(ref))
    )
    c = spec.coefficients
    residual = np.linalg.norm(h @ c - c * spec.energies, axis=0)
    assert np.all(residual <= RESIDUAL_TOL * np.maximum(1.0, np.abs(spec.energies)))
    assert np.abs(c.T @ c - np.eye(n_states)).max() <= 1e-12
    return spec


@given(
    alpha=st.floats(0.5, 2.0),
    beta=st.floats(2.0, 40.0),
    k=st.one_of(st.integers(-4, 4).map(float), st.floats(-4.0, 4.0)),
    n_max=st.integers(0, 8),
)
def test_rules_and_reports_measure_the_same_occupancies(alpha, beta, k, n_max):
    # both solve states 0..n_max + 1; the reports split each state's density
    # on the grid built at the top one, the rules read the same split from
    # the band in closed form, and the two classify alike
    pot = QuarticPotential.from_well_params(alpha, beta, 2.0 * np.sqrt(alpha) * k)
    reports = state_reports(pot, n_states=n_max + 2)
    measured = rules.measured_occupancies(pot, n_max)[0]
    assert measured == tuple(rep.occupancy for rep in reports[: n_max + 1])


@given(
    pot=confining_quartics(),
    n_basis=st.sampled_from([40, 70, 100]),
    n_states=st.integers(1, 8),
)
def test_banded_solve_matches_dense_oracle(pot, n_basis, n_states):
    check_against_oracle(pot, n_basis, n_states)


@given(
    pot=confining_quartics(symmetric=True),
    n_basis=st.sampled_from([40, 71, 100]),
    n_states=st.integers(1, 8),
)
def test_parity_block_solve_matches_dense_oracle(pot, n_basis, n_states):
    spec = check_against_oracle(pot, n_basis, n_states)
    parity = np.arange(n_basis) % 2
    for n in range(n_states):
        c = spec.coefficients[:, n]
        assert min(np.abs(c[parity == 0]).max(), np.abs(c[parity == 1]).max()) == 0.0


@given(pot=confining_quartics(), n_states=st.integers(1, 8))
def test_momentum_representation_is_isospectral(pot, n_states):
    spec = solve(pot, 100, n_states)
    e_mom = eigvalsh(assemble_momentum(pot, spec.basis))[:n_states]
    rel = np.abs(spec.energies - e_mom) / np.maximum(1.0, np.abs(e_mom))
    assert rel.max() <= 1e-10


@pytest.mark.parametrize("pair", [(1, 2), (3, 4)])
def test_sub_resolution_doublet_projectors_match_oracle(pair):
    # at beta 20, gamma 2 (k = 1) the pairs (1, 2) and (3, 4) are split
    # below solver resolution: each vector is an arbitrary rotation within
    # its pair, so only the pair's projector is compared
    pot = QuarticPotential.from_well_params(1.0, 20.0, 2.0)
    spec = solve(pot, 100, 6)
    _, v = eigh(ladder_hamiltonian(pot, spec.basis))
    cols = list(pair)
    mine = spec.coefficients[:, cols] @ spec.coefficients[:, cols].T
    ref = v[:, cols] @ v[:, cols].T
    assert np.abs(mine - ref).max() <= 1e-8


@given(pot=confining_quartics(), n_states=st.integers(1, 8))
def test_mirror_images_give_mirrored_eigenpairs_exactly(pot, n_states):
    spec = solve(pot, 100, n_states)
    spec_m = solve(mirror(pot), 100, n_states)
    assert np.array_equal(spec.energies, spec_m.energies)
    flip = (-1.0) ** np.arange(100)
    for n in range(n_states):
        c, cm = spec.coefficients[:, n], spec_m.coefficients[:, n]
        assert np.array_equal(np.abs(c), np.abs(cm))
        assert np.array_equal(flip * c, cm) or np.array_equal(flip * c, -cm)


@given(
    alpha=st.floats(0.5, 2.0),
    beta=st.floats(2.0, 30.0),
    gamma=st.floats(-7.0, 7.0),
    lam=st.one_of(st.floats(0.7, 1.5), st.integers(-30, 30).map(lambda j: 2.0**j)),
)
# integer k: state 5's doublet partner is state 6, 5.4e-4 above it
@example(alpha=1.0, beta=14.0, gamma=2.0, lam=1.5)
# far from unit scale, where windows rounded to a fixed step lose the tails
@example(alpha=1.0, beta=20.0, gamma=3.0, lam=2.0**16)
@example(alpha=1.0, beta=20.0, gamma=3.0, lam=2.0**-20)
# E_0 = 1.05e-4: a residual bound floored at 1, not at an energy of the
# potential, raised ConvergenceFailure from lam = 128 on
@example(alpha=1.805281393553412, beta=2.0, gamma=2.0, lam=128.0)
# state 1 is odd with an even admixture of about 1e-151: at its p = 0 node
# rho is 3.4e-302 for V and 1.09e-300 for the scaled V, on either side of an
# absolute 1e-300 node threshold, which moved I_p from 3.42005 to 3.40235
@example(alpha=2.0, beta=2.0, gamma=7.346447748462341e-173, lam=0.03125)
def test_scaling_law(alpha, beta, gamma, lam):
    # x -> x / lam maps p^2 + V(alpha, beta, gamma) onto lam^-2 times
    # p^2 + V(lam^6 alpha, lam^4 beta, lam^3 gamma), and the trace-optimal
    # sigma scales as lam^2, so both solves see the same scaled band; the
    # grid windows come from the potential alone and scale with it, so every
    # column of the reports follows the law too.  States 0-5 are checked,
    # and the seventh gives state 5 its upper neighbour
    pot = QuarticPotential.from_well_params(alpha, beta, gamma)
    scaled_pot = QuarticPotential.from_well_params(lam**6 * alpha, lam**4 * beta, lam**3 * gamma)
    spec = solve(pot, 100, 7)
    scaled = solve(scaled_pot, 100, 7)
    e = spec.energies
    assert np.all(
        np.abs(scaled.energies / lam**2 - e) <= 1e-12 * np.maximum(1.0, np.abs(e))
    )
    # doublet vectors are arbitrary rotations within their pair; any other
    # vector is fixed to about eps ||H|| / gap (Davis-Kahan), so the columns
    # of a state a small gap away from its neighbour get a wider tolerance
    paired = {n for a, b in quasi_degenerate_pairs(spec, 1e-6) for n in (a, b)}
    reports, reports_s = state_reports(pot, 100, 7), state_reports(scaled_pot, 100, 7)
    assert len(reports) == len(reports_s) == 7
    # the densities' integrals on the report's grids: the upper states of a
    # shallow well lose up to 1e-8 of theirs outside the position window
    xgrid, pgrid = build_grid(pot, e[6]), build_momentum_grid(pot, e[6])
    psi_x, (a, b, _, _) = wavefunctions(spec, xgrid, pgrid)
    norm_x = simpson(psi_x**2, xgrid.dx)
    norm_p = 2.0 * simpson(a * a + b * b, pgrid.dx)
    norms = list(zip(norm_x, norm_p))
    for n in range(6):
        if n in paired:
            continue
        gap = np.min(np.abs(np.delete(e, n) - e[n]))
        assert_reports_follow_the_scaling_law(
            reports, reports_s, lam, 1e-11 * max(1.0, 1.0 / gap), norms, states=[n]
        )


@given(
    alpha=st.floats(0.5, 2.0),
    beta=st.floats(2.0, 40.0),
    k=st.one_of(st.integers(-4, 4).map(float), st.floats(-4.0, 4.0)),
    n_states=st.integers(1, 9),
)
# k = 3: the doublets (3, 4), (5, 6) and (7, 8) are split far below solver
# resolution, and state 7, half of the third, is the state the smaller solve
# computes and crops
@example(alpha=1.0, beta=30.0, k=3.0, n_states=7)
def test_shared_states_do_not_depend_on_the_number_solved(alpha, beta, k, n_states):
    pot = QuarticPotential.from_well_params(alpha, beta, 2.0 * np.sqrt(alpha) * k)
    spec = solve(pot, 100, n_states)
    more = solve(pot, 100, n_states + 2)
    grid = build_grid(pot, more.energy(n_states + 1), 1024)
    geometry = critical_points(pot)
    p_well, p_well_more = (
        well_occupancy(grid, wavefunctions(s, grid, None)[0][:n_states], geometry)[0]
        for s in (spec, more)
    )
    mean_x, delta_x, _ = uncertainties(spec)
    mean_x_more = uncertainties(more)[0][:n_states]
    norm = np.abs(ladder_hamiltonian(pot, spec.basis)).sum(axis=0).max()
    split_tol = spectrum._SPLIT_TOL * norm
    e = more.energies
    n = 0
    while n < n_states:
        gap = e[n + 1] - e[n]
        # a pair split below the threshold is the same pair of equal-<x>
        # states in both solves
        if gap <= split_tol / 10.0:
            for m in (n, n + 1)[: n_states - n]:
                assert mean_x[m] == pytest.approx(mean_x_more[m], abs=1e-12)
                assert p_well[m] == pytest.approx(p_well_more[m], abs=1e-12)
            n += 2
        # near the threshold the two solves' rounding can split a pair in one
        # and leave it in the other, so the gray zone is skipped
        elif gap < 10.0 * split_tol:
            n += 2
        # any other vector is fixed to about eps ||H|| / gap (Davis-Kahan)
        else:
            bound = 4.0 * np.finfo(float).eps * norm / np.min(np.abs(np.delete(e, n) - e[n]))
            assert abs(mean_x[n] - mean_x_more[n]) <= bound * max(1.0, delta_x[n])
            assert abs(p_well[n] - p_well_more[n]) <= bound
            n += 1
