"""Property tests of the banded solver against dense ladder-operator oracles.

The oracles in conftest build the Hamiltonian from padded ladder-operator
products and diagonalize it densely, sharing nothing with the closed-form
band of dwell.basis or with the band eigensolver.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh, eigvalsh

from conftest import assemble_momentum, confining_quartics, ladder_hamiltonian
from dwell import QuarticPotential, mirror, quasi_degenerate_pairs, solve, uncertainties

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
        c = spec.vector(n)
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
        c, cm = spec.vector(n), spec_m.vector(n)
        assert np.array_equal(np.abs(c), np.abs(cm))
        assert np.array_equal(flip * c, cm) or np.array_equal(flip * c, -cm)


@given(
    alpha=st.floats(0.5, 2.0),
    beta=st.floats(2.0, 30.0),
    gamma=st.floats(-7.0, 7.0),
    lam=st.floats(0.7, 1.5),
)
def test_scaling_law(alpha, beta, gamma, lam):
    # x -> x / lam maps p^2 + V(alpha, beta, gamma) onto lam^-2 times
    # p^2 + V(lam^6 alpha, lam^4 beta, lam^3 gamma), and the trace-optimal
    # sigma scales as lam^2, so both solves see the same scaled band
    spec = solve(QuarticPotential.from_well_params(alpha, beta, gamma), 100, 6)
    scaled = solve(
        QuarticPotential.from_well_params(lam**6 * alpha, lam**4 * beta, lam**3 * gamma),
        100, 6,
    )
    e = spec.energies
    assert np.all(
        np.abs(scaled.energies - lam**2 * e) <= 1e-12 * np.maximum(1.0, np.abs(e))
    )
    # doublet vectors are arbitrary rotations within their pair; any other
    # vector is fixed to about eps ||H|| / gap (Davis-Kahan), so the moments
    # of a state a small gap away from its neighbour get a wider tolerance
    paired = {n for a, b, _ in quasi_degenerate_pairs(spec, 1e-6) for n in (a, b)}
    mean_x, delta_x, delta_p = uncertainties(spec)
    mean_xs, delta_xs, delta_ps = uncertainties(scaled)
    assert len(mean_x) == len(mean_xs) == 6
    for n in range(6):
        if n in paired:
            continue
        gap = np.min(np.abs(np.delete(e, n) - e[n]))
        rel = 1e-11 * max(1.0, 1.0 / gap)
        assert lam * mean_xs[n] == pytest.approx(mean_x[n], rel=rel, abs=rel * delta_x[n])
        assert lam * delta_xs[n] == pytest.approx(delta_x[n], rel=rel)
        assert delta_ps[n] / lam == pytest.approx(delta_p[n], rel=rel)
        assert delta_xs[n] * delta_ps[n] == pytest.approx(delta_x[n] * delta_p[n], rel=rel)
