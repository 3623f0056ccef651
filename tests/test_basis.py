import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import assemble_momentum, dense_band, ladder_hamiltonian
from dwell import QuarticPotential, ScaleOutOfRange
from dwell.basis import (
    BasisSpec,
    assemble_position,
    band_matvec,
    momentum_squared_band,
    optimal_sigma,
    position_band,
    position_squared_band,
)


def position_hamiltonian(pot, basis):
    return dense_band(assemble_position(pot, basis))


def closed_form_position_matrix(alpha, beta, gamma, sigma, n):
    """Direct transcription of the banded closed-form matrix elements for
    V = alpha x^4 - beta x^2 + gamma x (independent of the ladder assembler)."""
    h = np.zeros((n, n))
    for l in range(n):
        h[l, l] = (
            3 * alpha / (16 * sigma**2) * (2 * l**2 + 2 * l + 1)
            - (beta + 4 * sigma**2) * (2 * l + 1) / (4 * sigma)
            + 2 * sigma * (2 * l + 1)
        )
        if l >= 1:
            h[l, l - 1] = gamma * math.sqrt(l / (4 * sigma))
            h[l - 1, l] = h[l, l - 1]
        if l >= 2:
            h[l, l - 2] = (
                (alpha * (2 * l - 1) - 2 * (beta + 4 * sigma**2) * sigma)
                / (8 * sigma**2)
                * math.sqrt(l * (l - 1))
            )
            h[l - 2, l] = h[l, l - 2]
        if l >= 4:
            h[l, l - 4] = alpha / (16 * sigma**2) * math.sqrt(
                l * (l - 1) * (l - 2) * (l - 3)
            )
            h[l - 4, l] = h[l, l - 4]
    return h


def quadrature_matrix_element(pot, sigma, l, m, nodes=220):
    """<phi_l|H|phi_m> by Gauss-Hermite quadrature (weight exp(-u^2), exact
    for the polynomial integrands here); independent of the assembler."""
    u, w = np.polynomial.hermite.hermgauss(nodes)
    n = max(l, m) + 1
    p = np.empty((nodes, n))
    p[:, 0] = math.pi ** -0.25
    if n > 1:
        p[:, 1] = math.sqrt(2.0) * u * p[:, 0]
    for k in range(1, n - 1):
        p[:, k + 1] = math.sqrt(2.0 / (k + 1)) * u * p[:, k] - math.sqrt(
            k / (k + 1.0)
        ) * p[:, k - 1]

    def q(k):
        lower = p[:, k - 1] if k >= 1 else 0.0
        return math.sqrt(2.0 * k) * lower - u * p[:, k]

    x = u / math.sqrt(2.0 * sigma)
    potential = float(np.sum(w * p[:, l] * p[:, m] * pot(x)))
    kinetic = 2.0 * sigma * float(np.sum(w * q(l) * q(m)))
    return kinetic + potential


def test_optimal_sigma_single_mode_closed_form():
    pot = QuarticPotential.from_well_params(1.0, 0.0, 0.0)
    assert optimal_sigma(pot, 1) == pytest.approx((3.0 / 8.0) ** (1.0 / 3.0), rel=1e-14)


def test_optimal_sigma_matches_golden_section():
    # frozen from a bounded golden-section minimization of the closed-form trace
    pot = QuarticPotential.from_well_params(1.0, 20.0, 0.0)
    sigma = optimal_sigma(pot, 100)
    assert sigma == pytest.approx(2.362623136830198, abs=5e-8)

    def trace(s):
        l = np.arange(100)
        s1 = float(np.sum(2 * l + 1))
        s2 = float(np.sum(2 * l**2 + 2 * l + 1))
        return 3 * s2 / (16 * s**2) - 20.0 * s1 / (4 * s) + s * s1

    assert trace(sigma) <= trace(2.362623136830198) + 1e-9


@pytest.mark.parametrize("pot", [
    QuarticPotential.from_well_params(1e303, 20.0, 0.0),  # 3 c4 S2 overflows
    QuarticPotential.from_well_params(1.0, 1e308, 0.0),  # 2 c2 S1 overflows
    QuarticPotential(1e-320, 0.0, -1.0),  # sigma, about 1e-325, underflows
])
def test_optimal_sigma_beyond_double_precision_raises_scale_out_of_range(pot):
    with pytest.raises(ScaleOutOfRange) as exc:
        optimal_sigma(pot, 100)
    assert str(exc.value) == "the basis scale sigma for n_basis=100 leaves double precision"


@settings(max_examples=100)
@given(alpha=st.floats(0.1, 4.0), beta=st.floats(0.0, 30.0))
def test_optimal_sigma_is_local_minimum_of_trace(alpha, beta):
    pot = QuarticPotential.from_well_params(alpha, beta, 0.0)
    sigma = optimal_sigma(pot, 60)
    basis = BasisSpec(60, sigma)

    def tr(s):
        return np.trace(position_hamiltonian(pot, BasisSpec(60, s)))

    t0 = tr(sigma)
    assert t0 <= tr(sigma * 0.99) + 1e-10 * abs(t0)
    assert t0 <= tr(sigma * 1.01) + 1e-10 * abs(t0)
    # stationarity by central finite difference.  The diagonal terms cancel
    # (the trace crosses zero near beta 29 at alpha 1), so where 1e-8 |T| is
    # below the difference's rounding floor, about
    # 1e-16 sum|H_nn| / (2e-6 sigma), that floor with a margin of 20 bounds it
    eps = 1e-6 * sigma
    deriv = (tr(sigma + eps) - tr(sigma - eps)) / (2 * eps)
    diagonal = np.diag(position_hamiltonian(pot, basis))
    rounding = 1e-9 * np.sum(np.abs(diagonal)) / sigma
    assert abs(deriv) <= max(1e-8 * abs(t0), rounding)


@given(
    alpha=st.floats(0.1, 3.0),
    beta=st.floats(0.0, 25.0),
    gamma=st.floats(-6.0, 6.0),
    sigma=st.floats(0.3, 4.0),
)
def test_assembler_reproduces_closed_form(alpha, beta, gamma, sigma):
    pot = QuarticPotential.from_well_params(alpha, beta, gamma)
    h = position_hamiltonian(pot, BasisSpec(40, sigma))
    ref = closed_form_position_matrix(alpha, beta, gamma, sigma, 40)
    scale = np.abs(ref).max()
    assert np.abs(h - ref).max() <= 1e-13 * scale


def test_linear_band_element_value():
    # gamma sqrt((l+1)/(4 sigma)) with l = 0, gamma = 3, sigma = 1
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    h = position_hamiltonian(pot, BasisSpec(6, 1.0))
    assert h[0, 1] == pytest.approx(1.5, abs=1e-14)
    assert h[1, 0] == pytest.approx(1.5, abs=1e-14)


def test_harmonic_limit_is_diagonal():
    # V = 4 sigma^2 x^2 at matching basis scale: kinetic and potential
    # off-diagonals cancel, eigenvalues 2 sigma (2l + 1)
    sigma = 0.7
    pot = QuarticPotential(c4=1e-300, c2=4.0 * sigma**2)
    h = position_hamiltonian(pot, BasisSpec(12, sigma))
    off = h - np.diag(np.diag(h))
    assert np.abs(off).max() <= 1e-13 * np.abs(h).max()
    assert np.allclose(np.diag(h), 2.0 * sigma * (2.0 * np.arange(12) + 1.0), rtol=1e-14)


def test_bandedness_exact_zeros():
    pot = QuarticPotential(0.8, -0.4, -5.0, 2.0, 1.0)
    h = position_hamiltonian(pot, BasisSpec(30, 1.3))
    l = np.arange(30)
    outside = np.abs(l[:, None] - l[None, :]) > 4
    assert np.all(h[outside] == 0.0)
    # the |l-m|=3 band is populated only through the cubic term
    band3 = np.abs(l[:, None] - l[None, :]) == 3
    assert np.any(h[band3] != 0.0)
    h_nocubic = position_hamiltonian(
        QuarticPotential(0.8, 0.0, -5.0, 2.0, 1.0), BasisSpec(30, 1.3)
    )
    assert np.all(h_nocubic[band3] == 0.0)


def test_matrix_elements_match_quadrature_oracle():
    pots = [
        (QuarticPotential.from_well_params(1.0, 20.0, 3.0), 2.4),
        (QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0), 0.63),
    ]
    for pot, sigma in pots:
        h = position_hamiltonian(pot, BasisSpec(31, sigma))
        scale = np.abs(h).max()
        for l in range(0, 31, 5):
            for m in range(l, 31, 5):
                ref = quadrature_matrix_element(pot, sigma, l, m)
                assert abs(h[l, m] - ref) <= 1e-10 * max(scale, 1.0)


def test_momentum_matrix_is_phase_conjugation_of_position():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    basis = BasisSpec(50, 1.7)
    h = position_hamiltonian(pot, basis)
    g = assemble_momentum(pot, basis)
    d = np.diag((-1j) ** np.arange(50))
    ref = d @ h @ d.conj().T
    assert np.abs(g - ref).max() <= 1e-14 * np.abs(h).max()
    assert np.allclose(np.abs(g), np.abs(h), atol=1e-14 * np.abs(h).max())
    assert np.abs(g - g.conj().T).max() == 0.0


def test_momentum_linear_band_phases():
    # with gamma = 3, sigma = 1: |g_10| = 1.5 on the first subdiagonal and the
    # phases follow g_lm = (-i)^(l-m) h_lm
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    g = assemble_momentum(pot, BasisSpec(6, 1.0))
    assert g[1, 0] == pytest.approx(-1.5j, abs=1e-14)
    assert g[0, 1] == pytest.approx(+1.5j, abs=1e-14)


def test_momentum_symmetric_case_is_real_with_flipped_band():
    pot = QuarticPotential.from_well_params(1.0, 12.0, 0.0)
    basis = BasisSpec(24, 1.1)
    h = position_hamiltonian(pot, basis)
    g = assemble_momentum(pot, basis)
    assert np.abs(g.imag).max() == 0.0
    l = np.arange(24)
    band2 = np.abs(l[:, None] - l[None, :]) == 2
    band4 = np.abs(l[:, None] - l[None, :]) == 4
    assert np.allclose(g.real[band2], -h[band2], atol=1e-14 * np.abs(h).max())
    assert np.allclose(g.real[band4], h[band4], atol=1e-14 * np.abs(h).max())


def test_momentum_representation_with_cubic_term():
    # the |l-m| = 3 band (cubic term) picks up phases (-i)^(l-m) = -+i too
    pot = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
    basis = BasisSpec(60, 0.63)
    h = position_hamiltonian(pot, basis)
    g = assemble_momentum(pot, basis)
    d = np.diag((-1j) ** np.arange(60))
    assert np.abs(g - d @ h @ d.conj().T).max() <= 1e-14 * np.abs(h).max()
    from scipy.linalg import eigvalsh

    e_h = eigvalsh(h)[:20]
    e_g = eigvalsh(g)[:20]
    assert np.allclose(e_h, e_g, rtol=1e-10, atol=1e-12)


def test_band_layout_and_padding():
    # LAPACK upper storage: band[4 - d, j] = h[j - d, j]; the d leading
    # entries of row 4 - d lie outside the matrix and stay zero
    pot = QuarticPotential(0.8, -0.4, -5.0, 2.0, 1.0)
    band = assemble_position(pot, BasisSpec(12, 1.3))
    assert band.shape == (5, 12)
    for d in range(1, 5):
        assert np.all(band[4 - d, :d] == 0.0)
    ref = ladder_hamiltonian(pot, BasisSpec(12, 1.3))
    for d in range(5):
        assert np.allclose(band[4 - d, d:], np.diag(ref, d), rtol=1e-14, atol=1e-14)


def test_band_matvec_matches_dense_product(rng):
    pot = QuarticPotential(0.8, -0.4, -5.0, 2.0, 1.0)
    band = assemble_position(pot, BasisSpec(30, 1.3))
    v = rng.standard_normal((30, 3))
    h = dense_band(band)
    assert np.abs(band_matvec(band, v) - h @ v).max() <= 1e-13 * np.abs(h).max()


def test_operator_matrices_consistent_with_hamiltonian():
    # h = p^2 + c4 x^4 + ... : check with the x and p^2 building blocks
    pot = QuarticPotential(0.5, 0.0, -3.0, 1.0, 0.25)
    basis = BasisSpec(20, 0.9)
    x = dense_band(position_band(basis))
    x2 = dense_band(position_squared_band(basis))
    p2 = dense_band(momentum_squared_band(basis))
    # x2 equals the padded product, not the truncated square
    a = np.zeros((22, 22))
    idx = np.arange(21)
    a[idx, idx + 1] = np.sqrt(idx + 1.0)
    x_pad = (a + a.T) / (2.0 * math.sqrt(0.9))
    assert np.allclose(x2, (x_pad @ x_pad)[:20, :20], atol=1e-15)
    h = position_hamiltonian(pot, basis)
    rebuilt = p2 + 0.5 * (x_pad @ x_pad @ x_pad @ x_pad)[:20, :20] - 3.0 * x2
    rebuilt += 1.0 * x + 0.25 * np.eye(20)
    assert np.abs(h - rebuilt).max() <= 1e-13 * np.abs(h).max()


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        BasisSpec(3, 1.0)
    with pytest.raises(ValueError):
        BasisSpec(10, 0.0)
    with pytest.raises(ValueError) as exc:
        optimal_sigma(QuarticPotential.from_well_params(1.0, 10.0, 0.0), 0)
    assert str(exc.value) == "n_basis must be positive"
