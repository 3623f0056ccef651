import sys
import types

import numpy as np
import pytest
from scipy.linalg import eig_banded, lapack

from conftest import ladder_hamiltonian, well_solve
from dwell import (
    BasisSpec,
    BasisTooSmall,
    ConvergenceFailure,
    QuarticPotential,
    ScaleOutOfRange,
    assemble_position,
    certified_states,
    mirror,
    optimal_sigma,
    quasi_degenerate_pairs,
    solve,
    spectrum,
)

BENCHMARK_QUARTIC = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
# independent high-accuracy eigenvalues for the benchmark quartic potential
BENCHMARK_ENERGIES = (
    0.22049693355138318,
    0.799076156134041042,
    1.5794258727150421868,
    2.47522712627695799794,
)


def test_benchmark_quartic_eigenvalues():
    spec = solve(BENCHMARK_QUARTIC, n_basis=100, n_states=4)
    for n, ref in enumerate(BENCHMARK_ENERGIES):
        assert spec.energy(n) == pytest.approx(ref, rel=1e-12)


def test_benchmark_quartic_convergence_with_basis_size():
    errors = {}
    for n_basis in (25, 50, 75, 100):
        spec = solve(BENCHMARK_QUARTIC, n_basis=n_basis, n_states=4)
        errors[n_basis] = [
            abs(spec.energy(n) - ref) for n, ref in enumerate(BENCHMARK_ENERGIES)
        ]
    floor = [1e-12 * abs(r) for r in BENCHMARK_ENERGIES]
    for n in range(4):
        assert errors[50][n] <= errors[25][n]
        assert errors[75][n] <= max(errors[50][n], floor[n])
        assert errors[100][n] <= max(errors[75][n], floor[n])


def test_deep_well_eigenvalues_match_reference_table():
    # beta = 30 references (minimum shifted to zero)
    spec = well_solve(1.0, 30.0, 0.0, n_states=11, shift_min_to_zero=True)
    assert spec.energy(0) == pytest.approx(7.7123035268648, abs=1e-9)
    assert spec.energy(1) == pytest.approx(7.7123035268649, abs=1e-9)
    assert spec.energy(2) == pytest.approx(22.999742809258, abs=1e-9)
    assert spec.energy(10) == pytest.approx(81.934752122370, abs=1e-9)
    spec4 = well_solve(1.0, 30.0, 4.0, n_states=11, shift_min_to_zero=True)
    assert spec4.energy(0) == pytest.approx(7.8120692428683, abs=1e-9)
    assert spec4.energy(2) == pytest.approx(38.592130067269, abs=1e-9)
    assert spec4.energy(3) == pytest.approx(38.592130067269, abs=1e-9)


def test_moderate_well_quasi_degenerate_gap():
    spec = well_solve(1.0, 11.0, 2.0, n_states=8, shift_min_to_zero=True)
    assert spec.energy(1) == pytest.approx(13.823057196, abs=1e-8)
    assert spec.energy(2) == pytest.approx(13.823101835, abs=1e-8)
    gap = spec.energy(2) - spec.energy(1)
    assert gap == pytest.approx(4.46e-5, abs=5e-7)


def test_quasi_degenerate_pair_detection_deep_symmetric():
    spec = well_solve(1.0, 30.0, 0.0, n_states=11)
    pairs = quasi_degenerate_pairs(spec)
    assert pairs == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]


def test_no_pairs_for_shallow_well():
    spec = well_solve(1.0, 5.0, 2.0, n_states=8)
    assert quasi_degenerate_pairs(spec) == []  # smallest gap there is 0.728


def test_no_pairs_for_single_well():
    spec = well_solve(1.0, 0.0, 0.0, n_states=8)
    assert quasi_degenerate_pairs(spec) == []


def test_pairs_are_greedy_non_overlapping():
    spec = well_solve(1.0, 30.0, 0.0, n_states=11)
    pairs = quasi_degenerate_pairs(spec, rel_tol=1.0)  # everything "degenerate"
    indices = [i for a, b in pairs for i in (a, b)]
    assert indices == sorted(set(indices))


@pytest.mark.parametrize("rel_tol", [0.0, -1e-6, float("nan")])
def test_pair_tolerance_must_be_positive(rel_tol):
    # a NaN tolerance compares false both ways: it must not pass as "no pairs"
    spec = well_solve(1.0, 30.0, 0.0, n_states=6)
    with pytest.raises(ValueError, match="rel_tol must be positive"):
        quasi_degenerate_pairs(spec, rel_tol=rel_tol)


def test_spectrum_invariants():
    for args in [(1.0, 20.0, 3.0), (1.0, 5.0, 0.0), (0.5, 12.0, 1.0)]:
        spec = well_solve(*args, n_states=8)
        assert spec.energies.shape == (8,)
        assert spec.coefficients.shape == (spec.n_basis, 8)
        assert np.all(np.diff(spec.energies) >= 0.0)
        gram = spec.coefficients.T @ spec.coefficients
        assert np.abs(gram - np.eye(8)).max() <= 1e-12
        pot = QuarticPotential.from_well_params(*args)
        h = ladder_hamiltonian(pot, spec.basis)
        res = h @ spec.coefficients - spec.coefficients * spec.energies
        bound = 1e-10 * np.maximum(1.0, np.abs(spec.energies[:8]))
        assert np.all(np.linalg.norm(res, axis=0) <= bound)


def test_parity_blocks_give_exact_parity_vectors():
    spec = well_solve(1.0, 20.0, 0.0, n_states=8)
    parity_support = np.arange(spec.n_basis) % 2
    for n in range(8):
        c = spec.coefficients[:, n]
        even_mass = np.linalg.norm(c[parity_support == 0])
        odd_mass = np.linalg.norm(c[parity_support == 1])
        assert min(even_mass, odd_mass) == 0.0
        # tunneling doublets carry even parity first
        assert (even_mass > 0.0) == (n % 2 == 0)


def test_mirror_spectra_agree():
    for gamma in (1.0, 3.0):
        pot = QuarticPotential.from_well_params(1.0, 14.0, gamma)
        e1 = solve(pot, 80, 8).energies[:8]
        e2 = solve(mirror(pot), 80, 8).energies[:8]
        assert np.allclose(e1, e2, rtol=1e-10, atol=1e-12)


def test_basis_size_robustness_across_parameter_grid():
    # measured truncation floor: <= 1e-10 relative up to n = 6; the deepest
    # wells drift to ~4e-9 relative by n = 10 (still far below every
    # reported-value tolerance, which all apply at N = 100)
    for beta in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        for gamma in range(8):
            pot = QuarticPotential.from_well_params(1.0, beta, float(gamma))
            e75 = solve(pot, 75, 11).energies
            e100 = solve(pot, 100, 11).energies
            rel = np.abs(e75 - e100) / np.maximum(1.0, np.abs(e100))
            assert rel[:7].max() <= 1e-10
            assert rel.max() <= 1e-8


def test_sigma_robustness(monkeypatch):
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    ref = solve(pot, 100, 7)
    for factor in (0.8, 1.25):
        sigma = factor * ref.basis.sigma
        monkeypatch.setattr(spectrum, "optimal_sigma", lambda pot, n_basis: sigma)
        detuned = solve(pot, 100, 7)
        assert detuned.basis.sigma == sigma
        rel = np.abs(detuned.energies[:7] - ref.energies[:7]) / np.maximum(
            1.0, np.abs(ref.energies[:7])
        )
        assert rel.max() <= 1e-8


def test_basis_too_small_error():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    with pytest.raises(BasisTooSmall):
        solve(pot, n_basis=20, n_states=11)  # state 10 > n_basis // 3
    with pytest.raises(BasisTooSmall):
        solve(pot, n_basis=30, n_states=12)  # first state past the band
    assert solve(pot, n_basis=30, n_states=11).n_verified == 11


@pytest.mark.filterwarnings("error")
def test_wells_beyond_double_precision_raise_scale_out_of_range():
    # sigma = 5e-300 underflows sigma^2, so the band holds infs and NaNs;
    # an energy of 1e308 overflows the squares in its residual norm
    wide = QuarticPotential.from_well_params(1e-300, 20.0, 0.0)
    with pytest.raises(ScaleOutOfRange, match="band overflows double precision"):
        solve(wide, n_states=2)
    high = QuarticPotential.from_well_params(1.0, 20.0, 0.0).shifted(1e308)
    with pytest.raises(ScaleOutOfRange, match="residual of state 0 at energy 1.000e.308"):
        solve(high, n_states=2)


def test_convergence_certification_flag():
    spec = well_solve(1.0, 10.0, 0.0, n_basis=100, n_states=8)
    assert spec.converged(33)
    assert not spec.converged(34)
    assert certified_states(100) == 34


# ---------------------------------------------------------------- dsbevx call


def well_bands(seed, count):
    """(band, k): position bands of random well-parameter potentials, with
    the full band, its mirror image and both parity-block strided views."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        pot = QuarticPotential.from_well_params(
            rng.uniform(0.2, 3.0), rng.uniform(-5.0, 40.0), rng.uniform(-8.0, 8.0)
        )
        n_basis = int(rng.integers(12, 151))
        basis = BasisSpec(n_basis, optimal_sigma(pot, n_basis))
        band = assemble_position(pot, basis)
        k = int(rng.integers(1, certified_states(n_basis) + 1))
        yield band, k
        yield assemble_position(mirror(pot), basis), k
        for parity in (0, 1):
            block = band[::2, parity::2]
            yield block, min(k, block.shape[1])


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_lowest_matches_eig_banded_bit_for_bit():
    for band, k in well_bands(9, 300):
        w, v = spectrum._lowest(band, k)
        w_ref, v_ref = eig_banded(band, select="i", select_range=(0, k - 1))
        assert same_bits(w, w_ref) and same_bits(v, v_ref)


class ModuleWithoutDsbevx:
    """Stands in for ExtensionFileLoader: the file loads, dsbevx is missing."""

    def __init__(self, name, path):
        self.name = name

    def create_module(self, spec):
        return types.ModuleType(spec.name)

    def exec_module(self, module):
        pass


class UnloadableExtension(ModuleWithoutDsbevx):
    def create_module(self, spec):
        raise ImportError("undefined symbol")


def f2py_fallback(monkeypatch):
    """The loader's fallback where numpy's LAPACK exports no ILP64 dsbevx."""
    monkeypatch.setattr(spectrum, "_ILP64_SYMBOLS", ())
    loaded = spectrum._load_lapack()
    assert loaded.func is spectrum._call_f2py
    return loaded


@pytest.mark.parametrize("attr, value", [
    ("EXTENSION_SUFFIXES", [".missing"]),
    ("ExtensionFileLoader", ModuleWithoutDsbevx),
    ("ExtensionFileLoader", UnloadableExtension),
])
def test_scipy_linalg_lapack_fallback_gives_the_same_bits(monkeypatch, attr, value):
    cases = list(well_bands(17, 25))
    direct = [spectrum._lowest(band, k) for band, k in cases]
    # the default path calls the ILP64 dsbevx of numpy's own LAPACK
    assert spectrum._dsbevx.func is spectrum._call_ilp64
    assert spectrum._dsbevx.args[0].__name__ in spectrum._ILP64_SYMBOLS
    # with those symbols hidden, the f2py wrapper from scipy's extension file
    by_file = f2py_fallback(monkeypatch)
    assert by_file.args[0] is not lapack.dsbevx
    # and from scipy.linalg.lapack where that file fails
    monkeypatch.setattr(spectrum, attr, value)
    public = f2py_fallback(monkeypatch)
    assert public.args == (lapack.dsbevx,)
    # the abstol of _lowest is eig_banded's 2 * dlamch('s')
    assert 2.0 * sys.float_info.min == 2 * lapack.dlamch("s")
    for loaded in (by_file, public):
        monkeypatch.setattr(spectrum, "_dsbevx", loaded)
        for (band, k), (w, v) in zip(cases, direct):
            w_fb, v_fb = spectrum._lowest(band, k)
            assert same_bits(w_fb, w) and same_bits(v_fb, v)


@pytest.mark.parametrize("loader", ["default", "fallback"])
def test_lowest_leaves_the_band_unchanged(monkeypatch, loader):
    # _split_doublets and the residual check of solve read the band after
    # it; dsbevx overwrites the band it is given, so both paths copy it
    if loader == "fallback":
        monkeypatch.setattr(spectrum, "_dsbevx", f2py_fallback(monkeypatch))
    for band, k in well_bands(5, 60):
        for ab in (band, np.asfortranarray(band)):
            before = ab.copy()
            spectrum._lowest(ab, k)
            assert same_bits(ab, before)


def test_lowest_keeps_the_eig_banded_checks(monkeypatch):
    band, k = next(well_bands(3, 1))
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.5)
    for dsbevx in (spectrum._dsbevx, f2py_fallback(monkeypatch)):
        monkeypatch.setattr(spectrum, "_dsbevx", dsbevx)
        for bad in (np.nan, np.inf):
            broken = band.copy()
            broken[2, 5] = bad
            with pytest.raises(ValueError, match="infs or NaNs"):
                spectrum._lowest(broken, k)
        for k_bad in (0, band.shape[1] + 1):
            with pytest.raises(ValueError, match="out of bounds"):
                spectrum._lowest(band, k_bad)
        for info, error in ((-3, ValueError), (2, ConvergenceFailure)):
            def failing(band, k, dsbevx=dsbevx, info=info):
                w, v, m, _ = dsbevx(band, k)
                return w, v, m, info

            monkeypatch.setattr(spectrum, "_dsbevx", failing)
            match = f"LAPACK info={info}" if info > 0 else "argument 3"
            with pytest.raises(error, match=match):
                spectrum._lowest(band, k)
            with pytest.raises(error, match=match):
                solve(pot, n_basis=40, n_states=4)
