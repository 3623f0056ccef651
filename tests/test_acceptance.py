"""Acceptance suite: one test per exit criterion, printing PASS/FAIL lines.

Each criterion is asserted at its stated tolerance.  Criterion 5 is split:
the uncertainty/Shannon/Fisher bounds hold and pass; the quadratic-density
(Onicescu and composite) "bounds" are Gaussian saturation values that any
state with a node violates (the first excited oscillator state already gives
E_x E_p = (9/16)/(2 pi)), so that part is asserted faithfully and is
expected to fail.  See the README and the review notes for the analysis.
"""

import math
import time

import numpy as np
import pytest

from conftest import assemble_momentum, dense_band, well_solve
from dwell import (
    FISHER_PRODUCT_BOUND,
    ONICESCU_PRODUCT_BOUND,
    OS_TOTAL_BOUND,
    SHANNON_TOTAL_BOUND,
    Occupancy,
    QuarticPotential,
    area,
    assemble_position,
    build_grid,
    build_momentum_grid,
    critical_points,
    estimate_delta_gamma,
    eval_momentum,
    eval_position,
    mirror,
    predict_degeneracy,
    predict_occupancy,
    quasi_degenerate_pairs,
    solve,
    state_reports,
    uncertainties,
    validate_rules,
)
from dwell.basis import BasisSpec, optimal_sigma
from dwell.cli import main as cli_main
from dwell.rules import AsymmetryIndex
from scipy.linalg import eigvalsh

V2 = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
V2_REFS = (
    0.22049693355138318,
    0.799076156134041042,
    1.5794258727150421868,
    2.47522712627695799794,
)

TABLE_V = {
    0.5: [("I", 0), ("II", 0), ("I", 1), ("II", 1), ("I", 2), ("II", 2)],
    1.5: [("I", 0), ("I", 1), ("II", 0), ("I", 2), ("II", 1), ("I", 3)],
    2.5: [("I", 0), ("I", 1), ("I", 2), ("II", 0), ("I", 3), ("II", 1)],
    3.5: [("I", 0), ("I", 1), ("I", 2), ("I", 3), ("II", 0), ("I", 4)],
}

LOBE_TABLE = {
    (2.0, 8.0): [1, 2, 2, 2],
    (3.0, 12.0): [1, 1, 2, 2],
    (4.0, 16.0): [1, 1, 2, 2],
    (6.0, 25.0): [1, 1, 1, 2],
}


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


@pytest.fixture(scope="module")
def bound_sweep():
    """All state reports over the full (beta, gamma) grid, n <= 6, timed."""
    t0 = time.perf_counter()
    points = {}
    for beta in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        for gamma in range(8):
            pot = QuarticPotential.from_well_params(1.0, beta, float(gamma))
            points[(beta, float(gamma))] = state_reports(
                pot, n_basis=100, n_states=7, grid_points=4096
            )
    return points, time.perf_counter() - t0


def test_criterion_01_benchmark_convergence():
    t0 = time.perf_counter()
    spec = solve(V2, n_basis=100, n_states=4)
    solve_seconds = time.perf_counter() - t0
    ok_vals = all(
        abs(spec.energy(n) - ref) <= 1e-10 * abs(ref)
        for n, ref in enumerate(V2_REFS)
    )
    errors = {}
    for n_basis in (25, 50, 75, 100):
        s = solve(V2, n_basis=n_basis, n_states=4)
        errors[n_basis] = [abs(s.energy(n) - r) for n, r in enumerate(V2_REFS)]
    floor = [1e-10 * abs(r) for r in V2_REFS]
    ok_conv = all(
        errors[50][n] <= errors[25][n]
        and errors[75][n] <= max(errors[50][n], floor[n])
        and errors[100][n] <= max(errors[75][n], floor[n])
        for n in range(4)
    )
    ok_time = solve_seconds < 1.0
    ok = report(
        "1",
        ok_vals and ok_conv and ok_time,
        f"benchmark quartic E0..E3 at 1e-10 rel, monotone digit gain, "
        f"solve {solve_seconds * 1e3:.0f} ms",
    )
    assert ok


def test_criterion_02_deep_well_reference_energies():
    checks = []
    spec0 = well_solve(1.0, 30.0, 0.0, n_states=11, shift_min_to_zero=True)
    checks.append(abs(spec0.energy(0) - 7.7123035268648) <= 1e-8)
    checks.append(abs(spec0.energy(2) - 22.999742809258) <= 1e-8)
    spec4 = well_solve(1.0, 30.0, 4.0, n_states=11, shift_min_to_zero=True)
    checks.append(abs(spec4.energy(2) - 38.592130067269) <= 1e-8)
    checks.append(abs(spec4.energy(3) - 38.592130067269) <= 1e-8)
    spec8 = well_solve(1.0, 30.0, 8.0, n_states=11, shift_min_to_zero=True)
    checks.append(abs(spec8.energy(4) - 69.461672176182) <= 1e-8)
    checks.append(abs(spec8.energy(5) - 69.461672176182) <= 1e-8)
    ok = report("2", all(checks), "beta=30 reference energies within 1e-8")
    assert ok


def test_criterion_03_engineered_pair_gaps():
    checks = []
    spec = well_solve(1.0, 11.0, 2.0, n_states=8, shift_min_to_zero=True)
    checks.append(abs(spec.energy(1) - 13.823057196) <= 1e-8)
    checks.append(abs(spec.energy(2) - 13.823101835) <= 1e-8)
    gap12 = spec.energy(2) - spec.energy(1)
    checks.append(abs(gap12 - 4.46e-5) <= 5e-7)
    spec158 = well_solve(1.0, 15.0, 8.0, n_states=8)
    gap45 = spec158.energy(5) - spec158.energy(4)
    checks.append(abs(gap45 - 2.9e-6) <= 0.1 * 2.9e-6)
    spec2012 = well_solve(1.0, 20.0, 12.0, n_states=9)
    gap67 = spec2012.energy(7) - spec2012.energy(6)
    checks.append(gap67 <= 2e-8)
    ok = report(
        "3",
        all(checks),
        f"engineered pairs: gap12={gap12:.4e}, gap45={gap45:.3e}, gap67={gap67:.2e}",
    )
    assert ok


def test_criterion_04_gap_table():
    checks = []
    gap = {}
    for beta in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
        for gamma, (lo, hi) in ((2.0, (1, 2)), (4.0, (2, 3)), (6.0, (3, 4)), (8.0, (4, 5))):
            spec = well_solve(1.0, beta, gamma, n_states=11)
            gap[(beta, gamma)] = spec.energy(hi) - spec.energy(lo)
    checks.append(abs(gap[(5.0, 2.0)] - 0.728) <= 1e-3)
    checks.append(abs(gap[(10.0, 2.0)] - 3.5e-4) <= 0.1 * 3.5e-4)
    checks.append(3.3e-9 / 3.0 <= gap[(15.0, 2.0)] <= 3.3e-9 * 3.0)
    for beta in (20.0, 25.0, 30.0):
        for gamma in (2.0, 4.0, 6.0, 8.0):
            checks.append(gap[(beta, gamma)] < 1e-9)
    ok = report(
        "4",
        all(checks),
        f"gaps: (5,2)={gap[(5.0, 2.0)]:.4f}, (10,2)={gap[(10.0, 2.0)]:.3e}, "
        f"(15,2)={gap[(15.0, 2.0)]:.2e}, beta>=20 all <1e-9",
    )
    assert ok


def test_criterion_05_bound_suite_heisenberg_shannon_fisher(bound_sweep):
    points, elapsed = bound_sweep
    worst_dxdp = min(r.uncertainty_product for reps in points.values() for r in reps)
    worst_s = min(r.measures.s_total for reps in points.values() for r in reps)
    worst_i = min(r.measures.i_product for reps in points.values() for r in reps)
    checks = [
        worst_dxdp >= 0.5 - 1e-9,
        worst_s >= SHANNON_TOTAL_BOUND - 1e-6,
        worst_i >= FISHER_PRODUCT_BOUND - 1e-6,
        elapsed < 60.0,
    ]
    ok = report(
        "5 (dx*dp, Shannon, Fisher)",
        all(checks),
        f"min dx*dp={worst_dxdp:.6f}, min S={worst_s:.6f}, min I={worst_i:.4f}, "
        f"sweep {elapsed:.1f} s",
    )
    assert ok


def test_criterion_05_bound_suite_onicescu_os_as_specified(bound_sweep):
    """Faithful assertion of the quadratic-density bounds over the grid.

    EXPECTED TO FAIL: E_x E_p >= 1/(2 pi) and the composite bound are
    saturation values of the Gaussian ground state, not theorems.  Any state
    with a node breaks them (the first excited oscillator state gives
    exactly (9/16)/(2 pi)); delocalized doublet members break them by a
    further factor 3/4.  Kept red on purpose; see README and review notes.
    """
    points, _ = bound_sweep
    worst_e = min(r.measures.e_product for reps in points.values() for r in reps)
    worst_os = min(r.measures.os_total for reps in points.values() for r in reps)
    checks = [
        worst_e >= ONICESCU_PRODUCT_BOUND - 1e-6,
        worst_os >= OS_TOTAL_BOUND - 1e-6,
    ]
    report(
        "5 (Onicescu, composite)",
        all(checks),
        f"min E={worst_e:.6f} (bound {ONICESCU_PRODUCT_BOUND:.6f}), "
        f"min OS={worst_os:.6f} (bound {OS_TOTAL_BOUND:.6f}); "
        "these are Gaussian saturation values, violated by every state with a node",
    )
    assert all(checks)


def test_criterion_06_symmetry_suite():
    checks = []
    spec = well_solve(1.0, 20.0, 0.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 0.0)
    geo = critical_points(pot)
    grid = build_grid(pot, spec.energy(6), 4096)
    from dwell import well_occupancy

    for n in range(6):
        occ = well_occupancy(spec, n, geo, grid)
        checks.append(abs(occ.p_well_I - 0.5) <= 1e-6)
        checks.append(abs(uncertainties(spec, n).mean_x) <= 1e-10)
    pot_a = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec_a = solve(pot_a, 100, 7)
    spec_m = solve(mirror(pot_a), 100, 7)
    rel = np.abs(spec_a.energies[:7] - spec_m.energies[:7]) / np.maximum(
        1.0, np.abs(spec_a.energies[:7])
    )
    checks.append(rel.max() <= 1e-10)
    for n in range(6):
        checks.append(
            abs(uncertainties(spec_a, n).mean_x + uncertainties(spec_m, n).mean_x)
            <= 1e-10
        )
    ok = report("6", all(checks), "parity split 0.5, <x>=0, mirror spectra agree")
    assert ok


def test_criterion_07_representation_equivalence():
    pot = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    sigma = optimal_sigma(pot, 100)
    basis = BasisSpec(100, sigma)
    e_pos = eigvalsh(dense_band(assemble_position(pot, basis)))
    e_mom = eigvalsh(assemble_momentum(pot, basis))
    rel = np.abs(e_pos[:33] - e_mom[:33]) / np.maximum(1.0, np.abs(e_pos[:33]))
    ok_spec = rel.max() <= 1e-10

    spec = solve(pot, 100, 4)
    grid = build_grid(pot, spec.energy(3), 4096)
    pgrid = build_momentum_grid(pot, spec.energy(3), 4096)
    x = grid.x
    w = np.ones(x.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= grid.dx / 3.0
    p_sub = pgrid.x[::16]
    kernel = np.exp(-1j * np.outer(p_sub, x))
    ft_dev = 0.0
    parseval_dev = 0.0
    for n in range(4):
        psi = eval_position(spec, n, grid).values
        oracle = kernel @ (w * psi) / math.sqrt(2.0 * math.pi)
        psi_t = eval_momentum(spec, n, pgrid)
        ft_dev = max(ft_dev, float(np.abs(psi_t.values[::16] - oracle).max()))
        parseval_dev = max(parseval_dev, abs(psi_t.norm_squared() - 1.0))
    ok = report(
        "7",
        ok_spec and ft_dev <= 1e-7 and parseval_dev <= 1e-6,
        f"isospectral to {rel.max():.1e}, FT pointwise {ft_dev:.1e}, "
        f"Parseval {parseval_dev:.1e}",
    )
    assert ok


def test_criterion_08_scaling_invariance():
    from dwell import (
        eval_momentum_derivative,
        eval_position_derivative,
        info_measures,
    )

    lam = 1.3
    base = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    scaled = QuarticPotential.from_well_params(
        lam**6, lam**4 * 20.0, lam**3 * 3.0
    )
    measures = []
    for pot in (base, scaled):
        spec = solve(pot, 100, 5)
        grid = build_grid(pot, spec.energy(4), 4096)
        pgrid = build_momentum_grid(pot, spec.energy(4), 4096)
        measures.append(
            [
                info_measures(
                    eval_position(spec, n, grid),
                    eval_position_derivative(spec, n, grid),
                    eval_momentum(spec, n, pgrid),
                    eval_momentum_derivative(spec, n, pgrid),
                )
                for n in range(4)
            ]
        )
    dev_total = max(
        abs(a.s_total - b.s_total) for a, b in zip(measures[0], measures[1])
    )
    dev_shift = max(
        abs(b.s_x - (a.s_x - math.log(lam)))
        for a, b in zip(measures[0], measures[1])
    )
    ok = report(
        "8",
        dev_total <= 1e-6 and dev_shift <= 1e-6,
        f"S_total invariant to {dev_total:.1e}, S_x shift -ln(lambda) to {dev_shift:.1e}",
    )
    assert ok


def test_criterion_09_rules_engine():
    ok_table = True
    ok_agreement = True
    for gamma, expected in ((1.0, 0.5), (3.0, 1.5), (5.0, 2.5), (7.0, 3.5)):
        pot = QuarticPotential.from_well_params(1.0, 20.0, gamma)
        reports = state_reports(pot, n_basis=100, n_states=6, grid_points=4096)
        index = AsymmetryIndex.from_gamma(gamma, 2.0)
        for n, (well, nodes) in enumerate(TABLE_V[expected]):
            rep = reports[n]
            ok_table &= rep.occupancy.value == well
            ok_table &= rep.effective_nodes == nodes
            ok_agreement &= predict_occupancy(index, n).value == well
    ok_pairs = True
    for gamma in (0.0, 2.0, 4.0, 6.0, 8.0):
        spec = well_solve(1.0, 30.0, gamma, n_states=12)
        detected = [(a, b) for a, b, _ in quasi_degenerate_pairs(spec, n_max=10)]
        index = AsymmetryIndex.from_gamma(gamma, 2.0)
        predicted = list(predict_degeneracy(index, n_max=10).pairs)
        ok_pairs &= detected == predicted
    ok = report(
        "9",
        ok_table and ok_agreement and ok_pairs,
        "occupancy + effective-node truth table, 100% agreement, pair "
        "prediction matches detection at beta=30",
    )
    assert ok


def test_criterion_10_delta_gamma_and_jump_counts():
    estimates = {}
    for alpha, expected in ((0.5, 1.4), (1.0, 2.0), (2.0, 2.85)):
        est = estimate_delta_gamma(alpha)
        estimates[alpha] = est.delta_gamma
        assert abs(est.delta_gamma - expected) <= 0.05, (alpha, est.delta_gamma)
    rep = validate_rules(
        1.0, 20.0, np.arange(0.0, 8.01, 0.5), n_max=3, delta_gamma=2.0
    )
    jump_ok = True
    counts = {}
    for n in range(4):
        counts[n] = rep.transition_neighborhoods(n, gamma_max=2.0 * (n + 1))
        jump_ok &= counts[n] == n + 1
    ok = report(
        "10",
        jump_ok,
        f"delta_gamma={ {a: round(v, 4) for a, v in estimates.items()} }, "
        f"jump counts={counts}",
    )
    assert ok


def test_criterion_11_phase_space():
    ok_lobes = True
    for (gamma, beta), expected in LOBE_TABLE.items():
        spec = well_solve(1.0, beta, gamma, n_states=4)
        pot = QuarticPotential.from_well_params(1.0, beta, gamma)
        counts = [area(pot, spec.energy(n)).lobe_count for n in range(4)]
        ok_lobes &= counts == expected
    spec = well_solve(1.0, 16.0, 4.0, n_states=5)
    pot = QuarticPotential.from_well_params(1.0, 16.0, 4.0)
    gap = spec.energy(3) - spec.energy(2)
    r2, r3 = area(pot, spec.energy(2)), area(pot, spec.energy(3))
    merge_ok = (
        gap < 1e-8 * (1.0 + abs(spec.energy(2)))
        and abs(r2.allowed_action - r3.allowed_action) <= 1e-3 * r2.allowed_action
        and abs(r2.barrier_action - r3.barrier_action) <= 1e-3 * r2.barrier_action
    )
    ok = report(
        "11",
        ok_lobes and merge_ok,
        "lobe counts match the narrative table; paired areas merge at integer k",
    )
    assert ok


def test_criterion_12_determinism_and_cache(tmp_path):
    args = [
        "sweep", "--alpha", "1", "--beta", "20", "--gamma", "0:7:0.5",
        "--states", "6", "--grid-points", "2048", "--workers", "1",
        "--outdir", str(tmp_path),
    ]
    t0 = time.perf_counter()
    assert cli_main(args) == 0
    cold = time.perf_counter() - t0
    first = (tmp_path / "sweep.csv").read_bytes()
    t0 = time.perf_counter()
    assert cli_main(args) == 0
    warm = time.perf_counter() - t0
    second = (tmp_path / "sweep.csv").read_bytes()
    assert cli_main(args + ["--no-cache"]) == 0
    uncached = (tmp_path / "sweep.csv").read_bytes()
    speedup = cold / warm
    # occupancy plateaus: away from the even-gamma transition points every
    # state is fully localized at this beta
    import csv

    with open(tmp_path / "sweep.csv", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    plateau_ok = all(
        float(r["p_well_I"]) < 0.01 or float(r["p_well_I"]) > 0.99
        for r in rows
        if abs(float(r["gamma"]) / 2.0 - round(float(r["gamma"]) / 2.0)) > 1e-9
    )
    ok = report(
        "12",
        first == second == uncached and speedup >= 10.0 and plateau_ok,
        f"byte-identical outputs, cache speedup {speedup:.0f}x, occupancy plateaus",
    )
    assert ok
