"""Acceptance suite: one test per exit criterion, printing PASS/FAIL lines.

Each criterion is asserted at its stated tolerance.  Criterion 5 is split.
The uncertainty, Shannon and Fisher constants are true lower bounds and are
asserted as such over the whole grid.  The Onicescu and composite constants
are the values the Gaussian takes, not bounds in either direction (on the
grid E_x E_p runs from 0.17 to 1.02 times 1/(2 pi)); that half asserts what
theory gives instead: E exp(S) >= 1 in each space for every state, the
Gaussian values as the deep-well limit of localized nodeless states, and
the closed-form ratios of the symmetric ground doublet (3/4) and of
one-node states (9/16).  See the README.
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
    mirror,
    momentum_functions,
    position_functions,
    predict_degeneracy,
    predict_occupancy,
    quasi_degenerate_pairs,
    solve,
    state_reports,
    uncertainties,
    validate_rules,
    well_occupancy,
)
from dwell.basis import BasisSpec, optimal_sigma
from dwell.cli import main as cli_main
from dwell.rules import AsymmetryIndex
from dwell.wavefunction import simpson
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
    worst_s = min(r.s_total for reps in points.values() for r in reps)
    worst_i = min(r.i_product for reps in points.values() for r in reps)
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
    """Onicescu and composite measures over the grid, checked against theory.

    ONICESCU_PRODUCT_BOUND = 1/(2 pi) and OS_TOTAL_BOUND are the values the
    Gaussian takes, not bounds in either direction: on this grid e_product
    runs from 0.171 to 1.017 times 1/(2 pi), and os_total reaches 1.061
    times OS_TOTAL_BOUND.  What does hold, and is asserted:

    1. E exp(S) >= 1 in each space for every state: the Renyi-2 entropy
       -ln E never exceeds the Shannon entropy S (Jensen's inequality on
       ln rho), with equality only for a uniform density.
    2. The Gaussian values are the deep-well limit of localized, effectively
       nodeless states: within 2e-3 at beta = 30, and the largest deviation
       over these states does not grow with beta.
    3. Two counterexamples at beta = 30, as reference values of their
       closed-form limits (ratios to the Gaussian values):
       - the symmetric ground doublet (gamma = 0, n = 0, 1) spreads over two
         distant wells, which halves E_x, adds ln 2 to S_x, and puts
         cos^2 fringes on the momentum density, so E_p grows by 3/2 and S_p
         by ln 2 - 1: ratios 3/4 and (3/4) 2^(4/3) e^(-2/3);
       - a localized state with one node is the first oscillator state of
         its well: E is 3/4 of the Gaussian's in each space and S exceeds it
         by dS1 = ln 2 + euler_gamma - 1 in each, so the ratios are 9/16 and
         (9/16) e^(4 dS1 / 3).  States with further nodes in the other well
         are left out: at gamma = 6 the n = 6 state carries 0.13 % of its
         exactly degenerate partner, a mixing angle the eigensolver picks
         arbitrarily, which moves its composite ratio to 0.810.
       Each tolerance is about twice the anharmonic correction measured at
       beta = 30.
    """
    points, _ = bound_sweep
    reps = [(beta, r) for (beta, _), rs in points.items() for r in rs]

    def ratios(r):
        return r.e_product / ONICESCU_PRODUCT_BOUND, r.os_total / OS_TOTAL_BOUND

    renyi_x = min(r.e_x * math.exp(r.s_x) for _, r in reps)
    renyi_p = min(r.e_p * math.exp(r.s_p) for _, r in reps)

    localized = (Occupancy.WELL_I, Occupancy.WELL_II)
    nodeless = {}
    for beta, r in reps:
        if r.occupancy in localized and r.effective_nodes == 0:
            nodeless.setdefault(beta, []).append(ratios(r))
    betas = sorted({beta for beta, _ in points})
    assert sorted(nodeless) == betas, "a beta has no localized nodeless state"
    deviation = [
        max(abs(q - 1.0) for pair in nodeless[beta] for q in pair)
        for beta in sorted(nodeless)
    ]

    doublet = [ratios(r) for r in points[(30.0, 0.0)][:2]]
    one_node = [
        ratios(r)
        for beta, r in reps
        if beta == 30.0
        and r.occupancy in localized
        and r.effective_nodes == r.total_nodes == 1
    ]
    assert one_node, "no localized one-node state at beta=30"
    ds1 = math.log(2.0) + np.euler_gamma - 1.0
    doublet_os = 0.75 * 2.0 ** (4.0 / 3.0) * math.exp(-2.0 / 3.0)
    one_node_os = (9.0 / 16.0) * math.exp(4.0 * ds1 / 3.0)

    checks = [
        renyi_x >= 1.0 - 1e-6,
        renyi_p >= 1.0 - 1e-6,
        all(abs(q - 1.0) <= 2e-3 for pair in nodeless[30.0] for q in pair),
        all(later <= earlier for earlier, later in zip(deviation, deviation[1:])),
        # anharmonic shift at beta = 30: 4.2e-4 in E, 1.0e-3 in OS
        all(abs(e - 0.75) <= 8e-4 for e, _ in doublet),
        all(abs(o - doublet_os) <= 2e-3 for _, o in doublet),
        # anharmonic shift at beta = 30: 3.5e-3 in E, 4.6e-5 in OS
        all(abs(e - 9.0 / 16.0) <= 7e-3 for e, _ in one_node),
        all(abs(o - one_node_os) <= 9e-5 for _, o in one_node),
    ]
    ok = report(
        "5 (Onicescu, composite)",
        all(checks),
        f"min E exp(S): x {renyi_x:.4f}, p {renyi_p:.4f}; nodeless deviation "
        f"from the Gaussian by beta: {', '.join(f'{d:.2%}' for d in deviation)}; "
        f"beta=30 doublet E, OS ratios "
        f"{min(e for e, _ in doublet):.4f}, {min(o for _, o in doublet):.4f}; "
        f"one-node {min(e for e, _ in one_node):.4f}-{max(e for e, _ in one_node):.4f}, "
        f"{min(o for _, o in one_node):.5f}-{max(o for _, o in one_node):.5f}",
    )
    assert ok


def test_criterion_06_symmetry_suite():
    checks = []
    spec = well_solve(1.0, 20.0, 0.0, n_states=7)
    pot = QuarticPotential.from_well_params(1.0, 20.0, 0.0)
    geo = critical_points(pot)
    grid = build_grid(pot, spec.energy(6), 4096)
    psi, _ = position_functions(spec, grid, 6)
    p_well_I = well_occupancy(grid, psi, geo)[0]

    for p_i, mean_x in zip(p_well_I, uncertainties(spec, 6)[0], strict=True):
        checks.append(abs(p_i - 0.5) <= 1e-6)
        checks.append(abs(mean_x) <= 1e-10)
    pot_a = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    spec_a = solve(pot_a, 100, 7)
    spec_m = solve(mirror(pot_a), 100, 7)
    rel = np.abs(spec_a.energies[:7] - spec_m.energies[:7]) / np.maximum(
        1.0, np.abs(spec_a.energies[:7])
    )
    checks.append(rel.max() <= 1e-10)
    for mean_a, mean_m in zip(uncertainties(spec_a, 6)[0], uncertainties(spec_m, 6)[0]):
        checks.append(abs(mean_a + mean_m) <= 1e-10)
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
    psi_x, _ = position_functions(spec, grid, 4)
    psi_p, _ = momentum_functions(spec, pgrid, 4)
    for psi, psi_t in zip(psi_x, psi_p, strict=True):
        oracle = kernel @ (w * psi) / math.sqrt(2.0 * math.pi)
        ft_dev = max(ft_dev, float(np.abs(psi_t[::16] - oracle).max()))
        parseval_dev = max(parseval_dev, abs(simpson(np.abs(psi_t) ** 2, pgrid.dx) - 1.0))
    ok = report(
        "7",
        ok_spec and ft_dev <= 1e-7 and parseval_dev <= 1e-6,
        f"isospectral to {rel.max():.1e}, FT pointwise {ft_dev:.1e}, "
        f"Parseval {parseval_dev:.1e}",
    )
    assert ok


def test_criterion_08_scaling_invariance():
    from dwell import info_measures, position_functions

    lam = 1.3
    base = QuarticPotential.from_well_params(1.0, 20.0, 3.0)
    scaled = QuarticPotential.from_well_params(
        lam**6, lam**4 * 20.0, lam**3 * 3.0
    )
    s_x, s_total = [], []
    for pot in (base, scaled):
        spec = solve(pot, 100, 5)
        grid = build_grid(pot, spec.energy(4), 4096)
        pgrid = build_momentum_grid(pot, spec.energy(4), 4096)
        psi_x, dpsi_x = position_functions(spec, grid, 4)
        psi_p, dpsi_p = momentum_functions(spec, pgrid, 4)
        sx, sp, *_ = info_measures(grid, psi_x, dpsi_x, pgrid, psi_p, dpsi_p)
        s_x.append(sx)
        s_total.append(sx + sp)
    dev_total = float(np.max(np.abs(s_total[0] - s_total[1])))
    dev_shift = float(np.max(np.abs(s_x[1] - (s_x[0] - math.log(lam)))))
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
