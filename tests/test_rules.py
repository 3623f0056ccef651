import math

import pytest
from hypothesis import given, strategies as st

from dwell import (
    AsymmetryIndex,
    DeltaGammaEstimate,
    NoTransitionsFound,
    Occupancy,
    QuarticPotential,
    estimate_delta_gamma,
    predict_degeneracy,
    predict_occupancy,
    solve,
    validate_rules,
)
from dwell import phasespace, rules

I, II, BOTH = Occupancy.WELL_I, Occupancy.WELL_II, Occupancy.BOTH

# lowest six states for the four fractional-k ranges (wells and their
# single-well ladder indices; the ladder indices are exercised elsewhere)
FRACTIONAL_K_WELLS = {
    0.5: [I, II, I, II, I, II],
    1.5: [I, I, II, I, II, I],
    2.5: [I, I, I, II, I, II],
    3.5: [I, I, I, I, II, I],
}


def idx(k, delta_gamma=2.0):
    return AsymmetryIndex.from_gamma(k * delta_gamma, delta_gamma)


def test_integer_detection_tolerance():
    assert idx(2.0).is_integer
    assert AsymmetryIndex.from_gamma(4.02, 2.0).is_integer  # k = 2.01
    assert not AsymmetryIndex.from_gamma(4.10, 2.0).is_integer  # k = 2.05
    assert idx(2.0).k_integer == 2
    assert idx(2.5).k_integer is None
    assert idx(2.5).k_fraction_parity == 0
    assert idx(1.5).k_fraction_parity == 1


def test_predicted_pairs_symmetric_case():
    pred = predict_degeneracy(idx(0.0), n_max=10)
    assert pred.pairs == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))
    assert pred.non_degenerate_below == 0


def test_predicted_pairs_odd_k():
    pred = predict_degeneracy(idx(3.0), n_max=7)
    assert pred.pairs == ((3, 4), (5, 6))
    assert pred.non_degenerate_below == 3


def test_predicted_pairs_all_integer_k():
    expected = {
        0: ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)),
        1: ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)),
        2: ((2, 3), (4, 5), (6, 7), (8, 9)),
        3: ((3, 4), (5, 6), (7, 8), (9, 10)),
        4: ((4, 5), (6, 7), (8, 9)),
    }
    for k, pairs in expected.items():
        assert predict_degeneracy(idx(float(k)), n_max=10).pairs == pairs


def test_no_pairs_for_fractional_k():
    assert predict_degeneracy(idx(1.5), n_max=10).pairs == ()
    assert predict_degeneracy(idx(0.5), n_max=10).pairs == ()


def test_occupancy_truth_table_fractional():
    for k, wells in FRACTIONAL_K_WELLS.items():
        got = [predict_occupancy(idx(k), n) for n in range(6)]
        assert got == wells, f"k={k}"


def test_occupancy_integer_k():
    assert predict_occupancy(idx(1.0), 0) is I
    assert predict_occupancy(idx(1.0), 1) is BOTH
    assert predict_occupancy(idx(4.0), 4) is BOTH
    assert predict_occupancy(idx(4.0), 3) is I
    assert predict_occupancy(idx(0.0), 0) is BOTH  # symmetric well


def test_parity_reduction():
    # fractional k, n >= k: same parity of n and floor(k) means well I
    for k in (0.5, 1.5, 2.5, 3.5):
        index = idx(k)
        floor_parity = int(k)
        for n in range(int(k) + 1, 7):
            expected = I if n % 2 == floor_parity % 2 else II
            assert predict_occupancy(index, n) is expected


def test_prediction_consistency_pairs_vs_both():
    # at integer k every state predicted BOTH belongs to a predicted pair
    for k in range(5):
        index = idx(float(k))
        pairs = predict_degeneracy(index, n_max=11).pairs
        paired = {i for ab in pairs for i in ab}
        for n in range(10):
            if predict_occupancy(index, n) is BOTH:
                assert n in paired


@pytest.mark.parametrize("alpha, beta_probe, rel", [
    (0.25, None, 1e-9),
    (0.5, None, 1e-9),
    (1.0, None, 1e-12),
    (2.0, None, 1e-12),
    (3.0, None, 1e-9),
    (5.0, None, 1e-9),
    (1.0, 6.0, 1e-9),  # far too shallow: the probe beta must be raised
    (1.0, 24.0, 1e-9),
])
def test_delta_gamma_matches_closed_form(alpha, beta_probe, rel):
    # the wells' Bohr-Sommerfeld numbers differ by gamma / (2 sqrt(alpha)),
    # so level crossings recur every 2 sqrt(alpha) in gamma
    delta_gamma = 2.0 * math.sqrt(alpha)
    est = estimate_delta_gamma(alpha, beta_probe=beta_probe)
    assert est.delta_gamma == pytest.approx(delta_gamma, rel=rel)
    for tau in est.transitions:
        assert tau == pytest.approx(round(tau / delta_gamma) * delta_gamma, rel=1e-9)
    assert est.uncertainty < 0.01
    assert len(est.transitions) >= 2
    if beta_probe == 6.0:
        assert est.beta_used > 6.0


@given(
    alpha=st.floats(0.25, 5.0),
    beta_scale=st.floats(10.0, 30.0),
    gamma_scale=st.floats(0.7, 5.3),
)
def test_well_actions_differ_by_k(alpha, beta_scale, gamma_scale):
    # V = W'^2 + k W'' (plus a constant) with W' = sqrt(alpha) x^2 -
    # beta / (2 sqrt(alpha)) and k = gamma / (2 sqrt(alpha)): at every energy
    # the lobes' nu = (1/pi) int sqrt(E - V) dx differ by exactly k
    beta, gamma = beta_scale * math.sqrt(alpha), gamma_scale * math.sqrt(alpha)
    pot = QuarticPotential.from_well_params(alpha, beta, gamma)
    k = gamma / (2.0 * math.sqrt(alpha))
    checked = 0
    for energy in solve(pot, 100, 12).energies:
        lobes = phasespace.area(pot, energy).lobes
        if len(lobes) != 2:
            continue
        nu_1, nu_2 = (
            phasespace._sqrt_interval(
                pot, energy, lobe.x_lo, lobe.x_hi, 1.0, phasespace.DEFAULT_QUAD_NODES
            ) / math.pi
            for lobe in lobes
        )
        assert abs(abs(nu_1 - nu_2) - k) <= 1e-12 * max(1.0, k)
        checked += 1
    assert checked > 0


def test_delta_gamma_solve_budget(monkeypatch):
    # the refinement reuses the eigenvectors of each solve for the gap slope;
    # a derivative-free search needs some 76 more solves per sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rules, "solve", counted)
    estimate_delta_gamma(1.0)
    assert len(calls) <= rules.GAMMA_SCAN_POINTS + 40


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan])
def test_delta_gamma_rejects_non_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        estimate_delta_gamma(alpha)


@pytest.mark.parametrize("gamma_range", [(-8.0, -0.05), (5.0, 1.0), (1.0, 1.0), (0.05, math.inf)])
def test_delta_gamma_rejects_negative_or_reversed_gamma_range(gamma_range):
    # a mirror image has the same spectrum, so (-8, -0.05) is asked as (0.05, 8)
    with pytest.raises(ValueError, match="gamma_range"):
        estimate_delta_gamma(1.0, gamma_range=gamma_range)


@pytest.mark.parametrize("beta_probe", [math.nan, math.inf, 0.0, -16.0])
def test_delta_gamma_rejects_non_positive_beta_probe(beta_probe):
    with pytest.raises(ValueError, match="beta_probe"):
        estimate_delta_gamma(1.0, beta_probe=beta_probe)


def test_rule_validation_localized_grid():
    report = validate_rules(1.0, 20.0, [1.0, 3.0, 5.0, 7.0], n_max=5, delta_gamma=2.0)
    assert all(p.participates for p in report.points)
    assert report.occupancy_agreement == 1.0
    assert report.pairs_agreement == 1.0
    for p in report.points:
        assert p.detected_pairs == ()


def test_rule_validation_below_threshold_beta_excluded():
    report = validate_rules(1.0, 5.0, [1.0, 3.0, 5.0], n_max=5, delta_gamma=2.0)
    assert not any(p.participates for p in report.points)


def test_rule_validation_detects_pairs_at_moderate_beta():
    report = validate_rules(
        1.0, 10.0, [2.0], n_max=3, delta_gamma=2.0, rel_tol=1e-3
    )
    (point,) = report.points
    assert (1, 2) in point.detected_pairs
    # at this moderate beta only the lowest predicted pair has collapsed yet;
    # detections must never be false positives though
    assert set(point.detected_pairs) <= set(point.predicted_pairs)


def test_no_transitions_raises():
    with pytest.raises(NoTransitionsFound):
        estimate_delta_gamma(1.0, beta_probe=0.5, gamma_range=(0.05, 1.0))


def test_validate_rules_estimates_delta_gamma_with_its_basis(monkeypatch):
    calls = []

    def fake_estimate(alpha, **kwargs):
        calls.append((alpha, kwargs))
        return DeltaGammaEstimate(2.0, 0.0, (2.0, 4.0), 16.0)

    monkeypatch.setattr(rules, "estimate_delta_gamma", fake_estimate)
    report = validate_rules(1.0, 20.0, [3.0], n_max=2, n_basis=60)
    assert calls == [(1.0, {"n_basis": 60})]
    assert report.delta_gamma == 2.0
