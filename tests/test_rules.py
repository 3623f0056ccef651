import math

import pytest
from hypothesis import given, strategies as st

from dwell import (
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


def test_integer_detection_tolerance():
    assert predict_degeneracy(2.0, n_max=4) == ((2, 3),)
    assert predict_degeneracy(2.01, n_max=4) == ((2, 3),)
    assert predict_degeneracy(2.05, n_max=4) == ()


def test_predicted_pairs_symmetric_case():
    assert predict_degeneracy(0.0, n_max=10) == ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9))


def test_predicted_pairs_odd_k():
    assert predict_degeneracy(3.0, n_max=7) == ((3, 4), (5, 6))


def test_predicted_pairs_all_integer_k():
    expected = {
        0: ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)),
        1: ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10)),
        2: ((2, 3), (4, 5), (6, 7), (8, 9)),
        3: ((3, 4), (5, 6), (7, 8), (9, 10)),
        4: ((4, 5), (6, 7), (8, 9)),
    }
    for k, pairs in expected.items():
        assert predict_degeneracy(float(k), n_max=10) == pairs


def test_no_pairs_for_fractional_k():
    assert predict_degeneracy(1.5, n_max=10) == ()
    assert predict_degeneracy(0.5, n_max=10) == ()


def test_occupancy_truth_table_fractional():
    for k, wells in FRACTIONAL_K_WELLS.items():
        got = [predict_occupancy(k, n) for n in range(6)]
        assert got == wells, f"k={k}"


def test_occupancy_integer_k():
    assert predict_occupancy(1.0, 0) is I
    assert predict_occupancy(1.0, 1) is BOTH
    assert predict_occupancy(4.0, 4) is BOTH
    assert predict_occupancy(4.0, 3) is I
    assert predict_occupancy(0.0, 0) is BOTH  # symmetric well


def test_parity_reduction():
    # fractional k, n >= k: same parity of n and floor(k) means well I
    for k in (0.5, 1.5, 2.5, 3.5):
        floor_parity = int(k)
        for n in range(int(k) + 1, 7):
            expected = I if n % 2 == floor_parity % 2 else II
            assert predict_occupancy(k, n) is expected


def test_prediction_consistency_pairs_vs_both():
    # at integer k every state predicted BOTH belongs to a predicted pair
    for k in range(5):
        pairs = predict_degeneracy(float(k), n_max=11)
        paired = {i for ab in pairs for i in ab}
        for n in range(10):
            if predict_occupancy(float(k), n) is BOTH:
                assert n in paired


@given(k=st.floats(-12.0, 12.0), n=st.integers(0, 11))
def test_predictions_read_the_magnitude_of_k(k, n):
    assert predict_occupancy(-k, n) is predict_occupancy(k, n)
    assert predict_degeneracy(-k, n + 1) == predict_degeneracy(k, n + 1)


@pytest.mark.parametrize("alpha", [0.01, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 16.0, 100.0])
def test_delta_gamma_matches_closed_form(alpha):
    # the wells' Bohr-Sommerfeld numbers differ by gamma / (2 sqrt(alpha)),
    # so level crossings recur every 2 sqrt(alpha) in gamma; the probe is the
    # alpha-1 well rescaled, so it is as accurate at every alpha
    delta_gamma = 2.0 * math.sqrt(alpha)
    est = estimate_delta_gamma(alpha)
    assert est.delta_gamma == pytest.approx(delta_gamma, rel=1e-12)
    for tau in est.transitions:
        assert tau == pytest.approx(round(tau / delta_gamma) * delta_gamma, rel=1e-9)
    assert est.uncertainty < 0.01
    assert len(est.transitions) >= 2
    assert est.beta_used == 16.0 * alpha ** (2.0 / 3.0)


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
    # a derivative-free search needs some 76 more solves per sweep, and one
    # scan serves every alpha
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rules, "solve", counted)
    for alpha in (1.0, 100.0):
        calls.clear()
        estimate_delta_gamma(alpha)
        assert len(calls) <= rules.GAMMA_SCAN_POINTS + 40, alpha


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan])
def test_delta_gamma_rejects_non_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        estimate_delta_gamma(alpha)


def test_delta_gamma_rejects_infinite_alpha():
    with pytest.raises(ValueError, match="alpha must be finite, got inf"):
        estimate_delta_gamma(math.inf)


def test_rule_validation_localized_grid():
    report = validate_rules(1.0, 20.0, [1.0, 3.0, 5.0, 7.0], n_max=5, delta_gamma=2.0)
    assert all(p.participates for p in report.points)
    assert report.occupancy_agreement == 1.0
    assert report.pairs_agreement == 1.0
    for p in report.points:
        assert p.detected_pairs == ()


def test_rule_validation_at_negative_gamma():
    # the deeper well of a negative gamma lies on the right; well I follows it
    report = validate_rules(1.0, 20.0, [-3.0, -2.0, 2.0, 3.0], delta_gamma=2.0)
    assert report.occupancy_agreement == 1.0
    assert report.pairs_agreement == 1.0
    minus, plus = validate_rules(1.0, 30.0, [-6.0, 6.0], delta_gamma=2.0).points
    assert minus.predicted_pairs == minus.detected_pairs == ((3, 4), (5, 6))
    assert minus.k == -plus.k == -3.0


_VERDICTS = (
    "predicted_pairs", "detected_pairs", "occupancy_predicted", "occupancy_measured",
    "at_transition", "participates", "pairs_match", "occupancy_agreement",
)


@given(gamma=st.floats(0.0, 7.0))
def test_rule_verdicts_are_mirror_symmetric(gamma):
    plus, minus = validate_rules(1.0, 20.0, [gamma, -gamma], delta_gamma=2.0).points
    assert minus.k == -plus.k
    for verdict in _VERDICTS:
        assert getattr(minus, verdict) == getattr(plus, verdict), verdict


def test_rule_validation_rejects_non_positive_delta_gamma_before_any_solve():
    with pytest.raises(ValueError, match="delta_gamma must be positive"):
        validate_rules(1.0, 20.0, [], delta_gamma=0.0)


def test_rule_validation_below_threshold_beta_excluded():
    report = validate_rules(1.0, 5.0, [1.0, 3.0, 5.0], n_max=5, delta_gamma=2.0)
    assert not any(p.participates for p in report.points)


def test_rule_validation_detects_pairs_at_moderate_beta():
    report = validate_rules(
        1.0, 10.0, [2.0], n_max=3, delta_gamma=2.0, rel_tol=1e-3
    )
    (point,) = report.points
    assert (1, 2) in point.detected_pairs
    # a detected pair's members are measured in both wells, so at a transition
    assert all(point.at_transition[n] for ab in point.detected_pairs for n in ab)
    # at this moderate beta only the lowest predicted pair has collapsed yet;
    # detections must never be false positives though
    assert set(point.detected_pairs) <= set(point.predicted_pairs)


def test_no_transitions_raises():
    # 16 oscillator functions cannot resolve the probe's collapsed gaps
    with pytest.raises(NoTransitionsFound, match="no sharp gap minima found for alpha=1.0"):
        estimate_delta_gamma(1.0, n_basis=16)
