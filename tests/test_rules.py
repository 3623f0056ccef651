import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from dwell import (
    AsymmetryIndex,
    DeltaGammaEstimate,
    NoTransitionsFound,
    Occupancy,
    estimate_delta_gamma,
    predict_degeneracy,
    predict_occupancy,
    validate_rules,
)
from dwell import rules

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


def test_delta_gamma_unit_interval():
    est = estimate_delta_gamma(1.0)
    assert est.delta_gamma == pytest.approx(2.0, abs=0.05)
    assert est.uncertainty < 0.01
    assert len(est.transitions) >= 2


def test_delta_gamma_invariant_under_probe_beta():
    est = estimate_delta_gamma(1.0, beta_probe=24.0)
    assert est.delta_gamma == pytest.approx(2.0, abs=0.05)


def test_delta_gamma_auto_raises_probe_beta():
    # a probe beta far too shallow for quasi-degeneracy must be increased
    est = estimate_delta_gamma(1.0, beta_probe=6.0)
    assert est.beta_used > 6.0
    assert est.delta_gamma == pytest.approx(2.0, abs=0.05)


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


def oracle_objective(rng, kind):
    """A random objective: polynomial, |sin| or quadratic, some np.float64."""
    if kind == 0:
        coeffs = rng.normal(size=int(rng.integers(3, 8)))
        return lambda x: np.polyval(coeffs, x)  # np.float64
    if kind == 1:
        w, phase = rng.uniform(0.5, 5.0), rng.uniform(0.0, 2.0 * math.pi)
        return lambda x: abs(math.sin(w * x + phase))
    centre, scale = rng.normal(), rng.uniform(0.1, 10.0)
    return lambda x: np.float64(scale * (x - centre) ** 2)


def recorded(func, points):
    def wrapped(x):
        points.append(float(x).hex())
        return func(x)

    return wrapped


@pytest.mark.parametrize("xatol", [1e-5, 1e-8, 1e-12])
def test_bounded_minimum_matches_scipy_bit_for_bit(xatol):
    rng = np.random.default_rng(5)
    for case in range(300):
        func = oracle_objective(rng, case % 3)
        lo = np.float64(rng.uniform(-5.0, 5.0))
        hi = lo + np.float64(rng.uniform(1e-3, 8.0))
        want_points, got_points = [], []
        res = minimize_scalar(
            recorded(func, want_points), bounds=(lo, hi), method="bounded",
            options={"xatol": xatol},
        )
        x, fun = rules._bounded_minimum(recorded(func, got_points), lo, hi, xatol)
        assert got_points == want_points, case
        assert x.hex() == float(res.x).hex(), case
        assert fun.hex() == float(res.fun).hex(), case


def scipy_bounded_minimum(func, lo, hi, xatol):
    res = minimize_scalar(func, bounds=(lo, hi), method="bounded", options={"xatol": xatol})
    return float(res.x), float(res.fun)


@pytest.mark.parametrize("beta_probe", [None, 6.0])  # 6.0 takes the retry path
def test_delta_gamma_unchanged_under_scipy_minimizer(monkeypatch, beta_probe):
    est = estimate_delta_gamma(1.0, beta_probe=beta_probe)
    monkeypatch.setattr(rules, "_bounded_minimum", scipy_bounded_minimum)
    assert estimate_delta_gamma(1.0, beta_probe=beta_probe) == est


def test_validate_rules_estimates_delta_gamma_with_its_basis(monkeypatch):
    calls = []

    def fake_estimate(alpha, **kwargs):
        calls.append((alpha, kwargs))
        return DeltaGammaEstimate(2.0, 0.0, (2.0, 4.0), 16.0)

    monkeypatch.setattr(rules, "estimate_delta_gamma", fake_estimate)
    report = validate_rules(1.0, 20.0, [3.0], n_max=2, n_basis=60)
    assert calls == [(1.0, {"n_basis": 60})]
    assert report.delta_gamma == 2.0
