import math

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from scipy.integrate import quad
from scipy.special import eval_hermite

from conftest import confining_quartics
from dwell import (
    BasisTooSmall,
    NoTransitionsFound,
    Occupancy,
    QuarticPotential,
    SolverError,
    build_grid,
    critical_points,
    estimate_delta_gamma,
    mirror,
    predict_degeneracy,
    predict_occupancy,
    solve,
    validate_rules,
    wavefunctions,
    well_occupancy,
)
from dwell import measures, phasespace, rules, wavefunction
from dwell.rules import PROBE_STATES, _overlaps_below, band_occupancy

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


@pytest.mark.parametrize(
    "alpha", [1e-12, 1e-6, 0.01, 0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 16.0, 100.0, 1e6, 1e12]
)
def test_delta_gamma_matches_closed_form(alpha):
    # the wells' Bohr-Sommerfeld numbers differ by gamma / (2 sqrt(alpha)),
    # so level crossings recur every 2 sqrt(alpha) in gamma; every alpha
    # scales the transitions of the one alpha-1 probe by sqrt(alpha), so it
    # is as accurate at every alpha
    delta_gamma = 2.0 * math.sqrt(alpha)
    est = estimate_delta_gamma(alpha)
    # abs=0: approx's default absolute slack of 1e-12 would pass any
    # estimate at alpha 1e-12, where delta_gamma is 2e-6
    assert est.delta_gamma == pytest.approx(delta_gamma, rel=1e-12, abs=0.0)
    assert [round(tau / delta_gamma) for tau in est.transitions] == [1, 2, 3]
    for k, tau in enumerate(est.transitions, start=1):
        assert tau == pytest.approx(k * delta_gamma, rel=1e-9, abs=0.0)
    assert est.uncertainty < 0.01


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
            phasespace._sqrt_interval(pot, energy, lobe.x_lo, lobe.x_hi, 1.0) / math.pi
            for lobe in lobes
        )
        assert abs(abs(nu_1 - nu_2) - k) <= 1e-12 * max(1.0, k)
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("alpha", [1e-12, 1.0, 100.0, 1e12])
def test_delta_gamma_costs_the_same_at_every_scale(monkeypatch, alpha):
    # 12 scan points and four refinements of about 5 solves each; the
    # refinement reuses the eigenvectors of each solve for the gap slope (a
    # derivative-free search needs some 76 more solves per sweep) and stops
    # at a step relative to gamma, so no scale pays more.  The cache is
    # cleared first, so every alpha pays for a cold probe
    rules._probe_transitions.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rules, "solve", counted)
    estimate_delta_gamma(alpha)
    assert 0 < len(calls) <= 32


def test_delta_gamma_probe_runs_once_per_basis_size(monkeypatch):
    # 12 scan points and four refinements of about 5 solves each, on the
    # alpha-1 well; the refinement reuses the eigenvectors of each solve for
    # the gap slope (a derivative-free search needs some 76 more solves per
    # sweep), and every alpha scales the same transitions.  The cache is
    # cleared first, so the probe solves here and only here
    rules._probe_transitions.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(rules, "solve", counted)
    for alpha in (1e-12, 1.0, 100.0, 1e12):
        estimate_delta_gamma(alpha)
    assert 0 < len(calls) <= 32


def test_each_probe_solve_asks_for_probe_states_states(monkeypatch):
    # `_probe_transitions` reads the gaps of the pairs (1, 2), (2, 3) and
    # (3, 4), so state 4 is the highest it needs: each probe solve asks for
    # states 0..4 and no more, at any basis that certifies them
    calls = []

    def counted(pot, n_basis, n_states):
        calls.append((n_basis, n_states))
        return solve(pot, n_basis, n_states)

    monkeypatch.setattr(rules, "solve", counted)
    energies, slopes = rules._levels(2.0, n_basis=40)
    assert calls == [(40, PROBE_STATES)]
    assert len(energies) == len(slopes) == PROBE_STATES == 5


@pytest.mark.parametrize("j", [-20, -1, 1, 20])
def test_delta_gamma_follows_the_scaling_law_exactly(j):
    # sqrt(4^j) = 2^j, and scaling by a power of 2 rounds nothing, so the
    # transitions, the spacings and their mean and spread at alpha = 4^j are
    # 2^j times alpha 1's bit for bit
    unit, est = estimate_delta_gamma(1.0), estimate_delta_gamma(4.0**j)
    scale = 2.0**j
    assert est.delta_gamma == scale * unit.delta_gamma
    assert est.uncertainty == scale * unit.uncertainty
    assert est.transitions == tuple(scale * tau for tau in unit.transitions)


@pytest.mark.parametrize("alpha", [-1.0, 0.0, math.nan])
def test_delta_gamma_rejects_non_positive_alpha(alpha):
    with pytest.raises(ValueError, match="alpha must be positive"):
        estimate_delta_gamma(alpha)


@pytest.mark.parametrize("predict, index, message", [
    (predict_degeneracy, 0, "n_max must be at least 1"),
    (predict_occupancy, -1, "state index must be non-negative"),
])
def test_rule_predictions_reject_an_index_out_of_range(predict, index, message):
    with pytest.raises(ValueError) as exc:
        predict(1.0, index)
    assert str(exc.value) == message


def test_delta_gamma_rejects_infinite_alpha():
    with pytest.raises(ValueError, match="alpha must be finite, got inf"):
        estimate_delta_gamma(math.inf)


@pytest.mark.parametrize("scale", [1.0, 1e-10])
def test_transition_neighborhoods_cut_is_relative(scale):
    # state 0 is at a transition only at the last point, beyond gamma_max
    def point(gamma, occupancy):
        return rules.RulePoint(gamma, 0.0, (), (), (occupancy,), (occupancy,))

    report = rules.RuleValidationReport(
        points=(point(0.0, I), point(scale, I), point(2.0 * scale, I), point(3.0 * scale, BOTH)),
    )
    assert report.transition_neighborhoods(0) == 1
    assert report.transition_neighborhoods(0, gamma_max=2.0 * scale) == 0


def test_rule_validation_localized_grid():
    report = validate_rules(1.0, 20.0, [1.0, 3.0, 5.0, 7.0], n_max=5)
    assert all(p.participates for p in report.points)
    assert report.occupancy_agreement == 1.0
    assert report.pairs_agreement == 1.0
    for p in report.points:
        assert p.detected_pairs == ()


# the double wells that validate-rules reads: alpha, beta and k = gamma / (2 sqrt(alpha))
rule_wells = st.builds(
    lambda alpha, beta, k: QuarticPotential.from_well_params(
        alpha, beta, 2.0 * math.sqrt(alpha) * k),
    st.floats(0.5, 2.0), st.floats(2.0, 40.0),
    st.one_of(st.integers(-4, 4).map(float), st.floats(-4.0, 4.0)),
)


def hermite_function(l, t):
    """h_l(t) from scipy's Hermite polynomial, for the quadrature reference."""
    norm = math.pi**-0.25 / math.sqrt(2.0**l * math.factorial(l))
    return norm * eval_hermite(l, t) * math.exp(-0.5 * t * t)


@pytest.mark.parametrize("t_b", [-2.5, -0.4, 0.0, 1.3])
def test_partial_overlaps_match_quadrature(t_b):
    reference = np.array([
        [quad(lambda t: hermite_function(l, t) * hermite_function(m, t), -np.inf, t_b,
              epsabs=1e-14, epsrel=1e-13)[0] for m in range(12)]
        for l in range(12)
    ])
    np.testing.assert_allclose(_overlaps_below(12, t_b), reference, rtol=0.0, atol=1e-14)


def test_partial_overlaps_tend_to_the_identity_far_right():
    # past the top function's turning point sqrt(2 n + 1) = 14.1 every h_l
    # decays, so M loses its off-diagonal entries and its diagonal reaches 1
    gaps = [np.abs(_overlaps_below(100, t_b) - np.eye(100)).max() for t_b in (16.0, 20.0, 24.0)]
    assert gaps[0] < 1e-8 and gaps[1] < 1e-25 and gaps[2] < 1e-50
    assert gaps == sorted(gaps, reverse=True)
    assert np.array_equal(_overlaps_below(100, 40.0), np.eye(100))
    assert np.array_equal(_overlaps_below(100, -40.0), np.zeros((100, 100)))


@given(pot=rule_wells, n_states=st.integers(1, 9))
def test_band_occupancy_matches_a_fine_grid_over_both_wells(pot, n_states):
    # the reference is the grid split on 65536 intervals, over the window
    # of 16 times the energy range up to the top state or the barrier: a
    # window at the top state alone leaves up to 9e-5 of a shallow well's
    # density outside it.  Over 4500 such wells the two differed by at most
    # 4.8e-15
    geometry = critical_points(pot)
    assume(geometry.is_double_well)
    spec = solve(pot, 100, n_states)
    v_min = geometry.global_minimum[1]
    e_max = v_min + 16.0 * (max(spec.energy(n_states - 1), geometry.barrier[1]) - v_min)
    grid = build_grid(pot, e_max, 65536)
    reference = well_occupancy(grid, wavefunctions(spec, grid, None)[0], geometry)[0]
    np.testing.assert_allclose(band_occupancy(spec, geometry), reference, rtol=0.0, atol=5e-14)


@given(pot=confining_quartics(symmetric=True))
def test_band_occupancy_splits_symmetric_wells_in_half(pot):
    # every state has a parity and the barrier is at t = 0, where M holds
    # 1/2 on its diagonal and 0 between functions of one parity
    geometry = critical_points(pot)
    assume(geometry.is_double_well)
    np.testing.assert_allclose(band_occupancy(solve(pot, 100, 8), geometry), 0.5,
                               rtol=0.0, atol=1e-14)


@given(pot=rule_wells, n_states=st.integers(1, 9))
def test_band_occupancy_is_mirror_symmetric(pot, n_states):
    # well I is the deeper one on either side; measured at most 2.1e-15
    # apart over 3000 wells
    assume(critical_points(pot).is_double_well)
    p_i = [band_occupancy(solve(v, 100, n_states), critical_points(v)) for v in (pot, mirror(pot))]
    np.testing.assert_allclose(p_i[0], p_i[1], rtol=0.0, atol=1e-14)


def test_band_occupancy_of_a_single_well_is_1():
    pot = QuarticPotential.from_well_params(1.0, 1.0, 10.0)
    assert not critical_points(pot).is_double_well
    assert np.array_equal(band_occupancy(solve(pot, 100, 4), critical_points(pot)), np.ones(4))


def test_rule_validation_samples_no_state_on_a_grid(monkeypatch):
    # the occupancies are quadratic forms of the coefficients
    # (`measures.band_occupancy`), so no grid is built or sampled
    def no_grid(*args, **kwargs):
        raise AssertionError("sampled on a grid")

    for module, name in ((wavefunction, "build_grid"), (wavefunction, "wavefunctions"),
                         (measures, "well_occupancy")):
        monkeypatch.setattr(module, name, no_grid)
    assert not {"build_grid", "wavefunctions", "well_occupancy"} & set(vars(rules))
    report = validate_rules(1.0, 20.0, [1.0, 2.0, 3.0, -5.0], n_max=5)
    assert report.occupancy_agreement == report.pairs_agreement == 1.0


def test_rule_validation_at_negative_gamma():
    # the deeper well of a negative gamma lies on the right; well I follows it
    report = validate_rules(1.0, 20.0, [-3.0, -2.0, 2.0, 3.0])
    assert report.occupancy_agreement == 1.0
    assert report.pairs_agreement == 1.0
    minus, plus = validate_rules(1.0, 30.0, [-6.0, 6.0]).points
    assert minus.predicted_pairs == minus.detected_pairs == ((3, 4), (5, 6))
    assert minus.k == -plus.k == -3.0


@pytest.mark.parametrize("j", [-40, -20, 20])
def test_detected_pairs_follow_the_scaling_law(j):
    # alpha = 4^j scales every energy by alpha^(1/3) = 2^(2j/3): a pair gap
    # tested against an absolute floor reads as degenerate far below unit
    # scale, against the basis scale sigma it reads as at alpha 1
    def verdicts(alpha):
        gammas = [k * 2.0 * math.sqrt(alpha) for k in (1.01, 1.5, 2.0)]
        report = validate_rules(alpha, 20.0 * alpha ** (2.0 / 3.0), gammas)
        return [(p.detected_pairs, p.pairs_match) for p in report.points]

    unit = verdicts(1.0)
    assert verdicts(4.0**j) == unit
    # at k = 1.5 and 2 (gamma 3 and 4 at alpha 1) the detected pairs are the
    # predicted ones, at every scale
    assert [match for _, match in unit[1:]] == [True, True]


_VERDICTS = (
    "predicted_pairs", "detected_pairs", "occupancy_predicted", "occupancy_measured",
    "at_transition", "participates", "pairs_match", "occupancy_agreement",
)


@given(gamma=st.floats(0.0, 7.0))
def test_rule_verdicts_are_mirror_symmetric(gamma):
    plus, minus = validate_rules(1.0, 20.0, [gamma, -gamma]).points
    assert minus.k == -plus.k
    for verdict in _VERDICTS:
        assert getattr(minus, verdict) == getattr(plus, verdict), verdict


def test_rule_validation_beyond_the_certified_band_raises():
    # 100 functions certify states 0..33; n_max = 40 asks for 0..41, which
    # must not be measured on 34 states and compared with 41 predictions
    with pytest.raises(BasisTooSmall, match="state 41 requested"):
        validate_rules(1.0, 20.0, [3.0], n_max=40)
    with pytest.raises(BasisTooSmall, match="state 34 requested"):
        rules.measured_occupancies(QuarticPotential.from_well_params(1.0, 20.0, 3.0), 33)


@pytest.mark.parametrize("alpha, word", [
    (0.0, "positive"), (-1.0, "positive"), (math.nan, "positive"), (math.inf, "finite"),
])
def test_rule_validation_rejects_a_bad_alpha_before_any_solve(monkeypatch, alpha, word):
    # k = gamma / (2 sqrt(alpha)), and the interval is worked out before the
    # first gamma is solved
    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    monkeypatch.setattr(rules, "solve", no_solve)
    with pytest.raises(ValueError) as exc:
        validate_rules(alpha, 20.0, [1.0, 3.0])
    assert str(exc.value) == f"alpha must be {word}, got {alpha}"


def test_rule_validation_below_threshold_beta_excluded():
    report = validate_rules(1.0, 5.0, [1.0, 3.0, 5.0], n_max=5)
    assert not any(p.participates for p in report.points)


def test_rule_validation_detects_pairs_at_moderate_beta():
    report = validate_rules(1.0, 10.0, [2.0], n_max=3, rel_tol=1e-3)
    (point,) = report.points
    assert (1, 2) in point.detected_pairs
    # a detected pair's members are measured in both wells, so at a transition
    assert all(point.at_transition[n] for ab in point.detected_pairs for n in ab)
    # at this moderate beta only the lowest predicted pair has collapsed yet;
    # detections must never be false positives though
    assert set(point.detected_pairs) <= set(point.predicted_pairs)


def test_no_transitions_raises():
    # 16 oscillator functions cannot resolve the probe's collapsed gaps
    assert issubclass(NoTransitionsFound, SolverError)
    with pytest.raises(NoTransitionsFound, match="no sharp gap minima found for alpha=1.0"):
        estimate_delta_gamma(1.0, n_basis=16)
