import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwell import QuarticPotential, WellSide, critical_points, mirror, turning_points

well_pots = st.builds(
    QuarticPotential.from_well_params,
    alpha=st.floats(0.2, 3.0),
    beta=st.floats(0.0, 9.0),
    gamma=st.floats(-4.0, 4.0),
)
general_pots = st.builds(
    QuarticPotential,
    c4=st.floats(0.1, 2.0),
    c3=st.floats(-1.5, 1.5),
    c2=st.floats(-8.0, 4.0),
    c1=st.floats(-4.0, 4.0),
    c0=st.floats(-3.0, 3.0),
)


def test_requires_confining_quartic_term():
    with pytest.raises(ValueError):
        QuarticPotential(c4=0.0)
    with pytest.raises(ValueError):
        QuarticPotential(c4=-1.0)


def test_horner_evaluation_matches_polyval(rng):
    pot = QuarticPotential(0.7, -0.3, -2.0, 1.1, 0.5)
    x = rng.uniform(-4, 4, size=50)
    assert np.allclose(pot(x), np.polyval(pot.coefficients, x), rtol=1e-15)


def test_symmetric_double_well_geometry():
    geo = critical_points(QuarticPotential.from_well_params(1.0, 10.0, 0.0))
    s5 = math.sqrt(5.0)
    (x1, v1), (x2, v2) = geo.minima
    assert x1 == pytest.approx(-s5, abs=1e-12)
    assert x2 == pytest.approx(s5, abs=1e-12)
    assert v1 == pytest.approx(-25.0, abs=1e-10)
    assert v2 == pytest.approx(-25.0, abs=1e-10)
    assert geo.barrier == pytest.approx((0.0, 0.0), abs=1e-12)
    assert geo.deeper_well_side is WellSide.SYMMETRIC


def test_asymmetric_well_deeper_left():
    # positions frozen from a companion-matrix root oracle on V'
    geo = critical_points(QuarticPotential.from_well_params(1.0, 10.0, 3.0))
    assert geo.deeper_well_side is WellSide.LEFT
    (xl, vl), (xr, vr) = geo.minima
    assert xl == pytest.approx(-2.307598999277483, rel=1e-12)
    assert vl == pytest.approx(-31.81716345570657, rel=1e-12)
    assert xr == pytest.approx(2.15691471929208, rel=1e-12)
    assert geo.barrier[0] == pytest.approx(0.15068427998540315, rel=1e-10)
    assert geo.barrier[0] > 0.0  # asymmetry pushes the maximum off-center


def test_strong_tilt_gives_single_well():
    # brute-force sign scan of V' confirms a single stationary point
    pot = QuarticPotential.from_well_params(1.0, 1.0, 10.0)
    x = np.linspace(-6, 6, 20001)
    dv = pot.derivative(x)
    assert np.count_nonzero(dv[:-1] * dv[1:] < 0) == 1
    geo = critical_points(pot)
    assert not geo.is_double_well
    assert len(geo.minima) == 1
    assert geo.minima[0][0] == pytest.approx(-1.4797047722094119, rel=1e-12)


def test_turning_points_at_minimum_are_doubled():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    tps = turning_points(pot, -25.0)
    s5 = math.sqrt(5.0)
    assert len(tps) == 4
    assert np.allclose(tps, [-s5, -s5, s5, s5], atol=2e-6)


def test_turning_points_above_barrier():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    tps = turning_points(pot, 10.0)
    assert len(tps) == 2
    assert np.allclose(tps, [-3.303949119326692, 3.303949119326692], rtol=1e-12)


def test_turning_points_benchmark_quartic():
    pot = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
    tps = turning_points(pot, 0.2205)
    assert np.allclose(
        tps, [-2.025776972849171, 2.416351410222441], rtol=1e-10
    )


def test_double_well_far_below_unit_scale():
    # V = x^4 - 1e-10 x^2: minima at +-sqrt(5e-11), barrier at 0
    geo = critical_points(QuarticPotential(1.0, 0.0, -1e-10, 0.0, 0.0))
    s = math.sqrt(5e-11)
    assert [x for x, _ in geo.minima] == pytest.approx([-s, s], rel=1e-14)
    assert geo.barrier == (0.0, 0.0)
    assert geo.deeper_well_side is WellSide.SYMMETRIC


@given(pot=general_pots)
def test_critical_points_are_stationary(pot):
    geo = critical_points(pot)
    scale = max(1.0, max(abs(c) for c in pot.coefficients))
    for x, _ in geo.minima:
        assert abs(pot.derivative(x)) <= 1e-10 * scale * (1.0 + abs(x)) ** 3
    if geo.barrier is not None:
        xb = geo.barrier[0]
        assert abs(pot.derivative(xb)) <= 1e-10 * scale * (1.0 + abs(xb)) ** 3
        assert geo.minima[0][0] < xb < geo.minima[1][0]


@given(pot=general_pots, offset=st.floats(0.1, 30.0))
def test_turning_points_bracket_sign_changes(pot, offset):
    energy = critical_points(pot).global_minimum[1] + offset
    tps = turning_points(pot, energy)
    x = np.linspace(-12, 12, 8001)
    y = pot(x) - energy
    for i in np.nonzero(y[:-1] * y[1:] < 0)[0]:
        assert tps.size and np.any((tps >= x[i]) & (tps <= x[i + 1]))


@given(pot=general_pots)
def test_mirror_is_involution(pot):
    assert mirror(mirror(pot)) == pot


@given(pot=well_pots)
def test_mirror_negates_critical_points(pot):
    geo = critical_points(pot)
    geo_m = critical_points(mirror(pot))
    xs = sorted(x for x, _ in geo.minima)
    xs_m = sorted(-x for x, _ in geo_m.minima)
    assert np.allclose(xs, xs_m, atol=1e-9)
