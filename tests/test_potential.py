import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import scalable_pots
from dwell import (QuarticPotential, ScaleOutOfRange, WellSide, critical_points, mirror,
                   turning_points)

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


@pytest.mark.parametrize("coefficients", [
    (1.0, math.nan), (1.0, math.inf), (math.inf,), (1.0, 0.0, 0.0, 0.0, -math.inf),
])
def test_requires_finite_coefficients(coefficients):
    # critical_points would read one of these as one symmetric well with a
    # NaN minimum value
    with pytest.raises(ValueError, match="coefficients must be finite"):
        QuarticPotential(*coefficients)


@pytest.mark.parametrize("beta", [1e200, 1e308])
def test_extrema_beyond_double_precision_raise_scale_out_of_range(beta):
    # the minimum value -beta^2 / 4 overflows at beta 1e200, and 2 c2 in V'
    # at beta 1e308
    with pytest.raises(ScaleOutOfRange, match="^the extrema of the well leave double precision$"):
        critical_points(QuarticPotential.from_well_params(1.0, beta, 0.0))


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
    tps = np.array(turning_points(pot, energy))
    x = np.linspace(-12, 12, 8001)
    y = pot(x) - energy
    for i in np.nonzero(y[:-1] * y[1:] < 0)[0]:
        assert tps.size and np.any((tps >= x[i]) & (tps <= x[i + 1]))


@given(pot=general_pots)
def test_mirror_is_involution(pot):
    assert mirror(mirror(pot)) == pot


def _mirrored(point):
    return None if point is None else (-point[0], point[1])


@given(pot=general_pots)
def test_mirror_negates_critical_points(pot):
    geo = critical_points(pot)
    geo_m = critical_points(mirror(pot))
    assert geo_m.minima == tuple(_mirrored(m) for m in reversed(geo.minima))
    assert geo_m.barrier == _mirrored(geo.barrier)
    swap = {WellSide.LEFT: WellSide.RIGHT, WellSide.RIGHT: WellSide.LEFT,
            WellSide.SYMMETRIC: WellSide.SYMMETRIC}
    assert geo_m.deeper_well_side is swap[geo.deeper_well_side]


# a tolerance with an absolute part calls both examples symmetric: at
# k = -60 both minimum values lie below 1e-16, and at j = -45 the single
# minimum sits at -1.8e-14
@example(pot=QuarticPotential.from_well_params(1.0, 10.0, 3.0), k=-60, j=0)
@example(pot=QuarticPotential(1.0, 0.0, 0.0, 1.0, 0.0), k=0, j=-45)
@given(pot=scalable_pots, k=st.integers(-60, 60), j=st.integers(-30, 30))
def test_geometry_is_exactly_scale_covariant(pot, k, j):
    # 2^k V(2^-j x): minima and barrier at 2^j x, values 2^k v, same side
    scaled = QuarticPotential(
        *(math.ldexp(c, k - j * (4 - i)) for i, c in enumerate(pot.coefficients))
    )
    geo, geo_s = critical_points(pot), critical_points(scaled)

    def scale(point):
        return None if point is None else (math.ldexp(point[0], j), math.ldexp(point[1], k))

    assert geo_s.minima == tuple(scale(m) for m in geo.minima)
    assert geo_s.barrier == scale(geo.barrier)
    assert geo_s.deeper_well_side is geo.deeper_well_side


def test_single_well_side_is_the_sign_of_its_minimum():
    # minimum at -2.9e-14: tilted left, however close to the origin
    geo = critical_points(QuarticPotential(1.0, 0.0, 0.0, 1e-40, 0.0))
    assert geo.minima[0][0] < 0.0
    assert geo.deeper_well_side is WellSide.LEFT
    assert critical_points(QuarticPotential(1.0)).deeper_well_side is WellSide.SYMMETRIC


def test_nearly_symmetric_well_reads_the_deeper_side():
    # right minimum -4.2e-14, left 2.8e-15: the right well is 15 times deeper
    geo = critical_points(QuarticPotential(1.0, 0.0, -2.668078851075046e-07,
                                           -6.27583746464877e-11, 0.0))
    (_, v_left), (_, v_right) = geo.minima
    assert v_right < v_left
    assert geo.deeper_well_side is WellSide.RIGHT
