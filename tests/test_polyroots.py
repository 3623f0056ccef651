import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dwell import QuarticPotential, ScaleOutOfRange, critical_points, solve, turning_points
from dwell import polyroots
from dwell.polyroots import real_roots

coeff = st.floats(-5.0, 5.0, allow_nan=False)
lead = st.floats(0.05, 5.0) | st.floats(-5.0, -0.05)


def _oracle_simple_real_roots(coeffs, cond=1e-6):
    """Companion-matrix roots (numpy), keeping well-conditioned real ones."""
    coeffs = np.asarray(coeffs, float)
    r = np.roots(coeffs)
    real = r.real[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r.real))]
    dp = np.polyder(coeffs)
    keep = []
    for x in real:
        scale = np.abs(coeffs).max() * (1.0 + abs(x)) ** (len(coeffs) - 2)
        if abs(np.polyval(dp, x)) > cond * scale:
            keep.append(x)
    return np.sort(keep)


def _assert_roots_genuine(coeffs, roots, tol):
    coeffs = np.asarray(coeffs, float)
    deg = len(coeffs) - 1
    for x in roots:
        scale = max(np.abs(coeffs).max() * (1.0 + abs(x)) ** deg, 1.0)
        assert abs(np.polyval(coeffs, x)) <= tol * scale


@given(a=lead, b=coeff, c=coeff, d=coeff)
def test_cubic_matches_companion_oracle(a, b, c, d):
    coeffs = [a, b, c, d]
    mine = real_roots(coeffs)
    _assert_roots_genuine(coeffs, mine, 1e-9)
    for r in _oracle_simple_real_roots(coeffs):
        assert np.min(np.abs(np.array(mine) - r)) <= 1e-7 * (1.0 + abs(r))


@given(a=lead, b=coeff, c=coeff, d=coeff, e=coeff)
def test_quartic_matches_companion_oracle(a, b, c, d, e):
    coeffs = [a, b, c, d, e]
    mine = real_roots(coeffs)
    assert len(mine) % 2 == 0 and len(mine) <= 4
    _assert_roots_genuine(coeffs, mine, 1e-8)
    ref = _oracle_simple_real_roots(coeffs)
    for r in ref:
        assert mine and np.min(np.abs(np.array(mine) - r)) <= 1e-6 * (1.0 + abs(r))


def test_quartic_brackets_sign_changes(rng):
    """Every sign change of the polynomial on a fine grid lies between roots."""
    for _ in range(100):
        coeffs = np.array([
            rng.uniform(0.05, 3.0), rng.uniform(-3, 3), rng.uniform(-8, 4),
            rng.uniform(-4, 4), rng.uniform(-4, 4),
        ])
        bound = 1.0 + np.abs(coeffs[1:]).max() / coeffs[0]
        x = np.linspace(-bound, bound, 4001)
        y = np.polyval(coeffs, x)
        roots = np.array(real_roots(coeffs))
        sign_changes = np.nonzero(y[:-1] * y[1:] < 0)[0]
        for i in sign_changes:
            assert roots.size and np.any((roots >= x[i]) & (roots <= x[i + 1]))


def test_quartic_keeps_a_close_root_pair():
    # roots 0 and -1e-6 (and two far ones): the closed form lands near the
    # pair's midpoint, where the derivative nearly vanishes and an unguarded
    # Newton step throws both copies out to x ~ 0.025
    roots = np.array(real_roots((0.0546875, 3.0, 1.0, 1e-6, 0.0)))
    assert roots.size == 4
    for r in roots[np.argsort(np.abs(roots))[:2]]:
        assert min(abs(r), abs(r + 1e-6)) <= 1e-6


def test_cubic_three_known_roots():
    # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
    roots = real_roots((1.0, -6.0, 11.0, -6.0))
    assert np.allclose(roots, [1.0, 2.0, 3.0], atol=1e-12)


def test_cubic_triple_root():
    roots = real_roots((4.0, 0.0, 0.0, 0.0))
    assert np.allclose(roots, 0.0)
    assert len(roots) == 3


def test_cubic_single_real_root():
    roots = real_roots((1.0, 0.0, 1.0, -2.0))  # (x-1)(x^2+x+2)
    assert len(roots) == 1
    assert abs(roots[0] - 1.0) < 1e-13


def test_quartic_biquadratic():
    # x^4 - 5x^2 + 4 = (x^2-1)(x^2-4)
    roots = real_roots((1.0, 0.0, -5.0, 0.0, 4.0))
    assert np.allclose(roots, [-2.0, -1.0, 1.0, 2.0], atol=1e-12)


def test_quartic_tangency_double_roots():
    # (x^2 - 5)^2 = x^4 - 10x^2 + 25: double roots at +-sqrt(5)
    roots = real_roots((1.0, 0.0, -10.0, 0.0, 25.0))
    s5 = np.sqrt(5.0)
    assert len(roots) == 4
    assert np.allclose(roots, [-s5, -s5, s5, s5], atol=2e-6)


def test_quartic_no_real_roots():
    roots = real_roots((1.0, 0.0, 1.0, 0.0, 1.0))
    assert len(roots) == 0


def test_quartic_small_coefficient_scale():
    roots = real_roots((0.01, -0.0075, -0.0025, 0.0, -0.2205))
    ref = [-2.025776972849171, 2.416351410222441]
    assert len(roots) == 2
    assert np.allclose(roots, ref, rtol=1e-10)


def test_a_zero_leading_coefficient_is_rejected():
    with pytest.raises(ValueError) as exc:
        real_roots((0.0, 1.0))
    assert str(exc.value) == "leading coefficient must be nonzero"


@pytest.mark.parametrize("coeffs, expected", [
    # 4x^3 - 2e-10 x: roots 0 and +-sqrt(5e-11)
    ((4.0, 0.0, -2e-10, 0.0), [-math.sqrt(5e-11), 0.0, math.sqrt(5e-11)]),
    # x (0.125 x^3 + 4.347e-12): a simple root 0 and a cube root
    ((0.125, 0.0, 0.0, 4.347e-12, 0.0), [-(4.347e-12 / 0.125) ** (1.0 / 3.0), 0.0]),
    ((-1.0, 0.0, 0.0, 1.076e-9, 0.0), [0.0, 1.076e-9 ** (1.0 / 3.0)]),
    ((0.125, 0.0, 0.0, 1e-15, 0.0), [-(8e-15) ** (1.0 / 3.0), 0.0]),
])
def test_roots_far_below_one_are_kept(coeffs, expected):
    roots = real_roots(coeffs)
    assert len(roots) == len(expected)
    np.testing.assert_allclose(roots, expected, rtol=1e-14, atol=0.0)


def _sign(coeffs, x):
    """The sign of the polynomial at the double x, evaluated exactly."""
    from fractions import Fraction

    value = Fraction(0)
    for c in coeffs:
        value = value * Fraction(x) + Fraction(c)
    return (value > 0) - (value < 0)


@pytest.mark.parametrize("coeffs, root", [
    # one scale would take -2e6 to 0: the root, 1e-297, lies some 450
    # decades below the other two (about +-1.6e149 i)
    ((8e4, 0.0, 2e303, -2e6), 1e-297),
    # the same at a root below the normal doubles: 1e-310 is a subnormal
    ((1.0, 0.0, 1e300, -1e-10), 1e-310),
    # and with roots at both ends of the doubles
    ((1e-300, 0.0, -1e300, 0.0, 1.0), None),
])
def test_roots_too_far_apart_for_one_scale_are_exact(coeffs, root):
    roots = real_roots(coeffs)
    if root is not None:
        assert roots == (root,)
    for r in roots:  # each root is one of the two doubles around a sign change
        below, above = math.nextafter(r, -math.inf), math.nextafter(r, math.inf)
        assert _sign(coeffs, below) * _sign(coeffs, above) <= 0, r
    assert roots == tuple(sorted(roots)) and len(roots) == (1 if root is not None else 4)


@pytest.mark.parametrize("coeffs, roots", [
    ((1.0, 0.0, 1e300, -1e-30), (0.0,)),  # 1e-330 rounds to 0
    ((1e300, -1e-300), (0.0,)),  # 1e-600, likewise
    ((1e300, -1e-300, 0.0), (0.0, 0.0)),  # 0 and 1e-600
    ((4.0, 3.0, 4.0, 5e-324), (0.0,)),  # -1.25e-324 rounds to 0
    ((4.0, 0.0, -2.0, 2.2250738585e-313), (-math.sqrt(0.5), 1.11253692926e-313, math.sqrt(0.5))),
])
def test_roots_near_0_round_to_the_double_nearest_them(coeffs, roots):
    assert real_roots(coeffs) == roots


@pytest.fixture
def fresh_root_cache():
    polyroots._roots.cache_clear()
    yield
    polyroots._roots.cache_clear()


@pytest.mark.parametrize("tilt", [5e-324, 2.2e-313, 1e-300, 1e-280])
def test_only_a_root_near_0_takes_the_exact_path(monkeypatch, fresh_root_cache, tilt):
    # V = x^4 - 10 x^2 + tilt x: V' has a root near -tilt / 20, which one
    # scale cannot hold, while in the turning-point quartics of its states
    # the tilt is a middle coefficient, whose underflow is lost below their
    # rounding bound
    pot = QuarticPotential.from_well_params(1.0, 10.0, tilt)
    energies = solve(pot, 100, 8).energies.tolist()
    polyroots._roots.cache_clear()
    calls = []
    exact_value = polyroots._exact_value
    monkeypatch.setattr(polyroots, "_exact_value", lambda c: calls.append(c) or exact_value(c))
    critical_points(pot)
    assert calls == [(4.0, 0.0, -20.0, tilt)]
    fast = [turning_points(pot, e) for e in energies]
    assert len(calls) == 1
    # against the exact path on every polynomial, to the last bit but one
    monkeypatch.setattr(polyroots, "_FULL_SCALE", math.inf)
    polyroots._roots.cache_clear()
    for e, roots in zip(energies, fast):
        exact = turning_points(pot, e)
        assert len(roots) == len(exact) in (2, 4)
        for r, want in zip(roots, exact):
            assert abs(r - want) <= math.ulp(want), (e, r, want)


@pytest.mark.parametrize("coeffs", [
    (1e-300, -1e300),  # 1e600 is beyond the largest double
    (1e-300, 1e300, 1.0),  # roots -1e-300 and -1e600
    (1e-320, 0.0, -1e300, 0.0, 1.0),  # roots +-1e-150 and +-1e310
])
def test_a_root_beyond_the_largest_double_raises_scale_out_of_range(coeffs):
    with pytest.raises(ScaleOutOfRange, match="lies beyond the largest double"):
        real_roots(coeffs)


# zero, or far enough above underflow to be scaled by 2^-240 exactly
scalable = st.just(0.0) | st.floats(1e-30, 5.0) | st.floats(-5.0, -1e-30)


@given(a=lead, rest=st.lists(scalable, min_size=1, max_size=4),
       j=st.integers(-60, 60))
def test_roots_scale_with_the_variable(a, rest, j):
    """The roots of P(2^-j x) are 2^j times those of P, at every scale and
    to the last bit: every decision reads signs or a relative bound."""
    coeffs = [a, *rest]
    degree = len(rest)
    scaled = [math.ldexp(c, -j * (degree - i)) for i, c in enumerate(coeffs)]
    roots = real_roots(coeffs)
    mine = real_roots(scaled)
    assert all(type(r) is float for r in roots + mine)
    assert len(mine) == len(roots)
    np.testing.assert_array_equal(mine, np.ldexp(roots, j))
