import math

import pytest

from conftest import fresh_rule_actions, well_solve
from dwell import QuarticPotential, area, mirror, solve

# section lobe-count expectations: columns (gamma, beta), rows n = 0..3
LOBE_TABLE = {
    (2.0, 8.0): [1, 2, 2, 2],
    (3.0, 12.0): [1, 1, 2, 2],
    (4.0, 16.0): [1, 1, 2, 2],
    (6.0, 25.0): [1, 1, 1, 2],
}


def test_harmonic_action_closed_form():
    # V = 4 sigma^2 x^2 (plus a vanishing quartic): H = p^2 + (Omega^2/4) x^2
    # with Omega = 4 sigma; the contour p^2 + Omega^2 x^2 / 4 = E encloses
    # area 2 pi E / Omega
    sigma = 0.5
    omega = 4.0 * sigma
    pot = QuarticPotential(c4=1e-8, c2=4.0 * sigma**2)
    for energy in (1.0, 3.7):
        res = area(pot, energy)
        assert res.lobe_count == 1
        assert res.barrier_action == 0.0
        assert res.allowed_action == pytest.approx(
            2.0 * math.pi * energy / omega, rel=1e-6
        )


def test_above_barrier_single_lobe():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    res = area(pot, 10.0)
    assert res.lobe_count == 1
    assert res.barrier_action == 0.0
    assert res.allowed_action > 0.0


def test_below_barrier_two_lobes():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 3.0)
    res = area(pot, -10.0)  # between both minima and the barrier top
    assert res.lobe_count == 2
    assert res.barrier_action > 0.0
    # lobes ordered left to right and disjoint
    assert res.lobes[0].x_hi < res.lobes[1].x_lo


def test_quadrature_node_doubling_converges():
    # the library's QUAD_NODES = 96 rule against an independent 192-node one
    pot = QuarticPotential.from_well_params(1.0, 12.0, 2.0)
    for energy in (-30.0, -5.0, 15.0):
        a1 = area(pot, energy)
        barrier, allowed, _ = fresh_rule_actions(pot, energy, nodes=192)
        assert a1.allowed_action == pytest.approx(allowed, rel=1e-8)
        if a1.barrier_action > 0:
            assert a1.barrier_action == pytest.approx(barrier, rel=1e-8)


def test_lobe_count_mirror_invariant():
    pot = QuarticPotential.from_well_params(1.0, 9.0, 2.5)
    for energy in (-15.0, -2.0, 8.0):
        assert (
            area(pot, energy).lobe_count == area(mirror(pot), energy).lobe_count
        )
        assert area(pot, energy).allowed_action == pytest.approx(
            area(mirror(pot), energy).allowed_action, rel=1e-10
        )


def test_lobe_counts_for_narrative_parameter_sets():
    for (gamma, beta), expected in LOBE_TABLE.items():
        spec = well_solve(1.0, beta, gamma, n_states=4)
        counts = [area_result.lobe_count for area_result in
                  (area(QuarticPotential.from_well_params(1.0, beta, gamma),
                        spec.energy(n)) for n in range(4))]
        assert counts == expected, f"(gamma, beta)=({gamma}, {beta})"


def test_ground_state_lobe_sits_in_deeper_well():
    spec = well_solve(1.0, 8.0, 2.0, n_states=4)
    pot = QuarticPotential.from_well_params(1.0, 8.0, 2.0)
    lobes = area(pot, spec.energy(0)).lobes
    assert len(lobes) == 1
    assert lobes[0].x_hi < 0.0  # deeper well is on the left for gamma > 0



def test_paired_state_areas_merge_at_integer_k():
    # beta = 16, gamma = 4 (k = 2): the (2, 3) doublet gap is ~1e-9, so both
    # action integrals of the pair agree to much better than 1e-3
    spec = well_solve(1.0, 16.0, 4.0, n_states=5)
    pot = QuarticPotential.from_well_params(1.0, 16.0, 4.0)
    assert spec.energy(3) - spec.energy(2) < 1e-8 * (1 + abs(spec.energy(2)))
    r2 = area(pot, spec.energy(2))
    r3 = area(pot, spec.energy(3))
    assert r2.allowed_action == pytest.approx(r3.allowed_action, rel=1e-3)
    assert r2.barrier_action == pytest.approx(r3.barrier_action, rel=1e-3)


def test_energy_below_minimum_raises():
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.0)
    with pytest.raises(ValueError):
        area(pot, -26.0)


def test_tangent_energies_skip_zero_width_intervals():
    # V = x^4 - 20 x^2: at E = 0 the turning points are -sqrt(20), 0, 0,
    # sqrt(20), so the two lobes touch at the barrier top; at E = V_min
    # = -100 each well shrinks to a point
    pot = QuarticPotential(1.0, 0.0, -20.0, 0.0, 0.0)
    res = area(pot, 0.0)
    assert res.lobe_count == 2
    assert res.barrier_action == 0.0
    with pytest.raises(ValueError, match="below the potential minimum"):
        area(pot, -100.0)


def test_the_stored_rule_is_leggauss():
    # the table holds leggauss(QUAD_NODES) as numpy's OpenBLAS LAPACK
    # computes it, to the bit; a LAPACK that rounds the eigenvalues of the
    # Jacobi matrix differently moves an entry by at most an ulp
    import numpy as np

    from dwell.phasespace import _HALF_NODES, _HALF_WEIGHTS, QUAD_NODES, _mapped_rule

    nodes, weights = np.polynomial.legendre.leggauss(QUAD_NODES)
    half = QUAD_NODES // 2
    np.testing.assert_array_max_ulp(np.array(_HALF_NODES), nodes[half:], maxulp=1)
    np.testing.assert_array_max_ulp(np.array(_HALF_WEIGHTS), weights[half:], maxulp=1)
    # leggauss mirrors its negative half exactly, and so does the rule
    assert np.array_equal(nodes[:half], -nodes[half:][::-1])
    assert np.array_equal(weights[:half], weights[half:][::-1])
    w, sin_theta, cos_theta = _mapped_rule()
    table = np.concatenate([-np.array(_HALF_NODES[::-1]), _HALF_NODES])
    assert np.array_equal(w, 0.5 * np.pi * np.array(_HALF_WEIGHTS[::-1] + _HALF_WEIGHTS))
    assert np.array_equal(sin_theta, np.sin(0.5 * np.pi * table))
    assert np.array_equal(cos_theta, np.cos(0.5 * np.pi * table))
    assert np.all(np.diff(sin_theta) > 0) and not any(a.flags.writeable for a in (w, sin_theta))
