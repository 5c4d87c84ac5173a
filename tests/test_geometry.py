import math

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.geometry import fold_positions


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_build_grid_1d_nodes():
    g = cl.build_grid([1.0], [3])
    assert g.h == (0.25,)
    assert np.allclose(g.axis_nodes(0), [0.25, 0.5, 0.75])


def test_build_grid_2d_counts():
    g = cl.build_grid([1.0, 1.0], [4, 4])
    assert g.n_total == 16
    assert g.h == (0.2, 0.2)


def test_grid_spacing_is_cached_and_equality_ignores_the_cache():
    a, b = cl.build_grid([1.0, 0.7], [5, 4]), cl.build_grid([1.0, 0.7], [5, 4])
    assert a.h is a.h and a.hvol == a.h[0] * a.h[1] and a.n_total == 20
    assert a == b and hash(a) == hash(b)
    assert a != cl.build_grid([1.0, 0.7], [5, 5])


@pytest.mark.parametrize("extents,n", [([1.0], [1]), ([0.0], [3]), ([-1.0], [5]), ([1.0, 1.0], [4])])
def test_build_grid_rejects_bad_input(extents, n):
    with pytest.raises(ValueError):
        cl.build_grid(extents, n)


# ---------------------------------------------------------------------------
# regions and indicators
# ---------------------------------------------------------------------------


def test_indicator_simple_interval():
    g = cl.build_grid([1.0], [3])
    r = cl.region_from_bounds([[0.4, 0.6]], 1.0)
    assert np.array_equal(cl.indicator_vector(r, g), [0.0, 1.0, 0.0])


def test_indicator_full_domain_amplitude():
    g = cl.build_grid([1.0], [3])
    r = cl.region_from_bounds([[0.0, 1.0]], 2.0)
    assert np.array_equal(cl.indicator_vector(r, g), [2.0, 2.0, 2.0])


def test_indicator_empty_support_warns():
    g = cl.build_grid([1.0], [3])
    r = cl.region_from_bounds([[0.9, 0.95]], 1.0)
    with pytest.warns(cl.EmptySupportWarning):
        values = cl.indicator_vector(r, g)
    assert np.array_equal(values, [0.0, 0.0, 0.0])


def test_region_clip_rejects_outside_part():
    r = cl.region_from_bounds([[1.2, 1.4]], 1.0)
    with pytest.raises(ValueError):
        r.clipped((1.0,))


def test_region_overlap_takes_max_amplitude():
    g = cl.build_grid([1.0], [9])
    r = cl.region_from_bounds([[[0.0, 0.6]], [[0.4, 1.0]]], [1.0, 3.0])
    values = cl.indicator_vector(r, g)
    x = g.axis_nodes(0)
    assert np.all(values[(x > 0.4) & (x < 0.6)] == 3.0)
    assert np.all(values[x < 0.4] == 1.0)


def test_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        cl.region_from_bounds([[0.1, 0.2]], -1.0)


# ---------------------------------------------------------------------------
# ray tracing / GCC
# ---------------------------------------------------------------------------


def test_gcc_1d_worst_time_matches_reflection_arithmetic():
    # exact 1D sweep bound: slowest ray starts at a region edge heading away
    r = cl.region_from_bounds([[0.4, 0.6]], 1.0, "omega")
    dt_ray = 0.005
    rep = cl.gcc_check(r, (1.0,), 1.0, 402, dt_ray)
    assert rep.verdict
    expected = 2.0 * max(0.4, 1.0 - 0.6)
    assert abs(rep.max_hit_time_among_hitters - expected) <= 2 * dt_ray
    assert rep.min_hit_time <= rep.max_hit_time_among_hitters


def test_gcc_vertical_strip_fails_in_square():
    # a vertical ray keeps its x coordinate, so a strip never catches it
    r = cl.region_from_bounds([[[0.4, 0.6], [0.0, 1.0]]], 1.0, "strip")
    rep = cl.gcc_check(r, (1.0, 1.0), 10.0, 648, 0.02)
    assert not rep.verdict
    assert rep.worst_ray is not None
    dx, dy = rep.worst_ray.direction
    assert abs(dx) < 0.2 and rep.worst_ray.position[0] not in (0.4, 0.6)


def test_gcc_two_adjacent_bands_pass():
    r = cl.region_from_bounds([[[0.0, 0.2], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.2]]], 1.0, "bands")
    rep = cl.gcc_check(r, (1.0, 1.0), 4.0, 648, 0.02)
    assert rep.verdict


def test_gcc_step_too_coarse_rejected():
    r = cl.region_from_bounds([[0.4, 0.6]], 1.0)
    with pytest.raises(cl.StepTooCoarseError):
        cl.gcc_check(r, (1.0,), 1.0, 10, 0.25)


def test_gcc_monotone_in_horizon():
    r = cl.region_from_bounds([[0.35, 0.6]], 1.0)
    rep1 = cl.gcc_check(r, (1.0,), 0.9, 200, 0.01)
    rep2 = cl.gcc_check(r, (1.0,), 2.5, 200, 0.01)
    assert rep1.verdict and rep2.verdict
    # hit times are first-entry times, unchanged by a larger horizon
    assert rep1.max_hit_time_among_hitters == rep2.max_hit_time_among_hitters


def test_gcc_1d_completeness_random_intervals():
    rng = np.random.default_rng(42)
    dt_ray = 0.01
    for _ in range(6):
        a = rng.uniform(0.05, 0.6)
        b = a + rng.uniform(0.15, 0.35)
        b = min(b, 0.95)
        r = cl.region_from_bounds([[a, b]], 1.0)
        rep = cl.gcc_check(r, (1.0,), 2.5, 500, dt_ray)
        expected = 2.0 * max(a, 1.0 - b)
        assert rep.verdict
        assert abs(rep.max_hit_time_among_hitters - expected) <= 2 * dt_ray


def test_fold_preserves_speed_and_reverses():
    rng = np.random.default_rng(1)
    L = 1.0
    for _ in range(20):
        x0 = rng.uniform(0, L)
        v = rng.choice([-1.0, 1.0]) * 1.0
        t = rng.uniform(0, 7.0)
        # reversibility: folding forward then backward returns the start
        xt = fold_positions(np.array(x0), np.array(v), np.array(t), L)
        back = fold_positions(np.array(x0 + v * t), np.array(-v), np.array(t), L)
        # the unfolded coordinate reverses exactly; fold is deterministic
        assert abs(float(back) - x0) < 1e-9
        assert 0.0 <= float(xt) <= L


def test_ray_state_requires_unit_direction():
    with pytest.raises(ValueError):
        cl.RayState((0.5, 0.5), (0.5, 0.5))
    cl.RayState((0.5, 0.5), (math.sqrt(0.5), math.sqrt(0.5)))


def test_interval_entry_time_union_uses_outer_gaps():
    r = cl.region_from_bounds([[[0.3, 0.4]], [[0.6, 0.7]]], [1.0, 1.0])
    assert cl.interval_entry_time(r, 1.0) == pytest.approx(2.0 * 0.3)


def test_default_horizon_sums_regions():
    r1 = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    r2 = cl.region_from_bounds([[0.7, 0.9]], 1.0)
    # 1.5 * (2*0.6 + 2*0.7)
    assert cl.default_horizon([r1, r2], (1.0,)) == pytest.approx(1.5 * (1.2 + 1.4))


def test_gcc_report_serializes_flat():
    r = cl.region_from_bounds([[0.4, 0.6]], 1.0, "omega")
    rep = cl.gcc_check(r, (1.0,), 1.0, 40, 0.01)
    d = rep.to_dict()
    assert d["verdict"] == "pass"
    assert d["rays_hit"] == d["rays_total"]
    assert isinstance(d["min_hit_time"], float)
