import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_lab as cl
from cascade_lab.geometry import _ray_lattice, ray_entry_times

from conftest import lattice_worst_entry_1d


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


def test_indicator_empty_support_is_zero():
    # silently: an empty coupling support is a legal zero coupling
    g = cl.build_grid([1.0], [3])
    r = cl.region_from_bounds([[0.9, 0.95]], 1.0)
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


@pytest.mark.parametrize("dim,bounds,expect", [
    (1, [[[0.2, 0.4]]], "slice"),
    (1, [[[0.1, 0.2]], [[0.5, 0.7]]], "array"),
    (1, [[[0.91, 0.92]]], "empty"),
    (2, [[[0.75, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.75, 1.0]]], "array"),
    (2, [[[0.0, 0.3], [0.0, 1.0]]], "slice"),
])
def test_support_holds_the_nonzero_columns(dim, bounds, expect):
    """A contiguous support is a slice, any other shape a flat index array;
    either way it selects exactly the indicator's nonzero entries."""
    g = cl.build_grid([1.0] * dim, [10] * dim)
    values = cl.indicator_vector(cl.region_from_bounds(bounds, 2.5), g)
    sup = cl.Support(values)
    assert isinstance(sup.cols, slice) == (expect != "array")
    assert sup.size == np.count_nonzero(values) and (sup.size == 0) == (expect == "empty")
    assert np.array_equal(sup.indices, np.flatnonzero(values))
    assert np.array_equal(values[sup.cols], sup.amplitudes)
    rest = values.copy()
    rest[sup.cols] = 0.0
    assert not rest.any()


def test_negative_amplitude_rejected():
    with pytest.raises(ValueError):
        cl.region_from_bounds([[0.1, 0.2]], -1.0)


# ---------------------------------------------------------------------------
# ray tracing / GCC
# ---------------------------------------------------------------------------


def test_gcc_1d_worst_time_matches_reflection_arithmetic():
    # exact 1D sweep bound: slowest ray starts at a region edge heading away
    r = cl.region_from_bounds([[0.4, 0.6]], 1.0, "omega")
    rep = cl.gcc_check(r, (1.0,), 1.0, 402)
    assert rep.verdict
    assert abs(rep.max_hit_time_among_hitters - lattice_worst_entry_1d(0.4, 0.6, 402)) <= 1e-12
    assert abs(rep.max_hit_time_among_hitters - 0.8) <= 1e-12
    assert rep.max_hit_time_among_hitters <= cl.interval_entry_time(r, 1.0) + 1e-12
    assert rep.min_hit_time <= rep.max_hit_time_among_hitters


def test_gcc_vertical_strip_fails_in_square():
    # a vertical ray keeps its x coordinate, so a strip never catches it
    r = cl.region_from_bounds([[[0.4, 0.6], [0.0, 1.0]]], 1.0, "strip")
    rep = cl.gcc_check(r, (1.0, 1.0), 10.0, 648)
    assert not rep.verdict
    assert rep.worst_ray is not None
    dx, dy = rep.worst_ray.direction
    assert abs(dx) < 0.2 and rep.worst_ray.position[0] not in (0.4, 0.6)


def test_gcc_two_adjacent_bands_pass():
    r = cl.region_from_bounds([[[0.0, 0.2], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.2]]], 1.0, "bands")
    rep = cl.gcc_check(r, (1.0, 1.0), 4.0, 648)
    assert rep.verdict


def _list_lattice(extents, n_rays):
    """The ray lattice built as a list of (position, direction) tuples, one
    ray at a time: the reference for the array construction."""
    if len(extents) == 1:
        xs = np.linspace(0.0, extents[0], max(2, math.ceil(n_rays / 2)))
        return [((x,), d) for x in xs for d in [(-1.0,), (1.0,)]]
    m = max(2, int(round(math.sqrt(max(n_rays, 8) / 8))))
    axes = [L * np.arange(1, m + 1) / (m + 1) for L in extents]
    dirs = []
    for q in range(8):
        dx, dy = math.cos(2.0 * math.pi * q / 8), math.sin(2.0 * math.pi * q / 8)
        if abs(dx) < 1e-15:
            dx, dy = 0.0, math.copysign(1.0, dy)
        if abs(dy) < 1e-15:
            dx, dy = math.copysign(1.0, dx), 0.0
        dirs.append((dx, dy))
    return [((x, y), d) for x in axes[0] for y in axes[1] for d in dirs]


@pytest.mark.parametrize("extents,n_rays", [((1.0,), 402), ((1.3,), 7), ((1.0,), 1),
                                            ((1.0, 1.0), 648), ((1.0, 0.7), 4000),
                                            ((2.0, 1.0), 1)])
def test_ray_lattice_arrays_equal_the_list_lattice(extents, n_rays):
    positions, directions = _ray_lattice(extents, n_rays)
    rays = _list_lattice(extents, n_rays)
    assert positions.shape == directions.shape == (len(rays), len(extents))
    assert positions.tobytes() == np.array([p for p, _ in rays]).tobytes()
    assert directions.tobytes() == np.array([d for _, d in rays]).tobytes()


@pytest.mark.parametrize("bounds,T,n_rays,hits,total,worst", [
    # the strip misses the vertical rays; the slowest hitter starts on its
    # edge and heads diagonally away, entering after 0.8 * sqrt(2)
    ([[[0.4, 0.6], [0.0, 1.0]]], 10.0, 648, 504, 648, 0.8 * math.sqrt(2.0)),
    ([[[0.0, 0.2], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.2]]], 4.0, 648, 648, 648,
     1.6 * math.sqrt(2.0)),
    # the two L regions of the benchmark's 40x40 square
    ([[[0.0, 1.0], [0.0, 0.25]], [[0.0, 0.25], [0.0, 1.0]]], 4.0, 4000, 3872, 3872,
     137 / 92 * math.sqrt(2.0)),
    ([[[0.75, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.75, 1.0]]], 4.0, 4000, 3872, 3872,
     137 / 92 * math.sqrt(2.0)),
], ids=["strip", "bands", "bottom-left-L", "right-top-L"])
def test_gcc_2d_worst_hit_times_are_exact_lattice_values(bounds, T, n_rays, hits, total, worst):
    # lattice rays aimed at a corner are followed as they are, so the worst
    # hitter is a lattice ray and its time a closed-form value
    rep = cl.gcc_check(cl.region_from_bounds(bounds, 1.0), (1.0, 1.0), T, n_rays)
    assert (rep.rays_hit, rep.rays_total, rep.verdict) == (hits, total, hits == total)
    assert abs(rep.max_hit_time_among_hitters - worst) <= 1e-12


def test_entry_times_carry_no_negative_zero():
    # a ray starting on an edge of the strip and heading in enters at 0; on the
    # edge x = 0.6 with dx < 0 that time comes out of 0 / dx, which is -0.0
    strip = cl.region_from_bounds([[[0.4, 0.6], [0.0, 1.0]]], 1.0)
    c = math.sqrt(0.5)
    times = ray_entry_times(strip, (1.0, 1.0), [(0.6, 0.1), (0.4, 0.1)], [(-c, c), (c, -c)], 1.0)
    assert times.tolist() == [0.0, 0.0]
    assert not np.signbit(times).any()
    rep = cl.gcc_check(strip, (1.0, 1.0), 10.0, 648)
    assert rep.min_hit_time == 0.0 and math.copysign(1.0, rep.min_hit_time) == 1.0


def test_gcc_monotone_in_horizon():
    r = cl.region_from_bounds([[0.35, 0.6]], 1.0)
    rep1 = cl.gcc_check(r, (1.0,), 0.9, 200)
    rep2 = cl.gcc_check(r, (1.0,), 2.5, 200)
    assert rep1.verdict and rep2.verdict
    # hit times are first-entry times, unchanged by a larger horizon
    assert rep1.max_hit_time_among_hitters == rep2.max_hit_time_among_hitters


def test_gcc_1d_completeness_random_intervals():
    rng = np.random.default_rng(42)
    for _ in range(6):
        a = rng.uniform(0.05, 0.6)
        b = a + rng.uniform(0.15, 0.35)
        b = min(b, 0.95)
        r = cl.region_from_bounds([[a, b]], 1.0)
        rep = cl.gcc_check(r, (1.0,), 2.5, 500)
        assert rep.verdict
        assert abs(rep.max_hit_time_among_hitters - lattice_worst_entry_1d(a, b, 500)) <= 1e-12
        assert rep.max_hit_time_among_hitters <= cl.interval_entry_time(r, 1.0) + 1e-12


def test_ray_clipping_a_corner_briefly_is_a_hit():
    # the diagonal x + y = 1.198 cuts the corner (0.6, 0.6) of the box for
    # 0.002 * sqrt(2) ~ 0.0028 in time, between the samples 0.42 and 0.44 of
    # a 0.02-step sampler; it enters through the top edge y = 0.6
    box = cl.region_from_bounds([[[0.4, 0.6], [0.4, 0.6]]], 1.0)
    c = math.sqrt(0.5)
    (t,) = ray_entry_times(box, (1.0, 1.0), [(0.3, 0.898)], [(c, -c)], 1.0)
    assert abs(t - (0.898 - 0.6) / c) <= 1e-12
    # leaving through the right edge x = 0.6, it does not come back before T
    assert not any(0.4 < 0.3 + c * s < 0.6 and 0.4 < 0.898 - c * s < 0.6
                   for s in 0.02 * np.arange(51))


def test_entry_times_are_open_at_the_horizon():
    # an open box is entered at the first instant after which the ray is inside
    r = cl.region_from_bounds([[0.5, 0.6]], 1.0)
    assert ray_entry_times(r, (1.0,), [(0.0,)], [(1.0,)], 0.5)[0] == np.inf
    assert ray_entry_times(r, (1.0,), [(0.0,)], [(1.0,)], 0.75)[0] == 0.5
    # a start inside enters at 0; a start on the edge heading out does not
    times = ray_entry_times(r, (1.0,), [(0.55,), (0.5,)], [(1.0,), (-1.0,)], 0.75)
    assert times.tolist() == [0.0, np.inf]


def _fold(x0, v, t, length):
    """Billiard position on [0, L]: the tent map of the free flight x0 + v t."""
    q = np.mod(x0 + v * t, 2.0 * length)
    return np.where(q <= length, q, 2.0 * length - q)


def _inside(parts, extents, x0, v, t):
    """Whether the ray from x0 with direction v is in the union of open boxes at times t."""
    pos = [_fold(x0[a], v[a], t, L) for a, L in enumerate(extents)]
    return np.any([np.all([(lo < p) & (p < hi) for p, lo, hi in zip(pos, *box)], axis=0)
                   for box in parts], axis=0)


@st.composite
def _ray_cases(draw, dim):
    extents = tuple(draw(st.floats(0.5, 2.0)) for _ in range(dim))
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        lo, hi = [], []
        for L in extents:
            a = draw(st.floats(0.0, 0.9))
            b = draw(st.floats(a + 0.05, 1.0))
            lo.append(a * L)
            hi.append(b * L)
        parts.append((tuple(lo), tuple(hi)))
    T = draw(st.floats(0.5, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positions = rng.uniform(0.0, 1.0, (8, dim)) * extents
    if dim == 1:
        directions = rng.choice([-1.0, 1.0], (8, 1))
    else:
        angle = rng.uniform(0.0, 2.0 * math.pi, 8)
        directions = np.column_stack([np.cos(angle), np.sin(angle)])
    return extents, parts, T, positions, directions


@pytest.mark.parametrize("dim", [1, 2])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(data=st.data())
def test_exact_entry_times_against_a_fine_sampler(dim, data):
    """Every hit a fine sampler sees is an exact hit, and the exact entry time
    lies in [t_sampled - dt, t_sampled]. The sampler can be later than that
    only by stepping over a first visit shorter than dt (a corner clip), so
    the upper bound is checked where the visit covers (t_exact, t_exact + dt]."""
    extents, parts, T, positions, directions = data.draw(_ray_cases(dim))
    region = cl.region_from_bounds([list(zip(lo, hi)) for lo, hi in parts], 1.0)
    exact = ray_entry_times(region, extents, positions, directions, T)
    dt = 1e-3
    times = dt * np.arange(math.ceil(T / dt))
    for x0, v, t_exact in zip(positions, directions, exact):
        if t_exact < np.inf:
            # a real entry: inside just after the exact time
            assert 0.0 <= t_exact < T and _inside(parts, extents, x0, v, t_exact + 1e-9)
        inside = _inside(parts, extents, x0, v, times)
        if inside.any():
            t_sampled = times[np.argmax(inside)]
            assert t_exact <= t_sampled + 1e-12
            visit = t_exact + dt * np.arange(1, 65) / 64
            if _inside(parts, extents, x0, v, visit).all():
                assert t_sampled - t_exact <= dt + 1e-12


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
    rep = cl.gcc_check(r, (1.0,), 1.0, 40)
    d = rep.to_dict()
    assert "dt_ray" not in d and "rays_resampled" not in d
    assert d["verdict"] == "pass"
    assert d["rays_hit"] == d["rays_total"]
    assert isinstance(d["min_hit_time"], float)
