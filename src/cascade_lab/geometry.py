"""Grids, box regions and an exact billiard-ray check of the geometric control condition.

Domains are open intervals (0, L) or axis-aligned rectangles (0, Lx) x (0, Ly).
Regions are finite unions of open boxes with a constant amplitude per box; that
covers every coupling / control geometry used here (disjoint interior patches,
boundary bands, full domain) while keeping indicator evaluation exact.

The geometric control condition (GCC) is tested on a deterministic lattice of
speed-one rays with specular wall reflection: a region passes at horizon T when
every lattice ray enters it before T. Axis-parallel directions are always part
of the lattice because they are the canonical counterexamples (strips). First
entry times are computed in closed form by unfolding the billiard: each
coordinate moves as x0 + v*t on the unfolded line, the folded coordinate lies
in an open interval during a periodic set of open time windows, and a ray
first enters a box at the earliest instant where its per-axis windows
intersect. Nothing is sampled, so entry times hold to round-off and a ray that
clips a box corner for an instant is still a hit. Domain corners need no
special case: at a right angle the two wall reflections commute, the per-axis
fold is continuous through the corner, and a ray aimed at one is followed
exactly like every other lattice ray.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

_MEASURE_EPS = 1e-12
# rays per vectorized block of the GCC check; bounds its work arrays
_RAY_BLOCK = 256


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grid:
    """Uniform interior grid on an interval or rectangle with Dirichlet walls.

    Only interior nodes are stored: along axis a they sit at i*h[a] for
    i = 1..n[a], with h[a] = extents[a] / (n[a] + 1).
    """

    extents: tuple
    n: tuple

    @property
    def dim(self):
        return len(self.extents)

    # cached per instance (in __dict__, which the frozen dataclass leaves
    # writable); equality and hashing still see only extents and n
    @cached_property
    def h(self):
        return tuple(L / (m + 1) for L, m in zip(self.extents, self.n))

    @cached_property
    def n_total(self):
        out = 1
        for m in self.n:
            out *= m
        return out

    @cached_property
    def hvol(self):
        """Quadrature weight of one node, prod(h); discrete L2 is hvol * sum."""
        out = 1.0
        for s in self.h:
            out *= s
        return out

    def axis_nodes(self, a):
        return self.h[a] * np.arange(1, self.n[a] + 1)

    def node_coords(self):
        """Interior node coordinates, shape (n_total, dim), C-order flattening."""
        axes = [self.axis_nodes(a) for a in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        X, Y = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.column_stack([X.ravel(), Y.ravel()])


def build_grid(extents, n):
    """Build a Grid, validating positive lengths and at least 2 nodes per axis."""
    extents = tuple(float(L) for L in np.atleast_1d(extents))
    n = tuple(int(m) for m in np.atleast_1d(n))
    if len(extents) != len(n) or len(extents) not in (1, 2):
        raise ValueError("extents and n must both have length 1 or 2")
    if any(L <= 0 for L in extents):
        raise ValueError("domain lengths must be positive")
    if any(m < 2 for m in n):
        raise ValueError("need at least 2 interior nodes per axis")
    return Grid(extents, n)


# ---------------------------------------------------------------------------
# regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Open axis-aligned box, one (lo, hi) pair per axis."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box lo/hi dimension mismatch")
        if any(b <= a for a, b in zip(self.lo, self.hi)):
            raise ValueError(f"box has non-positive side: {self.lo}..{self.hi}")

    @property
    def dim(self):
        return len(self.lo)

    def clipped(self, extents):
        """Intersection with the open domain, or None when it has no measure."""
        lo = tuple(max(a, 0.0) for a in self.lo)
        hi = tuple(min(b, L) for b, L in zip(self.hi, extents))
        if any(b - a <= _MEASURE_EPS for a, b in zip(lo, hi)):
            return None
        return Box(lo, hi)


@dataclass(frozen=True)
class Region:
    """Union of open boxes with one nonnegative constant amplitude per box.

    Where boxes overlap the amplitude is the max over covering boxes, so the
    value at a point never depends on box order.
    """

    parts: tuple
    amplitudes: tuple
    label: str = ""

    def __post_init__(self):
        if not self.parts:
            raise ValueError("region needs at least one part")
        if len(self.parts) != len(self.amplitudes):
            raise ValueError("one amplitude per part required")
        if any(a < 0 for a in self.amplitudes):
            raise ValueError("region amplitudes must be nonnegative")
        dims = {p.dim for p in self.parts}
        if len(dims) != 1:
            raise ValueError("all parts must share one dimension")

    @property
    def dim(self):
        return self.parts[0].dim

    def clipped(self, extents):
        parts, amps = [], []
        for box, amp in zip(self.parts, self.amplitudes):
            cb = box.clipped(extents)
            if cb is None:
                raise ValueError(
                    f"region part {box.lo}..{box.hi} has no measure inside the domain"
                )
            parts.append(cb)
            amps.append(amp)
        return Region(tuple(parts), tuple(amps), self.label)

    def amplitude_at(self, coords):
        """Amplitude field at points, shape (m, dim) -> (m,); 0 outside."""
        coords = np.asarray(coords, dtype=float)
        out = np.zeros(coords.shape[0])
        for box, amp in zip(self.parts, self.amplitudes):
            inside = np.ones(coords.shape[0], dtype=bool)
            for a in range(self.dim):
                inside &= (coords[:, a] > box.lo[a]) & (coords[:, a] < box.hi[a])
            np.maximum(out, np.where(inside, amp, 0.0), out=out)
        return out


def region_from_bounds(bounds, amplitude=1.0, label=""):
    """Convenience constructor.

    ``bounds`` is a list of parts, each part a list of per-axis (lo, hi) pairs;
    a single part may be passed directly. ``amplitude`` is a scalar applied to
    every part or a sequence with one value per part.
    """
    if bounds and np.isscalar(bounds[0][0]):
        bounds = [bounds]
    parts = tuple(Box(tuple(float(a) for a, _ in p), tuple(float(b) for _, b in p)) for p in bounds)
    if np.isscalar(amplitude):
        amps = tuple(float(amplitude) for _ in parts)
    else:
        amps = tuple(float(a) for a in amplitude)
    return Region(parts, amps, label)


def indicator_vector(region, grid):
    """Amplitude-weighted indicator of a region sampled at grid nodes.

    Returns the nodal field amplitude(x) * 1_region(x), all zero when no
    node carries a positive amplitude.
    """
    return region.clipped(grid.extents).amplitude_at(grid.node_coords())


class Support:
    """Nonzero columns of a nodal amplitude field, with the amplitudes there.

    ``cols`` indexes the last axis of a field: a slice when the columns are
    contiguous (a box in 1D), else a flat index array (an L-shaped union,
    most 2D boxes). Off these columns the multiplier is exactly zero, so
    couplings, controls and observations act on ``field[..., cols]`` only.
    """

    def __init__(self, values):
        idx = np.flatnonzero(values)
        if idx.size == 0:
            self.cols = slice(0, 0)
        elif idx[-1] - idx[0] + 1 == idx.size:
            self.cols = slice(int(idx[0]), int(idx[-1]) + 1)
        else:
            self.cols = idx
        self.amplitudes = values[self.cols]

    @property
    def size(self):
        return self.amplitudes.size

    @property
    def indices(self):
        """Grid indices of the columns, ascending."""
        if isinstance(self.cols, slice):
            return np.arange(self.cols.start, self.cols.stop)
        return self.cols


# ---------------------------------------------------------------------------
# billiard rays / GCC
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RayState:
    """Speed-one billiard ray sample: position and unit direction."""

    position: tuple
    direction: tuple

    def __post_init__(self):
        speed = math.sqrt(sum(d * d for d in self.direction))
        if abs(speed - 1.0) > 1e-12:
            raise ValueError(f"ray direction must be unit length, got |d|={speed!r}")


@dataclass
class GccReport:
    """Outcome of an exact GCC check for one region."""

    region_label: str
    horizon: float
    rays_total: int
    rays_hit: int
    min_hit_time: float | None
    max_hit_time_among_hitters: float | None
    worst_ray: RayState | None
    verdict: bool

    def to_dict(self):
        return {
            "region": self.region_label,
            "horizon": self.horizon,
            "rays_total": self.rays_total,
            "rays_hit": self.rays_hit,
            "min_hit_time": self.min_hit_time,
            "max_hit_time_among_hitters": self.max_hit_time_among_hitters,
            "worst_ray_position": list(self.worst_ray.position) if self.worst_ray else None,
            "worst_ray_direction": list(self.worst_ray.direction) if self.worst_ray else None,
            "verdict": "pass" if self.verdict else "fail",
        }


def _ray_lattice(extents, n_rays):
    """Deterministic starting lattice: (positions, directions), each of shape
    (rays, dim), every position crossed with every direction.

    1D: endpoint-including uniform positions (ceil(n_rays/2) of them) crossed
    with both directions.  2D: strictly interior uniform positions, m per axis
    with m = round(sqrt(n_rays / 8)), crossed with 8 equispaced directions
    (multiples of pi/4, so the axis-parallel directions are always present).
    Interior 2D starts avoid rays that glide along a wall and can never enter
    an open region touching that wall.
    """
    if len(extents) == 1:
        n_pos = max(2, int(math.ceil(n_rays / 2)))
        positions = np.linspace(0.0, extents[0], n_pos)[:, None]
        dirs = np.array([[-1.0], [1.0]])
    else:
        n_dir = 8
        n_pos = max(2, int(round(math.sqrt(max(n_rays, n_dir) / n_dir))))
        axes = [L * np.arange(1, n_pos + 1) / (n_pos + 1) for L in extents]
        positions = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
        angles = [2.0 * math.pi * q / n_dir for q in range(n_dir)]
        dirs = np.array([(math.cos(a), math.sin(a)) for a in angles])
        # snap the axis-parallel directions to exact unit vectors: cos and sin
        # of multiples of pi/2 are exactly +-1, but leave ~1e-16 where 0 belongs
        dirs[np.abs(dirs) < 1e-15] = 0.0
    return np.repeat(positions, len(dirs), axis=0), np.tile(dirs, (len(positions), 1))


def _axis_windows(x0, v, lo, hi, length, n_windows):
    """Open time windows in which a folded coordinate lies in (lo, hi).

    On the unfolded line the coordinate is x0 + v*t, and its fold lies in
    (lo, hi) exactly on the images (jL + lo, jL + hi) for even j and
    (jL + L - hi, jL + L - lo) for odd j. A coordinate moving up meets the
    images j = 0, 1, 2, ... in time order, one moving down j = 0, -1, -2, ...;
    ``n_windows`` >= T/L + 2 of them cover [0, T). Returns (start, end), each
    of shape (rays, n_windows). A still coordinate (v = 0) is in (lo, hi) for
    all time or never.
    """
    still = v == 0.0
    j = np.arange(n_windows) * np.where(v < 0.0, -1, 1)[:, None]
    odd = j % 2 == 1
    speed = np.where(still, 1.0, v)[:, None]
    # distance to the wall image jL first: it is exact for nearby walls
    offset = j * length - x0[:, None]
    t_lo = (offset + np.where(odd, length - hi, lo)) / speed
    t_hi = (offset + np.where(odd, length - lo, hi)) / speed
    start = np.minimum(t_lo, t_hi)
    end = np.maximum(t_lo, t_hi)
    start[still] = 0.0
    end[still] = 0.0
    end[still, 0] = np.where((lo < x0[still]) & (x0[still] < hi), np.inf, 0.0)
    return start, end


def _box_entry_times(box, positions, directions, extents, T):
    """First-entry time of each ray into one open box; inf when none before T.

    Every combination of one window per axis is intersected with [0, inf), so
    a block of rays holds rays x windows**dim candidate times.
    """
    start = np.zeros((len(positions), 1))
    end = np.full((len(positions), 1), np.inf)
    for a, L in enumerate(extents):
        s, e = _axis_windows(positions[:, a], directions[:, a], box.lo[a], box.hi[a], L,
                             int(T / L) + 2)
        start = np.maximum(start[:, :, None], s[:, None, :]).reshape(len(positions), -1)
        end = np.minimum(end[:, :, None], e[:, None, :]).reshape(len(positions), -1)
    entry = np.where(start < end, start, np.inf).min(axis=1)
    # np.maximum(0.0, -0.0) is -0.0, the entry time of a ray that starts on
    # an edge and heads in (0 / -v); adding 0.0 makes it 0.0
    return np.where(entry < T, entry + 0.0, np.inf)


def ray_entry_times(region, extents, positions, directions, T):
    """Exact first-entry times of billiard rays into an open region.

    ``positions`` and ``directions`` have shape (rays, dim); a ray starting
    inside the region enters at 0. Returns one time per ray, inf for a ray
    that does not enter before T.
    """
    extents = tuple(float(L) for L in np.atleast_1d(extents))
    region = region.clipped(extents)
    positions = np.asarray(positions, dtype=float)
    directions = np.asarray(directions, dtype=float)
    out = np.empty(len(positions))
    for lo in range(0, len(positions), _RAY_BLOCK):
        block = slice(lo, lo + _RAY_BLOCK)
        out[block] = np.min([_box_entry_times(box, positions[block], directions[block], extents, T)
                             for box in region.parts], axis=0)
    return out


def gcc_check(region, extents, T, n_rays):
    """Exact geometric-control-condition check for one region.

    Computes the first-entry time of every ray of the deterministic lattice in
    closed form and passes when each one enters before T. A ray aimed at a
    corner is followed like any other: a corner is a right angle, where the
    reflections off its two walls commute, so the ray leaves it with both
    components reversed, as the limit of its neighbours on either side.
    """
    extents = tuple(float(L) for L in np.atleast_1d(extents))
    if T <= 0:
        raise ValueError("horizon T must be positive")
    if n_rays < 1:
        raise ValueError("need at least one ray")

    positions, directions = _ray_lattice(extents, n_rays)
    entry = ray_entry_times(region, extents, positions, directions, T)
    hit = np.isfinite(entry)
    hit_times = entry[hit]
    rays_hit = int(hit.sum())
    worst = None
    if rays_hit < len(entry):
        miss = int(np.argmin(hit))
        worst = RayState(tuple(positions[miss]), tuple(directions[miss]))
    return GccReport(
        region_label=region.label or "region",
        horizon=float(T),
        rays_total=len(entry),
        rays_hit=rays_hit,
        min_hit_time=float(hit_times.min()) if rays_hit else None,
        max_hit_time_among_hitters=float(hit_times.max()) if rays_hit else None,
        worst_ray=worst,
        verdict=rays_hit == len(entry),
    )


def interval_entry_time(region, length):
    """Exact worst first-entry time of a 1D region: 2*max(a_first, L - b_last).

    The slowest ray starts at an outer edge of the region heading away from it;
    gaps between parts are always reached faster than the outer sweeps.
    """
    region = region.clipped((float(length),))
    a_first = min(p.lo[0] for p in region.parts)
    b_last = max(p.hi[0] for p in region.parts)
    return 2.0 * max(a_first, length - b_last)


def default_horizon(regions, extents):
    """Default control horizon: 1.5 x the summed per-region worst entry times.

    In 2D each region contributes the max over the per-axis projected sweep
    times; this is only a heuristic default for configs that leave T unset.
    """
    total = 0.0
    for region in regions:
        if len(extents) == 1:
            total += interval_entry_time(region, extents[0])
        else:
            per_axis = []
            for a, L in enumerate(extents):
                r = region.clipped(tuple(extents))
                lo = min(p.lo[a] for p in r.parts)
                hi = max(p.hi[a] for p in r.parts)
                per_axis.append(2.0 * max(lo, L - hi))
            total += max(per_axis)
    return 1.5 * total
