import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import configuration
from hypothesis import strategies as st

import cascade_lab as cl


REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TREE_AT_START = pytest.StashKey[set]()


def _repo_tree():
    """Every path under the repository, relative to it, apart from .git and
    the interpreter's bytecode caches."""
    paths = set()
    for root, dirs, files in os.walk(REPO):
        dirs[:] = [d for d in dirs if d not in (".git", "__pycache__")]
        rel = os.path.relpath(root, REPO)
        paths.update(os.path.normpath(os.path.join(rel, name))
                     for name in dirs + files if not name.endswith(".pyc"))
    return paths


@pytest.hookimpl(tryfirst=True)
def pytest_configure(config):
    """Snapshot the tree before any plugin's own configure hook can write to
    it, then move Hypothesis's cache, by default ./.hypothesis, out of it."""
    config.stash[TREE_AT_START] = _repo_tree()
    configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "cascade-lab-hypothesis"))


def pytest_sessionfinish(session):
    """Fail the run when a test wrote into, or deleted from, the repository
    tree; every such path is named."""
    before, after = session.config.stash[TREE_AT_START], _repo_tree()
    if before == after:
        return
    reporter = session.config.pluginmanager.get_plugin("terminalreporter")
    reporter.write_line("")
    reporter.write_sep("=", "the tests changed the repository tree", red=True)
    for path in sorted(after - before):
        reporter.write_line(f"appeared: {path}", red=True)
    for path in sorted(before - after):
        reporter.write_line(f"vanished: {path}", red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED


@pytest.fixture
def grid1d():
    return cl.build_grid([1.0], [60])


@pytest.fixture
def basis1d(grid1d):
    return cl.spectral_basis(cl.EllipticOperator(grid1d), 10)


def make_wave_cascade(n=60, K=10, c=1.0, coupling_box=(0.2, 0.4), control_box=(0.7, 0.9)):
    """Standard two-component wave cascade with disjoint regions."""
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, K)
    O = cl.region_from_bounds([[list(coupling_box)]][0], c, "O")
    omega = cl.region_from_bounds([list(control_box)], 1.0, "omega")
    coupling = (((1, 2), O),)
    control = ((2, omega),)
    return cl.CascadeSystem(cl.Hyperbolic(), op, basis, 2, coupling, control)


def make_heat_cascade(n=60, K=10, c=1.0, theta=0.0):
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, K)
    O = cl.region_from_bounds([[0.2, 0.4]], c, "O")
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0, "omega")
    coupling = (((1, 2), O),)
    control = ((2, omega),)
    return cl.CascadeSystem(cl.Dissipative(theta), op, basis, 2, coupling, control)


def make_single_free(n=60, K=8, family=None):
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, K)
    fam = family if family is not None else cl.Hyperbolic()
    return cl.CascadeSystem(fam, op, basis, 1)


def chained_dt(sys, T):
    """Largest stable step that divides T exactly."""
    M = int(np.ceil(T / cl.cfl_time_step(sys)))
    return T / max(M, 2)


@st.composite
def cascade_cases(draw, dim, N):
    """A random N-component system on a dim-D box with random couplings and
    controls, a time grid, and a seed for the numpy draws. In 1D each control
    is distributed or an end control, so one system may mix the two."""
    extents = [draw(st.floats(0.5, 2.0)) for _ in range(dim)]
    n = [draw(st.integers(4, 40) if dim == 1 else st.integers(3, 8)) for _ in range(dim)]
    grid = cl.build_grid(extents, n)
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 2)

    def box():
        # at least 0.3 of each side, so every box holds grid nodes
        parts = []
        for L in extents:
            width = draw(st.floats(0.3, 0.7))
            lo = draw(st.floats(0.0, 1.0 - width))
            parts.append([lo * L, (lo + width) * L])
        return cl.region_from_bounds([parts], draw(st.floats(0.1, 5.0)))

    p = draw(st.integers(0, N - 1))
    pairs = [(i, j) for j in range(2, N + 1) for i in range(1, j)]
    coupled = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    coupling = tuple(sorted({pair: box() for pair in coupled}.items()))
    controls = []
    for k in range(p + 1, N + 1):
        if dim == 1 and draw(st.booleans()):
            controls.append((k, cl.BoundaryEnd(draw(st.sampled_from(["left", "right"])),
                                               draw(st.floats(0.1, 2.0)))))
        else:
            controls.append((k, box()))
    if draw(st.booleans()):
        family = cl.Hyperbolic()
    else:
        family = cl.Dissipative(draw(st.floats(-math.pi / 2, math.pi / 2)))
    sys = cl.CascadeSystem(family, op, basis, N, coupling, tuple(controls))
    T = draw(st.floats(0.1, 1.0))
    dt = chained_dt(sys, T) if sys.is_hyperbolic else T / draw(st.integers(2, 40))
    return sys, T, dt, draw(st.integers(0, 2**32 - 1))


def sliced_stencil(grid, w):
    """The Dirichlet stencil with every neighbour subtraction as a row slice:
    the reference that ``EllipticOperator.matvec`` must match bit for bit."""
    if grid.dim == 1:
        inv = 1.0 / grid.h[0] ** 2
        out = (2.0 * inv) * w
        out[..., 1:] -= w[..., :-1] * inv
        out[..., :-1] -= w[..., 1:] * inv
        return out
    nx, ny = grid.n
    inv_x, inv_y = 1.0 / grid.h[0] ** 2, 1.0 / grid.h[1] ** 2
    v = w.reshape(w.shape[:-1] + (nx, ny))
    out = (2.0 * inv_x + 2.0 * inv_y) * v
    out[..., 1:, :] -= v[..., :-1, :] * inv_x
    out[..., :-1, :] -= v[..., 1:, :] * inv_x
    out[..., :, 1:] -= v[..., :, :-1] * inv_y
    out[..., :, :-1] -= v[..., :, 1:] * inv_y
    return out.reshape(w.shape)


def dense_stencil(grid):
    """The Dirichlet stencil as a dense matrix, built from np.diag and np.kron."""
    def lap1d(m, h):
        off = np.full(m - 1, -1.0 / h**2)
        return np.diag(np.full(m, 2.0 / h**2)) + np.diag(off, 1) + np.diag(off, -1)

    if grid.dim == 1:
        return lap1d(grid.n[0], grid.h[0])
    (nx, ny), (hx, hy) = grid.n, grid.h
    return np.kron(lap1d(nx, hx), np.eye(ny)) + np.kron(np.eye(nx), lap1d(ny, hy))


def sliced_apply_system(sys, Y):
    """(A + C) Y from ``sliced_stencil`` and the coupling multipliers, each
    added on its support columns only."""
    out = sliced_stencil(sys.grid, Y)
    for (i, j), sup in sys.coupling_supports:
        dst, src = (j, i) if sys.transposed else (i, j)
        out[..., dst - 1, sup.cols] += sup.amplitudes * Y[..., src - 1, sup.cols]
    return out


def signed_zero_fields(shape, rng, complex_=False):
    """Random fields whose second half (in flat order) is all zeros: -0.0 at
    every third entry and +0.0 elsewhere, so that the stencil yields zeros of
    both signs. The -0.0 pattern shifts by one per row of the second-to-last
    axis (per component), so rows differ in where their zeros are negative.
    Imaginary parts are random, then +0.0 over the same half."""
    n = shape[-1]
    w = rng.standard_normal(shape)
    row = np.arange(shape[-2])[:, None] if len(shape) > 1 else 0
    w[..., n // 2:] = np.where((np.arange(n // 2, n) + row) % 3 == 1, -0.0, 0.0)
    if not complex_:
        return w
    out = np.empty(shape, dtype=np.complex128)
    out.real = w
    out.imag = rng.standard_normal(shape)
    out.imag[..., n // 2:] = 0.0
    return out


def lattice_worst_entry_1d(lo, hi, n_rays, L=1.0):
    """Largest first-entry time into (lo, hi) over the 1D ray lattice, by
    reflection arithmetic: a start inside enters at 0, a ray heading toward
    the interval reaches its near edge directly, and one heading away first
    runs to the wall and back."""
    from cascade_lab.geometry import _ray_lattice

    worst = 0.0
    positions, directions = _ray_lattice((L,), n_rays)
    for x, v in zip(positions[:, 0], directions[:, 0]):
        if lo < x < hi:
            continue
        below = x <= lo
        if below == (v > 0):
            t = lo - x if below else x - hi
        else:
            t = x + lo if below else (L - x) + (L - hi)
        worst = max(worst, t)
    return worst
