import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_lab as cl

from conftest import dense_stencil, signed_zero_fields, sliced_stencil


# ---------------------------------------------------------------------------
# stencil and eigenstructure
# ---------------------------------------------------------------------------


def test_stencil_entries_n3():
    op = cl.EllipticOperator(cl.build_grid([1.0], [3]))
    dense = op.matvec(np.eye(3))
    assert dense[1, 1] == pytest.approx(32.0)
    assert dense[0, 1] == pytest.approx(-16.0)
    assert dense[1, 0] == pytest.approx(-16.0)


def test_matvec_matches_dense():
    rng = np.random.default_rng(0)
    for extents, n in [(([1.0]), [17]), (([1.0, 0.7]), [6, 5])]:
        g = cl.build_grid(extents, n)
        op = cl.EllipticOperator(g)
        dense = dense_stencil(g)
        for _ in range(5):
            w = rng.standard_normal(g.n_total)
            assert np.allclose(op.matvec(w.copy()), dense @ w, atol=1e-12)


@pytest.mark.parametrize("extents,n", [([1.0], [9]), ([1.0, 0.7], [5, 4])])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("batch", [(), (3,), (4, 2)])
@pytest.mark.parametrize("contiguous", [True, False])
def test_matvec_matches_sliced_stencil_bitwise(extents, n, complex_, batch, contiguous):
    """Flat shifted passes give the row-sliced stencil's bits, signed zeros included."""
    grid = cl.build_grid(extents, n)
    op = cl.EllipticOperator(grid)
    rng = np.random.default_rng(7)
    w = signed_zero_fields(batch + (grid.n_total,), rng, complex_)
    if not contiguous:
        wide = np.full(batch + (2 * grid.n_total,), np.nan, dtype=w.dtype)
        wide[..., ::2] = w
        w = wide[..., ::2]
    before = w.copy()
    expected = sliced_stencil(grid, w)
    zeros = expected.real[expected.real == 0.0]
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    got = op.matvec(w)
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
    out = np.full_like(expected, np.nan)
    op.matvec(w, out)
    assert out.tobytes() == expected.tobytes()
    assert w.tobytes() == before.tobytes()


@pytest.mark.parametrize("extents,n", [([1.0], [9]), ([1.0, 0.7], [5, 4])])
def test_matvec_refuses_aliased_or_unfit_out(extents, n):
    grid = cl.build_grid(extents, n)
    op = cl.EllipticOperator(grid)
    w = np.random.default_rng(8).standard_normal((2, grid.n_total))
    for alias in (w, w[::-1]):
        with pytest.raises(ValueError, match="share memory"):
            op.matvec(w, alias)
    for unfit in (np.empty((3, grid.n_total)), np.empty((grid.n_total, 2)).T):
        with pytest.raises(ValueError, match="C-contiguous"):
            op.matvec(w, unfit)


def test_eigenvalues_match_bruteforce_1d():
    # oracle: dense eigendecomposition of the assembled matrix
    g = cl.build_grid([1.0], [40])
    op = cl.EllipticOperator(g)
    brute = np.sort(np.linalg.eigvalsh(dense_stencil(g)))
    h, L = g.h[0], 1.0
    k = np.arange(1, 41)
    closed = (4.0 / h**2) * np.sin(k * np.pi * h / (2 * L)) ** 2
    assert np.allclose(closed, brute, rtol=1e-10)
    basis = cl.spectral_basis(op, 12)
    assert np.allclose(basis.eigenvalues, brute[:12], rtol=1e-10)


@pytest.mark.parametrize("n", [2, 3, 17, 100])
def test_axis_sine_matrix_is_a_symmetric_orthonormal_eigenbasis(n):
    g = cl.build_grid([1.3], [n])
    op = cl.EllipticOperator(g)
    q = op.axis_sine_matrix(0)
    assert np.array_equal(q, q.T)
    assert np.max(np.abs(q @ q - np.eye(n))) < 1e-13
    lam = op.axis_eigenvalues(0)
    assert np.max(np.abs(q @ dense_stencil(g) @ q - np.diag(lam))) < 1e-12 * lam[-1]


def test_axis_sine_matrix_is_built_once_per_length_and_read_only():
    op = cl.EllipticOperator(cl.build_grid([1.0, 0.5], [17, 9]))
    q = op.axis_sine_matrix(0)
    assert op.axis_sine_matrix(0) is q
    assert cl.EllipticOperator(cl.build_grid([2.0], [17])).axis_sine_matrix(0) is q
    assert op.axis_sine_matrix(1).shape == (9, 9)
    assert not q.flags.writeable
    with pytest.raises(ValueError):
        q[0, 0] = 0.0
    # the once-rounded extended-precision entries
    j = np.arange(1, 18)
    one = np.longdouble(1)
    angle = 4 * np.arctan(one) * (np.outer(j, j) % 36) / 18
    assert np.array_equal(q, (np.sqrt(2 * one / 18) * np.sin(angle)).astype(np.float64))


def test_spectral_basis_rows_are_the_sine_table():
    """Each mode is the tensor product of sine-matrix rows over sqrt(h), bit for bit."""
    op = cl.EllipticOperator(cl.build_grid([1.0], [200]))
    modes = cl.spectral_basis(op, 30).modes
    assert modes.tobytes() == (op.axis_sine_matrix(0)[:30] / np.sqrt(op.grid.h[0])).tobytes()
    g = cl.build_grid([1.0, 1.0], [40, 40])
    op = cl.EllipticOperator(g)
    qx, qy = (op.axis_sine_matrix(a) / np.sqrt(g.h[a]) for a in range(2))
    order = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1), (2, 3), (3, 2)]
    for row, (j, k) in zip(cl.spectral_basis(op, 8).modes, order, strict=True):
        assert row.tobytes() == np.outer(qx[j - 1], qy[k - 1]).ravel().tobytes()


@pytest.mark.parametrize("extents,n", [([1.3], [40]), ([1.0, 0.7], [9, 6])])
def test_eigenvalues_are_the_stencil_spectrum_on_the_grid_shape(extents, n):
    g = cl.build_grid(extents, n)
    lam = cl.EllipticOperator(g).eigenvalues()
    assert lam.shape == g.n
    brute = np.linalg.eigvalsh(dense_stencil(g))
    assert np.allclose(np.sort(lam, axis=None), brute, rtol=1e-12, atol=0.0)


def test_eigenvalues_2d_tensor_sum():
    g = cl.build_grid([1.0, 1.0], [4, 4])
    op = cl.EllipticOperator(g)
    brute = np.sort(np.linalg.eigvalsh(dense_stencil(g)))
    gx = cl.build_grid([1.0], [4])
    ax = cl.EllipticOperator(gx).axis_eigenvalues(0)
    lam_min = 2 * ax[0]
    assert brute[0] == pytest.approx(lam_min, rel=1e-12)
    basis = cl.spectral_basis(op, 5)
    assert basis.eigenvalues[0] == pytest.approx(lam_min, rel=1e-10)


def test_modes_are_sampled_sines():
    g = cl.build_grid([1.0], [50])
    basis = cl.spectral_basis(cl.EllipticOperator(g), 10)
    x = g.axis_nodes(0)
    for k in range(1, 11):
        exact = math.sqrt(2.0) * np.sin(k * np.pi * x)
        got = basis.modes[k - 1]
        if np.dot(got, exact) < 0:
            exact = -exact
        assert np.max(np.abs(got - exact)) < 1e-8


def test_complete_basis_parseval():
    g = cl.build_grid([1.0], [24])
    basis = cl.spectral_basis(cl.EllipticOperator(g), 24)
    rng = np.random.default_rng(5)
    w = rng.standard_normal(24)
    coeffs = basis.modes @ w * g.hvol
    assert np.sum(coeffs**2) == pytest.approx(np.sum(w**2) * g.hvol, rel=1e-10)
    gram = basis.modes @ basis.modes.T * g.hvol
    assert np.max(np.abs(gram - np.eye(24))) < 1e-10


def test_spectral_basis_rejects_bad_K(grid1d):
    op = cl.EllipticOperator(grid1d)
    with pytest.raises(ValueError):
        cl.spectral_basis(op, 0)
    with pytest.raises(ValueError):
        cl.spectral_basis(op, grid1d.n_total + 1)


def test_basis_residuals_small(basis1d, grid1d):
    op = cl.EllipticOperator(grid1d)
    for j in range(basis1d.K):
        res = np.linalg.norm(op.matvec(basis1d.modes[j].copy()) - basis1d.eigenvalues[j] * basis1d.modes[j])
        assert res * math.sqrt(grid1d.hvol) <= 1e-8 * basis1d.eigenvalues[j]
    gram = basis1d.modes @ basis1d.modes.T * grid1d.hvol
    assert np.max(np.abs(gram - np.eye(basis1d.K))) < 1e-10


def _tensor_sine(g, j, k):
    x, y = g.axis_nodes(0), g.axis_nodes(1)
    Lx, Ly = g.extents
    ex = math.sqrt(2.0 / Lx) * np.sin(j * np.pi * x / Lx)
    ey = math.sqrt(2.0 / Ly) * np.sin(k * np.pi * y / Ly)
    return np.outer(ex, ey).ravel()


def test_degenerate_square_modes_are_fixed_tensor_sines():
    # on a square (1,2) and (2,1) share an eigenvalue; the basis must list
    # them in (lambda, j, k) order, not in whatever rotation a solver returns
    g = cl.build_grid([1.0, 1.0], [20, 20])
    basis = cl.spectral_basis(cl.EllipticOperator(g), 10)
    assert basis.eigenvalues[1] == basis.eigenvalues[2]
    assert np.max(np.abs(basis.modes[1] - _tensor_sine(g, 1, 2))) < 1e-12
    assert np.max(np.abs(basis.modes[2] - _tensor_sine(g, 2, 1))) < 1e-12


def test_K_cutting_a_degenerate_pair_keeps_the_ordered_member():
    g = cl.build_grid([1.0, 1.0], [12, 12])
    op = cl.EllipticOperator(g)
    basis = cl.spectral_basis(op, 12)
    expected = [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1),
                (2, 3), (3, 2), (1, 4), (4, 1), (3, 3), (2, 4)]
    for row, (j, k) in zip(basis.modes, expected):
        assert np.max(np.abs(row - _tensor_sine(g, j, k))) < 1e-12
    brute = np.sort(np.linalg.eigvalsh(dense_stencil(g)))
    assert np.allclose(basis.eigenvalues, brute[:12], rtol=1e-10)
    # the pair partner (4, 2) is the next mode once K grows
    assert np.array_equal(cl.spectral_basis(op, 13).modes[:12], basis.modes)


@st.composite
def _grids(draw):
    dim = draw(st.integers(1, 2))
    extents = [draw(st.floats(0.2, 5.0)) for _ in range(dim)]
    n = [draw(st.integers(2, 30)) for _ in range(dim)]
    g = cl.build_grid(extents, n)
    return g, draw(st.integers(1, g.n_total))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_grids())
def test_closed_form_basis_is_an_exact_eigenbasis(case):
    g, K = case
    op = cl.EllipticOperator(g)
    basis = cl.spectral_basis(op, K)
    brute = np.sort(np.linalg.eigvalsh(dense_stencil(g)))[:K]
    assert np.allclose(basis.eigenvalues, brute, rtol=1e-10, atol=0.0)
    gram = basis.modes @ basis.modes.T * g.hvol
    assert np.max(np.abs(gram - np.eye(K))) < 1e-12
    residual = op.matvec(basis.modes) - basis.eigenvalues[:, None] * basis.modes
    assert np.all(np.linalg.norm(residual, axis=1) * math.sqrt(g.hvol)
                  <= 1e-10 * basis.eigenvalues)


def test_operator_symmetry_random_pairs(grid1d):
    op = cl.EllipticOperator(grid1d)
    rng = np.random.default_rng(2)
    for _ in range(50):
        u = rng.standard_normal(grid1d.n_total)
        w = rng.standard_normal(grid1d.n_total)
        au, aw = op.matvec(u.copy()), op.matvec(w.copy())
        lhs = float(au @ w)
        rhs = float(u @ aw)
        assert abs(lhs - rhs) <= 1e-12 * np.linalg.norm(au) * np.linalg.norm(w)


# ---------------------------------------------------------------------------
# coercivity and coupling bounds
# ---------------------------------------------------------------------------


def test_coercivity_constant_1d_pi_squared():
    g = cl.build_grid([1.0], [99])
    lam1 = cl.spectral_basis(cl.EllipticOperator(g), 3).eigenvalues[0]
    assert abs(lam1 - math.pi**2) / math.pi**2 < 0.005


def test_coercivity_constant_2d_two_pi_squared():
    g = cl.build_grid([1.0, 1.0], [20, 20])
    lam1 = cl.spectral_basis(cl.EllipticOperator(g), 3).eigenvalues[0]
    assert abs(lam1 - 2 * math.pi**2) / (2 * math.pi**2) < 0.02


def test_coupling_bounds_indicator(grid1d):
    r = cl.region_from_bounds([[0.3, 0.6]], 1.0, "O")
    assert cl.coupling_bounds(r, grid1d) == {"bound": 1.0, "coercivity": 1.0, "support": "O"}


def test_coupling_bounds_constant_multiplier_equality(grid1d):
    # |Cw|^2 = 9 sum_O w^2 = 3 * <Cw, w> exactly for c = 3
    r = cl.region_from_bounds([[0.3, 0.6]], 3.0, "O")
    bound = cl.coupling_bounds(r, grid1d)["bound"]
    assert bound == 3.0
    ind = cl.indicator_vector(r, grid1d)
    rng = np.random.default_rng(7)
    w = rng.standard_normal(grid1d.n_total)
    cw = ind * w
    quad = float(cw @ w) * grid1d.hvol
    normsq = float(cw @ cw) * grid1d.hvol
    assert normsq == pytest.approx(bound * quad, rel=1e-12)


def test_coupling_bounds_piecewise(grid1d):
    r = cl.region_from_bounds([[[0.1, 0.3]], [[0.5, 0.7]]], [2.0, 5.0])
    res = cl.coupling_bounds(r, grid1d)
    assert res["bound"] == 5.0
    assert res["coercivity"] == 2.0


def test_coupling_bounds_are_the_multiplier_on_the_grid(grid1d):
    """A part covered by a larger-amplitude part holds no node of its own
    amplitude: the multiplier is 2 on every support node, so alpha is 2, not
    the smallest listed amplitude 1."""
    r = cl.region_from_bounds([[[0.2, 0.4]], [[0.25, 0.3]]], [2.0, 1.0], "O")
    assert np.array_equal(np.unique(cl.indicator_vector(r, grid1d)), [0.0, 2.0])
    assert cl.coupling_bounds(r, grid1d) == {"bound": 2.0, "coercivity": 2.0, "support": "O"}


def test_coupling_bounds_of_an_empty_support_are_zero(grid1d):
    r = cl.region_from_bounds([[0.2, 0.4]], 0.0, "O")
    assert cl.coupling_bounds(r, grid1d) == {"bound": 0.0, "coercivity": 0.0, "support": "O"}


def test_coupling_bounds_negative_amplitude_rejected(grid1d):
    # the region invariant refuses a negative multiplier before any check runs
    with pytest.raises(ValueError):
        cl.Region((cl.Box((0.1,), (0.2,)),), (-1.0,))


def test_multiplier_self_adjoint(grid1d):
    r = cl.region_from_bounds([[0.2, 0.5]], 2.0)
    ind = cl.indicator_vector(r, grid1d)
    rng = np.random.default_rng(9)
    u = rng.standard_normal(grid1d.n_total)
    w = rng.standard_normal(grid1d.n_total)
    assert float((ind * u) @ w) == pytest.approx(float(u @ (ind * w)), rel=1e-15)


# ---------------------------------------------------------------------------
# observation through CascadeSystem.extract
# ---------------------------------------------------------------------------


def _observed_system(n, N, control):
    g = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(g)
    return cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 1), N, control=control)


def test_observe_distributed_velocity():
    omega = cl.region_from_bounds([[0.4, 0.6]], 1.0)
    sys = _observed_system(3, 1, ((1, omega),))
    out = sys.extract(1, np.zeros((1, 3)), velocity=np.ones((1, 3)))
    assert np.array_equal(out, [1.0])  # the one node of the support


def test_observe_zero_velocity_gives_zero():
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = _observed_system(3, 1, ((1, omega),))
    out = sys.extract(1, np.ones((1, 3)), velocity=np.zeros((1, 3)))
    assert np.array_equal(out, [0.0, 0.0, 0.0])


def test_observe_boundary_normal_derivative_of_first_mode():
    # continuum value of the outward normal derivative of sqrt(2) sin(pi x)
    # at x = 1 is -sqrt(2) pi; the discrete quotient converges at O(h^2)
    sys = _observed_system(200, 1, ((1, cl.BoundaryEnd("right", 1.0)),))
    out = sys.extract(1, sys.basis.modes[:1], velocity=np.zeros((1, 200)))
    assert out == pytest.approx(-math.sqrt(2.0) * math.pi, rel=0.01)


def test_observe_uncontrolled_component_raises():
    sys = _observed_system(3, 2, ((2, cl.BoundaryEnd("left", 1.0)),))
    with pytest.raises(ValueError):
        sys.extract(1, np.zeros((2, 3)), velocity=np.zeros((2, 3)))


def test_control_spec_validation():
    """CascadeSystem checks the coupling and control entries it is given."""
    op = cl.EllipticOperator(cl.build_grid([1.0], [10]))
    basis = cl.spectral_basis(op, 2)
    omega = cl.region_from_bounds([[0.4, 0.6]], 1.0)
    with pytest.raises(ValueError):
        cl.CascadeSystem(cl.Hyperbolic(), op, basis, 2, (((2, 1), omega),))  # lower-triangular
    with pytest.raises(ValueError):
        cl.CascadeSystem(cl.Hyperbolic(), op, basis, 2, control=((3, omega),))  # outside 1..N
    with pytest.raises(ValueError):
        cl.CascadeSystem(cl.Hyperbolic(), op, basis, 2, control=((2, omega), (2, omega)))
    with pytest.raises(ValueError):
        cl.BoundaryEnd("top", 1.0)
    op2 = cl.EllipticOperator(cl.build_grid([1.0, 1.0], [5, 5]))
    with pytest.raises(ValueError):  # an end control in 2D
        cl.CascadeSystem(cl.Hyperbolic(), op2, cl.spectral_basis(op2, 2), 1,
                         control=((1, cl.BoundaryEnd("left", 1.0)),))
