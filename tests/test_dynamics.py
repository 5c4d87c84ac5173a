import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_lab as cl
from cascade_lab.cli import demo_configs
from cascade_lab.dynamics import (
    _adjoint_levels_from_seed,
    _cn_adjoint,
    _cn_forward,
    _SineResolvent,
    _forcing,
    _hyp_adjoint,
    _hyp_forward,
    _observation_recorder,
    quadrature,
    sample_weights,
    step_count,
    trapezoid_weights,
)
from cascade_lab.operators import _sine_matrix

from conftest import (
    cascade_cases,
    chained_dt,
    dense_stencil,
    make_heat_cascade,
    make_single_free,
    make_wave_cascade,
    signed_zero_fields,
    sliced_apply_system,
    sliced_stencil,
)


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------


def test_energy_single_mode_position():
    sys = make_single_free()
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.modes[0]
    rep = cl.energy(sys, st)
    assert rep.total == pytest.approx(sys.basis.eigenvalues[0] / 2, rel=1e-10)


def test_energy_single_mode_velocity():
    sys = make_single_free()
    st = cl.zero_state(sys)
    st.wp[0] = sys.basis.modes[0]
    assert cl.energy(sys, st).total == pytest.approx(0.5, rel=1e-10)


def test_energy_zero_state():
    sys = make_single_free()
    assert cl.energy(sys, cl.zero_state(sys)).total == 0.0


def test_energy_dissipative_is_half_l2():
    sys = make_single_free(family=cl.Dissipative(0.0))
    st = cl.zero_state(sys)
    st.w[0] = 2.0 * sys.basis.modes[0]
    assert cl.energy(sys, st).total == pytest.approx(2.0, rel=1e-10)


# ---------------------------------------------------------------------------
# second-order integrator
# ---------------------------------------------------------------------------


def test_cfl_violation_reports_admissible_dt():
    sys = make_single_free()
    dt_max = cl.cfl_time_step(sys)
    bad = 2.5 * dt_max
    T = 100 * bad
    with pytest.raises(cl.CflViolationError) as err:
        cl.solve(sys, cl.zero_state(sys), None, T, bad)
    assert err.value.dt_admissible == pytest.approx(dt_max)


def test_wave_single_mode_closed_form_and_order():
    # semi-discrete oracle: w(t) = cos(sqrt(lam_k) t) e_k with the discrete lam
    sys = make_single_free()
    lam = sys.basis.eigenvalues[1]
    T = 1.0

    def run(dt):
        st = cl.zero_state(sys)
        st.w[0] = sys.basis.modes[1]
        _, term = cl.solve(sys, st, None, T, dt)
        exact = math.cos(math.sqrt(lam) * T) * sys.basis.modes[1]
        return math.sqrt(float(np.sum((term.w[0] - exact) ** 2)) * sys.grid.hvol)

    e1, e2 = run(0.005), run(0.0025)
    assert 3.2 <= e1 / e2 <= 4.8


def test_wave_zero_data_zero_control_stays_zero():
    sys = make_single_free()
    _, term = cl.solve(sys, cl.zero_state(sys), None, 1.0, 0.01)
    assert np.all(term.w == 0.0) and np.all(term.wp == 0.0)


def test_cascade_component1_bitwise_matches_standalone():
    # coupling feeds 1 <- 2 only; with y_2 = 0 the component-1 arithmetic is
    # identical to the standalone single-equation run
    two = make_wave_cascade(n=40, K=6)
    one = make_single_free(n=40, K=6)
    dt = chained_dt(two, 1.0)
    st2 = cl.zero_state(two)
    st2.w[0] = two.basis.modes[0]
    st1 = cl.zero_state(one)
    st1.w[0] = one.basis.modes[0]
    _, t2 = cl.solve(two, st2, None, 1.0, dt)
    _, t1 = cl.solve(one, st1, None, 1.0, dt)
    assert np.array_equal(t2.w[0], t1.w[0])
    assert np.array_equal(t2.wp[0], t1.wp[0])
    assert np.all(t2.w[1] == 0.0)


def test_zero_coupling_isolates_bitwise():
    two = make_wave_cascade(n=40, K=6, c=0.0)
    one = make_single_free(n=40, K=6)
    dt = chained_dt(two, 1.0)
    rng = np.random.default_rng(0)
    w0 = rng.standard_normal(40)
    v0 = rng.standard_normal(40)
    st2 = cl.zero_state(two)
    st2.w[1] = w0.copy()
    st2.wp[1] = v0.copy()
    st1 = cl.zero_state(one)
    st1.w[0] = w0.copy()
    st1.wp[0] = v0.copy()
    _, t2 = cl.solve(two, st2, None, 1.0, dt)
    _, t1 = cl.solve(one, st1, None, 1.0, dt)
    assert np.array_equal(t2.w[1], t1.w[0])


def _leapfrog_energy(sys, y_a, y_b, dt):
    """Discrete energy the free leapfrog step conserves exactly, for consecutive
    levels: |y_b - y_a|^2 / (2 dt^2) + <A_sys y_a, y_b> / 2."""
    hvol = sys.grid.hvol
    diff = (y_b - y_a) / dt
    kin = 0.5 * hvol * float(np.sum(diff * diff))
    pot = 0.5 * hvol * float(np.sum(sys.apply_system(y_a) * y_b))
    return kin + pot


def test_leapfrog_energy_conserved_1e4_steps():
    sys = make_single_free(n=30, K=5)
    dt = 0.9 * cl.cfl_time_step(sys)
    T = 10000 * dt
    rng = np.random.default_rng(8)
    st = cl.zero_state(sys)
    st.w[0] = rng.standard_normal(5) @ sys.basis.modes
    st.wp[0] = rng.standard_normal(5) @ sys.basis.modes
    (y_m1, y_m), _ = cl.solve(sys, st, None, T, dt)
    # the conserved quadratic form is evaluated on consecutive level pairs
    first_level = st.w + dt * st.wp + 0.5 * dt * dt * (-sys.apply_system(st.w))
    e_start = _leapfrog_energy(sys, st.w, first_level, dt)
    e_end = _leapfrog_energy(sys, y_m1, y_m, dt)
    assert abs(e_end - e_start) <= 1e-10 * abs(e_start)


# ---------------------------------------------------------------------------
# first-order integrator
# ---------------------------------------------------------------------------


def test_heat_single_mode_decay_and_order():
    sys = make_single_free(family=cl.Dissipative(0.0))
    lam = sys.basis.eigenvalues[1]
    T = 0.5

    def run(dt):
        st = cl.zero_state(sys)
        st.w[0] = sys.basis.modes[1]
        _, term = cl.solve(sys, st, None, T, dt)
        exact = math.exp(-lam * T) * sys.basis.modes[1]
        return math.sqrt(float(np.sum(np.abs(term.w[0] - exact) ** 2)) * sys.grid.hvol)

    e1, e2 = run(0.01), run(0.005)
    assert 3.2 <= e1 / e2 <= 4.8


def test_schrodinger_norm_preserved():
    sys = make_single_free(n=40, K=5, family=cl.Dissipative(math.pi / 2))
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.modes[0].astype(complex)
    _, term = cl.solve(sys, st, None, 10.0, 0.001)
    n0 = math.sqrt(float(np.sum(np.abs(st.w[0]) ** 2)) * sys.grid.hvol)
    nT = math.sqrt(float(np.sum(np.abs(term.w[0]) ** 2)) * sys.grid.hvol)
    assert abs(nT / n0 - 1.0) <= 1e-12


def test_heat_cascade_component1_mass_iff_coupling():
    sys = make_heat_cascade(n=40, K=6, c=1.0)
    st = cl.zero_state(sys)
    st.w[1] = sys.basis.modes[0]
    _, term = cl.solve(sys, st, None, 0.2, 0.002)
    assert np.max(np.abs(term.w[0])) > 1e-6
    zero = make_heat_cascade(n=40, K=6, c=0.0)
    st = cl.zero_state(zero)
    st.w[1] = zero.basis.modes[0]
    _, term = cl.solve(zero, st, None, 0.2, 0.002)
    assert np.all(term.w[0] == 0.0)


def test_heat_single_component_norm_monotone():
    sys = make_single_free(n=40, K=6, family=cl.Dissipative(0.0))
    rng = np.random.default_rng(12)
    st = cl.zero_state(sys)
    st.w[0] = rng.standard_normal(6) @ sys.basis.modes
    norms = []
    _cn_forward(sys, st.w, None, None, step_count(0.5, 0.005), 0.005,
                lambda n, y: norms.append(math.sqrt(float(np.sum(y * y)) * sys.grid.hvol)))
    assert len(norms) == step_count(0.5, 0.005) + 1
    assert np.all(np.diff(norms) <= 1e-12)


def test_heat_cascade_free_component_growth_bounded_by_forcing():
    # |w_1(t)| <= |w_1(0)| + t * max_s |coupling forcing(s)| for the fed component
    sys = make_heat_cascade(n=40, K=6, c=1.0)
    st = cl.zero_state(sys)
    st.w[1] = sys.basis.modes[0]
    T, dt = 0.4, 0.002
    M = step_count(T, dt)
    snapshots = []
    cl.solve(sys, st, None, T, dt,
             lambda n, y: snapshots.append((n * dt, y.copy())) if n % 20 == 0 else None)
    assert len(snapshots) == M // 20 + 1
    hvol = sys.grid.hvol
    sup = dict(sys.coupling_supports)[(1, 2)]
    forcing_max = 0.0
    for _, w in snapshots:
        forcing_max = max(forcing_max,
                          math.sqrt(float(np.sum(np.abs(sup.amplitudes * w[1][sup.cols]) ** 2)) * hvol))
    for t, w in snapshots:
        n1 = math.sqrt(float(np.sum(np.abs(w[0]) ** 2)) * hvol)
        assert n1 <= 0.0 + t * forcing_max + 1e-12


def test_theta_outside_range_rejected():
    with pytest.raises(ValueError):
        cl.Dissipative(2.0)


@pytest.mark.parametrize("family", ["hyperbolic", "dissipative"])
def test_solve_validates_input(family):
    sys = make_wave_cascade(n=40, K=6) if family == "hyperbolic" else make_heat_cascade(n=40, K=6)
    dt = chained_dt(sys, 1.0)
    rest = cl.zero_state(sys)
    M = step_count(0.5, dt)
    sig = cl.ControlSignal(dt * np.arange(M + 1), {2: np.zeros((M + 1, 40))})
    with pytest.raises(ValueError, match="control signal grid"):
        cl.solve(sys, rest, sig, 1.0, dt)
    with pytest.raises(ValueError, match="must divide"):
        cl.solve(sys, rest, None, 1.0 + 0.5 * dt, dt)
    with pytest.raises(ValueError, match="state shape"):
        cl.solve(sys, cl.SystemState(0.0, np.zeros((1, 40)), rest.wp), None, 1.0, dt)


# ---------------------------------------------------------------------------
# Crank-Nicolson component solve
# ---------------------------------------------------------------------------


KAPPAS = [0.5 * 0.0016, 0.5 * 0.004 * np.exp(-0.6j), 0.5 * 0.004 * np.exp(-0.5j * math.pi)]


def _random_rhs(grid, kappa, n_rhs):
    rng = np.random.default_rng(grid.n_total * n_rhs)
    shape = (grid.n_total,) if n_rhs == 1 else (n_rhs, grid.n_total)
    rhs = rng.standard_normal(shape)
    if isinstance(kappa, complex):
        rhs = rhs + 1j * rng.standard_normal(shape)
    return rhs


def _assert_matches_dense_solve(grid, kappa, rhs, out):
    """out against np.linalg.solve on the dense (banded) I + kappa A, to round-off."""
    dense = np.eye(grid.n_total) + kappa * dense_stencil(grid)
    ref = np.linalg.solve(dense, rhs.reshape(-1, grid.n_total).T).T.reshape(rhs.shape)
    assert out.dtype == ref.dtype
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("n_rhs", [1, 24])
@pytest.mark.parametrize("n", [2, 3, 100])
def test_component_solver_matches_solve_banded_bitwise(kappa, n_rhs, n):
    # The tridiagonal I + kappa A is matched to round-off; what must hold bit
    # for bit is that one solver serves every step of a march exactly as a
    # fresh solver would.
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    solver = _SineResolvent(op, kappa)
    rhs = _random_rhs(grid, kappa, n_rhs)
    for _ in range(3):
        out = solver.solve(rhs)
        assert np.array_equal(out, _SineResolvent(op, kappa).solve(rhs))
        _assert_matches_dense_solve(grid, kappa, rhs, out)
        rhs = out


@pytest.mark.parametrize("kappa", KAPPAS)
@pytest.mark.parametrize("n_rhs", [1, 24])
@pytest.mark.parametrize("n", [[5, 7], [40, 40]], ids=["5x7", "40x40"])
def test_component_solver_matches_dense_solve(kappa, n_rhs, n):
    grid = cl.build_grid([1.0, 1.0], n)
    rhs = _random_rhs(grid, kappa, n_rhs)
    out = _SineResolvent(cl.EllipticOperator(grid), kappa).solve(rhs)
    _assert_matches_dense_solve(grid, kappa, rhs, out)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [2, 50])
def test_component_solver_rejects_non_finite_rhs(bad, n):
    solver = _SineResolvent(cl.EllipticOperator(cl.build_grid([1.0], [n])), 0.001)
    rhs = np.ones((4, n))
    rhs[2, n // 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.solve(rhs)


def test_component_solver_rejects_non_finite_matrix_and_complex_rhs():
    op = cl.EllipticOperator(cl.build_grid([1.0], [20]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        _SineResolvent(op, math.inf)
    with pytest.raises(ValueError, match="complex128 right-hand side"):
        _SineResolvent(op, 0.001).solve(np.ones(20) + 1j)


@pytest.mark.parametrize("extent,n,kappa", [(4.0, 3, -0.5), (3.0, 2, -1.0)])
def test_component_solver_singular_matrix_raises(extent, n, kappa):
    # h = 1: zero diagonal with off-diagonals 1/2 (n = 3), or [[-1, 1], [1, -1]] (n = 2)
    op = cl.EllipticOperator(cl.build_grid([extent], [n]))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _SineResolvent(op, kappa).solve(np.ones(n))


# ---------------------------------------------------------------------------
# adjoint solve and duality
# ---------------------------------------------------------------------------


def test_adjoint_orientation_errors():
    sys = make_wave_cascade(n=40, K=6)
    dt = chained_dt(sys, 1.0)
    forcing = np.zeros((step_count(1.0, dt) + 1, 2, 40))
    with pytest.raises(ValueError, match="transposed"):
        cl.adjoint_duality_quadrature(sys, forcing, cl.zero_state(sys), 1.0, dt)


def test_adjoint_zero_seed_zero_observations():
    sys = cl.adjoint_system(make_wave_cascade(n=40, K=6))
    dt = chained_dt(sys, 1.0)
    M = step_count(1.0, dt)
    record, observations = _observation_recorder(sys, trapezoid_weights(M, dt), ())
    visited = []

    def visit(n, phi):
        visited.append(n)
        assert np.all(phi == 0.0)
        record(n, phi)

    zero = np.zeros((2, 40))
    initial = _hyp_adjoint(sys, zero, zero.copy(), M, dt, visit)
    assert visited == list(range(M, -1, -1))
    assert all(np.all(arr == 0.0) for arr in observations().values())
    assert np.all(initial.w == 0.0) and np.all(initial.wp == 0.0)


def test_adjoint_observation_single_mode_time_average():
    # free mode seeded as pure position: recorded observation is the mode
    # velocity; over one period its squared time-L2 norm is pi * sqrt(lam)
    n = 120
    one = make_single_free(n=n, K=4)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, control=((1, omega),))
    lam = sys.basis.eigenvalues[0]
    period = 2 * math.pi / math.sqrt(lam)
    M = int(math.ceil(period / (0.2 * cl.cfl_time_step(sys))))
    dt = period / M
    seed = cl.zero_state(sys)
    seed.w[0] = sys.basis.modes[0]
    adj = cl.adjoint_system(sys)
    weights = trapezoid_weights(M, dt)
    visit, observations = _observation_recorder(adj, weights, ())
    _hyp_adjoint(adj, *_adjoint_levels_from_seed(adj, seed, dt), M, dt, visit)
    obs = observations()
    assert quadrature(sys, obs, obs, weights) == pytest.approx(math.pi * math.sqrt(lam), rel=2e-3)


@pytest.mark.parametrize("family,cplx", [
    (cl.Hyperbolic(), False),
    (cl.Dissipative(0.0), False),
    (cl.Dissipative(math.pi / 2), True),
])
def test_discrete_duality_random_pairs(family, cplx):
    rng = np.random.default_rng(21)
    n, T, dt = 50, 1.0, 0.005
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 8)
    O = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0)
    sys = cl.CascadeSystem(family, op, basis, 2, (((1, 2), O),), ((2, omega),))
    M = step_count(T, dt)
    hyp = sys.is_hyperbolic
    for _ in range(8):
        shape = (M + 1, 2, n) if hyp else (M, 2, n)
        f = rng.standard_normal(shape).astype(sys.state_dtype)
        if cplx:
            f = f + 1j * rng.standard_normal(shape)
        if hyp:
            seed = cl.SystemState(T, rng.standard_normal((2, n)), rng.standard_normal((2, n)))
        else:
            s = rng.standard_normal((2, n)).astype(sys.state_dtype)
            if cplx:
                s = s + 1j * rng.standard_normal((2, n))
            seed = cl.SystemState(T, s)
        lhs = cl.forward_duality_pairing(sys, f, seed, T, dt)
        rhs = cl.adjoint_duality_quadrature(cl.adjoint_system(sys), f, seed, T, dt)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


def test_adjoint_duality_quadrature_keeps_no_trajectory():
    # wave demo size: the (M + 1) x N x n adjoint trajectory would take 4.3 MB
    sys = make_wave_cascade(n=200, K=4)
    T = 6.0
    dt = chained_dt(sys, T)
    M = step_count(T, dt)
    assert M >= 1300
    rng = np.random.default_rng(5)
    forcing = rng.standard_normal((M + 1, 2, 200))
    seed = cl.SystemState(T, rng.standard_normal((2, 200)), rng.standard_normal((2, 200)))
    adj = cl.adjoint_system(sys)
    tracemalloc.start()
    try:
        cl.adjoint_duality_quadrature(adj, forcing, seed, T, dt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trajectory = (M + 1) * forcing[0].nbytes
    assert peak < trajectory / 10, f"peak {peak} B against a {trajectory} B trajectory"


def test_2d_heat_single_mode_decay():
    grid = cl.build_grid([1.0, 1.0], [8, 8])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 3)
    sys = cl.CascadeSystem(cl.Dissipative(0.0), op, basis, 1)
    lam = basis.eigenvalues[0]
    st = cl.zero_state(sys)
    st.w[0] = basis.modes[0]
    _, term = cl.solve(sys, st, None, 0.05, 0.0005)
    exact = math.exp(-lam * 0.05) * basis.modes[0]
    err = math.sqrt(float(np.sum(np.abs(term.w[0] - exact) ** 2)) * grid.hvol)
    assert err < 1e-5


def test_2d_wave_single_mode_oscillation():
    grid = cl.build_grid([1.0, 1.0], [8, 8])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 3)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1)
    lam = basis.eigenvalues[0]
    T = 0.5
    dt = T / (5 * round(T / chained_dt(sys, T)))
    st = cl.zero_state(sys)
    st.w[0] = basis.modes[0]
    _, term = cl.solve(sys, st, None, T, dt)
    exact = math.cos(math.sqrt(lam) * T) * basis.modes[0]
    err = math.sqrt(float(np.sum((term.w[0] - exact) ** 2)) * grid.hvol)
    assert err < 1e-3


def test_2d_duality_both_families():
    rng = np.random.default_rng(33)
    grid = cl.build_grid([1.0, 1.0], [7, 6])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 4)
    O = cl.region_from_bounds([[[0.1, 0.5], [0.1, 0.9]]], 1.0)
    omega = cl.region_from_bounds([[[0.6, 0.95], [0.1, 0.9]]], 1.0)
    coup = (((1, 2), O),)
    ctl = ((2, omega),)
    T = 0.2
    for family in (cl.Hyperbolic(), cl.Dissipative(0.4)):
        sys = cl.CascadeSystem(family, op, basis, 2, coup, ctl)
        dt = chained_dt(sys, T) if sys.is_hyperbolic else T / 40
        M = step_count(T, dt)
        n = grid.n_total
        shape = (M + 1, 2, n) if sys.is_hyperbolic else (M, 2, n)
        f = rng.standard_normal(shape).astype(sys.state_dtype)
        if sys.is_hyperbolic:
            seed = cl.SystemState(T, rng.standard_normal((2, n)), rng.standard_normal((2, n)))
        else:
            seed = cl.SystemState(T, (rng.standard_normal((2, n))
                                      + 1j * rng.standard_normal((2, n))))
        lhs = cl.forward_duality_pairing(sys, f, seed, T, dt)
        rhs = cl.adjoint_duality_quadrature(cl.adjoint_system(sys), f, seed, T, dt)
        assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_discrete_duality_property(dim, N, data):
    """<F(f + B v), seed> equals the adjoint quadrature to criterion 1's 1e-10."""
    sys, T, dt, seed_bits = data.draw(cascade_cases(dim, N))
    rng = np.random.default_rng(seed_bits)
    dtype = sys.state_dtype

    def draw_array(shape):
        a = rng.standard_normal(shape).astype(dtype)
        return a + 1j * rng.standard_normal(shape) if dtype == np.complex128 else a

    M = step_count(T, dt)
    n = sys.grid.n_total
    steps = M + 1 if sys.is_hyperbolic else M
    forcing = draw_array((steps, sys.N, n))
    for k in sys.controls:
        sys.inject(forcing, k, draw_array((steps,) + sys.signal_shape(k)))
    if sys.is_hyperbolic:
        seed = cl.SystemState(T, rng.standard_normal((sys.N, n)), rng.standard_normal((sys.N, n)))
    else:
        seed = cl.SystemState(T, draw_array((sys.N, n)))
    lhs = cl.forward_duality_pairing(sys, forcing, seed, T, dt)
    rhs = cl.adjoint_duality_quadrature(cl.adjoint_system(sys), forcing, seed, T, dt)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))


# ---------------------------------------------------------------------------
# batch axis
# ---------------------------------------------------------------------------


def _batch_cases():
    wave = make_wave_cascade(n=30, K=4)
    grid = cl.build_grid([1.0], [30])
    op = cl.EllipticOperator(grid)
    end = cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 4), 2,
                           (((1, 2), cl.region_from_bounds([[0.2, 0.4]], 1.0)),),
                           ((2, cl.BoundaryEnd("left", 0.8)),))
    grid2 = cl.build_grid([1.0, 1.0], [7, 6])
    op2 = cl.EllipticOperator(grid2)
    O = cl.region_from_bounds([[[0.1, 0.5], [0.1, 0.9]]], 2.0)
    omega = cl.region_from_bounds([[[0.6, 0.95], [0.1, 0.9]]], 1.0)
    square = cl.CascadeSystem(cl.Dissipative(0.4), op2, cl.spectral_basis(op2, 4), 2,
                              (((1, 2), O),), ((2, omega),))
    return [wave, cl.adjoint_system(wave), end, square, cl.adjoint_system(square)]


@pytest.mark.parametrize("case", range(5))
def test_batched_system_operators_match_stacked_calls(case):
    sys = _batch_cases()[case]
    rng = np.random.default_rng(40 + case)
    n = sys.grid.n_total
    Y = rng.standard_normal((3, 2, sys.N, n))
    (k,) = sys.controls
    stacked = lambda f: np.array([[f(Y[a, b], a, b) for b in range(2)] for a in range(3)])

    assert np.array_equal(sys.apply_system(Y), stacked(lambda y, a, b: sys.apply_system(y)))
    assert np.array_equal(sys.extract(k, Y), stacked(lambda y, a, b: sys.extract(k, y)))

    value = sys.extract(k, rng.standard_normal((3, 2, sys.N, n)))
    out = np.zeros_like(Y)
    sys.inject(out, k, value, scale=0.3)

    def one(y, a, b):
        single = np.zeros_like(y)
        sys.inject(single, k, value[a, b], scale=0.3)
        return single

    assert np.array_equal(out, stacked(one))


def test_misshaped_fields_raise():
    sys = make_wave_cascade(n=30, K=4)
    for bad in (np.zeros((3, 30)), np.zeros((30, 2)), np.zeros((2, 29)), np.zeros(60)):
        with pytest.raises(ValueError):
            sys.apply_system(bad)
        with pytest.raises(ValueError):
            sys.extract(2, bad)
        with pytest.raises(ValueError):
            sys.inject(bad, 2, np.zeros(30))


def test_batched_adjoint_marches_match_single_marches():
    rng = np.random.default_rng(41)
    wave = cl.adjoint_system(make_wave_cascade(n=30, K=4))
    heat = cl.adjoint_system(make_heat_cascade(n=30, K=4, theta=0.3))
    dt = chained_dt(wave, 0.5)
    M = step_count(0.5, dt)
    a, b = rng.standard_normal((2, 3, 2, 30))

    def march(fn, sys, start, steps, step):
        """Observations of component 2 and the t = 0 data of one (batched) march."""
        visit, observations = _observation_recorder(sys, trapezoid_weights(steps, step),
                                                    start[0].shape[:-2])
        initial = fn(sys, *start, steps, step, visit)
        return observations()[2], initial

    obs, initial = march(_hyp_adjoint, wave, (a, b), M, dt)
    for i in range(3):
        single_obs, single = march(_hyp_adjoint, wave, (a[i], b[i]), M, dt)
        assert np.array_equal(obs[:, i], single_obs)
        assert np.array_equal(initial.w[i], single.w)
    phi = a + 1j * b
    obs, initial = march(_cn_adjoint, heat, (phi,), 20, 0.005)
    for i in range(3):
        single_obs, single = march(_cn_adjoint, heat, (phi[i],), 20, 0.005)
        np.testing.assert_allclose(obs[:, i], single_obs, rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(initial[i], single, rtol=1e-13, atol=1e-15)


def _forward_batch_case(name):
    if name == "leapfrog":
        return make_wave_cascade(n=30, K=4)
    if name == "leapfrog end":
        return _batch_cases()[2]
    if name == "cn 2d theta=0.6":
        return _square_cascade(cl.Dissipative(0.6), (7, 6))
    return make_heat_cascade(n=30, K=4, theta=0.6 if name.endswith("0.6") else 0.0)


def _random_state(sys, rng):
    w = rng.standard_normal((sys.N, sys.grid.n_total))
    if sys.is_hyperbolic:
        return cl.SystemState(0.0, w, rng.standard_normal(w.shape))
    if sys.state_dtype == np.complex128:
        w = w + 1j * rng.standard_normal(w.shape)
    return cl.SystemState(0.0, w)


@pytest.mark.parametrize("name", ["leapfrog", "leapfrog end", "cn theta=0", "cn theta=0.6",
                                  "cn 2d theta=0.6"])
def test_batched_forward_solve_matches_single_solves(name):
    sys = _forward_batch_case(name)
    rng = np.random.default_rng(43)
    T = 0.5
    dt = chained_dt(sys, T) if sys.is_hyperbolic else 0.01
    M = step_count(T, dt)
    initial = _random_state(sys, rng)
    (k,) = sys.controls
    values = rng.standard_normal((M + 1, 3) + sys.signal_shape(k))
    if sys.state_dtype == np.complex128:
        values = values + 1j * rng.standard_normal(values.shape)
    t = dt * np.arange(M + 1)
    batch = cl.ControlSignal(t, {k: values}, (3,))

    levels, terminal = cl.solve(sys, initial, batch, T, dt)
    assert terminal.w.shape == (3, sys.N, sys.grid.n_total)
    for i in range(3):
        member = batch.member(i)
        assert member.batch == () and np.shares_memory(member.values[k], values)
        single_levels, single = cl.solve(sys, initial, member, T, dt)
        got = terminal.member(i)
        if sys.is_hyperbolic:
            assert np.array_equal(levels[0][i], single_levels[0])
            assert np.array_equal(levels[1][i], single_levels[1])
            assert np.array_equal(got.w, single.w) and np.array_equal(got.wp, single.wp)
        else:
            assert np.max(np.abs(got.w - single.w)) <= 1e-13 * np.max(np.abs(single.w))
            assert np.array_equal(levels[i], got.w)


def test_signal_batch_mismatch_raises():
    op = cl.EllipticOperator(cl.build_grid([1.0], [30]))
    O = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 4), 3, (((1, 2), O),),
                           ((2, omega), (3, cl.BoundaryEnd("left", 1.0))))
    T = 0.5
    dt = chained_dt(sys, T)
    M = step_count(T, dt)
    t = dt * np.arange(M + 1)
    n_support = sys.signal_shape(2)[0]
    rest = cl.zero_state(sys)
    # the components disagree on the batch
    for values, batch in (({2: np.zeros((M + 1, 3, n_support)), 3: np.zeros((M + 1, 2))}, (3,)),
                          ({2: np.zeros((M + 1, 3, n_support)), 3: np.zeros((M + 1, 3))}, ()),
                          ({2: np.zeros((M + 1, n_support)), 3: np.zeros((M + 1,))}, (1,))):
        with pytest.raises(ValueError, match="control samples of shape"):
            cl.solve(sys, rest, cl.ControlSignal(t, values, batch), T, dt)
    good = cl.ControlSignal(t, {2: np.zeros((M + 1, 3, n_support)), 3: np.zeros((M + 1, 3))}, (3,))
    assert cl.solve(sys, rest, good, T, dt)[1].w.shape == (3, 3, 30)


@pytest.mark.parametrize("family", ["hyperbolic", "dissipative"])
def test_unbatched_routines_refuse_batched_input(family):
    sys = make_wave_cascade(n=30, K=4) if family == "hyperbolic" else make_heat_cascade(n=30, K=4)
    rng = np.random.default_rng(44)
    state = _random_state(sys, rng)
    batched = cl.SystemState(0.0, np.stack([state.w] * 2),
                             None if state.wp is None else np.stack([state.wp] * 2))
    assert cl.state_l2_norm(sys, batched.member(1)) == cl.state_l2_norm(sys, state)
    with pytest.raises(ValueError, match="state shape"):
        cl.state_l2_norm(sys, batched)

    weights = sample_weights(sys, 10, 0.01)
    values = rng.standard_normal((11, 2) + sys.signal_shape(2))
    signal = cl.ControlSignal(0.01 * np.arange(11), {2: values}, (2,))
    one = signal.member(1).values
    assert quadrature(sys, one, one, weights) > 0.0
    for a, b in ((signal.values, signal.values), (one, signal.values), (signal.values, one)):
        with pytest.raises(ValueError, match="samples of shape"):
            quadrature(sys, a, b, weights)


def test_member_refuses_input_without_one_batch_axis():
    t = np.arange(3.0)
    samples = np.arange(12.0).reshape(3, 4)
    for signal in (cl.ControlSignal(t, {2: samples}),
                   cl.ControlSignal(t, {2: samples}, (3,)),  # the batch axis is declared only
                   cl.ControlSignal(t, {2: np.zeros((3, 2, 2, 4))}, (2, 2))):
        with pytest.raises(ValueError, match="exactly one batch axis"):
            signal.member(1)
    for state in (cl.SystemState(0.0, np.zeros((2, 5)), np.zeros((2, 5))),
                  cl.SystemState(0.0, np.zeros((3, 2, 5)), np.zeros((2, 5))),
                  cl.SystemState(0.0, np.zeros((2, 3, 2, 5)))):
        with pytest.raises(ValueError, match="exactly one batch axis"):
            state.member(1)


@pytest.mark.parametrize("family", ["hyperbolic", "dissipative"])
def test_forcing_of_the_wrong_shape_is_refused(family):
    """Both duality sides refuse a forcing that would broadcast over the
    components or carry rows no march reads; every accepted shape runs."""
    hyp = family == "hyperbolic"
    sys = make_wave_cascade(n=40, K=4) if hyp else make_heat_cascade(n=40, K=4)
    T = 0.2
    dt = chained_dt(sys, T) if hyp else T / 20
    M = step_count(T, dt)
    rng = np.random.default_rng(45)
    seed = _random_state(sys, rng)
    adj = cl.adjoint_system(sys)
    good = [M + 1] if hyp else [M, M + 1]
    for rows in good:
        forcing = rng.standard_normal((rows, 2, 40))
        cl.solve(sys, cl.zero_state(sys), None, T, dt, forcing=forcing)
        cl.adjoint_duality_quadrature(adj, forcing, seed, T, dt)
    bad = [(M + 1, 40), (M + 7, 2, 40), (M - 1, 2, 40), (M + 1, 1, 40), (M + 1, 2, 39),
           (2, M + 1, 2, 40), (M + 1, 2, 2, 40)] + ([(M, 2, 40)] if hyp else [])
    for shape in bad:
        forcing = np.ones(shape)
        with pytest.raises(ValueError, match=rf"forcing of shape \({shape[0]}, "):
            cl.solve(sys, cl.zero_state(sys), None, T, dt, forcing=forcing)
        with pytest.raises(ValueError, match=rf"forcing of shape \({shape[0]}, "):
            cl.adjoint_duality_quadrature(adj, forcing, seed, T, dt)


def test_a_hyperbolic_run_builds_no_full_sine_table():
    """The spectral basis evaluates only the sine rows its modes use, so a
    wave run never builds an m x m sine table; the Crank-Nicolson resolvent
    builds its own."""
    _sine_matrix.cache_clear()
    wave = cl.build_experiment(demo_configs()["demo_wave_cascade.json"])
    assert wave.grid.n == (200,)
    cl.solve(wave.sys, wave.Y0, None, wave.T, wave.dt)
    assert _sine_matrix.cache_info().currsize == 0
    heat = cl.build_experiment(demo_configs()["demo_heat_cascade.json"])
    cl.solve(heat.sys, heat.Y0, None, heat.T, heat.dt)
    assert _sine_matrix.cache_info().currsize == 1


# ---------------------------------------------------------------------------
# buffered stencil and marches against the fresh-array references
# ---------------------------------------------------------------------------


def _square_cascade(family, n=(5, 4), K=4):
    grid = cl.build_grid([1.0, 0.7], list(n))
    op = cl.EllipticOperator(grid)
    O = cl.region_from_bounds([[[0.1, 0.5], [0.1, 0.6]]], 2.0)
    omega = cl.region_from_bounds([[[0.5, 0.9], [0.1, 0.6]]], 1.0)
    return cl.CascadeSystem(family, op, cl.spectral_basis(op, K), 2, (((1, 2), O),), ((2, omega),))


def _stencil_system(name):
    sys = make_wave_cascade(n=9, K=4) if name.startswith("1d") else _square_cascade(cl.Dissipative(0.6))
    return cl.adjoint_system(sys) if name.endswith("adjoint") else sys


@pytest.mark.parametrize("name", ["1d", "1d adjoint", "2d", "2d adjoint"])
@pytest.mark.parametrize("complex_", [False, True])
@pytest.mark.parametrize("batch", [(), (3,), (4, 2)])
@pytest.mark.parametrize("contiguous", [True, False])
def test_apply_system_matches_sliced_reference_bitwise(name, complex_, batch, contiguous):
    sys = _stencil_system(name)
    shape = batch + (sys.N, sys.grid.n_total)
    Y = signed_zero_fields(shape, np.random.default_rng(9), complex_)
    if not contiguous:
        wide = np.full(shape[:-1] + (2 * shape[-1],), np.nan, dtype=Y.dtype)
        wide[..., ::2] = Y
        Y = wide[..., ::2]
    before = Y.copy()
    expected = sliced_apply_system(sys, Y)
    assert sys.apply_system(Y).tobytes() == expected.tobytes()
    out = np.full_like(expected, np.nan)
    sys.apply_system(Y, out)
    assert out.tobytes() == expected.tobytes()
    assert Y.tobytes() == before.tobytes()
    with pytest.raises(ValueError, match="share memory"):
        sys.apply_system(Y, Y)


@pytest.mark.parametrize("name", ["1d", "1d adjoint", "2d", "2d adjoint"])
def test_coupled_rows_off_the_support_are_the_stencil_bitwise(name):
    """Off its support a coupling adds nothing, not even a zero: a -0.0 of the
    stencil row stays -0.0 there, where out + 0 * Y would turn it to +0.0."""
    sys = _stencil_system(name)
    Y = signed_zero_fields((3, sys.N, sys.grid.n_total), np.random.default_rng(9))
    got, stencil = sys.apply_system(Y), sliced_stencil(sys.grid, Y)
    (((i, j), sup),) = sys.coupling_supports
    dst, src = (j, i) if sys.transposed else (i, j)
    off = np.setdiff1d(np.arange(sys.grid.n_total), sup.indices)
    assert got[:, dst - 1, off].tobytes() == stencil[:, dst - 1, off].tobytes()
    # the data tell the two apart: the full-grid update flips some -0.0 there
    full_grid = stencil[:, dst - 1, off] + 0.0 * Y[:, src - 1, off]
    assert full_grid.tobytes() != stencil[:, dst - 1, off].tobytes()


def _fused_step(sys, y_prev, y_cur, dt, control, forcing, n):
    """One fused leapfrog step with fresh arrays and row-sliced neighbours:
    (2 - 2 sum c_a) y + sum c_a (neighbours), c_a = dt^2 / h_a^2, each
    neighbour subtracted as -c_a y, then - y_prev, the couplings' -dt^2 C y
    on their support columns and the source's dt^2 s."""
    grid, dt2 = sys.grid, dt * dt
    coeffs = [dt2 / h**2 for h in grid.h]
    v = y_cur.reshape(y_cur.shape[:-1] + grid.n)
    y_next = (2.0 - 2.0 * sum(coeffs)) * v
    for a, c in enumerate(coeffs):
        scaled = -c * v
        if a == grid.dim - 1:
            y_next[..., 1:] -= scaled[..., :-1]
            y_next[..., :-1] -= scaled[..., 1:]
        else:
            y_next[..., 1:, :] -= scaled[..., :-1, :]
            y_next[..., :-1, :] -= scaled[..., 1:, :]
    y_next = y_next.reshape(y_cur.shape) - y_prev
    for (i, j), sup in sys.coupling_supports:
        dst, src = (j, i) if sys.transposed else (i, j)
        y_next[..., dst - 1, sup.cols] += (-dt2 * sup.amplitudes) * y_cur[..., src - 1, sup.cols]
    _forcing(sys, control, forcing, dt2)(y_next, n)
    return y_next


def _reference_forward(sys, w0, wp0, control, forcing, M, dt, step=_fused_step):
    """The forward leapfrog march with fresh arrays every step: the visited
    (n, y, velocity) triples and the returned (y^{M-1}, y^M, velocity)."""
    dt2 = dt * dt
    acc = -sliced_apply_system(sys, w0)
    _forcing(sys, control, forcing)(acc, 0)
    seen = [(0, w0.copy(), wp0.copy())]
    y_prev = w0.copy()
    y_cur = w0 + dt * wp0 + 0.5 * dt2 * acc
    for n in range(1, M):
        y_next = step(sys, y_prev, y_cur, dt, control, forcing, n)
        seen.append((n, y_cur, (y_next - y_prev) / (2.0 * dt)))
        y_prev, y_cur = y_cur, y_next
    acc = -sliced_apply_system(sys, y_cur)
    _forcing(sys, control, forcing)(acc, M)
    vel_T = (y_cur - y_prev) / dt + 0.5 * dt * acc
    seen.append((M, y_cur, vel_T))
    return seen, (y_prev, y_cur, vel_T)


def _reference_adjoint(sys, phi_M, phi_M1, M, dt, step=_fused_step):
    """The backward leapfrog march with fresh arrays every step: the visited
    (n, phi^n) pairs and the returned (phi^0, velocity)."""
    seen = [(M, phi_M.copy()), (M - 1, phi_M1.copy())]
    phi_next, phi_cur = phi_M, phi_M1
    for n in range(M - 1, 0, -1):
        phi_prevl = step(sys, phi_next, phi_cur, dt, None, None, n)
        seen.append((n - 1, phi_prevl))
        phi_next, phi_cur = phi_cur, phi_prevl
    vel0 = (phi_next - phi_cur) / dt + 0.5 * dt * sliced_apply_system(sys, phi_cur)
    return seen, (phi_cur, vel0)


def _textbook_step(sys, y_prev, y_cur, dt, control, forcing, n):
    """The textbook recurrence 2 y - y_prev + dt^2 (s - (A + C) y), in that order."""
    acc = -sliced_apply_system(sys, y_cur)
    _forcing(sys, control, forcing)(acc, n)
    return 2.0 * y_cur - y_prev + (dt * dt) * acc


def _bitwise_equal(a, b):
    return len(a) == len(b) and all(
        np.asarray(x).dtype == np.asarray(y).dtype and np.asarray(x).tobytes() == np.asarray(y).tobytes()
        for x, y in zip(a, b))


@pytest.mark.parametrize("name,batch", [("1d", (3,)), ("2d", ())])
def test_leapfrog_marches_match_fresh_array_reference_bitwise(name, batch):
    sys = make_wave_cascade(n=30, K=4) if name == "1d" else _square_cascade(cl.Hyperbolic(), (7, 6))
    sys_adj = cl.adjoint_system(sys)
    T = 0.5
    dt = chained_dt(sys, T)
    M = step_count(T, dt)
    n = sys.grid.n_total
    rng = np.random.default_rng(42)
    w0, wp0, phi_M, phi_M1 = rng.standard_normal((4,) + batch + (sys.N, n))
    control = cl.ControlSignal(dt * np.arange(M + 1),
                               {2: rng.standard_normal((M + 1,) + sys.signal_shape(2))})
    forcing = rng.standard_normal((M + 1, sys.N, n))
    starts = [a.copy() for a in (w0, wp0, phi_M, phi_M1)]

    seen = []
    got = _hyp_forward(sys, w0, wp0, control, forcing, M, dt,
                       lambda k, y, vel: seen.append((k, y.copy(), vel.copy())))
    ref_seen, ref = _reference_forward(sys, w0, wp0, control, forcing, M, dt)
    assert [k for k, *_ in seen] == list(range(M + 1))
    assert all(_bitwise_equal(a[1:], b[1:]) for a, b in zip(seen, ref_seen))
    assert _bitwise_equal(got, ref)

    seen = []
    got = _hyp_adjoint(sys_adj, phi_M, phi_M1, M, dt, lambda k, phi: seen.append((k, phi.copy())))
    ref_seen, ref = _reference_adjoint(sys_adj, phi_M, phi_M1, M, dt)
    assert [k for k, _ in seen] == list(range(M, -1, -1))
    assert all(_bitwise_equal(a[1:], b[1:]) for a, b in zip(seen, ref_seen))
    assert _bitwise_equal((got.w, got.wp), ref)

    assert _bitwise_equal((w0, wp0, phi_M, phi_M1), starts)


def _relative_gap(got, ref):
    return max(float(np.max(np.abs(a - b)) / np.max(np.abs(b))) for a, b in zip(got, ref))


def test_fused_leapfrog_marches_stay_near_the_textbook_recurrence():
    """The fused step rounds differently from the textbook order of
    operations, by round-off only: on the wave demo's march (n = 200, 1,340
    steps, random data in a batch of 4) the final levels of both marches
    differ from the textbook ones by at most 9.1e-14 relative."""
    exp = cl.build_experiment(demo_configs()["demo_wave_cascade.json"])
    sys, dt = exp.sys, exp.dt
    sys_adj = cl.adjoint_system(sys)
    M = step_count(exp.T, dt)
    rng = np.random.default_rng(45)
    w0, wp0, phi_M, phi_M1 = rng.standard_normal((4, 4, sys.N, sys.grid.n_total))
    control = cl.ControlSignal(dt * np.arange(M + 1),
                               {2: rng.standard_normal((M + 1,) + sys.signal_shape(2))})

    got = _hyp_forward(sys, w0, wp0, control, None, M, dt)
    _, ref = _reference_forward(sys, w0, wp0, control, None, M, dt, _textbook_step)
    assert _relative_gap(got, ref) <= 1e-12
    got = _hyp_adjoint(sys_adj, phi_M, phi_M1, M, dt)
    _, ref = _reference_adjoint(sys_adj, phi_M, phi_M1, M, dt, _textbook_step)
    assert _relative_gap((got.w, got.wp), ref) <= 1e-12


@pytest.mark.parametrize("name", ["1d", "2d"])
def test_stencil_refuses_unfit_or_aliased_buffers(name):
    sys = _stencil_system(name)
    op, n = sys.op, sys.grid.n_total
    w = np.random.default_rng(46).standard_normal((3, 2, n))
    out, scratch = np.empty_like(w), np.empty_like(w)
    before = w.copy()
    op.stencil(w, 1.5, [-0.25] * sys.grid.dim, out, scratch)
    assert np.array_equal(w, before)
    bad = [(w, None, "output must not share memory"),
           (w[::-1], None, "output must not share memory"),
           (out, w, "scratch must not share memory"),
           (out, out, "scratch must not share memory"),
           (out, out.reshape(-1)[::-1].reshape(w.shape), "scratch must not share memory"),
           (np.empty((3, n, 2)).transpose(0, 2, 1), None, "output must be a C-contiguous"),
           (np.empty((2, 2, n)), None, "output must be a C-contiguous"),
           (out, np.empty((n, 2, 3)).T, "scratch must be a C-contiguous")]
    for o, s, message in bad:
        with pytest.raises(ValueError, match=message):
            op.stencil(w, 1.5, [-0.25] * sys.grid.dim, o, s)


@pytest.mark.parametrize("name", ["1d", "2d"])
def test_stencil_refuses_a_buffer_of_another_dtype(name):
    """A buffer must hold the result dtype: a float32 one would round a
    float64 result to single precision, a float64 one cannot hold a complex
    result. Both are refused with the other buffer faults' ValueError."""
    sys = _stencil_system(name)
    op, n, off = sys.op, sys.grid.n_total, [-0.25] * sys.grid.dim
    w = np.random.default_rng(47).standard_normal((3, 2, n))
    z = w + 1j * w[::-1]
    single, double, complex_ = (np.empty(w.shape, dtype=d)
                                for d in (np.float32, np.float64, np.complex128))
    bad = [(w, single, None, "output must be of the result dtype float64, not float32"),
           (w, double.copy(), single, "scratch must be of the result dtype float64, not float32"),
           (z, double, None, "output must be of the result dtype complex128, not float64"),
           (z, complex_.copy(), double, "scratch must be of the result dtype complex128, not float64")]
    for v, o, s, message in bad:
        with pytest.raises(ValueError, match=message):
            op.stencil(v, 1.5, off, o, s)
    with pytest.raises(ValueError, match="output must be of the result dtype float64"):
        op.matvec(w, out=single)
    assert np.array_equal(op.stencil(z, 1.5, off, complex_, complex_.copy()), op.stencil(z, 1.5, off))


@pytest.mark.parametrize("march", ["forward", "adjoint"])
def test_leapfrog_checks_its_buffers_once_per_march(monkeypatch, march):
    """The stencil buffers of a leapfrog march are checked once, not per
    step: a march of 500 steps makes as many ``_check_buffer`` calls as one
    of 50."""
    import cascade_lab.dynamics
    import cascade_lab.operators

    calls = []
    check = cascade_lab.operators._check_buffer

    def spy(*args, **kwargs):
        calls.append(args[0])
        return check(*args, **kwargs)

    # wherever a module holds its own reference to the function
    for module in (cascade_lab.operators, cascade_lab.dynamics):
        monkeypatch.setattr(module, "_check_buffer", spy, raising=False)
    sys = make_wave_cascade(n=30, K=4)
    rng = np.random.default_rng(48)
    counts = []
    for M in (50, 500):
        calls.clear()
        dt = 1e-3
        if march == "forward":
            w0, wp0 = rng.standard_normal((2, sys.N, sys.grid.n_total))
            control = cl.ControlSignal(dt * np.arange(M + 1),
                                       {2: rng.standard_normal((M + 1,) + sys.signal_shape(2))})
            _hyp_forward(sys, w0, wp0, control, None, M, dt)
        else:
            phi_M, phi_M1 = rng.standard_normal((2, 3, sys.N, sys.grid.n_total))
            _hyp_adjoint(cl.adjoint_system(sys), phi_M, phi_M1, M, dt)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


# ---------------------------------------------------------------------------
# one observation rule: select per sample, scale once
# ---------------------------------------------------------------------------


def _observed_cascade(family, transposed=True):
    """A 3-component cascade with a distributed control on component 2 and
    a left-end control of gain 1.7 on component 3."""
    grid = cl.build_grid([1.0], [30])
    op = cl.EllipticOperator(grid)
    sys = cl.CascadeSystem(family, op, cl.spectral_basis(op, 4), 3,
                           (((1, 2), cl.region_from_bounds([[0.2, 0.4]], 1.0)),),
                           ((2, cl.region_from_bounds([[0.6, 0.9]], 1.3)),
                            (3, cl.BoundaryEnd("left", 1.7))))
    return cl.adjoint_system(sys) if transposed else sys


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("name", ["leapfrog forward", "leapfrog adjoint", "cn theta=0",
                                  "cn theta=0.6"])
def test_observation_recorder_matches_per_sample_extract_bitwise(name, batch):
    """The recorder's observations are e^{i theta} extract of each weighted
    sample bit for bit, for distributed and end controls alike; every
    unweighted row is +0.0, and the raw record outlives each scaling, so a
    second march through the same recorder gives its own samples."""
    family = (cl.Hyperbolic() if name.startswith("leapfrog")
              else cl.Dissipative(0.6 if name.endswith("0.6") else 0.0))
    sys = _observed_cascade(family, transposed=name != "leapfrog forward")
    M, dt = 12, 0.01
    weights = sample_weights(sys, M, dt)
    weights[5] = 0.0  # a zero weight inside the march too
    phase = np.exp(1j * sys.theta) if sys.theta != 0.0 else 1.0
    shape = batch + (sys.N, sys.grid.n_total)
    complex_ = sys.state_dtype == np.complex128
    visit, observations = _observation_recorder(sys, weights, batch)
    rng = np.random.default_rng(49)
    for march in range(2):
        expected = {k: np.zeros((M + 1,) + batch + sys.signal_shape(k), dtype=sys.state_dtype)
                    for k in sys.controls}
        for n in range(M + 1):
            fld = signed_zero_fields(shape, rng, complex_)
            velocity = rng.standard_normal(shape) if name == "leapfrog forward" else None
            visit(n, fld, velocity)
            if weights[n] != 0.0:
                for k in sys.controls:
                    # np.multiply, not *: numpy's scalar arithmetic may round a
                    # complex product of a 0-d end sample unlike its array loop
                    expected[k][n] = np.multiply(phase, sys.extract(k, fld, velocity))
        for _ in range(2):
            got = observations()
            assert got.keys() == expected.keys()
            for k, arr in got.items():
                assert arr.dtype == expected[k].dtype
                assert arr.tobytes() == expected[k].tobytes(), (march, k)
                idle = arr[weights == 0.0]
                assert idle.size and not np.signbit(idle.view(np.float64)).any(), k


@pytest.mark.parametrize("built,visited", [((3,), (2, 30)), ((), (3, 2, 30))])
def test_observation_recorder_refuses_a_batch_mismatch(built, visited):
    """A field whose leading axes are not the recorder's batch is refused,
    whether it would broadcast into every member or fail to fit one."""
    sys = cl.adjoint_system(make_wave_cascade(n=30, K=4))
    visit, _ = _observation_recorder(sys, sample_weights(sys, 10, 0.01), built)
    with pytest.raises(ValueError, match=rf"shape \({visited[0]}, .*batch \({built and 3}"):
        visit(4, np.ones(visited))


def test_no_march_calls_a_one_off_per_step(monkeypatch):
    """Every march calls ``apply_system`` and ``extract`` as often at 200
    steps as at 20: the per-step work goes through terms formed once."""
    calls = []
    for name in ("apply_system", "extract"):
        method = getattr(cl.CascadeSystem, name)

        def spy(self, *args, _method=method, _name=name, **kwargs):
            calls.append(_name)
            return _method(self, *args, **kwargs)

        monkeypatch.setattr(cl.CascadeSystem, name, spy)
    rng = np.random.default_rng(50)
    counts = {}
    for family in (cl.Hyperbolic(), cl.Dissipative(0.0), cl.Dissipative(0.6)):
        sys = _observed_cascade(family, transposed=False)
        adj = cl.adjoint_system(sys)
        state = _random_state(sys, rng)
        for M in (20, 200):
            dt = 1e-3
            control = cl.ControlSignal(dt * np.arange(M + 1), {
                k: rng.standard_normal((M + 1,) + sys.signal_shape(k)) for k in sys.controls})
            visit, _ = _observation_recorder(sys, sample_weights(sys, M, dt), ())
            visit_adj, _ = _observation_recorder(adj, sample_weights(adj, M, dt), ())
            calls.clear()
            cl.solve(sys, state, control, M * dt, dt, visit)
            if sys.is_hyperbolic:
                _hyp_adjoint(adj, state.w, state.wp, M, dt, visit_adj)
            else:
                _cn_adjoint(adj, state.w, M, dt, visit_adj)
            counts.setdefault(family, []).append(len(calls))
    assert counts[cl.Hyperbolic()][0] == counts[cl.Hyperbolic()][1] == 3, counts
    assert all(c == [0, 0] for f, c in counts.items() if f != cl.Hyperbolic()), counts


@pytest.mark.parametrize("family", ["hyperbolic", "dissipative"])
def test_duality_sides_refuse_what_solve_refuses(family):
    """Both duality sides refuse a batched seed, which each would otherwise
    reduce to one number summed over the members, and the adjoint side
    refuses a leapfrog step above the CFL bound, as the forward side does."""
    hyp = family == "hyperbolic"
    sys = make_wave_cascade(n=40, K=4) if hyp else make_heat_cascade(n=40, K=4)
    adj = cl.adjoint_system(sys)
    T = 0.2
    dt = chained_dt(sys, T) if hyp else T / 20
    M = step_count(T, dt)
    rng = np.random.default_rng(51)
    forcing = rng.standard_normal((M + 1, 2, 40))
    seed = _random_state(sys, rng)
    batched = cl.SystemState(T, np.stack([seed.w] * 3),
                             None if seed.wp is None else np.stack([seed.wp] * 3))
    for side, s in ((cl.forward_duality_pairing, sys), (cl.adjoint_duality_quadrature, adj)):
        assert math.isfinite(side(s, forcing, seed, T, dt))
        with pytest.raises(ValueError, match="state shape"):
            side(s, forcing, batched, T, dt)
    if hyp:
        fast = 1.52 * cl.cfl_time_step(sys)
        M_fast = 20
        forcing = rng.standard_normal((M_fast + 1, 2, 40))
        for side, s in ((cl.forward_duality_pairing, sys), (cl.adjoint_duality_quadrature, adj)):
            with pytest.raises(cl.CflViolationError):
                side(s, forcing, seed, M_fast * fast, fast)
