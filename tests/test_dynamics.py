import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_lab as cl
from cascade_lab.dynamics import (
    _adjoint_levels_from_seed,
    _cn_adjoint,
    _cn_forward,
    _ComponentSolver,
    _forcing_into,
    _hyp_adjoint,
    _hyp_forward,
    _observation_recorder,
    step_count,
    trapezoid_weights,
)
from cascade_lab.hum import GramianOperator, SeedSpace

from conftest import (
    cascade_cases,
    chained_dt,
    make_heat_cascade,
    make_single_free,
    make_wave_cascade,
    signed_zero_fields,
    sliced_apply_system,
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
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cl.EmptySupportWarning)
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
    st.w[0] = sys.basis.synthesize(rng.standard_normal(5))
    st.wp[0] = sys.basis.synthesize(rng.standard_normal(5))
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
    import warnings

    sys = make_heat_cascade(n=40, K=6, c=1.0)
    st = cl.zero_state(sys)
    st.w[1] = sys.basis.modes[0]
    _, term = cl.solve(sys, st, None, 0.2, 0.002)
    assert np.max(np.abs(term.w[0])) > 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cl.EmptySupportWarning)
        zero = make_heat_cascade(n=40, K=6, c=0.0)
    st = cl.zero_state(zero)
    st.w[1] = zero.basis.modes[0]
    _, term = cl.solve(zero, st, None, 0.2, 0.002)
    assert np.all(term.w[0] == 0.0)


def test_heat_single_component_norm_monotone():
    sys = make_single_free(n=40, K=6, family=cl.Dissipative(0.0))
    rng = np.random.default_rng(12)
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.synthesize(rng.standard_normal(6))
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
    ind = dict(sys._coupling_fields)[(1, 2)]
    forcing_max = 0.0
    for _, w in snapshots:
        forcing_max = max(forcing_max, math.sqrt(float(np.sum(np.abs(ind * w[1]) ** 2)) * hvol))
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
    sig = cl.ControlSignal(dt * np.arange(M + 1), {2: np.zeros((M + 1, 40))}, trapezoid_weights(M, dt))
    with pytest.raises(ValueError, match="control signal grid"):
        cl.solve(sys, rest, sig, 1.0, dt)
    with pytest.raises(ValueError, match="must divide"):
        cl.solve(sys, rest, None, 1.0 + 0.5 * dt, dt)
    with pytest.raises(ValueError, match="state shape"):
        cl.solve(sys, cl.SystemState(0.0, np.zeros((1, 40)), rest.wp), None, 1.0, dt)


# ---------------------------------------------------------------------------
# Crank-Nicolson component solve
# ---------------------------------------------------------------------------


def _solve_banded_reference(op, kappa, rhs):
    """The solve the direct ?gtsv path replaced: scipy.linalg.solve_banded on I + kappa A."""
    from scipy.linalg import solve_banded

    n, h2 = op.grid.n[0], op.grid.h[0] ** 2
    ab = np.zeros((3, n), dtype=np.complex128 if isinstance(kappa, complex) else np.float64)
    ab[0, 1:] = -kappa / h2
    ab[1, :] = 1.0 + 2.0 * kappa / h2
    ab[2, :-1] = -kappa / h2
    return solve_banded((1, 1), ab, rhs.reshape(-1, n).T).T.reshape(rhs.shape)


@pytest.mark.parametrize("kappa", [0.5 * 0.0016, 0.5 * 0.004 * np.exp(-0.6j),
                                   0.5 * 0.004 * np.exp(-0.5j * math.pi)])
@pytest.mark.parametrize("n_rhs", [1, 24])
@pytest.mark.parametrize("n", [2, 3, 100])
def test_component_solver_matches_solve_banded_bitwise(kappa, n_rhs, n):
    op = cl.assemble_operator(cl.build_grid([1.0], [n]))
    solver = _ComponentSolver(op, kappa)
    rng = np.random.default_rng(n * n_rhs)
    shape = (n,) if n_rhs == 1 else (n_rhs, n)
    rhs = rng.standard_normal(shape)
    if isinstance(kappa, complex):
        rhs = rhs + 1j * rng.standard_normal(shape)
    for _ in range(3):  # one solver serves every step of a march
        out = solver.solve(rhs)
        assert np.array_equal(out, _solve_banded_reference(op, kappa, rhs))
        rhs = out


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n", [2, 50])
def test_component_solver_rejects_non_finite_rhs(bad, n):
    solver = _ComponentSolver(cl.assemble_operator(cl.build_grid([1.0], [n])), 0.001)
    rhs = np.ones((4, n))
    rhs[2, n // 2] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        solver.solve(rhs)


def test_component_solver_rejects_non_finite_matrix_and_complex_rhs():
    op = cl.assemble_operator(cl.build_grid([1.0], [20]))
    with pytest.raises(ValueError, match="infs or NaNs"):
        _ComponentSolver(op, math.inf)
    with pytest.raises(ValueError, match="complex128 right-hand side"):
        _ComponentSolver(op, 0.001).solve(np.ones(20) + 1j)


@pytest.mark.parametrize("extent,n,kappa", [(4.0, 3, -0.5), (3.0, 2, -1.0)])
def test_component_solver_singular_matrix_raises(extent, n, kappa):
    # h = 1: zero diagonal with off-diagonals 1/2 (n = 3), or [[-1, 1], [1, -1]] (n = 2)
    op = cl.assemble_operator(cl.build_grid([extent], [n]))
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        _ComponentSolver(op, kappa).solve(np.ones(n))


# ---------------------------------------------------------------------------
# adjoint solve and duality
# ---------------------------------------------------------------------------


def test_adjoint_orientation_errors():
    sys = make_wave_cascade(n=40, K=6)
    adj = cl.adjoint_system(sys)
    dt = chained_dt(sys, 1.0)
    forcing = np.zeros((step_count(1.0, dt) + 1, 2, 40))
    with pytest.raises(ValueError, match="transposed"):
        cl.adjoint_duality_quadrature(sys, forcing, cl.zero_state(sys), 1.0, dt)
    for pair in ((adj, adj), (sys, sys), (adj, sys)):
        with pytest.raises(ValueError, match="in that order"):
            GramianOperator(*pair, SeedSpace(sys, 4), 1.0, dt)


def test_adjoint_zero_seed_zero_observations():
    sys = cl.adjoint_system(make_wave_cascade(n=40, K=6))
    dt = chained_dt(sys, 1.0)
    M = step_count(1.0, dt)
    obs, record = _observation_recorder(sys, M + 1, ())
    visited = []

    def visit(n, phi):
        visited.append(n)
        assert np.all(phi == 0.0)
        record(n, phi)

    zero = np.zeros((2, 40))
    initial = _hyp_adjoint(sys, zero, zero.copy(), M, dt, visit)
    assert visited == list(range(M, -1, -1))
    assert all(np.all(arr == 0.0) for arr in obs.values())
    assert np.all(initial.w == 0.0) and np.all(initial.wp == 0.0)


def test_adjoint_observation_single_mode_time_average():
    # free mode seeded as pure position: recorded observation is the mode
    # velocity; over one period its squared time-L2 norm is pi * sqrt(lam)
    n = 120
    one = make_single_free(n=n, K=4)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, 0,
                           cl.CouplingSpec(1, ()), cl.ControlSpec(1, 0, ((1, cl.Distributed(omega)),)))
    lam = sys.basis.eigenvalues[0]
    period = 2 * math.pi / math.sqrt(lam)
    M = int(math.ceil(period / (0.2 * cl.cfl_time_step(sys))))
    dt = period / M
    seed = cl.zero_state(sys)
    seed.w[0] = sys.basis.modes[0]
    adj = cl.adjoint_system(sys)
    obs, visit = _observation_recorder(adj, M + 1, ())
    _hyp_adjoint(adj, *_adjoint_levels_from_seed(adj, seed, dt), M, dt, visit)
    sig = cl.ControlSignal(dt * np.arange(M + 1), obs, trapezoid_weights(M, dt))
    assert sig.norm_sq(sys.grid) == pytest.approx(math.pi * math.sqrt(lam), rel=2e-3)


@pytest.mark.parametrize("family,cplx", [
    (cl.Hyperbolic(), False),
    (cl.Dissipative(0.0), False),
    (cl.Dissipative(math.pi / 2), True),
])
def test_discrete_duality_random_pairs(family, cplx):
    rng = np.random.default_rng(21)
    n, T, dt = 50, 1.0, 0.005
    grid = cl.build_grid([1.0], [n])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 8)
    O = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0)
    sys = cl.CascadeSystem(family, op, basis, 2, 1,
                           cl.CouplingSpec.from_dict(2, {(1, 2): O}),
                           cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),)))
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
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 3)
    sys = cl.CascadeSystem(cl.Dissipative(0.0), op, basis, 1, 1,
                           cl.CouplingSpec(1, ()), cl.ControlSpec(1, 1, ()))
    lam = basis.eigenvalues[0]
    st = cl.zero_state(sys)
    st.w[0] = basis.modes[0]
    _, term = cl.solve(sys, st, None, 0.05, 0.0005)
    exact = math.exp(-lam * 0.05) * basis.modes[0]
    err = math.sqrt(float(np.sum(np.abs(term.w[0] - exact) ** 2)) * grid.hvol)
    assert err < 1e-5


def test_2d_wave_single_mode_oscillation():
    grid = cl.build_grid([1.0, 1.0], [8, 8])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 3)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1, 1,
                           cl.CouplingSpec(1, ()), cl.ControlSpec(1, 1, ()))
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
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 4)
    O = cl.region_from_bounds([[[0.1, 0.5], [0.1, 0.9]]], 1.0)
    omega = cl.region_from_bounds([[[0.6, 0.95], [0.1, 0.9]]], 1.0)
    coup = cl.CouplingSpec.from_dict(2, {(1, 2): O})
    ctl = cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),))
    T = 0.2
    for family in (cl.Hyperbolic(), cl.Dissipative(0.4)):
        sys = cl.CascadeSystem(family, op, basis, 2, 1, coup, ctl)
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
    for k, kind, _ in sys._control_ops:
        sys.inject(forcing, k, draw_array((steps, n) if kind == "distributed" else (steps,)))
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
    op = cl.assemble_operator(grid)
    end = cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 4), 2, 1,
                           cl.CouplingSpec.from_dict(2, {(1, 2): cl.region_from_bounds([[0.2, 0.4]], 1.0)}),
                           cl.ControlSpec(2, 1, ((2, cl.BoundaryEnd("left", 0.8)),)))
    grid2 = cl.build_grid([1.0, 1.0], [7, 6])
    op2 = cl.assemble_operator(grid2)
    O = cl.region_from_bounds([[[0.1, 0.5], [0.1, 0.9]]], 2.0)
    omega = cl.region_from_bounds([[[0.6, 0.95], [0.1, 0.9]]], 1.0)
    square = cl.CascadeSystem(cl.Dissipative(0.4), op2, cl.spectral_basis(op2, 4), 2, 1,
                              cl.CouplingSpec.from_dict(2, {(1, 2): O}),
                              cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),)))
    return [wave, cl.adjoint_system(wave), end, square, cl.adjoint_system(square)]


@pytest.mark.parametrize("case", range(5))
def test_batched_system_operators_match_stacked_calls(case):
    sys = _batch_cases()[case]
    rng = np.random.default_rng(40 + case)
    n = sys.grid.n_total
    Y = rng.standard_normal((3, 2, sys.N, n))
    (k,) = sys.controlled_components()
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
        obs, visit = _observation_recorder(sys, steps + 1, start[0].shape[:-2])
        return obs[2], fn(sys, *start, steps, step, visit)

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


# ---------------------------------------------------------------------------
# buffered stencil and marches against the fresh-array reference, bit for bit
# ---------------------------------------------------------------------------


def _square_cascade(family, n=(5, 4), K=4):
    grid = cl.build_grid([1.0, 0.7], list(n))
    op = cl.assemble_operator(grid)
    O = cl.region_from_bounds([[[0.1, 0.5], [0.1, 0.6]]], 2.0)
    omega = cl.region_from_bounds([[[0.5, 0.9], [0.1, 0.6]]], 1.0)
    return cl.CascadeSystem(family, op, cl.spectral_basis(op, K), 2, 1,
                            cl.CouplingSpec.from_dict(2, {(1, 2): O}),
                            cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),)))


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


def _reference_forward(sys, w0, wp0, control, forcing, M, dt):
    """The leapfrog recurrence with fresh arrays every step: the visited
    (n, y, velocity) triples and the returned (y^{M-1}, y^M, velocity)."""
    dt2 = dt * dt
    acc = -sliced_apply_system(sys, w0)
    _forcing_into(sys, acc, control, forcing, 0)
    seen = [(0, w0.copy(), wp0.copy())]
    y_prev = w0.copy()
    y_cur = w0 + dt * wp0 + 0.5 * dt2 * acc
    for n in range(1, M):
        acc = -sliced_apply_system(sys, y_cur)
        _forcing_into(sys, acc, control, forcing, n)
        y_next = 2.0 * y_cur - y_prev + dt2 * acc
        seen.append((n, y_cur, (y_next - y_prev) / (2.0 * dt)))
        y_prev, y_cur = y_cur, y_next
    acc = -sliced_apply_system(sys, y_cur)
    _forcing_into(sys, acc, control, forcing, M)
    vel_T = (y_cur - y_prev) / dt + 0.5 * dt * acc
    seen.append((M, y_cur, vel_T))
    return seen, (y_prev, y_cur, vel_T)


def _reference_adjoint(sys, phi_M, phi_M1, M, dt):
    """The backward recurrence with fresh arrays every step: the visited
    (n, phi^n) pairs and the returned (phi^0, velocity)."""
    dt2 = dt * dt
    seen = [(M, phi_M.copy()), (M - 1, phi_M1.copy())]
    phi_next, phi_cur = phi_M, phi_M1
    for n in range(M - 1, 0, -1):
        phi_prevl = 2.0 * phi_cur - phi_next - dt2 * sliced_apply_system(sys, phi_cur)
        seen.append((n - 1, phi_prevl))
        phi_next, phi_cur = phi_cur, phi_prevl
    vel0 = (phi_next - phi_cur) / dt + 0.5 * dt * sliced_apply_system(sys, phi_cur)
    return seen, (phi_cur, vel0)


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
    control = cl.ControlSignal(dt * np.arange(M + 1), {2: rng.standard_normal((M + 1, n))},
                               trapezoid_weights(M, dt))
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
