import math

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.dynamics import step_count

from conftest import chained_dt, make_heat_cascade, make_single_free, make_wave_cascade


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
        cl.solve_hyperbolic(sys, cl.zero_state(sys), None, T, bad)
    assert err.value.dt_admissible == pytest.approx(dt_max)


def test_wave_single_mode_closed_form_and_order():
    # semi-discrete oracle: w(t) = cos(sqrt(lam_k) t) e_k with the discrete lam
    sys = make_single_free()
    lam = sys.basis.eigenvalues[1]
    T = 1.0

    def run(dt):
        st = cl.zero_state(sys)
        st.w[0] = sys.basis.modes[1]
        _, term = cl.solve_hyperbolic(sys, st, None, T, dt)
        exact = math.cos(math.sqrt(lam) * T) * sys.basis.modes[1]
        return math.sqrt(float(np.sum((term.w[0] - exact) ** 2)) * sys.grid.hvol)

    e1, e2 = run(0.005), run(0.0025)
    assert 3.2 <= e1 / e2 <= 4.8


def test_wave_zero_data_zero_control_stays_zero():
    sys = make_single_free()
    _, term = cl.solve_hyperbolic(sys, cl.zero_state(sys), None, 1.0, 0.01)
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
    _, t2 = cl.solve_hyperbolic(two, st2, None, 1.0, dt)
    _, t1 = cl.solve_hyperbolic(one, st1, None, 1.0, dt)
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
    _, t2 = cl.solve_hyperbolic(two, st2, None, 1.0, dt)
    _, t1 = cl.solve_hyperbolic(one, st1, None, 1.0, dt)
    assert np.array_equal(t2.w[1], t1.w[0])


def test_leapfrog_energy_conserved_1e4_steps():
    sys = make_single_free(n=30, K=5)
    dt = 0.9 * cl.cfl_time_step(sys)
    T = 10000 * dt
    rng = np.random.default_rng(8)
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.synthesize(rng.standard_normal(5))
    st.wp[0] = sys.basis.synthesize(rng.standard_normal(5))
    rec, term = cl.solve_hyperbolic(sys, st, None, T, dt)
    y_m1, y_m = rec.terminal_levels
    # the conserved quadratic form is evaluated on consecutive level pairs
    first_level = st.w + dt * st.wp + 0.5 * dt * dt * (-sys.apply_system(st.w))
    e_start = cl.leapfrog_energy(sys, st.w, first_level, dt)
    e_end = cl.leapfrog_energy(sys, y_m1, y_m, dt)
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
        _, term = cl.solve_dissipative(sys, st, None, T, dt)
        exact = math.exp(-lam * T) * sys.basis.modes[1]
        return math.sqrt(float(np.sum(np.abs(term.w[0] - exact) ** 2)) * sys.grid.hvol)

    e1, e2 = run(0.01), run(0.005)
    assert 3.2 <= e1 / e2 <= 4.8


def test_schrodinger_norm_preserved():
    sys = make_single_free(n=40, K=5, family=cl.Dissipative(math.pi / 2))
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.modes[0].astype(complex)
    _, term = cl.solve_dissipative(sys, st, None, 10.0, 0.001)
    n0 = math.sqrt(float(np.sum(np.abs(st.w[0]) ** 2)) * sys.grid.hvol)
    nT = math.sqrt(float(np.sum(np.abs(term.w[0]) ** 2)) * sys.grid.hvol)
    assert abs(nT / n0 - 1.0) <= 1e-12


def test_heat_cascade_component1_mass_iff_coupling():
    import warnings

    sys = make_heat_cascade(n=40, K=6, c=1.0)
    st = cl.zero_state(sys)
    st.w[1] = sys.basis.modes[0]
    _, term = cl.solve_dissipative(sys, st, None, 0.2, 0.002)
    assert np.max(np.abs(term.w[0])) > 1e-6
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cl.EmptySupportWarning)
        zero = make_heat_cascade(n=40, K=6, c=0.0)
    st = cl.zero_state(zero)
    st.w[1] = zero.basis.modes[0]
    _, term = cl.solve_dissipative(zero, st, None, 0.2, 0.002)
    assert np.all(term.w[0] == 0.0)


def test_heat_single_component_norm_monotone():
    sys = make_single_free(n=40, K=6, family=cl.Dissipative(0.0))
    rng = np.random.default_rng(12)
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.synthesize(rng.standard_normal(6))
    rec, _ = cl.solve_dissipative(sys, st, None, 0.5, 0.005, record_norms=True)
    diffs = np.diff(rec.norms)
    assert np.all(diffs <= 1e-12)


def test_heat_cascade_free_component_growth_bounded_by_forcing():
    # |w_1(t)| <= |w_1(0)| + t * max_s |coupling forcing(s)| for the fed component
    sys = make_heat_cascade(n=40, K=6, c=1.0)
    st = cl.zero_state(sys)
    st.w[1] = sys.basis.modes[0]
    T, dt = 0.4, 0.002
    M = step_count(T, dt)
    times = [k * dt for k in range(0, M + 1, 20)]
    rec, _ = cl.solve_dissipative(sys, st, None, T, dt, snapshot_times=times)
    hvol = sys.grid.hvol
    ind = dict(sys._coupling_fields)[(1, 2)]
    forcing_max = 0.0
    for _, snap in rec.snapshots:
        forcing_max = max(forcing_max, math.sqrt(float(np.sum(np.abs(ind * snap.w[1]) ** 2)) * hvol))
    for t, snap in rec.snapshots:
        n1 = math.sqrt(float(np.sum(np.abs(snap.w[0]) ** 2)) * hvol)
        assert n1 <= 0.0 + t * forcing_max + 1e-12


def test_theta_mismatch_rejected():
    sys = make_single_free(family=cl.Dissipative(0.0))
    with pytest.raises(ValueError):
        cl.solve_dissipative(sys, cl.zero_state(sys), None, 0.1, 0.001, theta=0.3)
    with pytest.raises(ValueError):
        cl.Dissipative(2.0)


def test_control_signal_grid_mismatch_rejected():
    sys = make_wave_cascade(n=40, K=6)
    dt = chained_dt(sys, 1.0)
    from cascade_lab.dynamics import zero_signal

    sig = zero_signal(sys, 0.5, dt)
    with pytest.raises(ValueError):
        cl.solve_hyperbolic(sys, cl.zero_state(sys), sig, 1.0, dt)


# ---------------------------------------------------------------------------
# adjoint solve and duality
# ---------------------------------------------------------------------------


def test_adjoint_requires_transposed():
    sys = make_wave_cascade(n=40, K=6)
    seed = cl.zero_state(sys)
    with pytest.raises(ValueError):
        cl.solve_adjoint(sys, seed, 1.0, chained_dt(sys, 1.0))


def test_adjoint_zero_seed_zero_observations():
    sys = cl.adjoint_system(make_wave_cascade(n=40, K=6))
    dt = chained_dt(sys, 1.0)
    sig, initial = cl.solve_adjoint(sys, cl.zero_state(sys), 1.0, dt)
    assert sig.norm_sq(sys.grid) == 0.0
    assert np.all(initial.w == 0.0)


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
    sig, _ = cl.solve_adjoint(cl.adjoint_system(sys), seed, period, dt)
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


def test_2d_heat_single_mode_decay():
    grid = cl.build_grid([1.0, 1.0], [8, 8])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 3)
    sys = cl.CascadeSystem(cl.Dissipative(0.0), op, basis, 1, 1,
                           cl.CouplingSpec(1, ()), cl.ControlSpec(1, 1, ()))
    lam = basis.eigenvalues[0]
    st = cl.zero_state(sys)
    st.w[0] = basis.modes[0]
    _, term = cl.solve_dissipative(sys, st, None, 0.05, 0.0005)
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
    _, term = cl.solve_hyperbolic(sys, st, None, T, dt)
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


def test_solve_records_snapshots_and_observations():
    sys = make_wave_cascade(n=40, K=6)
    dt = chained_dt(sys, 1.0)
    st = cl.zero_state(sys)
    st.w[0] = sys.basis.modes[0]
    rec, term = cl.solve_hyperbolic(sys, st, None, 1.0, dt,
                                    snapshot_times=[0.0, 0.5, 1.0],
                                    record_observations=True, record_energies=True)
    assert len(rec.snapshots) == 3
    assert rec.snapshots[0][1].w.shape == (2, 40)
    assert rec.observations is not None
    assert rec.energies.shape[0] == step_count(1.0, dt) + 1


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
    from cascade_lab.dynamics import _cn_adjoint, _hyp_adjoint

    rng = np.random.default_rng(41)
    wave = cl.adjoint_system(make_wave_cascade(n=30, K=4))
    heat = cl.adjoint_system(make_heat_cascade(n=30, K=4, theta=0.3))
    dt = chained_dt(wave, 0.5)
    M = step_count(0.5, dt)
    a, b = rng.standard_normal((2, 3, 2, 30))
    batch = _hyp_adjoint(wave, a, b, M, dt)
    for i in range(3):
        single = _hyp_adjoint(wave, a[i], b[i], M, dt)
        assert np.array_equal(batch["observations"][2][:, i], single["observations"][2])
        assert np.array_equal(batch["initial"].w[i], single["initial"].w)
    phi = a + 1j * b
    batch = _cn_adjoint(heat, phi, 20, 0.005)
    for i in range(3):
        single = _cn_adjoint(heat, phi[i], 20, 0.005)
        np.testing.assert_allclose(batch["observations"][2][:, i], single["observations"][2],
                                   rtol=1e-13, atol=1e-15)
        np.testing.assert_allclose(batch["initial"].w[i], single["initial"].w,
                                   rtol=1e-13, atol=1e-15)
