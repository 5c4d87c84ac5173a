import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_lab as cl
from cascade_lab.hum import GramianOperator, SeedSpace

from conftest import cascade_cases, chained_dt, make_heat_cascade, make_single_free, make_wave_cascade


# ---------------------------------------------------------------------------
# adjoint system construction
# ---------------------------------------------------------------------------


def test_adjoint_flips_coupling_flow():
    sys = make_wave_cascade(n=40, K=6)
    adj = cl.adjoint_system(sys)
    assert adj.transposed
    rng = np.random.default_rng(0)
    Y = rng.standard_normal((2, 40))
    fwd = sys.apply_system(Y.copy())
    bwd = adj.apply_system(Y.copy())
    ind = dict(sys._coupling_fields)[(1, 2)]
    # forward: row 1 carries ind * Y2; adjoint: row 2 carries ind * Y1
    assert np.allclose(fwd[0] - sys.op.matvec(Y[0].copy()), ind * Y[1])
    assert np.allclose(bwd[1] - sys.op.matvec(Y[1].copy()), ind * Y[0])


def test_adjoint_chain_pattern():
    grid = cl.build_grid([1.0], [30])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 5)
    O = cl.region_from_bounds([[0.2, 0.8]], 1.0)
    coup = cl.CouplingSpec.from_dict(3, {(1, 2): O, (2, 3): O})
    ctl = cl.ControlSpec(3, 2, ((3, cl.Distributed(O)),))
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 3, 2, coup, ctl)
    adj = cl.adjoint_system(sys)
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((3, 30))
    bwd = adj.apply_system(Y.copy())
    ind = cl.indicator_vector(O, grid)
    assert np.allclose(bwd[0], op.matvec(Y[0].copy()))          # phi_1 free
    assert np.allclose(bwd[1] - op.matvec(Y[1].copy()), ind * Y[0])
    assert np.allclose(bwd[2] - op.matvec(Y[2].copy()), ind * Y[1])


def test_double_transposition_rejected():
    sys = make_wave_cascade(n=40, K=6)
    with pytest.raises(ValueError):
        cl.adjoint_system(cl.adjoint_system(sys))


# ---------------------------------------------------------------------------
# Gramian
# ---------------------------------------------------------------------------


def _gramian(sys, T, K=8, dt=None):
    dt = dt if dt is not None else chained_dt(sys, T)
    seeds = SeedSpace(sys, K)
    return GramianOperator(sys, cl.adjoint_system(sys), seeds, T, dt), seeds


def test_gramian_zero_seed_zero_output():
    sys = make_wave_cascade(n=40, K=8)
    gram, seeds = _gramian(sys, 1.0)
    GX = gram.apply(seeds.zeros())
    assert np.all(GX == 0.0)


@pytest.mark.parametrize("maker,kwargs", [
    (make_wave_cascade, dict(n=50, K=8)),
    (make_heat_cascade, dict(n=50, K=8)),
    (make_heat_cascade, dict(n=50, K=8, theta=math.pi / 2)),
])
def test_gramian_symmetry_psd_and_pairing(maker, kwargs):
    sys = maker(**kwargs)
    T = 1.5 if sys.is_hyperbolic else 0.25
    dt = chained_dt(sys, T) if sys.is_hyperbolic else T / 120
    gram, seeds = _gramian(sys, T, dt=dt)
    rng = np.random.default_rng(3)
    for _ in range(6):
        X, Y = seeds.random(rng), seeds.random(rng)
        GX, GY = gram.apply(X), gram.apply(Y)
        gxy = np.real(seeds.inner(GX, Y))
        gyx = np.real(seeds.inner(GY, X))
        assert abs(gxy - gyx) <= 1e-8 * max(abs(gxy), abs(gyx))
        # independently computed double-adjoint quadrature
        quad = gram.observation_quadrature(gram.observations_of(X), gram.observations_of(Y))
        assert abs(gxy - quad) <= 1e-8 * max(abs(gxy), abs(quad))
        ray = np.real(seeds.inner(GX, X)) / seeds.norm(X) ** 2
        assert ray >= -1e-12


def test_gramian_pairing_boundary_controls():
    # the end-control injection/observation pair must stay exactly adjoint
    grid = cl.build_grid([1.0], [50])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 6)
    rng = np.random.default_rng(14)
    for family, T, dt in ((cl.Hyperbolic(), 1.5, None), (cl.Dissipative(0.0), 0.25, 0.0025)):
        sys = cl.CascadeSystem(family, op, basis, 1, 0, cl.CouplingSpec(1, ()),
                               cl.ControlSpec(1, 0, ((1, cl.BoundaryEnd("right", 0.7)),)))
        step = dt if dt is not None else chained_dt(sys, T)
        gram, seeds = _gramian(sys, T, K=6, dt=step)
        for _ in range(4):
            X, Y = seeds.random(rng), seeds.random(rng)
            gxy = np.real(seeds.inner(gram.apply(X), Y))
            quad = gram.observation_quadrature(gram.observations_of(X), gram.observations_of(Y))
            assert abs(gxy - quad) <= 1e-8 * max(abs(gxy), abs(quad), 1e-300)


def test_gramian_full_domain_coercivity_half_period():
    # analytic time average: velocity carries half the natural energy over
    # whole periods, so the Rayleigh quotient on low modes approaches T/2
    one = make_single_free(n=100, K=6)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, 0,
                           cl.CouplingSpec(1, ()),
                           cl.ControlSpec(1, 0, ((1, cl.Distributed(omega)),)))
    T = 2.0
    dt = T / int(math.ceil(T / (0.25 * cl.cfl_time_step(sys))))
    gram, seeds = _gramian(sys, T, K=3, dt=dt)
    for j in range(3):
        X = seeds.zeros()
        X[0, j, 0] = 1.0 / math.sqrt(seeds.eigenvalues[j])
        ray = np.real(seeds.inner(gram.apply(X), X))
        assert abs(ray - T / 2) <= 0.1 * (T / 2)


def test_gramian_smallest_eigenvalue_monotone_in_T():
    from cascade_lab.analysis import assemble_dense_gramian

    sys = make_wave_cascade(n=40, K=6)
    dt = 0.01
    lows = []
    for T in (1.0, 2.0, 3.0):
        gram, seeds = _gramian(sys, T, K=4, dt=dt)
        mat = assemble_dense_gramian(gram)
        lows.append(np.linalg.eigvalsh(mat)[0])
    assert lows[0] <= lows[1] + 1e-12
    assert lows[1] <= lows[2] + 1e-12


def _probe_matrix(gram):
    """Dense Gramian from one matrix-free apply per orthonormal basis seed."""
    seeds = gram.seeds
    basis = seeds.from_coords(np.eye(seeds.coord_dim))
    cols = np.array([seeds.to_coords(gram.apply(E)) for E in basis]).T
    return 0.5 * (cols + cols.T)


def _square_system(family):
    grid = cl.build_grid([1.0, 1.0], [10, 10])
    op = cl.assemble_operator(grid)
    O = cl.region_from_bounds([[[0.1, 0.45], [0.1, 0.45]]], 4.0, "O")
    omega = cl.region_from_bounds([[[0.55, 0.9], [0.55, 0.9]]], 1.0, "omega")
    return cl.CascadeSystem(family, op, cl.spectral_basis(op, 6), 2, 1,
                            cl.CouplingSpec.from_dict(2, {(1, 2): O}),
                            cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),)))


def _end_control_wave():
    grid = cl.build_grid([1.0], [40])
    op = cl.assemble_operator(grid)
    return cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 6), 1, 0,
                            cl.CouplingSpec(1, ()),
                            cl.ControlSpec(1, 0, ((1, cl.BoundaryEnd("right", 0.7)),)))


@pytest.mark.parametrize("name,make,T,dt,K", [
    ("1d hyperbolic distributed", lambda: make_wave_cascade(n=40, K=6), 1.5, None, 5),
    ("1d hyperbolic end", _end_control_wave, 1.5, None, 6),
    ("cn theta 0", lambda: make_heat_cascade(n=40, K=6), 0.2, 0.002, 5),
    ("cn theta pi/3", lambda: make_heat_cascade(n=40, K=6, theta=math.pi / 3), 0.2, 0.002, 5),
    ("2d cn", lambda: _square_system(cl.Dissipative(0.0)), 0.1, 0.002, 4),
    ("2d hyperbolic", lambda: _square_system(cl.Hyperbolic()), 1.0, None, 4),
])
def test_dense_gramian_matches_column_probes(name, make, T, dt, K):
    from cascade_lab.hum import assemble_dense_gramian

    sys = make()
    gram, seeds = _gramian(sys, T, K=K, dt=dt)
    mat = assemble_dense_gramian(gram)
    assert mat.shape == (seeds.coord_dim,) * 2
    probes = _probe_matrix(gram)
    assert np.linalg.norm(mat - probes) <= 1e-12 * np.linalg.norm(probes), name


def _concatenated_gramian(gram):
    """Dense Gramian the list-based way: extract each sample's observations
    whole, keep the support columns, concatenate the pieces and reduce them
    with one product whenever 512 or more columns are gathered."""
    seeds, sys_adj = gram.seeds, gram.sys_adj
    basis = seeds.from_coords(np.eye(seeds.coord_dim))
    dim = basis.shape[0]
    weights = gram.sample_weights()
    parts = [(k, np.flatnonzero(data), sys_adj.grid.hvol) if kind == "distributed"
             else (k, slice(None), 1.0)
             for k, kind, data in sys_adj._control_ops]
    mat = np.zeros((dim, dim))
    block, flushes = [], []

    def flush():
        if block:
            obs = np.concatenate(block, axis=1)
            flushes.append(obs.shape[1])
            mat[...] += obs @ obs.T
            block.clear()

    def visit(n, fld):
        if weights[n] == 0.0:
            return
        for k, cols, scale in parts:
            o = sys_adj.extract(k, fld).reshape(dim, -1)[:, cols] * math.sqrt(weights[n] * scale)
            block.extend((o.real, o.imag) if np.iscomplexobj(o) else (o,))
        if sum(piece.shape[1] for piece in block) >= 512:
            flush()

    gram.march_adjoint(basis, visit)
    flush()
    return 0.5 * (mat + mat.T), flushes


def _control_amplitude(sys, amplitude):
    """sys with every distributed control at the given amplitude."""
    entries = tuple(
        (k, cl.Distributed(cl.Region(kind.region.parts, (amplitude,) * len(kind.region.parts))))
        if isinstance(kind, cl.Distributed) else (k, kind)
        for k, kind in sys.control.entries)
    return dataclasses.replace(sys, control=cl.ControlSpec(sys.N, sys.p, entries))


@pytest.mark.parametrize("name,make,T,dt,K", [
    ("1d distributed", lambda: make_wave_cascade(n=40, K=6), 3.0, None, 5),
    ("1d end", _end_control_wave, 15.0, None, 6),
    ("cn theta 0.6", lambda: make_heat_cascade(n=40, K=6, theta=0.6), 0.2, 0.002, 5),
    ("2d", lambda: _square_system(cl.Hyperbolic()), 6.0, None, 4),
])
def test_dense_gramian_matches_concatenated_assembly_bitwise(name, make, T, dt, K):
    from cascade_lab.hum import assemble_dense_gramian

    # an amplitude other than 1 makes the order of the two scalings show
    gram, _ = _gramian(_control_amplitude(make(), 1.7), T, K=K, dt=dt)
    expected, flushes = _concatenated_gramian(gram)
    # a full block and a partial last one
    assert len(flushes) >= 2 and flushes[-1] < flushes[0], name
    assert assemble_dense_gramian(gram).tobytes() == expected.tobytes(), name


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_dense_gramian_property(dim, N, data):
    """The dense Gramian is symmetric PSD and matches the apply column probes."""
    from cascade_lab.hum import assemble_dense_gramian

    sys, T, dt, _ = data.draw(cascade_cases(dim, N, one_control_kind=True))
    gram, seeds = _gramian(sys, T, K=data.draw(st.integers(1, sys.basis.K)), dt=dt)
    mat = assemble_dense_gramian(gram)
    assert np.array_equal(mat, mat.T)
    lam = np.linalg.eigvalsh(mat)
    assert lam[0] >= -1e-12 * lam[-1]
    probes = _probe_matrix(gram)
    assert np.linalg.norm(mat - probes) <= 1e-12 * np.linalg.norm(probes)


def test_seed_coordinates_roundtrip_orthonormal():
    rng = np.random.default_rng(8)
    for sys in (make_wave_cascade(n=30, K=5), make_heat_cascade(n=30, K=5, theta=0.7)):
        seeds = SeedSpace(sys, 4)
        X, Y = seeds.random(rng), seeds.random(rng)
        x, y = seeds.to_coords(X), seeds.to_coords(Y)
        assert np.allclose(seeds.from_coords(x), X, rtol=1e-14, atol=1e-14)
        assert abs(x @ y - np.real(seeds.inner(X, Y))) <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)


def test_mixed_control_kinds_rejected():
    grid = cl.build_grid([1.0], [40])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 6)
    O = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    omega = cl.region_from_bounds([[0.6, 0.8]], 1.0)
    coup = cl.CouplingSpec.from_dict(3, {(1, 2): O, (2, 3): O})
    ctl = cl.ControlSpec(3, 1, ((2, cl.Distributed(omega)), (3, cl.BoundaryEnd("right", 1.0))))
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 3, 1, coup, ctl)
    with pytest.raises(ValueError):
        _gramian(sys, 1.0, K=4)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_wave_interior_region():
    # single wave equation, omega = (0.4, 0.6), T = 3 > 0.8 sweep bound
    grid = cl.build_grid([1.0], [100])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 12)
    omega = cl.region_from_bounds([[0.4, 0.6]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1, 0,
                           cl.CouplingSpec(1, ()),
                           cl.ControlSpec(1, 0, ((1, cl.Distributed(omega)),)))
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    Y0.wp[0] = 0.5 * basis.modes[2]
    dt = chained_dt(sys, 3.0)
    res = cl.synthesize_control(sys, Y0, 3.0, dt, 12, eps=0.0, cg_tol=1e-10, max_iter=400)
    assert res.success
    assert res.terminal_energy_filtered <= 1e-8 * res.initial_energy
    assert abs(res.control_norm_sq - res.gram_quadratic) <= 1e-6 * res.gram_quadratic


def test_synthesize_disjoint_cascade_small():
    sys = make_wave_cascade(n=80, K=12)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = 0.5 * sys.basis.modes[1]
    dt = chained_dt(sys, 6.0)
    res = cl.synthesize_control(sys, Y0, 6.0, dt, 12, eps=0.0, cg_tol=1e-10, max_iter=500)
    assert res.success
    assert res.terminal_energy_filtered <= 1e-8 * res.initial_energy
    # exactness invariant: filtered terminal level after convergent CG
    assert res.terminal_energy_filtered <= max(1e2 * 1e-10**2, 1e-10) * res.initial_energy


def test_synthesize_boundary_control_wave():
    grid = cl.build_grid([1.0], [80])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 10)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1, 0,
                           cl.CouplingSpec(1, ()),
                           cl.ControlSpec(1, 0, ((1, cl.BoundaryEnd("right", 1.0)),)))
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    dt = chained_dt(sys, 3.0)
    res = cl.synthesize_control(sys, Y0, 3.0, dt, 10, eps=0.0, cg_tol=1e-10, max_iter=300)
    assert res.success
    assert abs(res.control_norm_sq - res.gram_quadratic) <= 1e-6 * res.gram_quadratic
    assert res.terminal_energy_filtered <= 1e-8 * res.initial_energy


def test_zero_coupling_stagnates_and_component1_keeps_energy():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cl.EmptySupportWarning)
        sys = make_wave_cascade(n=60, K=10, c=0.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = 0.5 * sys.basis.modes[0]
    T = 4.0
    dt = chained_dt(sys, T)
    res = cl.synthesize_control(sys, Y0, T, dt, 10, eps=0.0, cg_tol=1e-10, max_iter=200)
    assert res.stagnated and not res.success
    _, free = cl.solve(sys, Y0, None, T, dt)
    e_free = cl.energy(sys, free).per_component[0]
    assert res.terminal_energy_full_per_component[0] >= 0.9 * e_free


def test_zero_rhs_returns_zero_control():
    sys = make_wave_cascade(n=40, K=6)
    Y0 = cl.zero_state(sys)
    dt = chained_dt(sys, 1.0)
    res = cl.synthesize_control(sys, Y0, 1.0, dt, 6, eps=0.0, cg_tol=1e-10)
    assert res.success and res.refinement_passes == 0
    assert res.control.norm_sq(sys.grid) == 0.0


def test_unreachable_tolerance_runs_out_of_budget():
    sys = make_wave_cascade(n=40, K=6)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    dt = chained_dt(sys, 3.0)
    res = cl.synthesize_control(sys, Y0, 3.0, dt, 6, eps=0.0, cg_tol=1e-30, max_iter=1)
    assert not res.success and not res.stagnated
    assert res.failure_reason == "out of budget"
    assert res.refinement_passes == 1
    assert res.gramian["rank"] == res.gramian["dim"] == 24


def test_rank_deficiency_is_the_failure_reason():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", cl.EmptySupportWarning)
        sys = make_wave_cascade(n=40, K=6, c=0.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    dt = chained_dt(sys, 3.0)
    res = cl.synthesize_control(sys, Y0, 3.0, dt, 6, eps=0.0, cg_tol=1e-10)
    assert res.stagnated and res.failure_reason == "rank-deficient"
    # the uncoupled first component is invisible: half the seed space
    assert res.gramian["rank"] == res.gramian["dim"] // 2


def test_dissipative_requires_positive_eps():
    sys = make_heat_cascade(n=40, K=6)
    Y0 = cl.zero_state(sys)
    with pytest.raises(ValueError):
        cl.synthesize_control(sys, Y0, 0.2, 0.002, 6, eps=0.0)


def test_residual_history_strictly_decreasing():
    sys = make_wave_cascade(n=60, K=8)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    dt = chained_dt(sys, 5.0)
    res = cl.synthesize_control(sys, Y0, 5.0, dt, 8, eps=0.0, cg_tol=1e-9, max_iter=400)
    hist = res.residual_history
    assert all(a > b for a, b in zip(hist, hist[1:]))
    assert res.terminal_energy_filtered <= res.initial_energy


# ---------------------------------------------------------------------------
# epsilon sweep
# ---------------------------------------------------------------------------


def test_epsilon_sweep_validates_list():
    sys = make_heat_cascade(n=40, K=6)
    Y0 = cl.zero_state(sys)
    with pytest.raises(ValueError):
        cl.epsilon_sweep(sys, Y0, 0.2, 0.002, 6, [1e-3])
    with pytest.raises(ValueError):
        cl.epsilon_sweep(sys, Y0, 0.2, 0.002, 6, [1e-3, 1e-2, 1e-4])


def test_epsilon_sweep_square_root_law_small():
    sys = make_heat_cascade(n=60, K=10, c=16.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = sys.basis.modes[0]
    sweep = cl.epsilon_sweep(sys, Y0, 0.4, 0.4 / 200, 10, [1e-2, 1e-3, 1e-4, 1e-5, 1e-6],
                             cg_tol=1e-9)
    assert not sweep.partial
    assert 0.35 <= sweep.slope <= 0.65
    diffs = np.diff(np.log(sweep.terminal_norms))
    assert np.all(diffs < 0)


def test_sweep_shared_spectrum_matches_independent_runs():
    sys = make_heat_cascade(n=40, K=6, c=16.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = sys.basis.modes[0]
    eps_list = [1e-2, 1e-4, 1e-6]
    sweep = cl.epsilon_sweep(sys, Y0, 0.3, 0.003, 6, eps_list, cg_tol=1e-9)
    for eps, norm in zip(eps_list, sweep.terminal_norms):
        alone = cl.synthesize_control(sys, Y0, 0.3, 0.003, 6, eps=eps, cg_tol=1e-9)
        assert abs(norm - alone.terminal_state_norm) <= 1e-10 * alone.terminal_state_norm
    assert sweep.to_dict()["gramian"]["dim"] == 12


def test_2d_dissipative_synthesis_and_pairing():
    # exercises the factored sparse solver path inside the Gramian
    grid = cl.build_grid([1.0, 1.0], [12, 12])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, 8)
    O = cl.region_from_bounds([[[0.1, 0.45], [0.1, 0.45]]], 4.0, "O")
    omega = cl.region_from_bounds([[[0.55, 0.9], [0.55, 0.9]]], 1.0, "omega")
    coup = cl.CouplingSpec.from_dict(2, {(1, 2): O})
    ctl = cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),))
    sys = cl.CascadeSystem(cl.Dissipative(0.0), op, basis, 2, 1, coup, ctl)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    Y0.w[1] = basis.modes[0]
    res = cl.synthesize_control(sys, Y0, 0.3, 0.003, 8, eps=1e-5, cg_tol=1e-9)
    assert res.success
    assert abs(res.control_norm_sq - res.gram_quadratic) <= 1e-6 * res.gram_quadratic
    assert res.terminal_state_norm < res.free_terminal_norm

    phase = cl.CascadeSystem(cl.Dissipative(math.pi / 3), op, basis, 2, 1, coup, ctl)
    seeds = SeedSpace(phase, 6)
    gram = GramianOperator(phase, cl.adjoint_system(phase), seeds, 0.2, 0.002)
    rng = np.random.default_rng(4)
    X, Y = seeds.random(rng), seeds.random(rng)
    gxy = np.real(seeds.inner(gram.apply(X), Y))
    quad = gram.observation_quadrature(gram.observations_of(X), gram.observations_of(Y))
    assert abs(gxy - quad) <= 1e-8 * max(abs(gxy), abs(quad))


def test_sweep_refining_cg_tol_changes_little():
    sys = make_heat_cascade(n=50, K=8, c=16.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = sys.basis.modes[0]
    r1 = cl.synthesize_control(sys, Y0, 0.3, 0.002, 8, eps=1e-4, cg_tol=1e-8)
    r2 = cl.synthesize_control(sys, Y0, 0.3, 0.002, 8, eps=1e-4, cg_tol=1e-9)
    assert abs(r1.terminal_state_norm - r2.terminal_state_norm) <= 0.05 * r2.terminal_state_norm
