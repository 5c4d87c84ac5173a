import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascade_lab as cl
from cascade_lab.cli import demo_configs
from cascade_lab.config import build_experiment
from cascade_lab.dynamics import quadrature, sample_weights, step_count
from cascade_lab.hum import DEFAULT_REFINEMENT_PASSES, GramianOperator, SeedSpace, _Synthesis

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
    sup = dict(sys.coupling_supports)[(1, 2)]
    ind = np.zeros(sys.grid.n_total)
    ind[sup.cols] = sup.amplitudes
    # forward: row 1 carries ind * Y2; adjoint: row 2 carries ind * Y1
    assert np.allclose(fwd[0] - sys.op.matvec(Y[0].copy()), ind * Y[1])
    assert np.allclose(bwd[1] - sys.op.matvec(Y[1].copy()), ind * Y[0])


def test_adjoint_chain_pattern():
    grid = cl.build_grid([1.0], [30])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 5)
    O = cl.region_from_bounds([[0.2, 0.8]], 1.0)
    coup = (((1, 2), O), ((2, 3), O))
    ctl = ((3, O),)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 3, coup, ctl)
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
    return GramianOperator(seeds, T, dt), seeds


def _observation_quadrature(gram, X, Y):
    """sum_n w_n <obs_n(X), obs_n(Y)>, the defining bilinear form of G."""
    a, b = gram.observations_of(X), gram.observations_of(Y)
    return quadrature(gram.sys_adj, a.values, b.values, gram.weights)


def test_gramian_zero_seed_zero_output():
    sys = make_wave_cascade(n=40, K=8)
    gram, seeds = _gramian(sys, 1.0)
    GX = gram.apply(np.zeros(seeds.dim))
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
        X, Y = rng.standard_normal(seeds.dim), rng.standard_normal(seeds.dim)
        GX, GY = gram.apply(X), gram.apply(Y)
        gxy = GX @ Y
        gyx = GY @ X
        assert abs(gxy - gyx) <= 1e-8 * max(abs(gxy), abs(gyx))
        # independently computed double-adjoint quadrature
        quad = _observation_quadrature(gram, X, Y)
        assert abs(gxy - quad) <= 1e-8 * max(abs(gxy), abs(quad))
        ray = (GX @ X) / (X @ X)
        assert ray >= -1e-12


def test_gramian_pairing_boundary_controls():
    # the end-control injection/observation pair must stay exactly adjoint
    grid = cl.build_grid([1.0], [50])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 6)
    rng = np.random.default_rng(14)
    for family, T, dt in ((cl.Hyperbolic(), 1.5, None), (cl.Dissipative(0.0), 0.25, 0.0025)):
        sys = cl.CascadeSystem(family, op, basis, 1,
                               control=((1, cl.BoundaryEnd("right", 0.7)),))
        step = dt if dt is not None else chained_dt(sys, T)
        gram, seeds = _gramian(sys, T, K=6, dt=step)
        for _ in range(4):
            X, Y = rng.standard_normal(seeds.dim), rng.standard_normal(seeds.dim)
            gxy = gram.apply(X) @ Y
            quad = _observation_quadrature(gram, X, Y)
            assert abs(gxy - quad) <= 1e-8 * max(abs(gxy), abs(quad), 1e-300)


@pytest.mark.parametrize("family", [cl.Hyperbolic(), cl.Dissipative(0.0), cl.Dissipative(0.3)])
@pytest.mark.parametrize("control", [cl.region_from_bounds([[0.7, 0.9]], 1.0),
                                     cl.BoundaryEnd("right", 0.7)])
def test_observations_vanish_where_the_sample_weight_is_zero(family, control):
    # a sample the quadrature of ||v||^2 skips must not act as a control in
    # the forward march either; that is what makes ||v||^2 = x . (G x) exact
    grid = cl.build_grid([1.0], [40])
    op = cl.EllipticOperator(grid)
    coupling = (((1, 2), cl.region_from_bounds([[0.2, 0.4]], 1.0)),)
    sys = cl.CascadeSystem(family, op, cl.spectral_basis(op, 6), 2, coupling, ((2, control),))
    T = 1.0 if sys.is_hyperbolic else 0.1
    dt = chained_dt(sys, T) if sys.is_hyperbolic else T / 50
    gram, seeds = _gramian(sys, T, K=6, dt=dt)
    M = step_count(T, dt)
    assert np.array_equal(gram.weights, sample_weights(sys, M, dt))
    zero = gram.weights == 0.0
    assert np.flatnonzero(zero).tolist() == ([0, M] if sys.is_hyperbolic else [M])
    rng = np.random.default_rng(5)
    X = rng.standard_normal((3, seeds.dim))
    (arr,) = gram.observations_of(X).values.values()
    assert arr.shape[:2] == (M + 1, 3)
    assert np.all(arr[zero] == 0.0)
    assert np.all(np.any(arr[~zero] != 0.0, axis=0))


def test_gramian_full_domain_coercivity_half_period():
    # analytic time average: velocity carries half the natural energy over
    # whole periods, so the Rayleigh quotient on low modes approaches T/2
    one = make_single_free(n=100, K=6)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, control=((1, omega),))
    T = 2.0
    dt = T / int(math.ceil(T / (0.25 * cl.cfl_time_step(sys))))
    gram, seeds = _gramian(sys, T, K=3, dt=dt)
    for j in range(3):
        # unit position coordinate of mode j: the mode at amplitude 1/sqrt(lambda_j)
        X = np.zeros(seeds.dim)
        X[2 * j] = 1.0
        ray = gram.apply(X) @ X
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
    """Dense Gramian from one matrix-free apply per coordinate vector."""
    cols = np.array([gram.apply(e) for e in np.eye(gram.seeds.dim)]).T
    return 0.5 * (cols + cols.T)


def _square_system(family):
    grid = cl.build_grid([1.0, 1.0], [10, 10])
    op = cl.EllipticOperator(grid)
    O = cl.region_from_bounds([[[0.1, 0.45], [0.1, 0.45]]], 4.0, "O")
    omega = cl.region_from_bounds([[[0.55, 0.9], [0.55, 0.9]]], 1.0, "omega")
    return cl.CascadeSystem(family, op, cl.spectral_basis(op, 6), 2, (((1, 2), O),), ((2, omega),))


def _end_control_wave():
    grid = cl.build_grid([1.0], [40])
    op = cl.EllipticOperator(grid)
    return cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, 6), 1,
                            control=((1, cl.BoundaryEnd("right", 0.7)),))


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
    assert mat.shape == (seeds.dim,) * 2
    probes = _probe_matrix(gram)
    assert np.linalg.norm(mat - probes) <= 1e-12 * np.linalg.norm(probes), name


def _concatenated_gramian(gram):
    """Dense Gramian the list-based way: extract each sample's observations,
    concatenate the pieces and reduce them with one product whenever 512 or
    more columns are gathered."""
    sys_adj, dim = gram.sys_adj, gram.seeds.dim
    weights = gram.weights
    parts = [(k, sys_adj.grid.hvol if isinstance(ctl, cl.Support) else 1.0)
             for k, ctl in sys_adj.controls.items()]
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
        for k, scale in parts:
            o = sys_adj.extract(k, fld).reshape(dim, -1) * math.sqrt(weights[n] * scale)
            block.extend((o.real, o.imag) if np.iscomplexobj(o) else (o,))
        if sum(piece.shape[1] for piece in block) >= 512:
            flush()

    gram.march_adjoint(np.eye(dim), visit)
    flush()
    return 0.5 * (mat + mat.T), flushes


def _control_amplitude(sys, amplitude):
    """sys with every distributed control at the given amplitude."""
    entries = tuple(
        (k, cl.Region(kind.parts, (amplitude,) * len(kind.parts)))
        if isinstance(kind, cl.Region) else (k, kind)
        for k, kind in sys.control)
    return dataclasses.replace(sys, control=entries)


def _chain3(family=None):
    """A 3-component chain 1 -> 2 -> 3 controlled on component 3 only."""
    sys = make_wave_cascade(n=40, K=6)
    O23 = cl.region_from_bounds([[0.4, 0.6]], 2.0, "O23")
    return dataclasses.replace(sys, family=family or sys.family, N=3,
                               coupling=sys.coupling + (((2, 3), O23),),
                               control=((3, sys.control[0][1]),))


def _controlled_on_first(family=None):
    """A 2-component cascade controlled on component 1 only: the seeds of
    component 2 are never observed, so their rows of G are zero."""
    sys = make_wave_cascade(n=40, K=6)
    return dataclasses.replace(sys, family=family or sys.family, control=((1, sys.control[0][1]),))


def _mixed_controls():
    """A 3-component chain with a distributed control on component 2 and an
    end control on component 3, so every sample has two parts."""
    sys = _chain3()
    return dataclasses.replace(sys, control=((2, sys.control[0][1]),
                                             (3, cl.BoundaryEnd("left", 1.0))))


def _end_controlled_cascade():
    """The 2-component heat cascade at theta = 0.6 under an end control of
    gain 2.5 on component 2, whose reused rows are the free trajectories'."""
    sys = make_heat_cascade(n=40, K=6, theta=0.6)
    return dataclasses.replace(sys, control=((2, cl.BoundaryEnd("right", 2.5)),))


# the full-identity reference can leave -0.0 where the reused rows of the
# last component hold +0.0, so these cases compare values only
_VALUES_ONLY = {"chain3 controlled on 3", "chain3 cn theta 0.6", "controlled on 1 of 2"}


@pytest.mark.parametrize("name,make,T,dt,K", [
    ("1d distributed", lambda: make_wave_cascade(n=40, K=6), 3.0, None, 5),
    ("1d end", _end_control_wave, 15.0, None, 6),
    ("cn theta 0.6", lambda: make_heat_cascade(n=40, K=6, theta=0.6), 0.2, 0.002, 5),
    ("2d", lambda: _square_system(cl.Hyperbolic()), 6.0, None, 4),
    ("chain3 controlled on 3", _chain3, 3.0, None, 5),
    ("chain3 cn theta 0.6", lambda: _chain3(cl.Dissipative(0.6)), 0.2, 0.002, 5),
    ("controlled on 1 of 2", _controlled_on_first, 3.0, None, 5),
    ("mixed distributed and end", _mixed_controls, 3.0, None, 5),
    ("cn end gain 2.5", _end_controlled_cascade, 0.2, 0.0005, 5),
])
def test_dense_gramian_matches_concatenated_assembly_bitwise(name, make, T, dt, K):
    from cascade_lab.hum import assemble_dense_gramian

    # an amplitude other than 1 makes the order of the two scalings show
    gram, seeds = _gramian(_control_amplitude(make(), 1.7), T, K=K, dt=dt)
    expected, flushes = _concatenated_gramian(gram)
    # a full block and a partial last one
    assert len(flushes) >= 2 and flushes[-1] < flushes[0], name
    mat = assemble_dense_gramian(gram)
    assert np.array_equal(mat, expected), name
    if name not in _VALUES_ONLY:
        assert mat.tobytes() == expected.tobytes(), name
    if make is _controlled_on_first:
        per = seeds.dim // 2
        assert not mat[per:].any() and not mat[:, per:].any() and mat[:per, :per].any()


def test_dense_gramian_marches_the_seeds_of_all_components_but_the_last(monkeypatch):
    from cascade_lab.hum import assemble_dense_gramian

    batches = []
    march = GramianOperator.march_adjoint
    monkeypatch.setattr(GramianOperator, "march_adjoint",
                        lambda self, x, visit: batches.append(x.shape) or march(self, x, visit))
    single = dataclasses.replace(make_single_free(n=30, K=4),
                                 control=((1, cl.region_from_bounds([[0.3, 0.6]], 1.0)),))
    for sys in (make_wave_cascade(n=30, K=4), _chain3(), single):
        gram, seeds = _gramian(sys, 1.0, K=3)
        batches.clear()
        assemble_dense_gramian(gram)
        marched = seeds.dim - seeds.dim // sys.N if sys.N > 1 else seeds.dim
        assert batches == [(marched, seeds.dim)], sys.N


@pytest.mark.parametrize("name,make,dt", [
    ("leapfrog", lambda: make_wave_cascade(n=30, K=6), None),
    ("cn real", lambda: make_heat_cascade(n=30, K=6), 0.002),
    ("cn complex", lambda: make_heat_cascade(n=30, K=6, theta=0.6), 0.002),
    ("cn complex mid-block", lambda: make_heat_cascade(n=40, K=6, theta=0.6), 0.002),
])
def test_each_horizon_equals_its_own_assembly_bitwise(name, make, dt):
    """G(T_j) read off one march to the longest horizon is bitwise the
    Gramian of a march to T_j, and so is the free equation's Gramian reduced
    from the same march; the horizons straddle full and partial blocks."""
    from cascade_lab.analysis import _single_equation_variant
    from cascade_lab.hum import _GRAMIAN_BLOCK_COLUMNS, assemble_dense_gramian

    sys = _control_amplitude(make(), 1.7)
    variant = _single_equation_variant(sys, sys.coupling[0][1])
    T = 3.0 if sys.is_hyperbolic else 0.4
    dt = dt if dt is not None else chained_dt(sys, T)
    M = step_count(T, dt)
    steps = [M, 2, M // 3, M // 2 + 1, M // 3]
    if name.endswith("mid-block"):
        # Crank-Nicolson weighs one sample per step, of 2 * support columns:
        # this horizon ends half a block after the first flush
        per_block = -(-_GRAMIAN_BLOCK_COLUMNS // (2 * sys.controls[2].size))
        steps = [per_block + per_block // 2, M]
        assert per_block < steps[0] < min(2 * per_block, M)
    K = 5
    long = [GramianOperator(SeedSpace(s, K), T, dt) for s in (sys, variant)]
    together = assemble_dense_gramian(long[0], steps, free=long[1])
    assert len(together) == len(steps)
    for m, mats in zip(steps, together):
        for s, mat in zip((sys, variant), mats):
            alone = assemble_dense_gramian(GramianOperator(SeedSpace(s, K), m * dt, dt))
            assert mat.tobytes() == alone.tobytes(), (name, m, s.N)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("N", [1, 2, 3])
@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(data=st.data())
def test_dense_gramian_property(dim, N, data):
    """The dense Gramian is symmetric PSD and matches the apply column probes."""
    from cascade_lab.hum import assemble_dense_gramian

    sys, T, dt, _ = data.draw(cascade_cases(dim, N))
    gram, seeds = _gramian(sys, T, K=data.draw(st.integers(1, sys.basis.K)), dt=dt)
    mat = assemble_dense_gramian(gram)
    assert np.array_equal(mat, mat.T)
    lam = np.linalg.eigvalsh(mat)
    assert lam[0] >= -1e-12 * lam[-1]
    probes = _probe_matrix(gram)
    assert np.linalg.norm(mat - probes) <= 1e-12 * np.linalg.norm(probes)


@pytest.mark.parametrize("maker,kwargs", [
    (make_wave_cascade, dict(n=30, K=5)),
    (make_heat_cascade, dict(n=30, K=5)),
    (make_heat_cascade, dict(n=30, K=5, theta=0.7)),
], ids=["wave", "real heat", "complex heat"])
def test_readout_energy_is_the_energy_of_the_projected_fields(maker, kwargs):
    """The coordinates are orthonormal for the natural filtered energy: 0.5 |x|^2
    of a readout is the lambda-weighted energy of the projected position and
    velocity (second order), or 0.5 sum |c|^2 of the projected field."""
    sys = maker(**kwargs)
    seeds = SeedSpace(sys, 4)
    rng = np.random.default_rng(8)
    modes, hvol, dt = sys.basis.modes[:4], sys.grid.hvol, 0.01

    def field():
        y = rng.standard_normal((sys.N, sys.grid.n_total))
        return y + 1j * rng.standard_normal(y.shape) if sys.state_dtype == np.complex128 else y

    def coef(y):
        return (y @ modes.T) * hvol

    if sys.is_hyperbolic:
        levels = (field(), field())
        lam = sys.basis.eigenvalues[:4]
        pos, vel = coef(levels[1]), coef(levels[1] - levels[0]) / dt
        expected = 0.5 * np.sum(lam * pos ** 2 + vel ** 2, axis=1)
    else:
        levels = field()
        expected = 0.5 * np.sum(np.abs(coef(levels)) ** 2, axis=1)
    x = seeds.readout(levels, dt)
    assert x.shape == (seeds.dim,)
    per, total = seeds.energy_of(x)
    assert np.allclose(per, expected, rtol=1e-13, atol=0.0)
    assert abs(total - expected.sum()) <= 1e-13 * expected.sum()


def test_energy_of_refuses_a_batched_readout():
    for sys in (make_wave_cascade(n=30, K=5), make_heat_cascade(n=30, K=5, theta=0.7)):
        seeds = SeedSpace(sys, 4)
        X = np.random.default_rng(9).standard_normal(seeds.dim)
        per, total = seeds.energy_of(X)
        assert len(per) == sys.N and total > 0.0
        for bad in (np.stack([X, X]), X[None], X[:3]):
            with pytest.raises(ValueError, match="seed of shape"):
                seeds.energy_of(bad)


@pytest.mark.parametrize("maker,kwargs", [
    (make_wave_cascade, dict(n=30, K=5)),
    (make_heat_cascade, dict(n=30, K=5, theta=0.7)),
], ids=["wave", "complex heat"])
def test_misshaped_seed_coordinates_are_refused(maker, kwargs):
    """Seeds are flat coordinate vectors: a wrong length or the (N, K, 2)
    array of a structured seed raises a ValueError naming dim."""
    sys = maker(**kwargs)
    gram, seeds = _gramian(sys, 0.2, K=4, dt=0.002)
    for bad in (np.zeros(seeds.dim + 1), np.zeros((3, seeds.dim - 1)),
                np.zeros((sys.N, 4, 2))):
        for call in (gram.observations_of, gram.apply):
            with pytest.raises(ValueError, match=f"the last axis must be dim = {seeds.dim}"):
                call(bad)


@pytest.mark.parametrize("family", [cl.Hyperbolic(), cl.Dissipative(0.6)],
                         ids=["leapfrog", "crank-nicolson"])
def test_mixed_control_kinds_are_exact(family):
    """A distributed and an end control in one system share one quadrature
    rule and one ``extract``: the dense Gramian is the matrix of ``apply``
    and the synthesized control's norm is its quadratic form."""
    from cascade_lab.hum import assemble_dense_gramian

    grid = cl.build_grid([1.0], [40])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 6)
    O = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    omega = cl.region_from_bounds([[0.6, 0.8]], 1.0)
    coup = (((1, 2), O), ((2, 3), O))
    ctl = ((2, omega), (3, cl.BoundaryEnd("right", 1.0)))
    sys = cl.CascadeSystem(family, op, basis, 3, coup, ctl)
    T = 3.0
    dt = chained_dt(sys, T) if sys.is_hyperbolic else T / 100
    gram, _ = _gramian(sys, T, K=6, dt=dt)
    mat = assemble_dense_gramian(gram)
    assert np.array_equal(mat, mat.T)
    cols = np.array([gram.apply(e) for e in np.eye(gram.seeds.dim)]).T
    assert np.linalg.norm(cols - cols.T) <= 1e-12 * np.linalg.norm(cols)
    assert np.linalg.norm(mat - cols) <= 1e-12 * np.linalg.norm(cols)

    Y0 = cl.zero_state(sys)
    for i in range(3):
        Y0.w[i] = basis.modes[i]
    res = cl.synthesize_control(sys, Y0, T, dt, 6, eps=0.0 if sys.is_hyperbolic else 1e-6,
                                cg_tol=1e-10)
    assert res.success
    assert abs(res.control_norm_sq - res.gram_quadratic) <= 1e-10 * res.gram_quadratic


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_wave_interior_region():
    # single wave equation, omega = (0.4, 0.6), T = 3 > 0.8 sweep bound
    grid = cl.build_grid([1.0], [100])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 12)
    omega = cl.region_from_bounds([[0.4, 0.6]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1, control=((1, omega),))
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
    # exactness invariant: filtered terminal level after an accurate direct solve
    assert res.terminal_energy_filtered <= max(1e2 * 1e-10**2, 1e-10) * res.initial_energy


def test_synthesize_boundary_control_wave():
    grid = cl.build_grid([1.0], [80])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 10)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1,
                           control=((1, cl.BoundaryEnd("right", 1.0)),))
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    dt = chained_dt(sys, 3.0)
    res = cl.synthesize_control(sys, Y0, 3.0, dt, 10, eps=0.0, cg_tol=1e-10, max_iter=300)
    assert res.success
    assert abs(res.control_norm_sq - res.gram_quadratic) <= 1e-6 * res.gram_quadratic
    assert res.terminal_energy_filtered <= 1e-8 * res.initial_energy


def test_zero_coupling_stagnates_and_component1_keeps_energy():
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
    weights = sample_weights(sys, step_count(1.0, dt), dt)
    assert quadrature(sys, res.control.values, res.control.values, weights) == 0.0


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


@pytest.mark.parametrize("name", ["demo_wave_cascade.json", "demo_heat_cascade.json"])
def test_synthesis_is_a_batch_of_one_bitwise(name):
    exp = build_experiment(demo_configs()[name])
    args = (exp.sys, exp.Y0, exp.T, exp.dt, exp.K_filter)
    eps = exp.eps if exp.sys.is_hyperbolic else exp.eps_list[-1]
    max_iter = DEFAULT_REFINEMENT_PASSES if exp.max_iter is None else exp.max_iter
    res = cl.synthesize_control(*args, eps=eps, cg_tol=exp.cg_tol, max_iter=max_iter)
    synthesis = _Synthesis(*args)
    (direct,) = synthesis.run([eps], exp.cg_tol, max_iter)
    # the unbatched marches of the solved seed
    x = synthesis.spectrum.solve(synthesis.b, eps, exp.cg_tol, max_iter).x
    signal = synthesis.gram.observations_of(x)
    _, terminal = synthesis.gram.forward_with_control(signal, initial=synthesis.Y0f)
    assert res.control.batch == direct.control.batch == signal.batch == ()
    for k, values in signal.values.items():
        assert np.array_equal(res.control.values[k], direct.control.values[k])
        assert np.array_equal(res.control.values[k], values)
    assert np.array_equal(res.terminal_state.w, terminal.w)
    assert res.terminal_state_norm == direct.terminal_state_norm == cl.state_l2_norm(exp.sys, terminal)


def test_2d_dissipative_synthesis_and_pairing():
    # exercises the 2D sine-transform Crank-Nicolson solve inside the Gramian
    grid = cl.build_grid([1.0, 1.0], [12, 12])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 8)
    O = cl.region_from_bounds([[[0.1, 0.45], [0.1, 0.45]]], 4.0, "O")
    omega = cl.region_from_bounds([[[0.55, 0.9], [0.55, 0.9]]], 1.0, "omega")
    coup = (((1, 2), O),)
    ctl = ((2, omega),)
    sys = cl.CascadeSystem(cl.Dissipative(0.0), op, basis, 2, coup, ctl)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    Y0.w[1] = basis.modes[0]
    res = cl.synthesize_control(sys, Y0, 0.3, 0.003, 8, eps=1e-5, cg_tol=1e-9)
    assert res.success
    assert abs(res.control_norm_sq - res.gram_quadratic) <= 1e-6 * res.gram_quadratic
    assert res.terminal_state_norm < res.free_terminal_norm

    phase = cl.CascadeSystem(cl.Dissipative(math.pi / 3), op, basis, 2, coup, ctl)
    seeds = SeedSpace(phase, 6)
    gram = GramianOperator(seeds, 0.2, 0.002)
    rng = np.random.default_rng(4)
    X, Y = rng.standard_normal(seeds.dim), rng.standard_normal(seeds.dim)
    gxy = gram.apply(X) @ Y
    quad = _observation_quadrature(gram, X, Y)
    assert abs(gxy - quad) <= 1e-8 * max(abs(gxy), abs(quad))


def test_sweep_refining_cg_tol_changes_little():
    sys = make_heat_cascade(n=50, K=8, c=16.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = sys.basis.modes[0]
    r1 = cl.synthesize_control(sys, Y0, 0.3, 0.002, 8, eps=1e-4, cg_tol=1e-8)
    r2 = cl.synthesize_control(sys, Y0, 0.3, 0.002, 8, eps=1e-4, cg_tol=1e-9)
    assert abs(r1.terminal_state_norm - r2.terminal_state_norm) <= 0.05 * r2.terminal_state_norm
