import dataclasses
import math

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.analysis import (
    DENSE_SEED_LIMIT,
    admissibility_ratio,
    kalman_mode_test,
    observability_constants,
)

from conftest import make_heat_cascade, make_single_free, make_wave_cascade


def _full_observation_system(n=50, K=6):
    one = make_single_free(n=n, K=K)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0, "full")
    return cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, control=((1, omega),))


# ---------------------------------------------------------------------------
# observability constants
# ---------------------------------------------------------------------------


def test_constant_close_to_half_period_average():
    sys = _full_observation_system()
    (rep,) = observability_constants(sys, [2.0], 0.0125, 3)
    assert abs(rep["c1_est"] - 1.0) <= 0.1
    assert rep["eigenvalues"] == sorted(rep["eigenvalues"])
    assert rep["c1_est"] >= -1e-12


def test_constant_nondecreasing_when_T_doubles():
    sys = _full_observation_system()
    r1, r2 = observability_constants(sys, [1.0, 2.0], 0.0125, 3)
    assert r2["c1_est"] >= r1["c1_est"] - 1e-12


def test_control_and_coupling_functionals_coincide_on_same_region():
    # b = 1 on omega = O observing the velocity: identical functionals
    grid = cl.build_grid([1.0], [50])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 6)
    O = cl.region_from_bounds([[0.3, 0.7]], 1.0, "O")
    sys_ctl = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 1, control=((1, O),))
    # coupling pathway: single-equation variant built from a 2-component system
    omega = cl.region_from_bounds([[0.6, 0.9]], 1.0)
    sys2 = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 2, (((1, 2), O),), ((2, omega),))
    (r1,) = observability_constants(sys_ctl, [1.5], 0.0125, 4)
    (r2,) = observability_constants(sys2, [1.5], 0.0125, 4)
    assert abs(r1["c1_est"] - r2["c2_est"]) <= 1e-10 * max(abs(r1["c1_est"]), 1.0)


def test_dense_limit_enforced():
    # seed dimension 2 * N * K = 404, above DENSE_SEED_LIMIT; refused before any march
    sys = make_wave_cascade(n=120, K=101)
    assert 2 * sys.N * 101 > DENSE_SEED_LIMIT
    with pytest.raises(cl.ConfigError, match="analysis.K 101: seed dimension 404 exceeds the "
                                             "dense limit 400") as info:
        observability_constants(sys, [1.0], 0.01, 101)
    assert isinstance(info.value, ValueError)


@pytest.mark.parametrize("theta,K,refused", [(0.7, 101, True), (0.0, 200, False)],
                         ids=["complex 2NK=404", "real NK=400"])
def test_dense_limit_counts_real_coordinates(theta, K, refused):
    """The limit bounds the order of the Gramian, the number of real seed
    coordinates: 2 N K for a complex first-order family, N K for a real one."""
    sys = make_heat_cascade(n=K, K=K, theta=theta)
    if refused:
        with pytest.raises(cl.ConfigError, match=f"analysis.K {K}: seed dimension 404 exceeds "
                                                  "the dense limit 400"):
            observability_constants(sys, [0.002], 0.001, K)
    else:
        (entry,) = observability_constants(sys, [0.002], 0.001, K)
        assert len(entry["eigenvalues"]) == DENSE_SEED_LIMIT


@pytest.mark.parametrize("make", [make_wave_cascade, make_heat_cascade], ids=["wave", "heat"])
def test_horizons_of_one_call_equal_separate_calls(make):
    sys = make(n=30, K=4)
    dt = 0.025
    together = observability_constants(sys, [0.5, 1.0, 1.5], dt, 3)
    apart = [observability_constants(sys, [T], dt, 3)[0] for T in (0.5, 1.0, 1.5)]
    assert together == apart
    assert all(set(entry) >= {"c1_est", "c2_est", "coupling_eigenvalues"} for entry in together)


@pytest.mark.parametrize("make", [make_wave_cascade, make_heat_cascade], ids=["wave", "heat"])
def test_one_adjoint_march_serves_every_horizon_and_both_functionals(make, monkeypatch):
    """With a control and a coupling, a 3-horizon call marches the adjoint
    once (the parent made one march per functional and horizon, six), with
    the seeds of component 1 only; without a control the coupling functional
    marches alone, once."""
    from cascade_lab.hum import GramianOperator

    batches = []
    march = GramianOperator.march_adjoint
    monkeypatch.setattr(GramianOperator, "march_adjoint",
                        lambda self, x, visit: batches.append((self.M, x.shape)) or
                        march(self, x, visit))
    sys = make(n=30, K=4)
    dt = 0.025
    entries = observability_constants(sys, [1.0, 0.5, 1.5], dt, 3)
    slots = 2 if sys.is_hyperbolic else 1
    assert batches == [(60, (3 * slots, 2 * 3 * slots))]
    assert [entry["T"] for entry in entries] == [1.0, 0.5, 1.5]
    batches.clear()
    observability_constants(dataclasses.replace(sys, control=()), [1.0, 0.5, 1.5], dt, 3)
    assert batches == [(60, (3 * slots, 3 * slots))]


def test_each_constant_is_the_lambda_min_of_its_gramian_summary():
    from cascade_lab.hum import GramianOperator, GramianSpectrum, SeedSpace

    sys = make_wave_cascade(n=30, K=4)
    T, dt = 1.5, 0.025
    (entry,) = observability_constants(sys, [T], dt, 3)
    spectrum = GramianSpectrum(cl.assemble_dense_gramian(GramianOperator(SeedSpace(sys, 3), T, dt)))
    assert entry["gramian"] == spectrum.summary()
    assert entry["eigenvalues"] == spectrum.eigenvalues.tolist()
    assert entry["c1_est"] == entry["gramian"]["lambda_min"] == entry["eigenvalues"][0]
    coupling = entry["coupling_gramian"]
    assert entry["c2_est"] == coupling["lambda_min"] == entry["coupling_eigenvalues"][0]
    assert coupling["dim"] == len(entry["coupling_eigenvalues"]) == 2 * 3
    assert not {"observation", "assembly"} & set(entry)


def test_coupling_without_control_reports_only_c2():
    full = make_wave_cascade(n=30, K=4)
    sys = cl.CascadeSystem(full.family, full.op, full.basis, 2, full.coupling)
    (entry,) = observability_constants(sys, [1.5], 0.025, 3)
    assert entry["c1_est"] is None and entry["eigenvalues"] == []
    assert "gramian" not in entry and entry["c2_est"] == entry["coupling_gramian"]["lambda_min"]
    assert entry["c2_est"] > 0
    assert entry["c2_est"] == entry["coupling_eigenvalues"][0]


def test_no_coupling_and_no_control_is_not_applicable():
    with pytest.raises(cl.NotApplicableError, match="carries no control"):
        observability_constants(make_single_free(n=30, K=4), [1.0], 0.025, 3)


def test_rayleigh_lower_bound_of_reported_constant():
    sys = _full_observation_system()
    from cascade_lab.hum import GramianOperator, SeedSpace

    T, dt = 1.5, 0.0125
    (rep,) = observability_constants(sys, [T], dt, 3)
    seeds = SeedSpace(sys, 3)
    gram = GramianOperator(seeds, T, dt)
    rng = np.random.default_rng(6)
    for _ in range(10):
        X = rng.standard_normal(seeds.dim)
        ray = (gram.apply(X) @ X) / (X @ X)
        assert ray >= rep["c1_est"] - 1e-10


# ---------------------------------------------------------------------------
# Kalman rank tests
# ---------------------------------------------------------------------------


def _const_cascade(N, pairs_amp, n=30, K=5):
    """N-component system with constant full-domain couplings and a full-domain
    control on component N."""
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    full = lambda a: cl.region_from_bounds([[0.0, 1.0]], a)
    coupling = tuple((pair, full(a)) for pair, a in sorted(pairs_amp.items()))
    return cl.CascadeSystem(cl.Hyperbolic(), op, cl.spectral_basis(op, K), N, coupling,
                            ((N, full(1.0)),))


def test_kalman_two_by_two_full_rank():
    rep = kalman_mode_test(_const_cascade(2, {(1, 2): 2.5}), 5)
    assert rep.full_rank
    # oracle: det [B, A_mu B] = -c for every mu
    for mode in rep.modes:
        mu = mode["eigenvalue"]
        mat = np.array([[0.0, 2.5], [1.0, mu]])
        assert abs(np.linalg.det(mat)) == pytest.approx(2.5)


def test_kalman_zero_coupling_rank_deficient():
    sys = _const_cascade(2, {(1, 2): 0.0})
    rep = kalman_mode_test(sys, 5)
    assert not rep.full_rank
    assert all(m["rank"] == 1 for m in rep.modes)


def test_kalman_three_chain_condition():
    good = kalman_mode_test(_const_cascade(3, {(1, 2): 1.0, (2, 3): 2.0}, K=4), 4)
    assert good.full_rank
    sys = _const_cascade(3, {(1, 2): 1.0, (2, 3): 0.0}, K=4)
    bad = kalman_mode_test(sys, 4)
    assert not bad.full_rank


def test_kalman_localized_coupling_not_applicable():
    sys = _const_cascade(2, {(1, 2): 1.0}, K=4)
    local = dataclasses.replace(
        sys, coupling=(((1, 2), cl.region_from_bounds([[0.2, 0.4]], 1.0)),))
    with pytest.raises(cl.NotApplicableError):
        kalman_mode_test(local, 4)


def test_kalman_agrees_with_cg_stagnation():
    # rank deficiency at c = 0 must match the singular Gramian the synthesis
    # reports as stagnation
    sys = _const_cascade(2, {(1, 2): 0.0}, n=40, K=6)
    rep = kalman_mode_test(sys, 6)
    basis = sys.basis
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    dt = 2.0 / int(math.ceil(2.0 / cl.cfl_time_step(sys)))
    res = cl.synthesize_control(sys, Y0, 2.0, dt, 6, eps=0.0, cg_tol=1e-10, max_iter=120)
    assert (not rep.full_rank) and res.stagnated


# ---------------------------------------------------------------------------
# admissibility ratios
# ---------------------------------------------------------------------------


def test_admissibility_distributed_bounded_by_one():
    sys = _full_observation_system()
    rep = admissibility_ratio(sys, 5, 1.0, 0.0125, [50], seed=3)
    assert all(r <= 1.0 + 1e-10 for r in rep.max_ratios)
    assert rep.skipped == 0


def test_admissibility_boundary_stable_across_refinements():
    grid = cl.build_grid([1.0], [50])
    basis = cl.spectral_basis(cl.EllipticOperator(grid), 6)
    sys = cl.CascadeSystem(cl.Hyperbolic(), cl.EllipticOperator(grid), basis, 1,
                           control=((1, cl.BoundaryEnd("right", 1.0)),))
    rep = admissibility_ratio(sys, 5, 1.0, 0.0125, [50, 100, 200], seed=3)
    lo, hi = min(rep.max_ratios), max(rep.max_ratios)
    assert (hi - lo) / hi < 0.5


def test_admissibility_requires_samples():
    sys = _full_observation_system()
    with pytest.raises(ValueError):
        admissibility_ratio(sys, 0, 1.0, 0.0125, [50])
