"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the [PASS]/[FAIL]
lines; plain ``pytest -v`` shows the same verdicts as test outcomes. Every
tolerance is pinned here, not configured elsewhere.
"""

import json
import math
import os
import time

import numpy as np
import pytest

import cascade_lab as cl
from cascade_lab.analysis import admissibility_ratio, kalman_mode_test, observability_constants
from cascade_lab.cli import demo_configs, main
from cascade_lab.dynamics import step_count
from cascade_lab.hum import GramianOperator, SeedSpace

from conftest import chained_dt, lattice_worst_entry_1d, make_single_free, make_wave_cascade


def _verdict(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. discrete duality, both families
# ---------------------------------------------------------------------------


def test_criterion_1_discrete_duality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    n, T, dt = 50, 1.0, 0.005
    grid = cl.build_grid([1.0], [n])
    op = cl.EllipticOperator(grid)
    basis = cl.spectral_basis(op, 8)
    O = cl.region_from_bounds([[0.2, 0.4]], 1.0)
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0)
    coupling = (((1, 2), O),)
    control = ((2, omega),)
    M = step_count(T, dt)
    worst = 0.0
    for family in (cl.Hyperbolic(), cl.Dissipative(0.0)):
        sys = cl.CascadeSystem(family, op, basis, 2, coupling, control)
        for _ in range(10):
            shape = (M + 1, 2, n) if sys.is_hyperbolic else (M, 2, n)
            f = rng.standard_normal(shape)
            if sys.is_hyperbolic:
                seed = cl.SystemState(T, rng.standard_normal((2, n)), rng.standard_normal((2, n)))
            else:
                seed = cl.SystemState(T, rng.standard_normal((2, n)))
            lhs = cl.forward_duality_pairing(sys, f, seed, T, dt)
            rhs = cl.adjoint_duality_quadrature(cl.adjoint_system(sys), f, seed, T, dt)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), abs(rhs)))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 1 (discrete duality)",
             worst <= 1e-10 and elapsed < 10.0,
             f"worst relative gap {worst:.3e} over 20 pairs, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Gramian symmetry / positive semidefiniteness
# ---------------------------------------------------------------------------


def test_criterion_2_gramian_symmetry_psd():
    t0 = time.perf_counter()
    sys = make_wave_cascade(n=60, K=10)
    T = 2.0
    dt = chained_dt(sys, T)
    seeds = SeedSpace(sys, 10)
    gram = GramianOperator(seeds, T, dt)
    rng = np.random.default_rng(202)
    worst_sym = 0.0
    min_ray = math.inf
    for _ in range(20):
        X, Y = rng.standard_normal(seeds.dim), rng.standard_normal(seeds.dim)
        GX, GY = gram.apply(X), gram.apply(Y)
        a = GX @ Y
        b = GY @ X
        worst_sym = max(worst_sym, abs(a - b) / max(abs(a), abs(b)))
        min_ray = min(min_ray, (GX @ X) / (X @ X))
    elapsed = time.perf_counter() - t0
    _verdict("criterion 2 (Gramian symmetry/PSD)",
             worst_sym <= 1e-8 and min_ray >= -1e-12 and elapsed < 60.0,
             f"asymmetry {worst_sym:.3e}, min Rayleigh {min_ray:.3e}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. heat cascade with disjoint regions: penalized sweep
# ---------------------------------------------------------------------------


def test_criterion_3_heat_sweep_disjoint_regions():
    t0 = time.perf_counter()
    cfg = demo_configs()["demo_heat_cascade.json"]
    grid = cl.build_grid(cfg["domain"]["extents"], cfg["domain"]["n"])
    op = cl.EllipticOperator(grid)
    K = cfg["hum"]["K_filter"]
    basis = cl.spectral_basis(op, K)
    O = cl.region_from_bounds([[0.2, 0.4]], cfg["coupling"][0]["amplitude"], "O")
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0, "omega")
    sys = cl.CascadeSystem(cl.Dissipative(0.0), op, basis, 2, (((1, 2), O),), ((2, omega),))
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    Y0.w[1] = basis.modes[0]
    sweep = cl.epsilon_sweep(sys, Y0, cfg["time"]["T"], cfg["time"]["dt"], K,
                             cfg["hum"]["eps_list"], cg_tol=cfg["hum"]["cg_tol"])
    ratio = sweep.terminal_norms[-1] / sweep.free_terminal_norm
    elapsed = time.perf_counter() - t0
    _verdict("criterion 3 (heat sweep, disjoint regions)",
             0.35 <= sweep.slope <= 0.65 and ratio <= 1e-2 and elapsed < 300.0,
             f"slope {sweep.slope:.3f}, |Y(T)|/free {ratio:.3e} at eps=1e-6, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. wave cascade exact filtered control + replay
# ---------------------------------------------------------------------------


def test_criterion_4_wave_cascade_exact_control(tmp_path):
    t0 = time.perf_counter()
    cfg = json.loads(json.dumps(demo_configs()["demo_wave_cascade.json"]))
    cfg["output_dir"] = str(tmp_path / "wave_run")
    path = tmp_path / "wave.json"
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    code = main(["control", "--config", str(path)])
    with open(os.path.join(cfg["output_dir"], "report.json")) as fh:
        report = json.load(fh)
    hum = report["hum"]
    ratio = hum["terminal_energy_filtered"] / hum["initial_energy"]
    replay_code = main(["replay", cfg["output_dir"]])
    elapsed = time.perf_counter() - t0
    _verdict("criterion 4 (wave cascade exact filtered control)",
             code == 0 and ratio <= 1e-8 and replay_code == 0 and elapsed < 300.0,
             f"filtered/initial {ratio:.3e} (T=6, K=30, n=200, cg_tol 1e-10), "
             f"replay {'pass' if replay_code == 0 else 'fail'}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. three-component chain driven by one control
# ---------------------------------------------------------------------------


def test_criterion_5_three_chain_single_control():
    t0 = time.perf_counter()
    cfg = demo_configs()["chain3_single_control.json"]
    grid = cl.build_grid(cfg["domain"]["extents"], cfg["domain"]["n"])
    op = cl.EllipticOperator(grid)
    K = cfg["hum"]["K_filter"]
    basis = cl.spectral_basis(op, K)
    regions = {tuple(e["pair"]): cl.region_from_bounds(e["boxes"], e["amplitude"])
               for e in cfg["coupling"]}
    omega = cl.region_from_bounds(cfg["control"][0]["boxes"], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), op, basis, 3, tuple(sorted(regions.items())),
                           ((3, omega),))
    Y0 = cl.zero_state(sys)
    Y0.w[0] = basis.modes[0]
    Y0.w[1] = 0.3 * basis.modes[1]
    Y0.w[2] = 0.3 * basis.modes[2]
    T = cfg["time"]["T"]
    dt = chained_dt(sys, T)
    res = cl.synthesize_control(sys, Y0, T, dt, K, eps=0.0,
                                cg_tol=cfg["hum"]["cg_tol"], max_iter=cfg["hum"]["max_iter"])
    ratio = res.terminal_energy_filtered / res.initial_energy
    elapsed = time.perf_counter() - t0
    _verdict("criterion 5 (three-chain, one control, T=12)",
             res.success and ratio <= 1e-6 and elapsed < 600.0,
             f"filtered/initial {ratio:.3e}, {res.refinement_passes} refinement passes, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. negative controls agree: stagnation and rank deficiency
# ---------------------------------------------------------------------------


def test_criterion_6_negative_controls_agree():
    t0 = time.perf_counter()
    sys = make_wave_cascade(n=60, K=10, c=0.0)
    Y0 = cl.zero_state(sys)
    Y0.w[0] = sys.basis.modes[0]
    Y0.w[1] = 0.5 * sys.basis.modes[0]
    T = 4.0
    dt = chained_dt(sys, T)
    res = cl.synthesize_control(sys, Y0, T, dt, 10, eps=0.0, cg_tol=1e-10, max_iter=200)
    _, free = cl.solve(sys, Y0, None, T, dt)
    e_free = cl.energy(sys, free).per_component[0]
    comp1_ok = res.terminal_energy_full_per_component[0] >= 0.9 * e_free

    grid = sys.grid
    basis = sys.basis
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    full = lambda a: cl.region_from_bounds([[0.0, 1.0]], a)
    zero_full = cl.CascadeSystem(sys.family, sys.op, basis, 2, (((1, 2), full(0.0)),),
                                 ((2, omega),))
    chain = cl.CascadeSystem(sys.family, sys.op, basis, 3,
                             (((1, 2), full(1.0)), ((2, 3), full(0.0))), ((3, omega),))
    k2 = kalman_mode_test(zero_full, 6)
    k3 = kalman_mode_test(chain, 6)
    agreement = res.stagnated and (not k2.full_rank) and (not k3.full_rank)
    elapsed = time.perf_counter() - t0
    _verdict("criterion 6 (negative controls)",
             res.stagnated and comp1_ok and agreement and elapsed < 120.0,
             f"stagnated={res.stagnated}, comp-1 energy ratio "
             f"{res.terminal_energy_full_per_component[0] / e_free:.3f}, "
             f"rank tests deficient={not k2.full_rank and not k3.full_rank}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. integrator orders and unitary phase step
# ---------------------------------------------------------------------------


def test_criterion_7_integrator_orders():
    wave = make_single_free(n=60, K=6)
    lam = wave.basis.eigenvalues[1]

    def wave_err(dt):
        st = cl.zero_state(wave)
        st.w[0] = wave.basis.modes[1]
        _, term = cl.solve(wave, st, None, 1.0, dt)
        exact = math.cos(math.sqrt(lam)) * wave.basis.modes[1]
        return float(np.linalg.norm(term.w[0] - exact))

    wave_ratio = wave_err(0.005) / wave_err(0.0025)

    heat = make_single_free(n=60, K=6, family=cl.Dissipative(0.0))

    def heat_err(dt):
        st = cl.zero_state(heat)
        st.w[0] = heat.basis.modes[1]
        _, term = cl.solve(heat, st, None, 0.5, dt)
        exact = math.exp(-lam * 0.5) * heat.basis.modes[1]
        return float(np.linalg.norm(term.w[0] - exact))

    heat_ratio = heat_err(0.01) / heat_err(0.005)

    schr = make_single_free(n=40, K=5, family=cl.Dissipative(math.pi / 2))
    st = cl.zero_state(schr)
    st.w[0] = schr.basis.modes[0].astype(complex)
    _, term = cl.solve(schr, st, None, 10.0, 0.001)
    drift = abs(math.sqrt(float(np.sum(np.abs(term.w[0]) ** 2)) * schr.grid.hvol)
                / math.sqrt(float(np.sum(np.abs(st.w[0]) ** 2)) * schr.grid.hvol) - 1.0)

    ok = 3.2 <= wave_ratio <= 4.8 and 3.2 <= heat_ratio <= 4.8 and drift <= 1e-12
    _verdict("criterion 7 (integrator orders)",
             ok,
             f"wave ratio {wave_ratio:.2f}, heat ratio {heat_ratio:.2f}, "
             f"phase-step norm drift {drift:.2e} over 1e4 steps")


# ---------------------------------------------------------------------------
# 8. GCC checker scenarios
# ---------------------------------------------------------------------------


def test_criterion_8_gcc_checker():
    t0 = time.perf_counter()
    interval = cl.region_from_bounds([[0.4, 0.6]], 1.0, "omega")
    rep1 = cl.gcc_check(interval, (1.0,), 1.0, 402)
    worst = rep1.max_hit_time_among_hitters
    worst_ok = (abs(worst - lattice_worst_entry_1d(0.4, 0.6, 402)) <= 1e-12
                and abs(worst - 0.8) <= 1e-12
                and worst <= cl.interval_entry_time(interval, 1.0) + 1e-12)

    strip = cl.region_from_bounds([[[0.4, 0.6], [0.0, 1.0]]], 1.0, "strip")
    rep2 = cl.gcc_check(strip, (1.0, 1.0), 10.0, 648)

    bands = cl.region_from_bounds([[[0.0, 0.2], [0.0, 1.0]], [[0.0, 1.0], [0.0, 0.2]]], 1.0, "bands")
    rep3 = cl.gcc_check(bands, (1.0, 1.0), 4.0, 648)
    elapsed = time.perf_counter() - t0
    _verdict("criterion 8 (GCC checker)",
             rep1.verdict and worst_ok and (not rep2.verdict) and rep3.verdict and elapsed < 30.0,
             f"1D worst hit {worst!r} (target 0.8), "
             f"strip fail={not rep2.verdict}, bands pass={rep3.verdict}, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 9. structural hypothesis certification
# ---------------------------------------------------------------------------


def test_criterion_9_hypothesis_certification():
    g99 = cl.build_grid([1.0], [99])
    lam1 = float(cl.spectral_basis(cl.EllipticOperator(g99), 3).eigenvalues[0])
    coercivity_ok = abs(lam1 - math.pi**2) / math.pi**2 < 0.005

    region = cl.region_from_bounds([[0.3, 0.6]], 1.0, "O")
    bounds = cl.coupling_bounds(region, g99)
    coupling_ok = bounds["bound"] == 1.0

    one = make_single_free(n=50, K=6)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, control=((1, omega),))
    adm = admissibility_ratio(sys, 5, 1.0, 0.0125, [50], seed=13)
    adm_ok = all(r <= 1.0 + 1e-10 for r in adm.max_ratios)

    _verdict("criterion 9 (hypothesis certification)",
             coercivity_ok and coupling_ok and adm_ok,
             f"lambda_1 {lam1:.4f} vs pi^2 {math.pi**2:.4f}, "
             f"bound {bounds['bound']}, "
             f"max admissibility ratio {max(adm.max_ratios):.3f}")


# ---------------------------------------------------------------------------
# 10. observability constant sanity
# ---------------------------------------------------------------------------


def test_criterion_10_observability_constant_sanity():
    one = make_single_free(n=50, K=6)
    omega = cl.region_from_bounds([[0.0, 1.0]], 1.0)
    sys = cl.CascadeSystem(cl.Hyperbolic(), one.op, one.basis, 1, control=((1, omega),))
    dt = 0.0125
    t_grid = [1.0, 1.5, 2.0, 2.5, 3.0]
    ests = [entry["c1_est"] for entry in observability_constants(sys, t_grid, dt, 3)]
    close_ok = abs(ests[2] - 1.0) <= 0.1  # analytic whole-period average T/2 = 1
    mono_ok = all(b >= a - 1e-12 for a, b in zip(ests, ests[1:]))
    _verdict("criterion 10 (observability constant sanity)",
             close_ok and mono_ok,
             f"c1_est(T=2) {ests[2]:.4f} vs analytic 1.0; "
             f"5-point grid {['%.3f' % e for e in ests]} nondecreasing={mono_ok}")
