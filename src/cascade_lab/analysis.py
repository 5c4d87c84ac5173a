"""Quantitative observability, Kalman-rank and admissibility diagnostics.

Observability constants are the smallest eigenvalues of densely assembled
filtered Gramians; by the Rayleigh characterization they are exactly the best
constants of the corresponding observability inequality restricted to the
filtered subspace, and they are reported only together with the cutoff.
Kalman rank tests cover the one regime where the modal reduction is exact:
globally constant couplings. Localized couplings must go through the Gramian
pathway instead and are refused here rather than silently approximated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NotApplicableError
from .dynamics import (
    CascadeSystem,
    Hyperbolic,
    SystemState,
    _observation_recorder,
    cfl_time_step,
    quadrature,
    solve,
    step_count,
    trapezoid_weights,
)
from .geometry import Region, build_grid, indicator_vector
from .hum import GramianOperator, GramianSpectrum, SeedSpace, assemble_dense_gramian
from .operators import BoundaryEnd, EllipticOperator, spectral_basis

DENSE_SEED_LIMIT = 400


# ---------------------------------------------------------------------------
# observability constants
# ---------------------------------------------------------------------------


def _single_equation_variant(sys, region):
    """N = 1 free-equation system observed through the given region."""
    indicator = Region(region.parts, tuple(1.0 for _ in region.parts), region.label or "coupling support")
    return CascadeSystem(sys.family, sys.op, sys.basis, 1, control=((1, indicator),))


def observability_constants(sys, t_grid, dt, K_filter):
    """Spectra of the filtered observability Gramians, one report per horizon.

    Each functional reports the ``GramianSpectrum.summary()`` of its Gramian,
    the ascending eigenvalues and, as its constant, the summary's lambda_min.
    The control functional observes through the system's controls and runs when
    it has one (``gramian``, ``eigenvalues``, ``c1_est``; ``[]`` and None
    without). The coupling functional, the second standard inequality, observes
    the velocity of the single free equation on the (indicator) support of the
    first coupling region and runs when the system has a coupling
    (``coupling_gramian``, ``coupling_eigenvalues``, ``c2_est``). The Gramian's
    order, the larger seed dimension, must stay within DENSE_SEED_LIMIT; it is
    checked before any march.

    One adjoint march to the longest horizon serves every horizon, each read
    off as a partial sum, and both functionals: the free equation is
    component 1 of the transposed cascade, so with a control its Gramian is
    reduced from the control functional's march (see
    ``assemble_dense_gramian``).
    """
    functionals = []
    if sys.control:
        functionals.append((("gramian", "eigenvalues", "c1_est"), SeedSpace(sys, K_filter)))
    if sys.coupling:
        functionals.append((("coupling_gramian", "coupling_eigenvalues", "c2_est"), SeedSpace(
            _single_equation_variant(sys, sys.coupling[0][1]), K_filter)))
    if not functionals:
        raise NotApplicableError("system carries no control; the control observability "
                                 "constant is undefined")
    dim = max(space.dim for _, space in functionals)
    if dim > DENSE_SEED_LIMIT:
        raise ConfigError(f"analysis.K {K_filter}: seed dimension {dim} exceeds the dense limit "
                          f"{DENSE_SEED_LIMIT}")
    steps = [step_count(T, dt) for T in t_grid]
    grams = [GramianOperator(space, max(t_grid), dt) for _, space in functionals]
    if len(grams) == 2:
        per_horizon = assemble_dense_gramian(grams[0], steps, free=grams[1])
    else:
        per_horizon = [(mat,) for mat in assemble_dense_gramian(grams[0], steps)]
    reports = []
    for T, mats in zip(t_grid, per_horizon):
        entry = {"T": float(T), "dt": float(dt), "K_filter": int(K_filter),
                 "eigenvalues": [], "c1_est": None, "c2_est": None}
        for ((block, eigenvalues, constant), _), mat in zip(functionals, mats):
            spectrum = GramianSpectrum(mat)
            entry[block] = spectrum.summary()
            entry[eigenvalues] = spectrum.eigenvalues.tolist()
            entry[constant] = entry[block]["lambda_min"]
        reports.append(entry)
    return reports


# ---------------------------------------------------------------------------
# Kalman rank test (exact modal regime only)
# ---------------------------------------------------------------------------


@dataclass
class KalmanReport:
    """Per-eigenvalue controllability-matrix ranks for constant couplings."""

    modes: list  # of dicts {eigenvalue, rank, full_rank}
    N: int
    full_rank: bool


def _constant_amplitude_on_domain(region, grid):
    values = indicator_vector(region, grid)
    amp = region.amplitudes[0]
    if np.all(values == amp) and all(a == amp for a in region.amplitudes):
        return float(amp)
    return None


def kalman_mode_test(sys, K):
    """Rank of [B, A_mu B, ..., A_mu^{N-1} B] for each retained eigenvalue mu.

    Valid only when every coupling region of ``sys`` is the full domain with a
    constant amplitude, where the spectral decomposition decouples the system
    into one N x N block per mode (A_mu = mu I + C). Localized couplings raise
    NotApplicableError; use the Gramian pathway for those.
    """
    N, basis = sys.N, sys.basis
    C = np.zeros((N, N))
    for (i, j), region in sys.coupling:
        amp = _constant_amplitude_on_domain(region, sys.grid)
        if amp is None:
            raise NotApplicableError(
                f"coupling ({i},{j}) is not a constant full-domain multiplier; "
                "the modal reduction does not decouple"
            )
        C[i - 1, j - 1] = amp
    controlled = [k for k, _ in sys.control]
    if not controlled:
        raise NotApplicableError("system carries no control; the Kalman test needs a "
                                 "controlled component")
    B = np.zeros((N, len(controlled)))
    for col, k in enumerate(controlled):
        B[k - 1, col] = 1.0
    if not 1 <= K <= basis.K:
        raise ValueError(f"K must be in 1..{basis.K}")

    modes = []
    overall = True
    for mu in basis.eigenvalues[:K]:
        A_mu = mu * np.eye(N) + C
        blocks = [B]
        for _ in range(N - 1):
            blocks.append(A_mu @ blocks[-1])
        ctrb = np.hstack(blocks)
        rank = int(np.linalg.matrix_rank(ctrb))
        ok = rank == N
        overall &= ok
        modes.append({"eigenvalue": float(mu), "rank": rank, "full_rank": ok})
    return KalmanReport(modes=modes, N=N, full_rank=overall)


# ---------------------------------------------------------------------------
# admissibility ratios
# ---------------------------------------------------------------------------


@dataclass
class AdmissibilityReport:
    """Max observation/energy ratios of forced free-equation solves per level."""

    levels: list
    max_ratios: list
    skipped: int
    observation: str


def _ratio_or_none(lhs, rhs):
    """Degenerate-input policy: a 0/0 sample is skipped, not reported."""
    if rhs < 1e-280:
        return None
    return lhs / rhs


# modes of the random forcing and data of each admissibility sample
FORCED_MODES = 8


def admissibility_ratio(sys, n_samples, T, dt, levels, seed=0):
    """Observation-vs-energy ratios of randomly forced single-equation solves.

    For each refinement level n the free second-order equation is forced by a
    random standing forcing in the lowest FORCED_MODES modes (every mode of a
    level with fewer unknowns) and started from random data in the same
    modes; the ratio compares the time-integrated squared observation against
    e(0) + e(T) + int e dt + int ||f||^2 dt. Distributed observations are
    pointwise bounded, so the ratio stays below the squared amplitude bound;
    end observations must merely stay bounded across levels. Degenerate
    (zero-data, zero-forcing) samples are skipped. The ratio observes through
    the system's one control; a system with none or several is refused.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not sys.control:
        raise NotApplicableError("system carries no control; the admissibility ratio needs one")
    if len(sys.control) > 1:
        raise NotApplicableError(f"system carries {len(sys.control)} controls; the admissibility "
                                 "ratio observes through exactly one")
    ((_, template),) = sys.control
    obs_name = "end" if isinstance(template, BoundaryEnd) else "distributed"
    rng = np.random.default_rng(seed)
    max_ratios = []
    skipped = 0
    for n_level in levels:
        grid = build_grid(sys.grid.extents, [n_level] * sys.grid.dim)
        op = EllipticOperator(grid)
        n_forced = min(FORCED_MODES, grid.n_total)
        basis = spectral_basis(op, n_forced)
        one = CascadeSystem(Hyperbolic(), op, basis, 1, control=((1, template),))
        dt_lim = cfl_time_step(one)
        M = max(2, int(math.ceil(T / min(dt, dt_lim))))
        dt_level = T / M
        t_nodes = dt_level * np.arange(M + 1)
        weights = trapezoid_weights(M, dt_level)
        obs, record = _observation_recorder(one, weights, ())
        energies = np.zeros(M + 1)

        def visit(n, y, vel):
            record(n, y, vel)
            stiff = np.sum(op.matvec(y) * y) * grid.hvol
            energies[n] = 0.5 * (stiff + np.sum(vel * vel) * grid.hvol)

        best = 0.0
        for _ in range(n_samples):
            coeff_w = rng.standard_normal(n_forced)
            coeff_v = rng.standard_normal(n_forced)
            amp = rng.standard_normal(n_forced)
            freq = rng.uniform(0.0, 2.0 * math.pi, n_forced)
            phase = rng.uniform(0.0, 2.0 * math.pi, n_forced)
            w0 = (coeff_w @ basis.modes)[None, :]
            v0 = (coeff_v @ basis.modes)[None, :]
            profile = np.cos(freq[None, :] * t_nodes[:, None] + phase[None, :]) * amp[None, :]
            forcing = (profile @ basis.modes)[:, None, :]
            initial = SystemState(0.0, w0.copy(), v0.copy())
            solve(one, initial, None, T, dt_level, visit, forcing)
            lhs = quadrature(one, obs, obs, weights)
            e_int = float(weights @ energies)
            f_sq = np.sum(forcing[:, 0, :] ** 2, axis=1) * grid.hvol
            f_int = float(weights @ f_sq)
            rhs = energies[0] + energies[-1] + e_int + f_int
            ratio = _ratio_or_none(lhs, rhs)
            if ratio is None:
                skipped += 1
                continue
            best = max(best, ratio)
        max_ratios.append(float(best))
    return AdmissibilityReport(levels=list(levels), max_ratios=max_ratios,
                               skipped=skipped, observation=obs_name)
