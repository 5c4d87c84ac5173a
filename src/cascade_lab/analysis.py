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

from .errors import NotApplicableError
from .dynamics import (
    CascadeSystem,
    Hyperbolic,
    SystemState,
    _observation_recorder,
    cfl_time_step,
    quadrature,
    solve,
    trapezoid_weights,
)
from .geometry import Region, build_grid, indicator_vector
from .hum import GramianOperator, SeedSpace, assemble_dense_gramian
from .operators import BoundaryEnd, EllipticOperator, spectral_basis

DENSE_SEED_LIMIT = 400


# ---------------------------------------------------------------------------
# observability constants
# ---------------------------------------------------------------------------


@dataclass
class ObservabilityReport:
    """Spectrum of a filtered observability Gramian.

    ``c1_est`` is filled for the control-observation functional, ``c2_est``
    for the coupling-support velocity functional; both are smallest
    eigenvalues in the seed inner product.
    """

    T: float
    dt: float
    K_filter: int
    observation: str
    eigenvalues: list
    c1_est: float | None = None
    c2_est: float | None = None
    assembly: str = "batched-adjoint-march"

    def to_dict(self):
        return {
            "T": self.T,
            "dt": self.dt,
            "K_filter": self.K_filter,
            "observation": self.observation,
            "eigenvalues": self.eigenvalues,
            "c1_est": self.c1_est,
            "c2_est": self.c2_est,
            "assembly": self.assembly,
        }


def _single_equation_variant(sys, region):
    """N = 1 free-equation system observed through the given region."""
    indicator = Region(region.parts, tuple(1.0 for _ in region.parts), region.label or "coupling support")
    return CascadeSystem(sys.family, sys.op, sys.basis, 1, control=((1, indicator),))


def observability_constants(sys, T, dt, K_filter, which="control"):
    """Assemble a filtered Gramian densely and report its spectrum.

    ``which`` selects the observation functional: "control" uses the system's
    own control observations; "coupling" observes the velocity of the single
    free equation on the (indicator) support of the first coupling region,
    the second standard inequality. The seed dimension must stay within
    DENSE_SEED_LIMIT.
    """
    if which == "coupling":
        if not sys.coupling:
            raise NotApplicableError("no coupling region available for the velocity functional")
        target = _single_equation_variant(sys, sys.coupling[0][1])
    elif which == "control":
        if not sys.control:
            raise NotApplicableError("system carries no control; the control observability "
                                     "constant is undefined")
        target = sys
    else:
        raise ValueError("which must be 'control' or 'coupling'")

    seeds = SeedSpace(target, K_filter)
    if seeds.dim > DENSE_SEED_LIMIT:
        raise ValueError(f"seed dimension {seeds.dim} exceeds the dense limit {DENSE_SEED_LIMIT}")
    gram = GramianOperator(seeds, T, dt)
    mat = assemble_dense_gramian(gram)
    eigs = np.linalg.eigvalsh(mat)
    report = ObservabilityReport(
        T=float(T), dt=float(dt), K_filter=int(K_filter),
        observation=which, eigenvalues=[float(v) for v in eigs],
    )
    if which == "control":
        report.c1_est = float(eigs[0])
    else:
        report.c2_est = float(eigs[0])
    return report


# ---------------------------------------------------------------------------
# Kalman rank test (exact modal regime only)
# ---------------------------------------------------------------------------


@dataclass
class KalmanReport:
    """Per-eigenvalue controllability-matrix ranks for constant couplings."""

    modes: list  # of dicts {eigenvalue, rank, full_rank}
    N: int
    full_rank: bool

    def to_dict(self):
        return {"modes": self.modes, "N": self.N, "full_rank": self.full_rank}


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

    def to_dict(self):
        return {
            "levels": self.levels,
            "max_ratios": self.max_ratios,
            "skipped": self.skipped,
            "observation": self.observation,
        }


def _ratio_or_none(lhs, rhs):
    """Degenerate-input policy: a 0/0 sample is skipped, not reported."""
    if rhs < 1e-280:
        return None
    return lhs / rhs


def admissibility_ratio(sys, n_samples, T, dt, levels, seed=0, K_forcing=8):
    """Observation-vs-energy ratios of randomly forced single-equation solves.

    For each refinement level n the free second-order equation is forced by a
    random standing forcing in the lowest K_forcing modes (every mode of a
    level with fewer unknowns) and started from random data in the same
    modes; the ratio compares the time-integrated squared observation against
    e(0) + e(T) + int e dt + int ||f||^2 dt. Distributed observations are
    pointwise bounded, so the ratio stays below the squared amplitude bound;
    end observations must merely stay bounded across levels. Degenerate
    (zero-data, zero-forcing) samples are skipped.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if not sys.control:
        raise NotApplicableError("system carries no control; the admissibility check observes "
                                 "through the first control")
    template = sys.control[0][1]
    obs_name = "end" if isinstance(template, BoundaryEnd) else "distributed"
    rng = np.random.default_rng(seed)
    max_ratios = []
    skipped = 0
    for n_level in levels:
        grid = build_grid(sys.grid.extents, [n_level] * sys.grid.dim)
        op = EllipticOperator(grid)
        K = min(K_forcing + 4, grid.n_total)
        n_forced = min(K_forcing, grid.n_total)
        basis = spectral_basis(op, K)
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
            lowmodes = basis.modes[:n_forced]
            w0 = (coeff_w @ lowmodes)[None, :]
            v0 = (coeff_v @ lowmodes)[None, :]
            profile = np.cos(freq[None, :] * t_nodes[:, None] + phase[None, :]) * amp[None, :]
            forcing = (profile @ lowmodes)[:, None, :]
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
