"""HUM control synthesis on a spectrally filtered seed space.

The synthesis solves the duality problem of null control: seeds parametrize
terminal data of the backward (transposed-cascade) adjoint solve, the recorded
observations of the adjoint feed back as controls of the forward system, and the
composition is the HUM Gramian. Seeds are restricted to the lowest K modes per
component because non-propagating discrete high frequencies ruin uniform
observability on any fixed grid; the filter is part of every reported result.

The seed-space representation of a forward terminal state is chosen as the
plain spectral readout (position coefficients plus the staggered leapfrog
velocity for the second-order family, the terminal coefficients for the
first-order one). With the sampling conventions of :mod:`cascade_lab.dynamics`
this readout is the exact discrete adjoint of the control injection, so

    <G X, Y>_seed  =  sum_n w_n <obs_n(X), obs_n(Y)>_G

holds to round-off, the Gramian is symmetric positive semidefinite by
construction, and an accurate solve drives the measured filtered terminal
energy to the residual level rather than to O(dt^2).

The seed space has at most a few hundred real coordinates, so the Gramian is
assembled densely by one batched adjoint march over an orthonormal seed basis
(``GramianOperator.march_adjoint``, whose visitor reduces each sample into G)
and solved through one symmetric eigendecomposition; the matrix-free
``GramianOperator.apply`` stays as the independent cross-check. Second-order
synthesis solves G X = b exactly (eps = 0 allowed); the first-order family
uses the penalized form (G + eps I) X = b, whose terminal norm scales like
sqrt(eps) under null controllability; ``epsilon_sweep`` fits that exponent
from one eigendecomposition shared by every eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    CascadeSystem,
    ControlSignal,
    SystemState,
    _adjoint_phase,
    _cn_adjoint,
    _hyp_adjoint,
    _observation_recorder,
    adjoint_system,
    energy,
    interval_weights,
    solve,
    state_l2_norm,
    step_count,
    trapezoid_weights,
    zero_state,
    _check_cfl,
)
from .errors import NotApplicableError

# ---------------------------------------------------------------------------
# seed space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedSpace:
    """Filtered adjoint-seed coordinates.

    Second-order family: real coefficients of shape (N, K, 2), slot 0 the
    position coordinate (weighted by lambda_j in the inner product, the natural
    energy pairing) and slot 1 the velocity coordinate. First-order family:
    one complex (real when theta = 0) coefficient per component and mode.
    """

    sys: CascadeSystem
    K: int

    def __post_init__(self):
        if not 1 <= self.K <= self.sys.basis.K:
            raise ValueError(f"K_filter must be in 1..{self.sys.basis.K}")

    @property
    def hyperbolic(self):
        return self.sys.is_hyperbolic

    @property
    def eigenvalues(self):
        return self.sys.basis.eigenvalues[: self.K]

    @property
    def modes(self):
        return self.sys.basis.modes[: self.K]

    @property
    def dim(self):
        return self.sys.N * self.K * (2 if self.hyperbolic else 1)

    @property
    def coord_dim(self):
        """Real dimension: complex seed spaces count twice."""
        return self.dim * (2 if self.sys.state_dtype == np.complex128 else 1)

    def to_coords(self, X):
        """Real coordinates of X in the orthonormal basis ``from_coords(I)``.

        Entry p is Re <X, E_p> in the seed inner product; X may carry leading
        batch axes.
        """
        batch = X.shape[: X.ndim - (3 if self.hyperbolic else 2)]
        if self.hyperbolic:
            root = np.sqrt(self.eigenvalues)
            c = np.stack([root * X[..., 0], X[..., 1]], axis=-1)
        elif self.sys.state_dtype == np.complex128:
            c = np.stack([np.real(X), np.imag(X)], axis=-1)
        else:
            c = X
        return c.reshape(batch + (self.coord_dim,))

    def from_coords(self, x):
        """Seed with real coordinates x (..., coord_dim); inverse of to_coords."""
        x = np.asarray(x, dtype=np.float64)
        batch = x.shape[:-1]
        if self.hyperbolic:
            c = x.reshape(batch + (self.sys.N, self.K, 2))
            return np.stack([c[..., 0] / np.sqrt(self.eigenvalues), c[..., 1]], axis=-1)
        if self.sys.state_dtype == np.complex128:
            c = x.reshape(batch + (self.sys.N, self.K, 2))
            return c[..., 0] + 1j * c[..., 1]
        return x.reshape(batch + (self.sys.N, self.K)).copy()

    def zeros(self):
        if self.hyperbolic:
            return np.zeros((self.sys.N, self.K, 2))
        return np.zeros((self.sys.N, self.K), dtype=self.sys.state_dtype)

    def random(self, rng):
        if self.hyperbolic:
            return rng.standard_normal((self.sys.N, self.K, 2))
        x = rng.standard_normal((self.sys.N, self.K))
        if self.sys.state_dtype == np.complex128:
            x = x + 1j * rng.standard_normal((self.sys.N, self.K))
        return x

    def inner(self, X, Y):
        """Seed inner product; complex Hermitian for the first-order family."""
        if self.hyperbolic:
            lam = self.eigenvalues[None, :]
            return float(np.sum(lam * X[..., 0] * Y[..., 0]) + np.sum(X[..., 1] * Y[..., 1]))
        return complex(np.vdot(Y, X))

    def norm(self, X):
        return math.sqrt(max(np.real(self.inner(X, X)), 0.0))

    def energy_of(self, X):
        """Natural filtered energy of a seed/readout (per-component list, total)."""
        if self.hyperbolic:
            lam = self.eigenvalues[None, :]
            per = 0.5 * (np.sum(lam * X[..., 0] ** 2, axis=1) + np.sum(X[..., 1] ** 2, axis=1))
        else:
            per = 0.5 * np.sum(np.abs(X) ** 2, axis=1)
        per = [float(v) for v in per]
        return per, float(sum(per))

    # -- conversions ----------------------------------------------------------

    def adjoint_terminal_levels(self, X, dt):
        """Backward starting data of the adjoint encoding the seed functional."""
        if self.hyperbolic:
            phi_M = self.synth(X[..., 1])
            phi_M1 = phi_M + dt * self.synth(self.eigenvalues[None, :] * X[..., 0])
            return phi_M, phi_M1
        return self.synth(X)

    def synth(self, coeffs):
        return np.tensordot(coeffs, self.modes, axes=([-1], [0]))

    def proj(self, fields):
        return np.tensordot(fields, self.modes, axes=([-1], [1])) * self.sys.grid.hvol

    def readout(self, levels, dt):
        """Seed-space representation of a forward terminal state."""
        if self.hyperbolic:
            y_m1, y_m = levels
            pos = self.proj(y_m)
            svel = self.proj(y_m - y_m1) / dt
            return np.stack([pos, svel], axis=-1)
        return self.proj(levels)

    def project_state(self, state):
        """Project a SystemState onto the filter space; returns (X, residual)."""
        basis = self.sys.basis
        if self.hyperbolic:
            X = np.stack([self.proj(state.w), self.proj(state.wp)], axis=-1)
            rec_w = self.synth(X[..., 0])
            rec_wp = self.synth(X[..., 1])
            res = math.sqrt(
                (np.sum((state.w - rec_w) ** 2) + np.sum((state.wp - rec_wp) ** 2))
                * self.sys.grid.hvol
            )
            return X, float(res)
        X = self.proj(state.w)
        rec = self.synth(X)
        res = math.sqrt(float(np.real(np.vdot(state.w - rec, state.w - rec))) * self.sys.grid.hvol)
        return X, float(res)

    def state_from_seed(self, X, t=0.0):
        if self.hyperbolic:
            return SystemState(t, self.synth(X[..., 0]), self.synth(X[..., 1]))
        return SystemState(t, self.synth(X).astype(self.sys.state_dtype))


# ---------------------------------------------------------------------------
# Gramian
# ---------------------------------------------------------------------------


@dataclass
class GramianOperator:
    """Matrix-free HUM Gramian on the filtered seed space.

    apply(X) runs the backward adjoint solve seeded by X, feeds the recorded
    observations back as the control of a forward solve from rest, and returns
    the seed-space readout of the terminal state. Synthesis solves with the
    dense matrix of ``assemble_dense_gramian``; apply stays as its independent
    matrix-free cross-check.
    """

    sys: CascadeSystem
    sys_adj: CascadeSystem
    seeds: SeedSpace
    T: float
    dt: float

    def __post_init__(self):
        self.M = step_count(self.T, self.dt)
        if self.sys.is_hyperbolic:
            _check_cfl(self.sys, self.dt)
        if self.sys.transposed or not self.sys_adj.transposed:
            raise ValueError("pass (forward, transposed) systems in that order")
        if self.sys.control.entries and self.sys.observation_kind() == "mixed":
            raise ValueError(
                "mixed distributed/end controls are not supported in one synthesis; "
                "the exact discrete pairing exists per observation kind only"
            )

    def march_adjoint(self, X, visit):
        """Seed the adjoint march with X (leading batch axes allowed) and run it.

        visit(n, field) sees the adjoint field behind sample n (a leapfrog
        level, or a Crank-Nicolson midpoint value) as it is made. The field
        is a reused buffer, valid only during the call: copy what is kept.
        """
        start = self.seeds.adjoint_terminal_levels(X, self.dt)
        if self.seeds.hyperbolic:
            _hyp_adjoint(self.sys_adj, *start, self.M, self.dt, visit)
        else:
            _cn_adjoint(self.sys_adj, start, self.M, self.dt, visit)

    def observations_of(self, X):
        """Adjoint observations seeded by X, as quadrature-ready sample arrays.

        X may carry leading batch axes; arrays[k] is (M + 1, *batch[, n_total]).
        """
        hyp = self.seeds.hyperbolic
        batch = X.shape[: X.ndim - (3 if hyp else 2)]
        obs, visit = _observation_recorder(self.sys_adj, self.M + 1, batch,
                                           _adjoint_phase(self.sys_adj))
        self.march_adjoint(X, visit)
        if hyp:
            for arr in obs.values():  # end samples carry no weight; keep them zero
                arr[0] = 0.0
                arr[-1] = 0.0
        return obs

    def sample_weights(self):
        """Quadrature weight of each observation sample (0 where none is taken)."""
        if self.seeds.hyperbolic:
            weights = trapezoid_weights(self.M, self.dt)
            weights[0] = weights[-1] = 0.0
            return weights
        return interval_weights(self.M, self.dt)

    def signal_from_observations(self, obs):
        t = self.dt * np.arange(self.M + 1)
        if self.seeds.hyperbolic:
            return ControlSignal(t, obs, trapezoid_weights(self.M, self.dt), "node")
        vals = {}
        for k, arr in obs.items():
            padded = np.zeros((self.M + 1,) + arr.shape[1:], dtype=arr.dtype)
            padded[: self.M] = arr[: self.M]
            padded[self.M] = 0.0
            vals[k] = padded
        return ControlSignal(t, vals, interval_weights(self.M, self.dt), "interval")

    def forward_with_control(self, signal, initial=None):
        """(seed-space readout, terminal SystemState) of the forward march from
        ``initial`` (rest by default) under ``signal``."""
        init = initial if initial is not None else zero_state(self.sys)
        levels, terminal = solve(self.sys, init, signal, self.T, self.dt)
        return self.seeds.readout(levels, self.dt), terminal

    def apply(self, X):
        signal = self.signal_from_observations(self.observations_of(X))
        return self.forward_with_control(signal)[0]

    def observation_quadrature(self, obs_a, obs_b):
        """sum_n w_n <obs_a_n, obs_b_n>_G, the defining bilinear form of G."""
        hvol = self.sys.grid.hvol
        weights = self.sample_weights()
        total = 0.0
        for k in obs_a:
            a, b = obs_a[k], obs_b[k]
            prod = np.real(a * np.conj(b))
            per_t = prod.sum(axis=-1) * hvol if prod.ndim == 2 else prod
            total += float(weights[: per_t.shape[0]] @ per_t)
        return total


# observation columns gathered per rank-k update of G; small, to bound peak memory
_GRAMIAN_BLOCK_COLUMNS = 512


def assemble_dense_gramian(gram):
    """Dense Gramian in the orthonormal seed basis ``from_coords(I)``.

    One batched adjoint march seeded by every basis vector at once; each
    sample's observations O_n are reduced on the fly into
    G += w_n O_n O_n^T (with the grid volume for distributed observations),
    the quadrature ``observation_quadrature`` defines, so no trajectory is
    kept. Each sample writes only its observation columns (a distributed
    control's support), scaled by sqrt(w_n * scale), straight into one
    preallocated block; a full block is reduced into G by one product.
    Complex seed spaces count as real spaces of twice the dimension, with
    observations split into real and imaginary parts; the unimodular
    Crank-Nicolson phase factor drops out of Re <a, b>.
    """
    seeds, sys_adj = gram.seeds, gram.sys_adj
    basis = seeds.from_coords(np.eye(seeds.coord_dim))
    dim = basis.shape[0]
    weights = gram.sample_weights()
    is_complex = sys_adj.state_dtype == np.complex128
    # (k, columns, amplitudes there, scale, column count); distributed
    # observations vanish off the control support
    parts = []
    for k, kind, data in sys_adj._control_ops:
        if kind == "distributed":
            cols = np.flatnonzero(data)
            parts.append((k, cols, data[cols], sys_adj.grid.hvol, cols.size))
        else:
            parts.append((k, None, None, 1.0, 1))
    # complex observations are formed as complex products first and split
    # after, so their parts carry the bits of the complex arithmetic
    scratch = {k: np.empty((dim, n_cols), dtype=np.complex128)
               for k, *_, n_cols in parts} if is_complex else None
    per_sample = (2 if is_complex else 1) * sum(p[-1] for p in parts)
    # the block holds exactly the samples of one flush, so a full block is
    # reduced as it stands
    block = np.empty((dim, per_sample * -(-_GRAMIAN_BLOCK_COLUMNS // max(per_sample, 1))))
    mat = np.zeros((dim, dim))
    width = 0

    def flush():
        nonlocal mat, width
        if width:
            obs = block if width == block.shape[1] else np.ascontiguousarray(block[:, :width])
            mat += obs @ obs.T
            width = 0

    def visit(n, fld):
        nonlocal width
        if weights[n] == 0.0:
            return
        for k, cols, amp, scale, n_cols in parts:
            o = scratch[k] if is_complex else block[:, width:width + n_cols]
            if cols is None:
                o[:, 0] = sys_adj.extract(k, fld)
            else:
                np.multiply(amp, fld[:, k - 1, cols], out=o)
            o *= math.sqrt(weights[n] * scale)
            if is_complex:
                block[:, width:width + n_cols] = o.real
                width += n_cols
                block[:, width:width + n_cols] = o.imag
            width += n_cols
        if width >= _GRAMIAN_BLOCK_COLUMNS:
            flush()

    gram.march_adjoint(basis, visit)
    flush()
    return 0.5 * (mat + mat.T)


# ---------------------------------------------------------------------------
# direct solve
# ---------------------------------------------------------------------------

# eigenvalues at or below RANK_RTOL * lambda_max count as numerically zero
RANK_RTOL = 1e-12
DEFAULT_REFINEMENT_PASSES = 10


@dataclass
class DirectSolve:
    """Coordinates x of a solve, with its residual trace and failure reason."""

    x: np.ndarray
    singular: bool
    passes: int
    residual_history: list
    failure_reason: str | None


class GramianSpectrum:
    """Eigendecomposition of a dense Gramian, shared by every penalty eps."""

    def __init__(self, mat):
        self.mat = mat
        self.eigenvalues, self.eigenvectors = np.linalg.eigh(mat)

    def summary(self):
        lam = self.eigenvalues
        lam_min, lam_max = float(lam[0]), float(lam[-1])
        threshold = RANK_RTOL * max(lam_max, 0.0)
        return {
            "dim": int(lam.size),
            "lambda_min": lam_min,
            "lambda_max": lam_max,
            "cond": lam_max / lam_min if lam_min > 0.0 else None,
            "rank": int(np.count_nonzero(lam > threshold)),
            "rank_threshold": threshold,
        }

    def solve(self, b, eps, tol, max_iter):
        """Solve (G + eps I) x = b directly, then refine toward ``tol``.

        Eigen-directions of G + eps I at or below RANK_RTOL times its largest
        eigenvalue are dropped (pseudo-inverse). Each refinement pass adds
        the pseudo-inverse of the current residual; at most ``max_iter``
        passes run, and refinement stops early once a pass no longer lowers
        the relative residual ||(G + eps I) x - b|| / ||b||.
        """
        shifted = self.eigenvalues + eps
        keep = shifted > RANK_RTOL * max(shifted[-1], 0.0)
        singular = not keep.all()
        norm_b = float(np.linalg.norm(b))
        if norm_b == 0.0:
            return DirectSolve(np.zeros_like(b), singular, 0, [0.0], None)
        inv = np.where(keep, 1.0 / np.where(keep, shifted, 1.0), 0.0)
        V = self.eigenvectors

        def pinv(r):
            return V @ (inv * (V.T @ r))

        def residual(x):
            r = b - (self.mat @ x + eps * x)
            return r, float(np.linalg.norm(r)) / norm_b

        x = pinv(b)
        r, res = residual(x)
        history = [res]
        passes, stalled, reason = 0, False, None
        while res > tol:
            if singular:
                reason = "rank-deficient"
            elif passes >= max_iter:
                reason = "out of budget"
            elif stalled:
                reason = "residual above cg_tol"
            if reason is not None:
                break
            x_new = x + pinv(r)
            passes += 1
            r_new, res_new = residual(x_new)
            stalled = not res_new < res
            if not stalled:
                x, r, res = x_new, r_new, res_new
                history.append(res)
        return DirectSolve(x, singular, passes, history, reason)


# ---------------------------------------------------------------------------
# synthesis
# ---------------------------------------------------------------------------


@dataclass
class HumResult:
    """Outcome of one control synthesis, with everything a replay needs.

    ``stagnated`` flags a numerically singular G + eps I (some eigenvalue at
    or below RANK_RTOL times the largest); ``failure_reason`` says why a
    failed synthesis failed and is None on success. ``gram_quadratic`` is
    x . (G x) for the solved coordinates x and the dense Gramian G, which
    equals ``control_norm_sq`` when G is the Gramian of the marches.
    """

    success: bool
    stagnated: bool
    control: ControlSignal | None
    refinement_passes: int
    residual_history: list
    eps: float
    T: float
    dt: float
    K_filter: int
    initial_energy: float
    terminal_energy_filtered: float
    terminal_energy_full: float
    terminal_energy_filtered_per_component: list
    terminal_energy_full_per_component: list
    terminal_state_norm: float
    free_terminal_norm: float
    free_terminal_energy: float
    projection_residual: float
    control_norm_sq: float
    gram_quadratic: float
    wall_time: float
    terminal_state: SystemState | None = None
    initial_state: SystemState | None = None
    failure_reason: str | None = None
    gramian: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "success": self.success,
            "stagnated": self.stagnated,
            "failure_reason": self.failure_reason,
            "refinement_passes": self.refinement_passes,
            "residual_history": self.residual_history,
            "gramian": self.gramian,
            "eps": self.eps,
            "T": self.T,
            "dt": self.dt,
            "K_filter": self.K_filter,
            "initial_energy": self.initial_energy,
            "terminal_energy_filtered": self.terminal_energy_filtered,
            "terminal_energy_full": self.terminal_energy_full,
            "terminal_energy_filtered_per_component": self.terminal_energy_filtered_per_component,
            "terminal_energy_full_per_component": self.terminal_energy_full_per_component,
            "terminal_state_norm": self.terminal_state_norm,
            "free_terminal_norm": self.free_terminal_norm,
            "free_terminal_energy": self.free_terminal_energy,
            "projection_residual": self.projection_residual,
            "control_norm_sq": self.control_norm_sq,
            "gram_quadratic": self.gram_quadratic,
            "wall_time": self.wall_time,
        }


def _check_eps(sys, eps):
    if not sys.is_hyperbolic and eps <= 0.0:
        raise ValueError("the first-order family needs eps > 0 (penalized HUM)")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")


class _Synthesis:
    """The eps-independent part of a synthesis: filtered data, free solution,
    right-hand side and Gramian spectrum; ``run`` solves and verifies one eps.
    """

    def __init__(self, sys, Y0, T, dt, K_filter):
        t0 = time.perf_counter()
        if sys.transposed:
            raise ValueError("pass the forward system")
        if not sys.control.entries:
            raise NotApplicableError("system carries no control; synthesis needs a "
                                     "controlled component")
        self.sys = sys
        self.seeds = SeedSpace(sys, K_filter)
        self.gram = GramianOperator(sys, adjoint_system(sys), self.seeds, T, dt)

        X0, self.projection_residual = self.seeds.project_state(Y0)
        self.Y0f = self.seeds.state_from_seed(X0, t=0.0)
        self.initial_energy = energy(sys, self.Y0f).total
        free_readout, free = self.gram.forward_with_control(None, initial=self.Y0f)
        # minus the free terminal readout: a solved system cancels it
        self.b = self.seeds.to_coords(-free_readout)
        self.free_norm = state_l2_norm(sys, free)
        self.free_energy = energy(sys, free).total
        self.spectrum = GramianSpectrum(assemble_dense_gramian(self.gram))
        self.setup_time = time.perf_counter() - t0

    def run(self, eps, cg_tol, max_iter):
        t0 = time.perf_counter()
        sys, gram, seeds = self.sys, self.gram, self.seeds
        if max_iter is None:
            max_iter = DEFAULT_REFINEMENT_PASSES
        sol = self.spectrum.solve(self.b, eps, cg_tol, max_iter)

        obs = gram.observations_of(seeds.from_coords(sol.x))
        signal = gram.signal_from_observations(obs)
        readout, terminal = gram.forward_with_control(signal, initial=self.Y0f)
        filt_per, filt_total = seeds.energy_of(readout)
        full = energy(sys, terminal)

        reason = sol.failure_reason
        if reason is None and filt_total > self.initial_energy * (1.0 + 1e-9):
            reason = "terminal energy above initial"
        return HumResult(
            success=reason is None,
            stagnated=sol.singular,
            control=signal,
            refinement_passes=sol.passes,
            residual_history=sol.residual_history,
            eps=eps,
            T=gram.T,
            dt=gram.dt,
            K_filter=seeds.K,
            initial_energy=self.initial_energy,
            terminal_energy_filtered=filt_total,
            terminal_energy_full=full.total,
            terminal_energy_filtered_per_component=filt_per,
            terminal_energy_full_per_component=full.per_component,
            terminal_state_norm=state_l2_norm(sys, terminal),
            free_terminal_norm=self.free_norm,
            free_terminal_energy=self.free_energy,
            projection_residual=self.projection_residual,
            control_norm_sq=signal.norm_sq(sys.grid),
            gram_quadratic=float(sol.x @ (self.spectrum.mat @ sol.x)),
            wall_time=self.setup_time + time.perf_counter() - t0,
            terminal_state=terminal,
            initial_state=self.Y0f,
            failure_reason=reason,
            gramian=self.spectrum.summary(),
        )


def synthesize_control(sys, Y0, T, dt, K_filter, eps=0.0, cg_tol=1e-8, max_iter=None):
    """Synthesize the minimal-norm null control for initial data Y0.

    Second-order family: exact HUM (eps = 0 allowed). First-order family:
    penalized HUM, eps > 0 required. Y0 is projected onto the filter space
    (the discarded residual is reported); the right-hand side is minus the
    seed-space representation of the free terminal state, so an accurate
    solve cancels the filtered terminal state of the re-simulated controlled
    system. ``cg_tol`` gates the relative residual of the direct solve and
    ``max_iter`` caps the refinement passes allowed to reach it.
    """
    _check_eps(sys, eps)
    return _Synthesis(sys, Y0, T, dt, K_filter).run(eps, cg_tol, max_iter)


@dataclass
class SweepResult:
    eps_list: list
    terminal_norms: list
    results: list
    slope: float
    intercept: float
    free_terminal_norm: float
    partial: bool

    def to_dict(self):
        return {
            "eps_list": self.eps_list,
            "terminal_norms": self.terminal_norms,
            "slope": self.slope,
            "intercept": self.intercept,
            "free_terminal_norm": self.free_terminal_norm,
            "partial": self.partial,
            "gramian": self.results[0].gramian,
            "runs": [r.to_dict() for r in self.results],
        }


def epsilon_sweep(sys, Y0, T, dt, K_filter, eps_list, cg_tol=1e-8, max_iter=None):
    """Penalized-HUM sweep: fit log ||Y(T)|| against log eps by least squares.

    Requires at least 3 strictly decreasing eps values. One Gramian and one
    eigendecomposition serve every eps; each eps gets its own verifying
    re-simulation. Any individual run failure marks the sweep partial; the
    fit then uses the successful runs.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError("eps sweep needs at least 3 values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    for eps in eps_list:
        _check_eps(sys, eps)
    synthesis = _Synthesis(sys, Y0, T, dt, K_filter)
    results = [synthesis.run(eps, cg_tol, max_iter) for eps in eps_list]
    norms = [r.terminal_state_norm for r in results]
    ok = [i for i, r in enumerate(results) if r.success and norms[i] > 0.0]
    partial = len(ok) < len(results)
    if len(ok) >= 2:
        lx = np.log([eps_list[i] for i in ok])
        ly = np.log([norms[i] for i in ok])
        slope, intercept = np.polyfit(lx, ly, 1)
    else:
        slope, intercept = math.nan, math.nan
    return SweepResult(
        eps_list=eps_list,
        terminal_norms=norms,
        results=results,
        slope=float(slope),
        intercept=float(intercept),
        free_terminal_norm=results[0].free_terminal_norm,
        partial=partial,
    )
