"""HUM control synthesis on a spectrally filtered seed space.

The synthesis solves the duality problem of null control: seeds parametrize
terminal data of the backward (transposed-cascade) adjoint solve, the recorded
observations of the adjoint feed back as controls of the forward system, and the
composition is the HUM Gramian. Seeds are restricted to the lowest K modes per
component because non-propagating discrete high frequencies ruin uniform
observability on any fixed grid; the filter is part of every reported result.

Seeds live in one representation, real coordinates that are orthonormal for
the energy pairing (see ``SeedSpace``). A forward terminal state is read out
in the same coordinates: sqrt(lambda_j) times the position coefficients plus
the staggered leapfrog velocity for the second-order family, the terminal
coefficients for the first-order one. With the sampling conventions of
:mod:`cascade_lab.dynamics` this readout is the exact discrete adjoint of
the control injection, so

    (G x) . y  =  sum_n w_n <obs_n(x), obs_n(y)>_G

holds to round-off, the Gramian is symmetric positive semidefinite by
construction, and an accurate solve drives the measured filtered terminal
energy to the residual level rather than to O(dt^2).

The seed space has at most a few hundred real coordinates, so the Gramian is
assembled densely by one batched adjoint march over an orthonormal seed basis
(``GramianOperator.march_adjoint`` seeded by rows of the identity) and solved
through one symmetric eigendecomposition; the matrix-free
``GramianOperator.apply`` stays as the independent cross-check. Every march
observes one way: its visitor selects the raw values of each weighted sample
and the record is scaled once, with the arithmetic of ``extract``. The dense
Gramian scales a block of samples at a time and flushes it into G by one
product (``_gramian_sum``), so a sample costs one copy per control in Python;
the verification march (``observations_of``) scales its record after the
march (``dynamics._observation_recorder``). In the transposed cascade nothing
feeds component 1 and a seed on component N never leaves it, so for N >= 2
the last component's seeds are not marched: their rows are filled from the
free trajectories of the first component's seeds (``assemble_dense_gramian``).
The same march yields the Gramian of every shorter horizon as a partial sum,
and that of the free equation on component 1. Second-order synthesis solves
G x = b exactly (eps = 0 allowed); the first-order family uses the penalized
form (G + eps I) x = b, whose terminal norm scales like sqrt(eps) under null
controllability; ``epsilon_sweep`` fits that exponent from one
eigendecomposition shared by every eps. Every synthesis is verified by
re-simulation, and a sweep verifies all its eps at once: the solved seeds go
through one batched adjoint march and their controls through one batched
forward march, whatever the number of eps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dynamics import (
    CascadeSystem,
    ControlSignal,
    SystemState,
    _cn_adjoint,
    _hyp_adjoint,
    _observation_recorder,
    adjoint_system,
    energy,
    quadrature,
    sample_weights,
    solve,
    state_l2_norm,
    step_count,
    zero_state,
    _check_cfl,
)
from .errors import NotApplicableError
from .geometry import Support

# ---------------------------------------------------------------------------
# seed space
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeedSpace:
    """Filtered adjoint seeds in real orthonormal coordinates.

    A seed is a real vector of ``dim`` coordinates (leading batch axes
    allowed), ordered by component, then mode, then slot. The slots of mode j
    are (sqrt(lambda_j) position, velocity) for the second-order family, so
    that the plain dot product is the energy pairing; (Re, Im) of the
    coefficient for a complex first-order family; the coefficient alone for a
    real one.
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
    def _slots(self):
        """Real coordinates per component and mode."""
        return 2 if self.hyperbolic or self.sys.state_dtype == np.complex128 else 1

    @property
    def dim(self):
        """Number of real coordinates, the order of the Gramian."""
        return self.sys.N * self.K * self._slots

    def energy_of(self, x):
        """Natural filtered energy of one seed/readout (per-component list, total)."""
        if x.shape != (self.dim,):
            raise ValueError(f"seed of shape {x.shape} != ({self.dim},)")
        per = [float(v) for v in 0.5 * np.sum(x.reshape(self.sys.N, -1) ** 2, axis=1)]
        return per, float(sum(per))

    def adjoint_terminal_levels(self, x, dt):
        """Backward starting data of the adjoint encoding the seed functional."""
        if x.shape[-1:] != (self.dim,):
            raise ValueError(f"seed coordinates of shape {x.shape}: the last axis must be "
                             f"dim = {self.dim}")
        c = x.reshape(x.shape[:-1] + (self.sys.N, self.K, self._slots))
        if self.hyperbolic:
            phi_M = self.synth(c[..., 1])
            pos = c[..., 0] / np.sqrt(self.eigenvalues)
            phi_M1 = phi_M + dt * self.synth(self.eigenvalues * pos)
            return phi_M, phi_M1
        if self._slots == 2:
            return self.synth(c[..., 0] + 1j * c[..., 1])
        return self.synth(c[..., 0])

    def synth(self, coeffs):
        return np.tensordot(coeffs, self.modes, axes=([-1], [0]))

    def proj(self, fields):
        return np.tensordot(fields, self.modes, axes=([-1], [1])) * self.sys.grid.hvol

    def readout(self, levels, dt):
        """Coordinates of a forward terminal state (leading batch axes allowed)."""
        if self.hyperbolic:
            y_m1, y_m = levels
            coef = self.proj(y_m)
            c = np.stack([np.sqrt(self.eigenvalues) * coef, self.proj(y_m - y_m1) / dt], axis=-1)
        else:
            c = coef = self.proj(levels)
            if self._slots == 2:
                c = np.stack([coef.real, coef.imag], axis=-1)
        return c.reshape(coef.shape[:-2] + (self.dim,))

    def filtered(self, state):
        """(state projected onto the filter space, L2 norm of what it drops)."""
        hvol = self.sys.grid.hvol
        w = self.synth(self.proj(state.w))
        if self.hyperbolic:
            wp = self.synth(self.proj(state.wp))
            res = math.sqrt((np.sum((state.w - w) ** 2) + np.sum((state.wp - wp) ** 2)) * hvol)
            return SystemState(0.0, w, wp), res
        res = math.sqrt(float(np.real(np.vdot(state.w - w, state.w - w))) * hvol)
        return SystemState(0.0, w.astype(self.sys.state_dtype)), res


# ---------------------------------------------------------------------------
# Gramian
# ---------------------------------------------------------------------------


@dataclass
class GramianOperator:
    """Matrix-free HUM Gramian on the filtered seed space.

    apply(x) runs the backward adjoint solve seeded by coordinates x, feeds
    the recorded observations back as the control of a forward solve from
    rest, and returns the coordinates of the terminal state. Synthesis solves
    with the dense matrix of ``assemble_dense_gramian``; apply stays as its
    independent matrix-free cross-check. ``sys`` is the seed space's (forward) system and
    ``sys_adj`` its transposed orientation.
    """

    seeds: SeedSpace
    T: float
    dt: float

    def __post_init__(self):
        self.sys = self.seeds.sys
        self.sys_adj = adjoint_system(self.sys)
        self.M = step_count(self.T, self.dt)
        self.weights = sample_weights(self.sys, self.M, self.dt)
        if self.sys.is_hyperbolic:
            _check_cfl(self.sys, self.dt)

    def march_adjoint(self, x, visit):
        """Seed the adjoint march with coordinates x (leading batch axes
        allowed) and run it.

        visit(n, field) sees the adjoint field behind sample n (a leapfrog
        level, or a Crank-Nicolson midpoint value) as it is made. The field
        is a reused buffer, valid only during the call: copy what is kept.
        """
        start = self.seeds.adjoint_terminal_levels(x, self.dt)
        if self.seeds.hyperbolic:
            _hyp_adjoint(self.sys_adj, *start, self.M, self.dt, visit)
        else:
            _cn_adjoint(self.sys_adj, start, self.M, self.dt, visit)

    def observations_of(self, x):
        """The ControlSignal of adjoint observations seeded by coordinates x.

        x may carry leading batch axes; values[k] is (M + 1, *batch[, n_support]),
        exactly 0 wherever ``weights`` is 0.
        """
        batch = x.shape[:-1]
        visit, observations = _observation_recorder(self.sys_adj, self.weights, batch)
        self.march_adjoint(x, visit)
        return ControlSignal(self.dt * np.arange(self.M + 1), observations(), batch)

    def forward_with_control(self, signal, initial=None):
        """(readout coordinates, terminal SystemState) of the forward march from
        ``initial`` (rest by default) under ``signal``; a batched signal gives
        a batched readout and terminal state."""
        init = initial if initial is not None else zero_state(self.sys)
        levels, terminal = solve(self.sys, init, signal, self.T, self.dt)
        return self.seeds.readout(levels, self.dt), terminal

    def apply(self, x):
        return self.forward_with_control(self.observations_of(x))[0]


# observation columns gathered per rank-k update of G; small, to bound peak memory
_GRAMIAN_BLOCK_COLUMNS = 512


def _gramian_sum(sys_adj, dim, weights, rows=None):
    """(add, total): the running sum G = sum_n w_n O_n O_n^T of one functional.

    The sum is kept in three steps: record, scale and flush.
    - Record: add(n, record) takes sample n, where record(k, out) copies the
      raw values that control k observes (``CascadeSystem._select``) of every
      seed into out, dim rows. rows[k] (all dim by default) is how many
      leading rows it writes; the rest of control k's rows of O_n are 0. The
      values go into a (dim, S, n_cols) record per control, S the samples of
      one block, with nothing else done per sample.
    - Scale: once per block, the recorded samples of each control get the
      observation arithmetic in one pass each: ``CascadeSystem._scale``, then
      sqrt(w_n), times sqrt(hvol) when distributed, then the split of a
      complex observation into real and imaginary parts. These are the
      operations of ``extract`` and sqrt(w_n scale) per value, in that order,
      so every value keeps its bits.
    - Flush: the scaled block, columns ordered by sample, control and part,
      is reduced into G by one product as soon as it is full.
    total() is 0.5 (G + G^T) with the partial block scaled and its product
    added but not flushed; the raw record is left alone, so the sum goes on
    with the bits it would have had.
    """
    is_complex = sys_adj.state_dtype == np.complex128
    # (k, column count, scale, end control?, rows written)
    parts = [(k, ctl.size, sys_adj.grid.hvol, False) if isinstance(ctl, Support)
             else (k, 1, 1.0, True) for k, ctl in sys_adj.controls.items()]
    parts = [(*p, dim if rows is None else rows[p[0]]) for p in parts]
    per_sample = (2 if is_complex else 1) * sum(p[1] for p in parts)
    # the block holds exactly the samples of one flush, so a full block is
    # reduced as it stands and every flush starts on the same column layout
    n_samples = -(-_GRAMIAN_BLOCK_COLUMNS // max(per_sample, 1))
    records = {k: np.zeros((dim, n_samples, n_cols), dtype=sys_adj.state_dtype)
               for k, n_cols, *_ in parts}
    recorded_weights = np.zeros(n_samples)
    block = np.zeros((dim, n_samples, per_sample))
    mat = np.zeros((dim, dim))
    filled = 0

    def scaled():
        """The recorded samples, scaled into the block: its first columns."""
        col = 0
        for k, n_cols, scale, _, r in parts:
            root = np.sqrt(recorded_weights[:filled] * scale)[:, None]
            raw, dst = records[k][:r, :filled], block[:r, :filled, col:col + n_cols]
            if is_complex:
                o = sys_adj._scale(k, raw)
                o *= root
                dst[...] = o.real
                col += n_cols
                block[:r, :filled, col:col + n_cols] = o.imag
            else:
                sys_adj._scale(k, raw, out=dst)
                dst *= root
            col += n_cols
        return block.reshape(dim, -1)[:, :filled * per_sample]

    def add(n, record):
        nonlocal mat, filled
        if weights[n] == 0.0:
            return
        for k, _, _, end, _ in parts:
            slot = records[k][:, filled]
            record(k, slot[:, 0] if end else slot)
        recorded_weights[filled] = weights[n]
        filled += 1
        if filled == n_samples:
            obs = scaled()
            mat += obs @ obs.T
            filled = 0

    def total():
        m = mat
        if filled:
            obs = np.ascontiguousarray(scaled())
            m = mat + obs @ obs.T
        return 0.5 * (m + m.T)

    return add, total


def assemble_dense_gramian(gram, steps=None, free=None):
    """Dense Gramian in the seed coordinates, from one batched adjoint march.

    The march is seeded by rows of the identity; each sample's observations
    O_n are reduced on the fly into G += w_n O_n O_n^T with the weights
    ``gram.weights`` and the grid volume for distributed observations, the
    bilinear form ``quadrature`` defines, so no trajectory is kept. Complex
    observations are split into real and imaginary parts, matching the (Re,
    Im) coordinate slots; the unimodular Crank-Nicolson phase factor drops
    out of Re <a, b>.

    For N >= 2 only the seeds of components 1..N-1 are marched. In the
    transposed cascade nothing feeds component 1, and a seed on component N
    never leaves it, so component 1 of the first dim // N seeds and component
    N of the last dim // N seeds are the same free trajectories. The last
    seeds' rows are therefore filled from the first seeds: the observation
    of their component-1 field for a control on component N, exact zeros for
    a control on a lower one. Every leapfrog operation is elementwise, so
    these rows carry the bits of a full-identity march (a zero may differ in
    sign); the Crank-Nicolson sine transform is a batched product, whose rows
    keep their bits whatever rows sit beside them on the BLAS in use.

    ``steps`` lists step counts M_j <= gram.M; G(M_j dt) is a partial sum of
    the one march (the adjoint field s steps after its terminal data does
    not depend on the horizon), read off as its last sample is reduced, and
    bitwise the Gramian of its own march. ``free`` is the GramianOperator of
    a single free equation on component 1's seeds (dim // N of them, same
    family, dt and horizon); its Gramian is reduced from component 1 of the
    marched seeds, in its own block. Returns G, a list with one G per entry
    of ``steps`` when they are given, and with ``free`` a pair (G, free
    Gramian) in place of each G.
    """
    seeds, sys_adj = gram.seeds, gram.sys_adj
    dim, N = seeds.dim, sys_adj.N
    per = dim // N
    marched = dim - per if N > 1 else dim
    # a control on a lower component leaves the last seeds' rows at 0
    rows = {k: dim if k == N else marched for k in sys_adj.controls}
    add, total = _gramian_sum(sys_adj, dim, gram.weights, rows)
    totals = [total]
    if free is not None:
        if free.sys_adj.N != 1 or free.seeds.dim != per or free.M != gram.M:
            raise ValueError("free must be one equation on component 1's seeds, over the same steps")
        add_free, total_free = _gramian_sum(free.sys_adj, per, free.weights)
        totals.append(total_free)
    counts = [gram.M] if steps is None else list(steps)
    if not all(2 <= m <= gram.M for m in counts):
        raise ValueError(f"step counts {counts} outside 2..{gram.M}")
    # the last weighted sample of horizon m: leapfrog weighs s = 1..m-1 steps
    # after the terminal data, Crank-Nicolson s = 1..m
    last = {}
    for j, m in enumerate(counts):
        last.setdefault(gram.M - m + seeds.hyperbolic, []).append(j)
    out = [None] * len(counts)

    def visit(n, fld):
        def record(k, o):
            sys_adj._select(k, fld[:, k - 1], out=o[:marched])
            if k == N and marched < dim:
                sys_adj._select(k, fld[:per, 0], out=o[marched:])

        add(n, record)
        if free is not None:
            add_free(n, lambda k, o: free.sys_adj._select(k, fld[:per, 0], out=o))
        for j in last.get(n, ()):
            mats = tuple(t() for t in totals)
            out[j] = mats if free is not None else mats[0]

    gram.march_adjoint(np.eye(dim)[:marched], visit)
    return out if steps is not None else out[0]


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
    ``wall_time`` is the shared set-up plus the one batched verification, so
    in a sweep every eps reports the same time.
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
        """Every field but the control and the two states, which go to CSV."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("control", "terminal_state", "initial_state")}


def _check_eps(sys, eps):
    if not sys.is_hyperbolic and eps <= 0.0:
        raise ValueError("the first-order family needs eps > 0 (penalized HUM)")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")


class _Synthesis:
    """The eps-independent part of a synthesis: filtered data, free solution,
    right-hand side and Gramian spectrum; ``run`` solves and verifies a list
    of eps.
    """

    def __init__(self, sys, Y0, T, dt, K_filter):
        t0 = time.perf_counter()
        if sys.transposed:
            raise ValueError("pass the forward system")
        if not sys.controls:
            raise NotApplicableError("system carries no control; synthesis needs a "
                                     "controlled component")
        self.sys = sys
        self.seeds = SeedSpace(sys, K_filter)
        self.gram = GramianOperator(self.seeds, T, dt)

        self.Y0f, self.projection_residual = self.seeds.filtered(Y0)
        self.initial_energy = energy(sys, self.Y0f).total
        free_readout, free = self.gram.forward_with_control(None, initial=self.Y0f)
        # minus the free terminal readout: a solved system cancels it
        self.b = -free_readout
        self.free_norm = state_l2_norm(sys, free)
        self.free_energy = energy(sys, free).total
        self.spectrum = GramianSpectrum(assemble_dense_gramian(self.gram))
        self.setup_time = time.perf_counter() - t0

    def run(self, eps_list, cg_tol, max_iter):
        """One HumResult per eps. Every eps is solved on the shared spectrum
        first; the solved seeds then go through one batched adjoint march and
        their controls through one batched forward march from the filtered
        initial data, which verify every eps at once."""
        t0 = time.perf_counter()
        if max_iter is None:
            max_iter = DEFAULT_REFINEMENT_PASSES
        sols = [self.spectrum.solve(self.b, eps, cg_tol, max_iter) for eps in eps_list]

        signals = self.gram.observations_of(np.stack([sol.x for sol in sols]))
        readouts, terminals = self.gram.forward_with_control(signals, initial=self.Y0f)
        wall_time = self.setup_time + time.perf_counter() - t0
        return [self._result(eps, sol, signals.member(i), readouts[i], terminals.member(i),
                             wall_time)
                for i, (eps, sol) in enumerate(zip(eps_list, sols))]

    def _result(self, eps, sol, signal, readout, terminal, wall_time):
        """The HumResult of one eps: its solve and its member of the verification."""
        sys, gram, seeds = self.sys, self.gram, self.seeds
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
            control_norm_sq=quadrature(sys, signal.values, signal.values, gram.weights),
            gram_quadratic=float(sol.x @ (self.spectrum.mat @ sol.x)),
            wall_time=wall_time,
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
    readout coordinates of the free terminal state, so an accurate
    solve cancels the filtered terminal state of the re-simulated controlled
    system. ``cg_tol`` gates the relative residual of the direct solve and
    ``max_iter`` caps the refinement passes allowed to reach it.
    """
    _check_eps(sys, eps)
    return _Synthesis(sys, Y0, T, dt, K_filter).run([eps], cg_tol, max_iter)[0]


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
    eigendecomposition serve every eps, and one batched verification (one
    adjoint and one forward march, see ``_Synthesis.run``) re-simulates the
    controls of every eps. Any individual run failure marks the sweep
    partial; the fit then uses the successful runs.
    """
    eps_list = [float(e) for e in eps_list]
    if len(eps_list) < 3:
        raise ValueError("eps sweep needs at least 3 values")
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps values must be strictly decreasing")
    for eps in eps_list:
        _check_eps(sys, eps)
    results = _Synthesis(sys, Y0, T, dt, K_filter).run(eps_list, cg_tol, max_iter)
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
