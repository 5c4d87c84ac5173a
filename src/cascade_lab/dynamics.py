"""Forward and adjoint time integration of cascade systems.

Two evolution families share one state layout:

* second-order (wave-like): explicit leapfrog, y^{n+1} = 2 y^n - y^{n-1}
  - dt^2 (A_sys y^n - f^n), with couplings and controls evaluated at the
  central level. The scheme is started with the standard Taylor half step and
  read out with the matching second-order velocity.
* first-order with phase angle theta (heat for theta = 0, free Schroedinger at
  |theta| = pi/2): Crank-Nicolson on y' = e^{-i theta} (-(A + C) y + B v). The
  cascade pattern is block-triangular, so the implicit solve is one banded (or
  factored sparse) solve per component per step, in cascade order.

Adjoint solves run the transposed-cascade homogeneous system backward with the
same stencils and step rules. Sampling conventions are chosen so that the
discrete duality identity

    pairing(terminal state, seed) = time-quadrature of <forcing, adjoint>

holds to round-off and not merely to O(dt^2): the leapfrog pairing is the
staggered bracket (<y^M, phi^{M-1}> - <y^{M-1}, phi^M>)/dt with interior
rectangle weights in time, and the Crank-Nicolson pairing uses the midpoint
adjoint values, which coincide with averaged node values exactly. Control
signals therefore carry their own quadrature weights: node-sampled signals use
trapezoid weights (with zero end samples where synthesis demands exactness)
and first-order-family signals are piecewise constant per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CflViolationError
from .operators import (
    BoundaryEnd,
    ControlSpec,
    CouplingSpec,
    Distributed,
    EllipticOperator,
    SpectralBasis,
    indicator_vector,
)

# ---------------------------------------------------------------------------
# families and the assembled system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperbolic:
    kind: str = "hyperbolic"


@dataclass(frozen=True)
class Dissipative:
    """First-order family with phase angle theta in [-pi/2, pi/2]."""

    theta: float = 0.0
    kind: str = "dissipative"

    def __post_init__(self):
        if abs(self.theta) > math.pi / 2 + 1e-12:
            raise ValueError("theta must lie in [-pi/2, pi/2]")


@dataclass(frozen=True)
class CascadeSystem:
    """Discretized N-component cascade system.

    ``transposed`` selects the adjoint orientation: coupling entry (i, j) then
    feeds component i into equation j instead of j into i, and the controlled
    components become observation points.
    """

    family: object
    op: EllipticOperator
    basis: SpectralBasis
    N: int
    p: int
    coupling: CouplingSpec
    control: ControlSpec
    transposed: bool = False
    indicator_taper: float = 0.0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        if self.coupling.N != self.N or self.control.N != self.N:
            raise ValueError("coupling/control dimensioned for a different N")
        if self.control.p != self.p:
            raise ValueError("control spec p mismatch")
        if self.control.entries and not 0 <= self.p <= self.N - 1:
            raise ValueError("controlled system needs 0 <= p <= N-1")
        object.__setattr__(self, "_coupling_fields", tuple(
            ((i, j), indicator_vector(region, self.grid, taper=self.indicator_taper,
                                      warn=not self.transposed))
            for (i, j), region in self.coupling.entries
        ))
        ctl = []
        for k, kind in self.control.entries:
            if isinstance(kind, Distributed):
                b = indicator_vector(kind.region, self.grid, taper=self.indicator_taper, warn=False)
                ctl.append((k, "distributed", b))
            else:
                if self.grid.dim != 1:
                    raise ValueError("end control is 1D only")
                idx = 0 if kind.end == "left" else self.grid.n[0] - 1
                ctl.append((k, "end", (idx, kind.gain)))
        object.__setattr__(self, "_control_ops", tuple(ctl))

    @property
    def grid(self):
        return self.op.grid

    @property
    def is_hyperbolic(self):
        return isinstance(self.family, Hyperbolic)

    @property
    def theta(self):
        return 0.0 if self.is_hyperbolic else self.family.theta

    @property
    def state_dtype(self):
        if self.is_hyperbolic or self.family.theta == 0.0:
            return np.float64
        return np.complex128

    # -- operator application ------------------------------------------------

    def _check_fields(self, Y):
        if Y.shape[-2:] != (self.N, self.grid.n_total):
            raise ValueError(f"fields of shape {Y.shape} do not end in "
                             f"(N, n_total) = {(self.N, self.grid.n_total)}")

    def apply_system(self, Y):
        """(A + C) Y for the current orientation; Y is (..., N, n_total)."""
        Y = np.asarray(Y)
        self._check_fields(Y)
        out = self.op.matvec(Y)
        for (i, j), ind in self._coupling_fields:
            if self.transposed:
                out[..., j - 1, :] += ind * Y[..., i - 1, :]
            else:
                out[..., i - 1, :] += ind * Y[..., j - 1, :]
        return out

    # -- control injection / observation -------------------------------------

    def _control_op(self, k):
        for comp, kind, data in self._control_ops:
            if comp == k:
                return kind, data
        raise ValueError(f"component {k} carries no control")

    def inject(self, out, k, value, scale=1.0):
        """Add scale * B_k(value) to the forcing array ``out`` (..., N, n_total).

        ``value`` is (..., n_total) for a distributed control and (...) for an
        end control, with the same leading axes as ``out`` (or broadcastable).
        """
        self._check_fields(out)
        kind, data = self._control_op(k)
        if kind == "distributed":
            out[..., k - 1, :] += scale * data * value
        else:
            idx, gain = data
            out[..., k - 1, idx] += scale * (-gain) * value / self.grid.h[0] ** 2

    def extract(self, k, Y, velocity=None):
        """Observation of component k of the fields Y (..., N, n_total).

        The exact discrete adjoint of ``inject``: (..., n_total) for a
        distributed control, (...) for an end control. A distributed control
        observes ``velocity`` instead of Y when one is given (the forward
        second-order readout); an end control always observes Y.
        """
        self._check_fields(Y)
        kind, data = self._control_op(k)
        if kind == "distributed":
            fld = Y if velocity is None else velocity
            return data * fld[..., k - 1, :]
        idx, gain = data
        return -gain * Y[..., k - 1, idx] / self.grid.h[0]

    def controlled_components(self):
        return tuple(k for k, _, _ in self._control_ops)

    def observation_kind(self):
        kinds = {kind for _, kind, _ in self._control_ops}
        return kinds.pop() if len(kinds) == 1 else "mixed"


def adjoint_system(sys):
    """Transposed-cascade orientation of a system; controls become observations."""
    if sys.transposed:
        raise ValueError("system is already transposed")
    return replace(sys, transposed=True)


# ---------------------------------------------------------------------------
# states, signals, energies
# ---------------------------------------------------------------------------


@dataclass
class SystemState:
    """State at one instant: fields w (N, n_total) and, when second-order, w'."""

    t: float
    w: np.ndarray
    wp: np.ndarray | None = None

    def copy(self):
        return SystemState(self.t, self.w.copy(), None if self.wp is None else self.wp.copy())


def zero_state(sys, t=0.0):
    shape = (sys.N, sys.grid.n_total)
    w = np.zeros(shape, dtype=sys.state_dtype)
    wp = np.zeros(shape, dtype=np.float64) if sys.is_hyperbolic else None
    return SystemState(t, w, wp)


def _check_state(sys, state):
    shape = (sys.N, sys.grid.n_total)
    if state.w.shape != shape:
        raise ValueError(f"state shape {state.w.shape} != {shape}")
    if sys.is_hyperbolic:
        if state.wp is None or state.wp.shape != shape:
            raise ValueError("second-order family needs (w, w') of matching shape")
        if np.iscomplexobj(state.w) or np.iscomplexobj(state.wp):
            raise ValueError("second-order states are real")


@dataclass
class ControlSignal:
    """Time-sampled control values for each controlled component.

    ``t`` holds floor(T/dt)+1 node times. ``sampling`` is "node" (value applies
    at the node; trapezoid quadrature) or "interval" (entry n applies on
    [t_n, t_{n+1}); the final entry is a zero pad with zero weight). The
    weights define the L2-in-time norm actually used by the synthesis, so the
    optimality identity ||v||^2 = <G X, X> is exact.
    """

    t: np.ndarray
    values: dict
    weights: np.ndarray
    sampling: str = "node"

    def __post_init__(self):
        for k, arr in self.values.items():
            if arr.shape[0] != self.t.shape[0]:
                raise ValueError(f"component {k}: {arr.shape[0]} samples for {self.t.shape[0]} nodes")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"component {k}: non-finite control samples")

    def norm_sq(self, grid):
        total = 0.0
        for arr in self.values.values():
            mag = np.abs(arr) ** 2
            per_t = mag.sum(axis=-1) * grid.hvol if mag.ndim == 2 else mag
            total += float(self.weights @ per_t)
        return total


def trapezoid_weights(M, dt):
    w = np.full(M + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def interval_weights(M, dt):
    w = np.full(M + 1, dt)
    w[-1] = 0.0
    return w


def zero_signal(sys, T, dt, sampling="node"):
    M = step_count(T, dt)
    t = dt * np.arange(M + 1)
    dtype = sys.state_dtype
    vals = {}
    for k, kind, data in sys._control_ops:
        if kind == "distributed":
            vals[k] = np.zeros((M + 1, sys.grid.n_total), dtype=dtype)
        else:
            vals[k] = np.zeros(M + 1, dtype=dtype)
    weights = trapezoid_weights(M, dt) if sampling == "node" else interval_weights(M, dt)
    return ControlSignal(t, vals, weights, sampling)


@dataclass
class EnergyReport:
    """Natural energy per component and its sum.

    Second-order family: e(w, w') = (|A^{1/2} w|^2 + |w'|^2) / 2 per component.
    First-order family: |w|^2 / 2 per component.
    """

    per_component: list
    total: float

    def to_dict(self):
        return {"per_component": self.per_component, "total": self.total}


def energy(sys, state):
    _check_state(sys, state)
    hvol = sys.grid.hvol
    per = []
    if sys.is_hyperbolic:
        for i in range(sys.N):
            stiff = sys.op.quad_form(state.w[i])
            kin = hvol * float(state.wp[i] @ state.wp[i])
            per.append(0.5 * (stiff + kin))
    else:
        for i in range(sys.N):
            per.append(0.5 * hvol * float(np.real(np.vdot(state.w[i], state.w[i]))))
    return EnergyReport(per, float(sum(per)))


def state_l2_norm(sys, state):
    """Discrete L2 norm of the stacked fields (positions only)."""
    return float(np.sqrt(np.real(np.vdot(state.w, state.w)) * sys.grid.hvol))


# ---------------------------------------------------------------------------
# step bookkeeping
# ---------------------------------------------------------------------------


def step_count(T, dt):
    if T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive")
    M = int(round(T / dt))
    if M < 2 or abs(M * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"dt={dt!r} must divide T={T!r} into at least 2 steps")
    return M


def cfl_time_step(sys):
    """Largest admissible leapfrog step, 0.9 * 2 / sqrt(lambda_max)."""
    _, lam_max = sys.op.eigenvalue_bounds()
    return 0.9 * 2.0 / math.sqrt(lam_max)


def _check_cfl(sys, dt):
    dt_max = cfl_time_step(sys)
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolationError(dt, dt_max)


def _check_signal(sys, control, M, dt):
    if control is None:
        return
    if control.t.shape[0] != M + 1 or abs(control.t[-1] - M * dt) > 1e-9 * max(M * dt, 1.0):
        raise ValueError("control signal grid does not match the solver grid")


# ---------------------------------------------------------------------------
# leapfrog (second-order family)
# ---------------------------------------------------------------------------


def _forcing_into(sys, out, control, forcing, n):
    if control is not None:
        for k, arr in control.values.items():
            sys.inject(out, k, arr[n])
    if forcing is not None:
        out += forcing[n]


def _observation_arrays(sys, n_samples, batch, dtype):
    """Zeroed sample arrays per controlled component: (n_samples, *batch[, n_total])."""
    obs = {}
    for k, kind, _ in sys._control_ops:
        tail = (sys.grid.n_total,) if kind == "distributed" else ()
        obs[k] = np.zeros((n_samples,) + batch + tail, dtype=dtype)
    return obs


def _hyp_forward(sys, w0, wp0, control, forcing, M, dt, collect=()):
    """Forward leapfrog over M steps; returns the last two levels and extras.

    States may carry leading batch axes, (..., N, n_total); controls and
    forcing act on every batch member alike. ``collect`` may contain
    "observations" (node-sampled adjoint observations of the running
    trajectory), "energies" (natural energy at each node) and "snapshots"
    (dict idx -> (w, w') readouts, requested via collect_snapshots).
    """
    dt2 = dt * dt
    batch = w0.shape[:-2]
    want_obs = "observations" in collect
    want_energy = "energies" in collect
    snap_idx = collect["snapshots"] if isinstance(collect, dict) else {}

    obs = _observation_arrays(sys, M + 1, batch, np.float64) if want_obs else None
    energies = np.zeros((M + 1,) + batch) if want_energy else None
    snapshots = {}

    hvol = sys.grid.hvol

    def record(n, y_cur, vel):
        if want_obs:
            for k in obs:
                obs[k][n] = sys.extract(k, y_cur, velocity=vel)
        if want_energy:
            stiff = np.sum(sys.op.matvec(y_cur) * y_cur, axis=(-2, -1)) * hvol
            kin = np.sum(vel * vel, axis=(-2, -1)) * hvol
            energies[n] = 0.5 * (stiff + kin)
        if n in snap_idx:
            snapshots[n] = (y_cur.copy(), vel.copy())

    need_side = want_obs or want_energy or bool(snap_idx)

    acc = -sys.apply_system(w0)
    _forcing_into(sys, acc, control, forcing, 0)
    if need_side:
        record(0, w0, wp0)
    y_prev = w0.copy()
    y_cur = w0 + dt * wp0 + 0.5 * dt2 * acc

    for n in range(1, M):
        acc = -sys.apply_system(y_cur)
        _forcing_into(sys, acc, control, forcing, n)
        y_next = 2.0 * y_cur - y_prev + dt2 * acc
        if need_side:
            # second-order central velocity at the interior node
            record(n, y_cur, (y_next - y_prev) / (2.0 * dt))
        y_prev, y_cur = y_cur, y_next

    acc = -sys.apply_system(y_cur)
    _forcing_into(sys, acc, control, forcing, M)
    vel_T = (y_cur - y_prev) / dt + 0.5 * dt * acc
    if need_side:
        record(M, y_cur, vel_T)
    return {
        "levels": (y_prev, y_cur),
        "terminal": SystemState(M * dt, y_cur.copy(), vel_T),
        "observations": obs,
        "energies": energies,
        "snapshots": snapshots,
    }


def _hyp_adjoint(sys, phi_M, phi_M1, M, dt, collect=("observations",), visit=None):
    """Backward leapfrog of the homogeneous (transposed) system.

    Starts from the two levels (phi^M, phi^{M-1}), each (..., N, n_total), and
    recurses down to phi^0, recording the requested data. Observations are
    node-sampled values of the extraction operator applied to the running
    field. ``visit(n, phi_n)``, when given, sees every level as it is made, so
    a caller can reduce the trajectory on the fly instead of storing it.
    """
    dt2 = dt * dt
    want_obs = "observations" in collect
    want_traj = "trajectory" in collect

    obs = _observation_arrays(sys, M + 1, phi_M.shape[:-2], np.float64) if want_obs else None
    traj = np.zeros((M + 1,) + phi_M.shape) if want_traj else None

    def record(n, fld):
        if want_obs:
            for k in obs:
                obs[k][n] = sys.extract(k, fld)
        if want_traj:
            traj[n] = fld
        if visit is not None:
            visit(n, fld)

    record(M, phi_M)
    record(M - 1, phi_M1)
    phi_next, phi_cur = phi_M, phi_M1
    for n in range(M - 1, 0, -1):
        phi_prevl = 2.0 * phi_cur - phi_next - dt2 * sys.apply_system(phi_cur)
        record(n - 1, phi_prevl)
        phi_next, phi_cur = phi_cur, phi_prevl
    # phi_cur = phi^0, phi_next = phi^1
    vel0 = (phi_next - phi_cur) / dt + 0.5 * dt * sys.apply_system(phi_cur)
    initial = SystemState(0.0, phi_cur.copy(), vel0)
    return {"observations": obs, "trajectory": traj, "initial": initial}


def leapfrog_energy(sys, y_a, y_b, dt):
    """Discrete energy conserved exactly by the free leapfrog step.

    E = |y_b - y_a|^2 / (2 dt^2) + <A_sys y_a, y_b> / 2 for consecutive levels.
    """
    hvol = sys.grid.hvol
    diff = (y_b - y_a) / dt
    kin = 0.5 * hvol * float(np.sum(diff * diff))
    pot = 0.5 * hvol * float(np.sum(sys.apply_system(y_a) * y_b))
    return kin + pot


# ---------------------------------------------------------------------------
# Crank-Nicolson (first-order family)
# ---------------------------------------------------------------------------


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _ComponentSolver:
    """Factored solve of (I + kappa A) on one component field.

    In 1D each solve is one LAPACK ?gtsv call on the tridiagonal matrix, the
    routine ``scipy.linalg.solve_banded`` calls, without its per-call
    validation. scipy is imported here rather than at module level, so
    second-order runs never load it.
    """

    def __init__(self, op, kappa):
        grid = op.grid
        dtype = np.complex128 if isinstance(kappa, complex) else np.float64
        self._lu = None
        if grid.dim == 1:
            from scipy.linalg import get_lapack_funcs

            n = grid.n[0]
            h2 = grid.h[0] ** 2
            off = np.full(n - 1, -kappa / h2, dtype=dtype)
            diag = np.full(n, 1.0 + 2.0 * kappa / h2, dtype=dtype)
            _require_finite(diag)  # finite diag means finite kappa / h2, so finite off
            self._gtsv, = get_lapack_funcs(("gtsv",), (diag,))
            self._bands = (off, diag, off)
        else:
            import scipy.sparse
            import scipy.sparse.linalg

            mat = scipy.sparse.identity(grid.n_total, dtype=dtype, format="csc") + kappa * op.to_sparse().astype(dtype)
            self._lu = scipy.sparse.linalg.splu(mat.tocsc())

    def solve(self, rhs):
        """Solve for fields (..., n_total); a batch goes as many right-hand sides in one call."""
        cols = rhs.reshape(-1, rhs.shape[-1]).T
        if self._lu is not None:
            return self._lu.solve(cols).T.reshape(rhs.shape)
        dtype = self._bands[1].dtype
        if not np.can_cast(cols.dtype, dtype):
            raise ValueError(f"{cols.dtype} right-hand side for a {dtype} matrix")
        _require_finite(cols)
        *_, out, info = self._gtsv(*self._bands, cols)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        return out.T.reshape(rhs.shape)


def _cn_solve_plus(sys, solver, kappa, rhs):
    """Solve (I + kappa (A + C)) y = rhs via cascade back-substitution."""
    y = np.empty_like(rhs)
    order = range(sys.N, 0, -1) if not sys.transposed else range(1, sys.N + 1)
    for comp in order:
        r = rhs[..., comp - 1, :].copy()
        for (i, j), ind in sys._coupling_fields:
            if not sys.transposed and i == comp:
                r -= kappa * ind * y[..., j - 1, :]
            elif sys.transposed and j == comp:
                r -= kappa * ind * y[..., i - 1, :]
        y[..., comp - 1, :] = solver.solve(r)
    return y


def _cn_forward(sys, w0, control, forcing, M, dt, collect=()):
    """Crank-Nicolson march of e^{i theta} y_t = -(A + C) y + B v + f.

    Control samples and raw forcing are interval values (entry n acts on
    [t_n, t_{n+1})). The state may carry leading batch axes, (..., N,
    n_total). Returns the terminal field plus requested extras.
    """
    theta = sys.theta
    phase = np.exp(-1j * theta) if theta != 0.0 else 1.0
    kappa = 0.5 * dt * phase
    solver = _ComponentSolver(sys.op, kappa if theta != 0.0 else float(np.real(kappa)))
    dtype = sys.state_dtype
    snap_idx = collect["snapshots"] if isinstance(collect, dict) else {}
    want_norms = "norms" in collect

    y = w0.astype(dtype).copy()
    snapshots = {}
    norms = np.zeros((M + 1,) + y.shape[:-2]) if want_norms else None
    hvol = sys.grid.hvol

    def record(n):
        if want_norms:
            norms[n] = np.sqrt(np.sum(np.real(np.conj(y) * y), axis=(-2, -1)) * hvol)
        if n in snap_idx:
            snapshots[n] = y.copy()

    record(0)
    for n in range(M):
        rhs = y - kappa * sys.apply_system(y)
        if control is not None or forcing is not None:
            extra = np.zeros_like(y)
            _forcing_into(sys, extra, control, forcing, n)
            rhs = rhs + (dt * phase) * extra
        y = _cn_solve_plus(sys, solver, kappa, rhs)
        record(n + 1)
    return {"terminal": SystemState(M * dt, y), "snapshots": snapshots, "norms": norms}


def _cn_adjoint(sys, phi_T, M, dt, collect=("observations",), visit=None):
    """Backward dual Crank-Nicolson recursion with midpoint observations.

    With M+- = I +- kappa (A + C) of the forward march, the dual recursion is
    phi^n = M-^* (M+^*)^{-1} phi^{n+1}; the midpoint value
    psi^{n+1/2} = (M+^*)^{-1} phi^{n+1} equals (phi^n + phi^{n+1})/2 exactly and
    carries the observation for interval n (times the phase e^{i theta}).
    ``phi_T`` may carry leading batch axes; ``visit(n, psi)``, when given, sees
    every midpoint value as it is made.
    """
    theta = sys.theta
    phase_bar = np.exp(1j * theta) if theta != 0.0 else 1.0
    kappa_bar = 0.5 * dt * phase_bar
    solver = _ComponentSolver(sys.op, kappa_bar if theta != 0.0 else float(np.real(kappa_bar)))
    dtype = sys.state_dtype

    want_obs = "observations" in collect
    want_traj = "trajectory" in collect
    obs = _observation_arrays(sys, M + 1, phi_T.shape[:-2], dtype) if want_obs else None
    traj = np.zeros((M,) + phi_T.shape, dtype=dtype) if want_traj else None

    phi = phi_T.astype(dtype).copy()
    for n in range(M - 1, -1, -1):
        psi = _cn_solve_plus(sys, solver, kappa_bar, phi)
        if want_obs:
            for k in obs:
                obs[k][n] = phase_bar * sys.extract(k, psi)
        if want_traj:
            traj[n] = psi
        if visit is not None:
            visit(n, psi)
        phi = 2.0 * psi - phi
    return {"observations": obs, "trajectory": traj, "initial": SystemState(0.0, phi)}


# ---------------------------------------------------------------------------
# public solvers
# ---------------------------------------------------------------------------


@dataclass
class SolveRecord:
    """Bounded-memory trajectory handle: snapshots and optional series.

    ``terminal_levels`` holds the last two leapfrog levels (y^{M-1}, y^M) of a
    second-order solve; filtered terminal energies are defined through their
    staggered readout, so replays can recompute the identical functional.
    """

    times: np.ndarray
    snapshots: list
    observations: ControlSignal | None = None
    energies: np.ndarray | None = None
    norms: np.ndarray | None = None
    terminal_levels: tuple | None = None


def _snapshot_indices(snapshot_times, M, dt):
    idx = {}
    for t in snapshot_times:
        n = int(round(t / dt))
        if not 0 <= n <= M:
            raise ValueError(f"snapshot time {t} outside [0, T]")
        idx[n] = None
    return idx


def solve_hyperbolic(sys, initial, control, T, dt, snapshot_times=(), record_observations=False,
                     record_energies=False, forcing=None):
    """march the second-order cascade system from ``initial`` over [0, T].

    Refuses time steps above the stability bound (see cfl_time_step). Returns
    (SolveRecord, terminal SystemState); the record holds (t, SystemState)
    snapshots and, on request, node-sampled observations of the controlled
    components and the natural-energy series.
    """
    if not sys.is_hyperbolic:
        raise ValueError("system family is not second-order")
    _check_state(sys, initial)
    _check_cfl(sys, dt)
    M = step_count(T, dt)
    _check_signal(sys, control, M, dt)
    collect = {"snapshots": _snapshot_indices(snapshot_times, M, dt)}
    wants = []
    if record_observations:
        wants.append("observations")
    if record_energies:
        wants.append("energies")
    for w in wants:
        collect[w] = None
    out = _hyp_forward(sys, initial.w, initial.wp, control, forcing, M, dt, collect=collect)
    t_nodes = dt * np.arange(M + 1)
    snaps = [(n * dt, SystemState(n * dt, w.copy(), v.copy())) for n, (w, v) in sorted(out["snapshots"].items())]
    obs_signal = None
    if record_observations:
        obs_signal = ControlSignal(t_nodes, out["observations"], trapezoid_weights(M, dt), "node")
    rec = SolveRecord(t_nodes, snaps, obs_signal, out["energies"],
                      terminal_levels=out["levels"])
    return rec, out["terminal"]


def solve_dissipative(sys, initial, control, T, dt, theta=None, snapshot_times=(),
                      record_norms=False, forcing=None):
    """March the first-order family over [0, T] with Crank-Nicolson steps.

    ``theta`` may restate the system angle (it must then match). Control and
    forcing samples are interval values. Unconditionally stable; one banded or
    factored solve per component per step.
    """
    if sys.is_hyperbolic:
        raise ValueError("system family is not first-order")
    if theta is not None and abs(theta - sys.family.theta) > 1e-12:
        raise ValueError("theta disagrees with the system family")
    _check_state(sys, initial)
    M = step_count(T, dt)
    _check_signal(sys, control, M, dt)
    collect = {"snapshots": _snapshot_indices(snapshot_times, M, dt)}
    if record_norms:
        collect["norms"] = None
    out = _cn_forward(sys, initial.w, control, forcing, M, dt, collect=collect)
    t_nodes = dt * np.arange(M + 1)
    snaps = [(n * dt, SystemState(n * dt, w.copy())) for n, w in sorted(out["snapshots"].items())]
    rec = SolveRecord(t_nodes, snaps, None, None, out["norms"])
    return rec, out["terminal"]


def solve_adjoint(sys, seed, T, dt):
    """Backward homogeneous solve of the transposed system from terminal data.

    Records the observation of every controlled component along the way and
    returns (observations as ControlSignal, adjoint state at t = 0). The seed
    is terminal data at t = T: (w, w') for the second-order family, a single
    field for the first-order one.
    """
    if not sys.transposed:
        raise ValueError("adjoint solves need the transposed system (adjoint_system)")
    _check_state(sys, seed)
    M = step_count(T, dt)
    t_nodes = dt * np.arange(M + 1)
    if sys.is_hyperbolic:
        _check_cfl(sys, dt)
        phi_M, phi_M1 = _adjoint_levels_from_seed(sys, seed, dt)
        out = _hyp_adjoint(sys, phi_M, phi_M1, M, dt, collect=("observations",))
        signal = ControlSignal(t_nodes, out["observations"], trapezoid_weights(M, dt), "node")
        return signal, out["initial"]
    out = _cn_adjoint(sys, seed.w, M, dt, collect=("observations",))
    signal = ControlSignal(t_nodes, out["observations"], interval_weights(M, dt), "interval")
    return signal, out["initial"]


def _adjoint_levels_from_seed(sys, seed, dt):
    """Starting levels of the backward trajectory encoding a terminal pairing.

    The integrated trajectory phi plays the velocity of the abstract adjoint:
    phi^M = w'(T) and phi^{M-1} = phi^M + dt * A w(T), so the staggered bracket
    against a forward solution equals <y(T), A w(T)> + <velocity(T), w'(T)>.
    """
    phi_M = seed.wp.copy()
    phi_M1 = phi_M + dt * sys.op.matvec(seed.w)
    return phi_M, phi_M1


# ---------------------------------------------------------------------------
# discrete duality (two independently computable sides)
# ---------------------------------------------------------------------------


def forward_duality_pairing(sys, forcing, seed, T, dt):
    """LHS of the duality identity: pairing of F(forcing) with the seed.

    Solves forward from rest with the raw additive forcing and evaluates the
    terminal pairing functional determined by the seed. No adjoint solve is
    involved, so this side is independent of adjoint code paths.
    """
    M = step_count(T, dt)
    hvol = sys.grid.hvol
    if sys.is_hyperbolic:
        rest = zero_state(sys)
        out = _hyp_forward(sys, rest.w, rest.wp, None, forcing, M, dt)
        y_m1, y_m = out["levels"]
        phi_M, phi_M1 = _adjoint_levels_from_seed(sys, seed, dt)
        return hvol * float(np.sum(y_m * phi_M1) - np.sum(y_m1 * phi_M)) / dt
    out = _cn_forward(sys, zero_state(sys).w, None, forcing, M, dt)
    return hvol * float(np.real(np.vdot(seed.w, out["terminal"].w)))


def adjoint_duality_quadrature(sys_adj, forcing, seed, T, dt):
    """RHS of the duality identity: time quadrature of <forcing, adjoint>.

    Uses the quadrature exactly dual to the forward scheme: interior rectangle
    weights plus a dt/2-weighted first sample for leapfrog, and midpoint values
    for Crank-Nicolson.
    """
    if not sys_adj.transposed:
        raise ValueError("pass the transposed system")
    M = step_count(T, dt)
    hvol = sys_adj.grid.hvol
    if sys_adj.is_hyperbolic:
        phi_M, phi_M1 = _adjoint_levels_from_seed(sys_adj, seed, dt)
        out = _hyp_adjoint(sys_adj, phi_M, phi_M1, M, dt, collect=("trajectory",))
        traj = out["trajectory"]
        total = 0.0
        for n in range(1, M):
            total += float(np.sum(forcing[n] * traj[n]))
        total += 0.5 * float(np.sum(forcing[0] * traj[0]))
        return dt * hvol * total
    theta = sys_adj.theta
    phase_bar = np.exp(1j * theta) if theta != 0.0 else 1.0
    out = _cn_adjoint(sys_adj, seed.w, M, dt, collect=("trajectory",))
    traj = out["trajectory"]
    total = 0.0
    for n in range(M):
        total += float(np.real(np.sum(forcing[n] * np.conj(phase_bar * traj[n]))))
    return dt * hvol * total
