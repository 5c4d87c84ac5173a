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

Each family has one forward and one backward march; the backward march runs
the transposed-cascade homogeneous system with the same stencils and step
rules. ``solve`` is the one validated forward entry of both families: it
checks the state, the step count, the signal grid and (for leapfrog) the CFL
bound, then runs the family's forward march. A march returns only its
terminal data and takes one optional ``visit`` hook that sees each time level
as it is made: snapshots, observations, energies and duality sums are
visitors. The field passed to ``visit`` may be a buffer the march reuses for
a later level, valid only during the call, so a visitor copies what it
keeps. The leapfrog marches step in preallocated
buffers with a fixed operation order, so their results are bitwise those of
the textbook recurrences. Sampling conventions are chosen so
that the discrete duality identity

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
from dataclasses import dataclass, replace

import numpy as np

from .errors import CflViolationError
from .operators import (
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

    def apply_system(self, Y, out=None):
        """(A + C) Y for the current orientation; Y is (..., N, n_total).

        Written into ``out`` when given, under the rules of
        ``EllipticOperator.matvec``.
        """
        Y = np.asarray(Y)
        self._check_fields(Y)
        out = self.op.matvec(Y, out)
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


def _observation_recorder(sys, n_samples, batch, factor=1.0):
    """(arrays, visit): zeroed arrays[k] of shape (n_samples, *batch[, n_total])
    per controlled component, and the march hook visit(n, field, velocity=None)
    that stores factor * sys.extract(k, field, velocity) as sample n. For
    Crank-Nicolson midpoints the factor is the phase e^{i theta}."""
    arrays = {}
    for k, kind, _ in sys._control_ops:
        tail = (sys.grid.n_total,) if kind == "distributed" else ()
        arrays[k] = np.zeros((n_samples,) + batch + tail, dtype=sys.state_dtype)

    def visit(n, fld, velocity=None):
        for k, arr in arrays.items():
            arr[n] = factor * sys.extract(k, fld, velocity)

    return arrays, visit


def _hyp_forward(sys, w0, wp0, control, forcing, M, dt, visit=None):
    """Forward leapfrog over M steps; returns (y^{M-1}, y^M, velocity at T).

    States may carry leading batch axes, (..., N, n_total); controls and
    forcing act on every batch member alike. ``visit(n, y, velocity)``, when
    given, sees every node with its second-order velocity readout as it is
    made; without it no per-step velocity is computed. The levels live in
    three buffers that the steps rotate, so ``y`` is valid only during the
    call: a visitor copies what it keeps. ``w0`` and ``wp0`` are not written.
    """
    dt2 = dt * dt
    acc = -sys.apply_system(w0)
    _forcing_into(sys, acc, control, forcing, 0)
    if visit is not None:
        visit(0, w0, wp0)
    y_cur = w0 + dt * wp0 + 0.5 * dt2 * acc
    y_prev, y_next, acc = (np.empty_like(y_cur) for _ in range(3))
    np.copyto(y_prev, w0)

    for n in range(1, M):
        sys.apply_system(y_cur, acc)
        np.negative(acc, out=acc)
        _forcing_into(sys, acc, control, forcing, n)
        # y^{n+1} = (2 y^n - y^{n-1}) + dt^2 acc
        np.multiply(2.0, y_cur, out=y_next)
        y_next -= y_prev
        acc *= dt2
        y_next += acc
        if visit is not None:
            # second-order central velocity at the interior node
            visit(n, y_cur, (y_next - y_prev) / (2.0 * dt))
        y_prev, y_cur, y_next = y_cur, y_next, y_prev

    sys.apply_system(y_cur, acc)
    np.negative(acc, out=acc)
    _forcing_into(sys, acc, control, forcing, M)
    vel_T = (y_cur - y_prev) / dt + 0.5 * dt * acc
    if visit is not None:
        visit(M, y_cur, vel_T)
    return y_prev, y_cur, vel_T


def _hyp_adjoint(sys, phi_M, phi_M1, M, dt, visit=None):
    """Backward leapfrog of the homogeneous (transposed) system.

    Starts from the two levels (phi^M, phi^{M-1}), each (..., N, n_total), and
    recurses down to phi^0; returns the adjoint SystemState at t = 0.
    ``visit(n, phi_n)``, when given, sees every level as it is made, so a
    caller can reduce the trajectory on the fly instead of storing it. The
    levels live in three buffers that the steps rotate, so ``phi_n`` is valid
    only during the call: a visitor copies what it keeps. The start levels
    are copied, never written.
    """
    dt2 = dt * dt
    phi_next, phi_cur = np.array(phi_M, dtype=float), np.array(phi_M1, dtype=float)
    phi_new, acc = np.empty_like(phi_cur), np.empty_like(phi_cur)
    if visit is not None:
        visit(M, phi_next)
        visit(M - 1, phi_cur)
    for n in range(M - 1, 0, -1):
        # phi^{n-1} = (2 phi^n - phi^{n+1}) - dt^2 (A + C) phi^n
        np.multiply(2.0, phi_cur, out=phi_new)
        phi_new -= phi_next
        sys.apply_system(phi_cur, acc)
        acc *= dt2
        phi_new -= acc
        if visit is not None:
            visit(n - 1, phi_new)
        phi_next, phi_cur, phi_new = phi_cur, phi_new, phi_next
    # phi_cur = phi^0, phi_next = phi^1
    vel0 = (phi_next - phi_cur) / dt + 0.5 * dt * sys.apply_system(phi_cur)
    return SystemState(0.0, phi_cur, vel0)


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


def _cn_forward(sys, w0, control, forcing, M, dt, visit=None):
    """Crank-Nicolson march of e^{i theta} y_t = -(A + C) y + B v + f.

    Control samples and raw forcing are interval values (entry n acts on
    [t_n, t_{n+1})). The state may carry leading batch axes, (..., N,
    n_total). Returns the terminal field y^M; ``visit(n, y_n)``, when given,
    sees every node as it is made.
    """
    theta = sys.theta
    phase = np.exp(-1j * theta) if theta != 0.0 else 1.0
    kappa = 0.5 * dt * phase
    solver = _ComponentSolver(sys.op, kappa if theta != 0.0 else float(np.real(kappa)))

    y = w0.astype(sys.state_dtype)
    if visit is not None:
        visit(0, y)
    for n in range(M):
        rhs = y - kappa * sys.apply_system(y)
        if control is not None or forcing is not None:
            extra = np.zeros_like(y)
            _forcing_into(sys, extra, control, forcing, n)
            rhs = rhs + (dt * phase) * extra
        y = _cn_solve_plus(sys, solver, kappa, rhs)
        if visit is not None:
            visit(n + 1, y)
    return y


def _adjoint_phase(sys):
    """e^{i theta}, the factor of every first-order adjoint observation (1 at theta = 0)."""
    return np.exp(1j * sys.theta) if sys.theta != 0.0 else 1.0


def _cn_adjoint(sys, phi_T, M, dt, visit=None):
    """Backward dual Crank-Nicolson recursion; returns phi^0.

    With M+- = I +- kappa (A + C) of the forward march, the dual recursion is
    phi^n = M-^* (M+^*)^{-1} phi^{n+1}; the midpoint value
    psi^{n+1/2} = (M+^*)^{-1} phi^{n+1} equals (phi^n + phi^{n+1})/2 exactly and
    carries the observation for interval n (times the phase e^{i theta}).
    ``phi_T`` may carry leading batch axes; ``visit(n, psi)``, when given, sees
    every midpoint value as it is made.
    """
    kappa_bar = 0.5 * dt * _adjoint_phase(sys)
    solver = _ComponentSolver(sys.op, kappa_bar if sys.theta != 0.0 else float(np.real(kappa_bar)))
    phi = phi_T.astype(sys.state_dtype)
    for n in range(M - 1, -1, -1):
        psi = _cn_solve_plus(sys, solver, kappa_bar, phi)
        if visit is not None:
            visit(n, psi)
        phi = 2.0 * psi - phi
    return phi


# ---------------------------------------------------------------------------
# forward solve
# ---------------------------------------------------------------------------


def solve(sys, initial, control, T, dt, visit=None, forcing=None):
    """March the system from ``initial`` over [0, T] under ``control`` and ``forcing``.

    The one forward solve of both families: leapfrog for the second-order
    family, which refuses time steps above the stability bound (see
    cfl_time_step), and Crank-Nicolson for the first-order one, whose control
    and forcing samples are interval values. ``visit`` is the march hook,
    visit(n, y, velocity) for leapfrog and visit(n, y) for Crank-Nicolson.
    Returns (levels, terminal SystemState), where levels is (y^{M-1}, y^M)
    for leapfrog and y^M for Crank-Nicolson, the input of
    ``SeedSpace.readout``.
    """
    _check_state(sys, initial)
    M = step_count(T, dt)
    _check_signal(sys, control, M, dt)
    if sys.is_hyperbolic:
        _check_cfl(sys, dt)
        y_m1, y_m, vel_T = _hyp_forward(sys, initial.w, initial.wp, control, forcing, M, dt, visit)
        return (y_m1, y_m), SystemState(M * dt, y_m, vel_T)
    y_m = _cn_forward(sys, initial.w, control, forcing, M, dt, visit)
    return y_m, SystemState(M * dt, y_m)


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
    hvol = sys.grid.hvol
    levels, _ = solve(sys, zero_state(sys), None, T, dt, forcing=forcing)
    if sys.is_hyperbolic:
        y_m1, y_m = levels
        phi_M, phi_M1 = _adjoint_levels_from_seed(sys, seed, dt)
        return hvol * float(np.sum(y_m * phi_M1) - np.sum(y_m1 * phi_M)) / dt
    return hvol * float(np.real(np.vdot(seed.w, levels)))


def adjoint_duality_quadrature(sys_adj, forcing, seed, T, dt):
    """RHS of the duality identity: time quadrature of <forcing, adjoint>.

    Uses the quadrature exactly dual to the forward scheme: interior rectangle
    weights plus a dt/2-weighted first sample for leapfrog, and midpoint values
    for Crank-Nicolson. Each sample's pairing is reduced as the backward march
    makes it, so only one scalar per step is kept, and the scalars are summed
    forward in time.
    """
    if not sys_adj.transposed:
        raise ValueError("pass the transposed system")
    M = step_count(T, dt)
    terms = np.zeros(M + 1)
    if sys_adj.is_hyperbolic:
        def visit(n, phi):
            if n < M:
                terms[n] = np.sum(forcing[n] * phi)

        _hyp_adjoint(sys_adj, *_adjoint_levels_from_seed(sys_adj, seed, dt), M, dt, visit)
        # interior samples forward in time, then the half-weighted first one
        terms[0] *= 0.5
        order = [*range(1, M), 0]
    else:
        phase_bar = _adjoint_phase(sys_adj)

        def visit(n, psi):
            terms[n] = np.real(np.sum(forcing[n] * np.conj(phase_bar * psi)))

        _cn_adjoint(sys_adj, seed.w, M, dt, visit)
        order = range(M)
    total = 0.0
    for n in order:
        total += float(terms[n])
    return dt * sys_adj.grid.hvol * total
