"""Forward and adjoint time integration of cascade systems.

Two evolution families share one state layout:

* second-order (wave-like): explicit leapfrog, y^{n+1} = 2 y^n - y^{n-1}
  - dt^2 (A_sys y^n - f^n), with couplings and controls evaluated at the
  central level. The scheme is started with the standard Taylor half step and
  read out with the matching second-order velocity.
* first-order with phase angle theta (heat for theta = 0, free Schroedinger at
  |theta| = pi/2): Crank-Nicolson on y' = e^{-i theta} (-(A + C) y + B v). The
  cascade pattern is block-triangular, so the implicit solve is one solve of
  (I + kappa A) per component per step, in cascade order. The sampled sines
  diagonalize the stencil exactly, so that solve is a sine transform, a
  division by 1 + kappa lambda and the transform back.

Each family has one forward and one backward march; the backward march runs
the transposed-cascade homogeneous system with the same stencils and step
rules. ``solve`` is the one validated forward entry of both families: it
checks the state, the step count, the signal grid and (for leapfrog) the CFL
bound, then runs the family's forward march. A march returns only its
terminal data and takes one optional ``visit`` hook that sees each time level
as it is made: snapshots, observations, energies and duality sums are
visitors. The field passed to ``visit`` may be a buffer the march reuses for
a later level, valid only during the call, so a visitor copies what it
keeps. The two leapfrog marches share one fused step in preallocated
buffers (``_leapfrog``): a single coefficient stencil forms 2 y - dt^2 A y,
and the other terms follow on it. Its results differ from the textbook order
of operations by round-off only (about 1e-13 relative after a thousand steps
on the wave demo), every operation is elementwise, so a batch member is
bitwise its unbatched march, and the forward and backward marches use the
same step. Sampling conventions are chosen so
that the discrete duality identity

    pairing(terminal state, seed) = time-quadrature of <forcing, adjoint>

holds to round-off and not merely to O(dt^2): the leapfrog pairing is the
staggered bracket (<y^M, phi^{M-1}> - <y^{M-1}, phi^M>)/dt with interior
rectangle weights in time, and the Crank-Nicolson pairing uses the midpoint
adjoint values, which coincide with averaged node values exactly. The family
therefore owns the time quadrature of the control norm: ``sample_weights``
weighs the interior leapfrog nodes by dt and the two end samples by 0, and
each Crank-Nicolson interval (its signals are piecewise constant per step) by
dt and the final pad by 0. ``quadrature`` reduces observations with those
weights. Every march observes one way: its visitor copies the observed
values of each weighted sample (``CascadeSystem._select``) into preallocated
rows, scaled once (``_scale``) per block in the dense Gramian and after the
march in ``_observation_recorder``; ``extract`` is the one-off composition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CflViolationError
from .geometry import Support, indicator_vector
from .operators import BoundaryEnd, EllipticOperator, SpectralBasis, _check_buffer

# ---------------------------------------------------------------------------
# families and the assembled system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Hyperbolic:
    """Second-order (wave-type) family."""


@dataclass(frozen=True)
class Dissipative:
    """First-order family with phase angle theta in [-pi/2, pi/2]."""

    theta: float = 0.0

    def __post_init__(self):
        if abs(self.theta) > math.pi / 2 + 1e-12:
            raise ValueError("theta must lie in [-pi/2, pi/2]")


@dataclass(frozen=True)
class CascadeSystem:
    """Discretized N-component cascade system.

    ``coupling`` holds ((i, j), Region) entries with 1 <= i < j <= N; entry
    (i, j) puts c * 1_O * y_j into equation i. ``control`` holds (k, Region
    or BoundaryEnd) entries, each component k of 1..N at most once: a Region
    is the distributed control b * 1_omega, a BoundaryEnd (1D only) a
    Dirichlet end control. ``transposed`` selects the adjoint orientation:
    coupling entry (i, j) then feeds component i into equation j instead of j
    into i, and the controlled components become observation points.

    ``coupling_supports`` holds ((i, j), Support) per coupling entry and
    ``controls`` maps each controlled component to the Support of its
    distributed control, or to its BoundaryEnd. Both are built once here;
    every multiplier acts on its support columns only.
    """

    family: object
    op: EllipticOperator
    basis: SpectralBasis
    N: int
    coupling: tuple = ()
    control: tuple = ()
    transposed: bool = False

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be at least 1")
        supports = []
        for (i, j), region in self.coupling:
            if not 1 <= i < j <= self.N:
                raise ValueError(f"coupling entry ({i},{j}) is not strictly upper-triangular")
            supports.append(((i, j), Support(indicator_vector(region, self.grid))))
        object.__setattr__(self, "coupling_supports", tuple(supports))
        controls = {}
        for k, kind in self.control:
            if not 1 <= k <= self.N:
                raise ValueError(f"controlled component {k} outside 1..{self.N}")
            if k in controls:
                raise ValueError(f"component {k} controlled twice")
            if not isinstance(kind, BoundaryEnd):
                controls[k] = Support(indicator_vector(kind, self.grid))
            elif self.grid.dim != 1:
                raise ValueError("end control is 1D only")
            else:
                controls[k] = kind
        object.__setattr__(self, "controls", controls)

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
        _add_couplings(Y, out, self._coupling_terms(1.0))
        return out

    def _coupling_terms(self, scale):
        """(destination row, source row, columns, scale * amplitudes) of each
        coupling in the current orientation, the form ``_add_couplings``
        applies; a march forms them once."""
        terms = []
        for (i, j), sup in self.coupling_supports:
            dst, src = (j, i) if self.transposed else (i, j)
            terms.append((dst - 1, src - 1, sup.cols, scale * sup.amplitudes))
        return terms

    # -- control injection / observation -------------------------------------

    def _control(self, k):
        try:
            return self.controls[k]
        except KeyError:
            raise ValueError(f"component {k} carries no control") from None

    def _end_index(self, end):
        return 0 if end.end == "left" else self.grid.n[0] - 1

    def signal_shape(self, k):
        """Trailing shape of one control sample of component k: (n_support,)
        for a distributed control, () for an end control."""
        ctl = self._control(k)
        return (ctl.size,) if isinstance(ctl, Support) else ()

    def inject(self, out, k, value, scale=1.0):
        """Add scale * B_k(value) to the forcing array ``out`` (..., N, n_total).

        ``value`` is (..., n_support) for a distributed control, one entry per
        support column, and (...) for an end control, with the same leading
        axes as ``out`` (or broadcastable).
        """
        self._check_fields(out)
        _inject(out, self._injection(k, scale), value)

    def _injection(self, k, scale):
        """(row, columns, coefficient, divisor) of control k at ``scale``, the
        form ``_inject`` applies: scale * b at the support columns with no
        divisor, or scale * (-gain) at the end node over h^2. A march forms
        it once."""
        ctl = self._control(k)
        if isinstance(ctl, Support):
            return k - 1, ctl.cols, scale * ctl.amplitudes, None
        return k - 1, self._end_index(ctl), scale * (-ctl.gain), self.grid.h[0] ** 2

    def extract(self, k, Y, velocity=None):
        """Observation of component k of the fields Y (..., N, n_total).

        The exact discrete adjoint of ``inject``: (..., n_support) for a
        distributed control, (...) for an end control. A distributed control
        observes ``velocity`` instead of Y when one is given (the forward
        second-order readout); an end control always observes Y. The one-off
        composition ``_scale`` of ``_select``, two steps a march runs apart.
        """
        self._check_fields(Y)
        fld = Y if velocity is None or not isinstance(self._control(k), Support) else velocity
        return self._scale(k, self._select(k, fld[..., k - 1, :]))

    def _select(self, k, field, out=None):
        """The raw values that control k observes in one component's
        ``field`` (..., n_total): its support columns, (..., n_support), or
        its end node, (...); copied into ``out`` when given."""
        ctl = self._control(k)
        cols = ctl.cols if isinstance(ctl, Support) else self._end_index(ctl)
        vals = field[..., cols]
        if out is None:
            return vals
        out[...] = vals
        return out

    def _scale(self, k, values, out=None):
        """The observation of control k from its ``_select`` values, of any
        leading shape: times the amplitudes for a distributed control,
        -gain * value / h for an end control."""
        ctl = self._control(k)
        if isinstance(ctl, Support):
            return np.multiply(ctl.amplitudes, values, out=out)
        obs = np.multiply(-ctl.gain, values, out=out)
        return np.divide(obs, self.grid.h[0], out=out)


def _add_couplings(Y, out, terms):
    """Add each coupling term of ``CascadeSystem._coupling_terms`` to ``out``."""
    for dst, src, cols, coef in terms:
        out[..., dst, cols] += coef * Y[..., src, cols]


def _inject(out, term, value):
    """Add the ``CascadeSystem._injection`` ``term`` of ``value`` to ``out``."""
    row, cols, coef, divisor = term
    add = coef * value
    out[..., row, cols] += add if divisor is None else add / divisor


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
    """State at one instant: fields w (N, n_total) and, when second-order, w'.

    The terminal state of a batched ``solve`` carries the signal's batch axes
    in front, (*batch, N, n_total).
    """

    t: float
    w: np.ndarray
    wp: np.ndarray | None = None

    def member(self, i):
        """Batch member i of a state with one batch axis, as an unbatched view."""
        if {a.ndim for a in (self.w, self.wp) if a is not None} != {3}:
            raise ValueError(f"member needs exactly one batch axis: {self.w.shape}, {np.shape(self.wp)}")
        return SystemState(self.t, self.w[i], None if self.wp is None else self.wp[i])


def zero_state(sys):
    shape = (sys.N, sys.grid.n_total)
    w = np.zeros(shape, dtype=sys.state_dtype)
    wp = np.zeros(shape, dtype=np.float64) if sys.is_hyperbolic else None
    return SystemState(0.0, w, wp)


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

    ``t`` holds floor(T/dt)+1 node times. ``values[k]`` is (M+1, n_support)
    for a distributed control, one column per column of the system's control
    support, and (M+1,) for an end control. Leapfrog applies entry n at node
    n; Crank-Nicolson applies it on [t_n, t_{n+1}), so its final entry is a
    pad no march reads. The L2-in-time norm is ``quadrature`` with the
    family's ``sample_weights``.

    A batch of signals, one per member of a batched march, records its
    ``batch`` axes: ``values[k]`` is then (M+1, *batch[, n_support]).
    """

    t: np.ndarray
    values: dict
    batch: tuple = ()

    def __post_init__(self):
        for k, arr in self.values.items():
            if arr.shape[0] != self.t.shape[0]:
                raise ValueError(f"component {k}: {arr.shape[0]} samples for {self.t.shape[0]} nodes")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"component {k}: non-finite control samples")

    def member(self, i):
        """Batch member i of a signal with one batch axis, as an unbatched view."""
        if len(self.batch) != 1 or any(a.shape[1:2] != self.batch for a in self.values.values()):
            raise ValueError(f"member needs exactly one batch axis in each sample: {self.batch}")
        return ControlSignal(self.t, {k: arr[:, i] for k, arr in self.values.items()})


def trapezoid_weights(M, dt):
    w = np.full(M + 1, dt)
    w[0] = w[-1] = dt / 2.0
    return w


def sample_weights(sys, M, dt):
    """Time-quadrature weight of each of the M + 1 observation samples.

    The one rule under which the HUM identity ||v||^2 = <G X, X> is exact:
    leapfrog takes dt at the interior nodes and 0 at n = 0 and n = M;
    Crank-Nicolson takes dt for each interval n < M and 0 at n = M.
    """
    w = np.full(M + 1, dt)
    w[-1] = 0.0
    if sys.is_hyperbolic:
        w[0] = 0.0
    return w


def quadrature(sys, a, b, weights):
    """sum_n w_n Re <a_n, b_n> over the controlled components of sys.

    ``a`` and ``b`` map each component to its samples, (M + 1, n_support) for
    a distributed control, whose columns pair with the grid volume, and
    (M + 1,) for an end control.
    """
    total = 0.0
    for k, arr in a.items():
        shape = sys.signal_shape(k)
        if arr.shape[1:] != shape or b[k].shape != arr.shape:
            raise ValueError(f"component {k}: samples of shape {arr.shape[1:]} and "
                             f"{b[k].shape[1:]}, expected {shape}")
        prod = np.real(arr * np.conj(b[k]))
        per_t = prod.sum(axis=-1) * sys.grid.hvol if shape else prod
        total += float(weights @ per_t)
    return total


@dataclass
class EnergyReport:
    """Natural energy per component and its sum.

    Second-order family: e(w, w') = (|A^{1/2} w|^2 + |w'|^2) / 2 per component.
    First-order family: |w|^2 / 2 per component.
    """

    per_component: list
    total: float


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
    _check_state(sys, state)
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
    return 0.9 * 2.0 / math.sqrt(sys.op.eigenvalues().max())


def _check_cfl(sys, dt):
    dt_max = cfl_time_step(sys)
    if dt > dt_max * (1.0 + 1e-12):
        raise CflViolationError(dt, dt_max)


def _check_forcing(sys, forcing, M):
    """Refuse a forcing other than (M + 1, N, n_total); Crank-Nicolson also takes M rows."""
    rows, shape = (M + 1,) if sys.is_hyperbolic else (M, M + 1), np.shape(forcing)
    if forcing is not None and (len(shape) != 3 or shape[0] not in rows
                                or shape[1:] != (sys.N, sys.grid.n_total)):
        raise ValueError(f"forcing of shape {shape}, expected {' or '.join(map(str, rows))} "
                         f"rows of (N, n_total) = {(sys.N, sys.grid.n_total)}")


def _check_signal(sys, control, M, dt):
    if control is None:
        return
    if control.t.shape[0] != M + 1 or abs(control.t[-1] - M * dt) > 1e-9 * max(M * dt, 1.0):
        raise ValueError("control signal grid does not match the solver grid")
    for k, arr in control.values.items():
        expected = control.batch + sys.signal_shape(k)
        if arr.shape[1:] != expected:
            raise ValueError(f"component {k}: control samples of shape {arr.shape[1:]}, "
                             f"expected {expected}")


# ---------------------------------------------------------------------------
# leapfrog (second-order family)
# ---------------------------------------------------------------------------


def _forcing(sys, control, forcing, scale=1.0):
    """add(out, n), which adds scale * s^n, the control and raw forcing of
    node (or interval) n, to ``out``. Each control's injection at ``scale``
    is formed here, once per march."""
    terms = [] if control is None else [(sys._injection(k, scale), arr)
                                        for k, arr in control.values.items()]

    def add(out, n):
        for term, arr in terms:
            _inject(out, term, arr[n])
        if forcing is not None:
            out += scale * forcing[n]

    return add


def _observation_recorder(sys, weights, batch):
    """(visit, observations) of the controls of ``sys`` over a march.

    The march hook visit(n, field, velocity=None) refuses a field that is not
    (*batch, N, n_total) and, at a sample of nonzero weight, copies what each
    control k selects (``_select`` of component k, of ``velocity`` for a
    distributed control when given) into preallocated raw rows.
    observations() scales the record once, in place into arrays[k] of shape
    (len(weights), *batch[, n_support]): ``_scale`` then the phase e^{i
    theta} (1 for the second-order family), per value the operations of
    e^{i theta} ``extract``. It resets the unweighted rows to +0.0 and
    returns the arrays; the raw record is kept.
    """
    idle = np.asarray(weights) == 0.0
    shape = batch + (sys.N, sys.grid.n_total)
    phase = _adjoint_phase(sys)
    # (k, distributed?, raw rows, observation rows)
    parts = [(k, isinstance(ctl, Support),
              *(np.zeros((len(weights),) + batch + sys.signal_shape(k), dtype=sys.state_dtype)
                for _ in range(2)))
             for k, ctl in sys.controls.items()]

    def visit(n, fld, velocity=None):
        if fld.shape != shape:
            raise ValueError(f"field of shape {fld.shape} visited by a recorder of batch "
                             f"{batch}, expected {shape}")
        if weights[n] != 0.0:
            for k, distributed, raw, _ in parts:
                src = velocity if distributed and velocity is not None else fld
                sys._select(k, src[..., k - 1, :], out=raw[n, ...])

    def observations():
        for k, _, raw, obs in parts:
            np.multiply(phase, sys._scale(k, raw, out=obs), out=obs)
            obs[idle] = 0.0
        return {k: obs for k, _, _, obs in parts}

    return visit, observations


def _leapfrog(sys, prev, cur, nodes, dt, control=None, forcing=None, visit=None):
    """Leapfrog steps y_next = 2 y_cur - y_prev - dt^2 ((A + C) y_cur - s), with
    s the control and forcing of the node, from each of ``nodes`` but the
    last, forward or backward in time.

    Each step is fused. With c_a = dt^2 / h_a^2 per axis, one stencil pass
    forms 2 y_cur - dt^2 A y_cur = (2 - 2 sum c_a) y_cur + sum c_a
    (neighbours) in y_next, its scaled neighbours in the idle buffer ``acc``.
    Then y_prev is subtracted, the couplings add -dt^2 C y_cur on their
    support columns and the control and forcing add dt^2 s. What does not
    change from step to step is done once per march: the buffers are checked
    once for the unchecked stencil kernel, and the -dt^2 c coupling and
    dt^2 b (or dt^2 (-gain)) injection coefficients are formed once. No
    scalar division and no allocation of a level is made per step.

    ``cur`` is the level at nodes[0] and ``prev`` the one before it; both are
    copied, never written. ``visit(n, y_prev, y_cur, y_next)``, when given,
    sees each step. The levels rotate through three C-contiguous buffers,
    valid only during the call. Returns (y_prev, y_cur, acc) at the last
    node, with acc = (A + C) y_cur - s there.
    """
    sys._check_fields(np.asarray(cur))
    dt2 = dt * dt
    coeffs = [dt2 / h**2 for h in sys.grid.h]
    diag, off = 2.0 - 2.0 * sum(coeffs), [-c for c in coeffs]
    y_prev = np.array(prev, dtype=float, order="C")
    y_cur = np.array(cur, dtype=float, order="C")
    y_next, acc = np.empty_like(y_cur), np.empty_like(y_cur)
    # every level is written as an output once the three rotate
    for buf in (y_prev, y_next):
        _check_buffer("output", buf, y_cur, y_cur.dtype)
    _check_buffer("scratch", acc, y_cur, y_cur.dtype, y_next)
    couplings = sys._coupling_terms(-dt2)
    add_forcing = _forcing(sys, control, forcing, dt2)
    for n in nodes[:-1]:
        sys.op._stencil(y_cur, diag, off, y_next, acc)
        y_next -= y_prev
        _add_couplings(y_cur, y_next, couplings)
        add_forcing(y_next, n)
        if visit is not None:
            visit(n, y_prev, y_cur, y_next)
        y_prev, y_cur, y_next = y_cur, y_next, y_prev
    sys.apply_system(y_cur, acc)
    _forcing(sys, control, forcing, -1.0)(acc, nodes[-1])
    return y_prev, y_cur, acc


def _hyp_forward(sys, w0, wp0, control, forcing, M, dt, visit=None):
    """Forward leapfrog over M steps; returns (y^{M-1}, y^M, velocity at T).

    States may carry leading batch axes, (..., N, n_total); a control signal
    carries the same batch axes, one control per member, and forcing acts on
    every member alike. ``visit(n, y, velocity)``, when given, sees every
    node with its second-order velocity readout as it is made; without it no
    per-step velocity is computed. ``y`` is a reused buffer, valid only during
    the call: a visitor copies what it keeps. ``w0`` and ``wp0`` are not
    written.
    """
    acc = sys.apply_system(w0)
    _forcing(sys, control, forcing, -1.0)(acc, 0)
    if visit is not None:
        visit(0, w0, wp0)
    y1 = w0 + dt * wp0 - 0.5 * (dt * dt) * acc
    # second-order central velocity at the interior nodes
    step_visit = None if visit is None else (
        lambda n, y_prev, y_cur, y_next: visit(n, y_cur, (y_next - y_prev) / (2.0 * dt)))
    y_prev, y_cur, acc = _leapfrog(sys, w0, y1, range(1, M + 1), dt, control, forcing, step_visit)
    vel_T = (y_cur - y_prev) / dt - 0.5 * dt * acc
    if visit is not None:
        visit(M, y_cur, vel_T)
    return y_prev, y_cur, vel_T


def _hyp_adjoint(sys, phi_M, phi_M1, M, dt, visit=None):
    """Backward leapfrog of the homogeneous (transposed) system.

    Starts from the two levels (phi^M, phi^{M-1}), each (..., N, n_total), and
    recurses down to phi^0; returns the adjoint SystemState at t = 0.
    ``visit(n, phi_n)``, when given, sees every level as it is made, so a
    caller can reduce the trajectory on the fly instead of storing it.
    ``phi_n`` is a reused buffer, valid only during the call: a visitor
    copies what it keeps. The start levels are copied, never written.
    """
    if visit is not None:
        visit(M, phi_M)
        visit(M - 1, phi_M1)
    step_visit = None if visit is None else (
        lambda n, phi_next, phi_n, phi_new: visit(n - 1, phi_new))
    phi_1, phi_0, acc = _leapfrog(sys, phi_M, phi_M1, range(M - 1, -1, -1), dt, visit=step_visit)
    return SystemState(0.0, phi_0, (phi_1 - phi_0) / dt + 0.5 * dt * acc)


# ---------------------------------------------------------------------------
# Crank-Nicolson (first-order family)
# ---------------------------------------------------------------------------


def _require_finite(a):
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")


class _SineResolvent:
    """(I + kappa A)^{-1} on component fields, by the sine transform.

    The Dirichlet stencil is A = Q diag(lam) Q with Q the symmetric
    orthonormal sine matrix of each axis (``axis_sine_matrix``), applied as
    Q_x R Q_y in 2D, where lam_ij = lam_i + mu_j. So the solve is
    Q [(Q r) / (1 + kappa lam)]. Complex fields are transformed as real and
    imaginary parts, so the real Q is never cast to complex. The transforms
    are dense per axis, so a solve costs O(n_axis) per node: fine at a few
    hundred nodes per axis, not beyond.
    """

    def __init__(self, op, kappa):
        self._shape = op.grid.n
        self._q = [op.axis_sine_matrix(a) for a in range(op.grid.dim)]
        lam = op.eigenvalues()
        self._denom = 1.0 + kappa * lam
        _require_finite(self._denom)
        # 1 + kappa lam at round-off level: I + kappa A is numerically singular
        if np.any(np.abs(self._denom) <= 16 * np.finfo(float).eps * (1.0 + abs(kappa) * lam)):
            raise np.linalg.LinAlgError("singular matrix")

    def _transform(self, v):
        """Q v per field of v (..., *grid.n); Q is its own inverse."""
        if np.iscomplexobj(v):
            out = np.empty(v.shape, dtype=np.complex128)
            out.real = self._transform(v.real)
            out.imag = self._transform(v.imag)
            return out
        if len(self._q) == 1:
            return v @ self._q[0]
        qx, qy = self._q
        return qx @ v @ qy

    def solve(self, rhs):
        """Solve for fields (..., n_total); a batch goes as many right-hand sides in one call."""
        dtype = self._denom.dtype
        if not np.can_cast(rhs.dtype, dtype):
            raise ValueError(f"{rhs.dtype} right-hand side for a {dtype} matrix")
        _require_finite(rhs)
        coeffs = self._transform(rhs.reshape(rhs.shape[:-1] + self._shape)) / self._denom
        return self._transform(coeffs).reshape(rhs.shape)


def _cn_solve_plus(sys, solver, couplings, rhs):
    """Solve (I + kappa (A + C)) y = rhs via cascade back-substitution;
    ``couplings`` are the system's ``_coupling_terms(kappa)``."""
    y = np.empty_like(rhs)
    order = range(sys.N, 0, -1) if not sys.transposed else range(1, sys.N + 1)
    for comp in order:
        r = rhs[..., comp - 1, :].copy()
        for dst, src, cols, coef in couplings:
            if dst == comp - 1:
                r[..., cols] -= coef * y[..., src, cols]
        y[..., comp - 1, :] = solver.solve(r)
    return y


def _cn_forward(sys, w0, control, forcing, M, dt, visit=None):
    """Crank-Nicolson march of e^{i theta} y_t = -(A + C) y + B v + f.

    Control samples and raw forcing are interval values (entry n acts on
    [t_n, t_{n+1})). The state may carry leading batch axes, (..., N,
    n_total); a control signal carries the same batch axes, one control per
    member, and forcing acts on every member alike; coupling and forcing
    terms are formed once per march. Returns the terminal field y^M;
    ``visit(n, y_n)``, when given, sees every node as it is made.
    """
    theta = sys.theta
    phase = np.exp(-1j * theta) if theta != 0.0 else 1.0
    kappa = 0.5 * dt * phase
    solver = _SineResolvent(sys.op, kappa if theta != 0.0 else float(np.real(kappa)))

    couplings, system_couplings = sys._coupling_terms(kappa), sys._coupling_terms(1.0)
    add_forcing = _forcing(sys, control, forcing, dt * phase)
    y = w0.astype(sys.state_dtype)
    if visit is not None:
        visit(0, y)
    for n in range(M):
        ay = sys.op.matvec(y)
        _add_couplings(y, ay, system_couplings)
        rhs = y - kappa * ay
        add_forcing(rhs, n)
        y = _cn_solve_plus(sys, solver, couplings, rhs)
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
    solver = _SineResolvent(sys.op, kappa_bar if sys.theta != 0.0 else float(np.real(kappa_bar)))
    couplings = sys._coupling_terms(kappa_bar)
    phi = phi_T.astype(sys.state_dtype)
    for n in range(M - 1, -1, -1):
        psi = _cn_solve_plus(sys, solver, couplings, phi)
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

    A batched ``control`` (see ControlSignal) marches every member at once
    from the one unbatched ``initial``; levels and terminal state then carry
    the batch axes in front.
    """
    _check_state(sys, initial)
    M = step_count(T, dt)
    _check_signal(sys, control, M, dt)
    _check_forcing(sys, forcing, M)
    shape = (control.batch if control is not None else ()) + initial.w.shape
    w0 = np.broadcast_to(initial.w, shape)
    if sys.is_hyperbolic:
        _check_cfl(sys, dt)
        wp0 = np.broadcast_to(initial.wp, shape)
        y_m1, y_m, vel_T = _hyp_forward(sys, w0, wp0, control, forcing, M, dt, visit)
        return (y_m1, y_m), SystemState(M * dt, y_m, vel_T)
    y_m = _cn_forward(sys, w0, control, forcing, M, dt, visit)
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
    _check_state(sys, seed)
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
    forward in time. Like ``solve`` it refuses a batched seed and a leapfrog
    step above the CFL bound.
    """
    if not sys_adj.transposed:
        raise ValueError("pass the transposed system")
    _check_state(sys_adj, seed)
    M = step_count(T, dt)
    _check_forcing(sys_adj, forcing, M)
    terms = np.zeros(M + 1)
    if sys_adj.is_hyperbolic:
        _check_cfl(sys_adj, dt)

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
