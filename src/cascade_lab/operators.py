"""Discrete elliptic operator, its spectral basis, and coupling/control operators.

The elliptic operator is the standard Dirichlet Laplacian stencil (3-point in
1D, 5-point in 2D) in the discrete L2 inner product <u, w> = hvol * sum(u * w).
Its eigenpairs realize the fractional-power norms |w|_k = |A^{k/2} w| through
plain spectral sums, which is all the scale of spaces we need at desk scale.

Couplings are cascade (strictly upper-triangular) multiplication operators
c * 1_O; controls are either distributed multipliers b * 1_omega or, in 1D, a
Dirichlet value imposed at one end of the interval. The boundary pair uses the
convention that makes injection and observation exactly adjoint in the discrete
inner product: the imposed end value for control signal v is -gain * v, and the
matching observation is the discrete outward normal derivative, -gain * w_end/h.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import HypothesisViolatedError
from .geometry import Grid, Region, indicator_vector


class TruncationWarning(UserWarning):
    """Field has content outside the retained spectral basis."""


# ---------------------------------------------------------------------------
# elliptic operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EllipticOperator:
    """Matrix-free Dirichlet Laplacian on a Grid.

    ``matvec`` accepts any array whose last axis has length grid.n_total and
    applies the stencil row-wise, so stacked component arrays (N, n_total) are
    handled in one call.
    """

    grid: Grid

    def matvec(self, w):
        g = self.grid
        w = np.asarray(w)
        if g.dim == 1:
            h2 = g.h[0] ** 2
            out = 2.0 * w
            out[..., 1:] -= w[..., :-1]
            out[..., :-1] -= w[..., 1:]
            out /= h2
            return out
        nx, ny = g.n
        hx2, hy2 = g.h[0] ** 2, g.h[1] ** 2
        v = w.reshape(w.shape[:-1] + (nx, ny))
        out = (2.0 / hx2 + 2.0 / hy2) * v
        out[..., 1:, :] -= v[..., :-1, :] / hx2
        out[..., :-1, :] -= v[..., 1:, :] / hx2
        out[..., :, 1:] -= v[..., :, :-1] / hy2
        out[..., :, :-1] -= v[..., :, 1:] / hy2
        return out.reshape(w.shape)

    def quad_form(self, w):
        """<A w, w> in the discrete inner product (real part for complex w)."""
        aw = self.matvec(w)
        return float(np.real(np.vdot(w, aw))) * self.grid.hvol

    def axis_eigenvalues(self, a):
        """Closed-form eigenvalues of the 1D stencil along axis a, ascending."""
        g = self.grid
        h, L, m = g.h[a], g.extents[a], g.n[a]
        k = np.arange(1, m + 1)
        return (4.0 / h**2) * np.sin(k * np.pi * h / (2.0 * L)) ** 2

    def eigenvalue_bounds(self):
        """(lambda_min, lambda_max) of the stencil, from the closed form."""
        per_axis = [self.axis_eigenvalues(a) for a in range(self.grid.dim)]
        lo = sum(ev[0] for ev in per_axis)
        hi = sum(ev[-1] for ev in per_axis)
        return float(lo), float(hi)

    def to_sparse(self):
        """The stencil as a scipy CSR matrix (scipy is loaded on first call)."""
        import scipy.sparse

        g = self.grid
        def lap1d(m, h):
            main = np.full(m, 2.0 / h**2)
            off = np.full(m - 1, -1.0 / h**2)
            return scipy.sparse.diags([off, main, off], [-1, 0, 1], format="csr")
        if g.dim == 1:
            return lap1d(g.n[0], g.h[0])
        ax = lap1d(g.n[0], g.h[0])
        ay = lap1d(g.n[1], g.h[1])
        ix = scipy.sparse.identity(g.n[0], format="csr")
        iy = scipy.sparse.identity(g.n[1], format="csr")
        return (scipy.sparse.kron(ax, iy) + scipy.sparse.kron(ix, ay)).tocsr()


def assemble_operator(grid):
    """Second-order Dirichlet Laplacian stencil on the grid."""
    return EllipticOperator(grid)


# ---------------------------------------------------------------------------
# spectral basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralBasis:
    """Lowest K eigenpairs of the operator, orthonormal in the discrete L2 IP.

    ``modes`` has shape (K, n_total); rows are tensor sines ordered by
    (eigenvalue, j, k), so every downstream artifact is byte-reproducible.
    """

    grid: Grid
    eigenvalues: np.ndarray
    modes: np.ndarray

    @property
    def K(self):
        return len(self.eigenvalues)

    def project(self, w):
        """Spectral coefficients <w, e_j>, shape (..., K)."""
        return np.tensordot(np.asarray(w), self.modes, axes=([-1], [1])) * self.grid.hvol

    def synthesize(self, coeffs):
        """Field from spectral coefficients, shape (..., n_total)."""
        return np.tensordot(np.asarray(coeffs), self.modes, axes=([-1], [0]))

    def projection_residual(self, w):
        """L2 norm of the component of w outside the retained span."""
        rec = self.synthesize(self.project(w))
        return float(np.sqrt(np.real(np.vdot(w - rec, w - rec)) * self.grid.hvol))


def spectral_basis(op, K):
    """Lowest-K eigenpairs of the operator, in closed form.

    On an interval or rectangle with the Dirichlet stencil the eigenvectors
    are the sampled sines sqrt(2/L) sin(j pi x / L) per axis (tensor products
    in 2D), orthonormal in hvol * sum as they stand. Modes are ordered by
    (eigenvalue, j, k), so a degenerate eigenspace always lists its members
    in the same order, independent of any numerical eigensolver.
    """
    grid = op.grid
    n_total = grid.n_total
    if not 1 <= K <= n_total:
        raise ValueError(f"K must be in 1..{n_total}, got {K}")
    idx = np.indices(grid.n).reshape(grid.dim, -1)
    lam = sum(op.axis_eigenvalues(a)[idx[a]] for a in range(grid.dim))
    order = np.lexsort((*idx[::-1], lam))[:K]
    modes = np.ones((K, 1))
    for a in range(grid.dim):
        L = grid.extents[a]
        j = idx[a][order] + 1
        factor = np.sqrt(2.0 / L) * np.sin(np.outer(j, grid.axis_nodes(a)) * (np.pi / L))
        modes = (modes[:, :, None] * factor[:, None, :]).reshape(K, -1)
    return SpectralBasis(grid, lam[order], modes)


def fractional_norm(basis, w, k):
    """Fractional-power norm (sum_j lambda_j^k <w, e_j>^2)^(1/2).

    Fields with content outside the retained span are projected first; a
    TruncationWarning flags that the reported value ignores the remainder.
    """
    w = np.asarray(w)
    coeffs = basis.project(w)
    res = basis.projection_residual(w)
    scale = np.sqrt(np.real(np.vdot(w, w)) * basis.grid.hvol)
    if scale > 0 and res > 1e-8 * scale:
        warnings.warn(
            f"field has {res:.3e} L2 content outside the retained {basis.K} modes",
            TruncationWarning,
            stacklevel=2,
        )
    return float(np.sqrt(np.sum(basis.eigenvalues**k * np.abs(coeffs) ** 2)))


def verify_operator_coercivity(basis):
    """Smallest eigenvalue of A; the coercivity constant |A u| >= c |u|."""
    lam1 = float(basis.eigenvalues[0])
    if lam1 <= 0:
        raise HypothesisViolatedError(f"operator is not coercive: lambda_1 = {lam1}")
    return lam1


# ---------------------------------------------------------------------------
# coupling and control specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CouplingSpec:
    """Cascade coupling pattern: entry (i, j), i < j, puts c*1_O * y_j in row i."""

    N: int
    entries: tuple  # of ((i, j), Region)

    def __post_init__(self):
        for (i, j), region in self.entries:
            if not (1 <= i < j <= self.N):
                raise ValueError(f"coupling entry ({i},{j}) is not strictly upper-triangular")
            if any(a < 0 for a in region.amplitudes):
                raise ValueError("coupling amplitudes must be nonnegative")

    @classmethod
    def from_dict(cls, N, mapping):
        return cls(N, tuple(sorted(mapping.items())))


@dataclass(frozen=True)
class Distributed:
    """Interior control b * v with b = amplitude * indicator of the region."""

    region: Region


@dataclass(frozen=True)
class BoundaryEnd:
    """1D Dirichlet end control; ``end`` is 'left' or 'right', gain >= 0."""

    end: str
    gain: float = 1.0

    def __post_init__(self):
        if self.end not in ("left", "right"):
            raise ValueError("end must be 'left' or 'right'")
        if self.gain < 0:
            raise ValueError("gain must be nonnegative")


@dataclass(frozen=True)
class ControlSpec:
    """Per-component control map; components 1..p are never controlled."""

    N: int
    p: int
    entries: tuple  # of (component, Distributed | BoundaryEnd)

    def __post_init__(self):
        if not 0 <= self.p <= self.N:
            raise ValueError(f"p must be in 0..{self.N}")
        seen = set()
        for k, kind in self.entries:
            if not 1 <= k <= self.N:
                raise ValueError(f"controlled component {k} outside 1..{self.N}")
            if k <= self.p:
                raise ValueError(f"component {k} is in the free block 1..{self.p}")
            if k in seen:
                raise ValueError(f"component {k} controlled twice")
            seen.add(k)
        if self.entries and self.p > self.N - 1:
            raise ValueError("a controlled system needs p <= N-1")

    @property
    def controlled(self):
        return tuple(k for k, _ in self.entries)

    def kind_of(self, k):
        for comp, kind in self.entries:
            if comp == k:
                return kind
        return None


# ---------------------------------------------------------------------------
# structural hypothesis checks
# ---------------------------------------------------------------------------


@dataclass
class CouplingBounds:
    """Certified constants of one multiplier coupling c * 1_O.

    ``bound`` is the smallest beta with |Cw|^2 <= beta <Cw, w> (the max
    amplitude, exact for a nonnegative multiplier); ``coercivity`` the largest
    alpha with alpha |Pi w|^2 <= <Cw, w> where Pi is the plain indicator of the
    support. ``slack_*`` are the minimal inequality slacks over random fields.
    """

    bound: float
    coercivity: float
    support: Region
    slack_bound: float
    slack_coercivity: float

    def to_dict(self):
        return {
            "bound": self.bound,
            "coercivity": self.coercivity,
            "support": self.support.label or "coupling support",
            "slack_bound": self.slack_bound,
            "slack_coercivity": self.slack_coercivity,
        }


def verify_coupling_bounds(region, grid, n_samples=100, seed=0):
    """Certify the multiplier-coupling inequalities on random fields.

    For Cw = c * 1_O * w with c >= 0 the sharp constants are known exactly
    (max and min part amplitudes); the random fields only confirm nonnegative
    slack of both inequalities at machine precision.
    """
    if any(a < 0 for a in region.amplitudes):
        raise HypothesisViolatedError("coupling amplitude must be nonnegative")
    c = indicator_vector(region, grid, warn=False)
    pi = indicator_vector(
        Region(region.parts, tuple(1.0 for _ in region.parts), region.label), grid, warn=False
    )
    beta = float(max(region.amplitudes))
    alpha = float(min(region.amplitudes))
    hvol = grid.hvol
    rng = np.random.default_rng(seed)
    slack_b = np.inf
    slack_a = np.inf
    for _ in range(n_samples):
        w = rng.standard_normal(grid.n_total)
        cw = c * w
        quad = hvol * float(cw @ w)
        slack_b = min(slack_b, beta * quad - hvol * float(cw @ cw))
        slack_a = min(slack_a, quad - alpha * hvol * float((pi * w) @ (pi * w)))
    return CouplingBounds(beta, alpha, region, float(slack_b), float(slack_a))


@dataclass
class HypothesisReport:
    """Verdicts of the structural checks that back a control experiment."""

    coercivity_constant: float
    coupling: list
    admissibility_ratios: list
    flags: dict
    notes: list = field(default_factory=list)

    def to_dict(self):
        return {
            "coercivity_constant": self.coercivity_constant,
            "coupling": [c.to_dict() for c in self.coupling],
            "admissibility_ratios": self.admissibility_ratios,
            "flags": self.flags,
            "notes": self.notes,
        }
