"""Discrete elliptic operator, its spectral basis, end controls and coupling bounds.

The elliptic operator is the standard Dirichlet Laplacian stencil (3-point in
1D, 5-point in 2D) in the discrete L2 inner product <u, w> = hvol * sum(u * w).
Its lowest eigenpairs, sampled sines in closed form, span the filtered spaces
that every synthesis and observability estimate works in.

Couplings are cascade (strictly upper-triangular) multiplication operators
c * 1_O, whose bound and coercivity constants are the largest and smallest
value of the multiplier on the grid nodes of its support, in closed form.
Controls are either distributed multipliers b * 1_omega or, in 1D, a
Dirichlet value imposed at one end of the interval.
The boundary pair uses the convention that makes injection and observation
exactly adjoint in the discrete inner product: the imposed end value for
control signal v is -gain * v, and the matching observation is the discrete
outward normal derivative, -gain * w_end/h.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, Support, indicator_vector


# ---------------------------------------------------------------------------
# elliptic operator
# ---------------------------------------------------------------------------


def _subtract_neighbours(out, src, axis):
    """out[i] -= src[i - 1], then out[i] -= src[i + 1], along ``axis`` (-1,
    or -2 for the x axis of a 2D grid) wherever that neighbour exists.

    Each subtraction is one flat pass over the C-contiguous arrays, shifted
    by the stride of the axis: 1 for the last axis, a row for the x axis.
    The edge (the columns, or the rows) that a pass would wrongly update from
    the adjacent field is saved before it and written back after, so every
    element sees the same operations in the same order as the sliced form.
    """
    if axis == -1:
        shift, head, tail = 1, (..., 0), (..., -1)
    else:
        shift, head, tail = out.shape[-1], (..., 0, slice(None)), (..., -1, slice(None))
    flat_out, flat_src = out.reshape(-1), src.reshape(-1)
    first = out[head].copy()
    flat_out[shift:] -= flat_src[:-shift]
    out[head] = first
    last = out[tail].copy()
    flat_out[:-shift] -= flat_src[shift:]
    out[tail] = last


def _check_buffer(name, buf, w, dtype, other=None):
    """Refuse a buffer of ``EllipticOperator.stencil`` that shares memory
    with w (or ``other``), is not a C-contiguous array of w's shape, or is
    not of the result dtype."""
    if np.may_share_memory(buf, w) or (other is not None and np.may_share_memory(buf, other)):
        raise ValueError(f"stencil {name} must not share memory with its input or the output")
    if buf.shape != w.shape or not buf.flags.c_contiguous:
        raise ValueError(f"stencil {name} must be a C-contiguous array of shape {w.shape}")
    if buf.dtype != dtype:
        raise ValueError(f"stencil {name} must be of the result dtype {dtype}, not {buf.dtype}")


@dataclass(frozen=True)
class EllipticOperator:
    """Matrix-free Dirichlet Laplacian on a Grid.

    ``matvec`` accepts any array whose last axis has length grid.n_total and
    applies the stencil row-wise, so stacked component arrays (N, n_total) are
    handled in one call. ``stencil`` is the same pass with its coefficients
    as arguments: ``matvec`` is one case of it, a leapfrog step another.
    """

    grid: Grid

    def stencil(self, w, diag, off, out=None, scratch=None):
        """diag * w minus, along each axis a, both neighbours of off[a] * w.

        A neighbour across a Dirichlet edge is absent. The scaled neighbours
        are formed in ``scratch`` when it is given. ``out`` and ``scratch``
        must be C-contiguous arrays of w's shape and of the result dtype
        that share memory neither with w nor with each other: every axis is
        done in flat passes, which a non-contiguous buffer would take through
        a copy and lose. Every operation is elementwise, so a batch member
        gets the bits of its unbatched pass.
        """
        w = np.asarray(w)
        if out is not None or scratch is not None:
            dtype = np.result_type(w, diag, *off)
            if out is not None:
                _check_buffer("output", out, w, dtype)
            if scratch is not None:
                _check_buffer("scratch", scratch, w, dtype, out)
        return self._stencil(w, diag, off, out, scratch)

    def _stencil(self, w, diag, off, out, scratch):
        """``stencil`` without its checks, for a caller that checked its
        buffers once (see ``_check_buffer``) and reuses them."""
        g = self.grid
        dim = g.dim
        v = np.ascontiguousarray(w)
        if dim == 2:  # rows along y, stacked along x
            v, out, scratch = (None if a is None else a.reshape(w.shape[:-1] + g.n)
                               for a in (v, out, scratch))
        res = np.multiply(diag, v, out=out)
        for a, k in enumerate(off):
            scratch = np.multiply(v, k, out=scratch)
            _subtract_neighbours(res, scratch, a - dim)
        return res.reshape(w.shape)

    def matvec(self, w, out=None):
        """A w, the ``stencil`` with the ``coefficients`` of A, written into
        ``out`` (C-contiguous, w's shape, no memory shared with w) when given."""
        return self.stencil(w, *self.coefficients(), out)

    def coefficients(self):
        """(diag, off) of A for ``stencil``: off[a] = 1/h_a^2, diag = 2 sum_a off[a]."""
        inv_h2 = [1.0 / h**2 for h in self.grid.h]
        return 2.0 * sum(inv_h2), inv_h2

    def quad_form(self, w):
        """<A w, w> in the discrete inner product (real part for complex w)."""
        aw = self.matvec(w)
        return float(np.real(np.vdot(w, aw))) * self.grid.hvol

    def axis_eigenvalues(self, a):
        """Closed-form eigenvalues of the 1D stencil along axis a, ascending."""
        h, L, m = self.grid.h[a], self.grid.extents[a], self.grid.n[a]
        return (4.0 / h**2) * np.sin(np.arange(1, m + 1) * np.pi * h / (2.0 * L)) ** 2

    def eigenvalues(self):
        """Closed-form eigenvalues of the stencil on the grid's shape: lam_i
        in 1D and lam_i + mu_j in 2D, each axis' from ``axis_eigenvalues``."""
        lam = self.axis_eigenvalues(0)
        return lam if self.grid.dim == 1 else lam[:, None] + self.axis_eigenvalues(1)

    def axis_sine_matrix(self, a):
        """Symmetric orthonormal sine (DST-I) matrix Q of axis a.

        Q = Q^T = Q^{-1} and Q A_a Q = diag(axis_eigenvalues(a)) for the 1D
        stencil A_a along the axis. Each product j*k is reduced modulo
        2(m + 1) in integers, so Q is exactly symmetric. The entries are
        evaluated in np.longdouble and rounded once: the rounding error of Q
        is the same in every Crank-Nicolson step and biases the modulus of
        each step alike, so it adds up over a march, and once-rounded entries
        keep the Schroedinger norm drift at the level of a banded LU solve.
        On platforms whose longdouble is a plain double this is the float64
        formula. Q is built once per axis length and shared, so it is
        read-only.
        """
        return _sine_matrix(self.grid.n[a])


def _sine_rows(m, j):
    """Rows j (1-based) of the m x m DST-I matrix sqrt(2/(m+1)) sin(j k pi/(m+1)),
    evaluated as ``EllipticOperator.axis_sine_matrix`` states: a row's bits do
    not depend on which rows are asked for with it."""
    k = np.arange(1, m + 1)
    one = np.longdouble(1)
    angle = 4 * np.arctan(one) * (np.outer(j, k) % (2 * (m + 1))) / (m + 1)
    return (np.sqrt(2 * one / (m + 1)) * np.sin(angle)).astype(np.float64)


@functools.lru_cache(maxsize=16)
def _sine_matrix(m):
    """The m x m matrix of ``EllipticOperator.axis_sine_matrix``."""
    q = _sine_rows(m, np.arange(1, m + 1))
    q.flags.writeable = False
    return q


# ---------------------------------------------------------------------------
# spectral basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpectralBasis:
    """Lowest K eigenpairs of the operator, orthonormal in the discrete L2 IP.

    ``modes`` has shape (K, n_total); rows are tensor sines ordered by
    (eigenvalue, j, k), so every downstream artifact is byte-reproducible.
    """

    eigenvalues: np.ndarray
    modes: np.ndarray

    @property
    def K(self):
        return len(self.eigenvalues)


def spectral_basis(op, K):
    """Lowest-K eigenpairs of the operator, in closed form.

    On an interval or rectangle with the Dirichlet stencil the eigenvectors
    are the sampled sines sqrt(2/L) sin(j pi x / L) per axis (tensor products
    in 2D), orthonormal in hvol * sum as they stand: the rows of each axis'
    ``axis_sine_matrix`` over sqrt(h_a), of which only the modes' rows are
    evaluated. Modes are ordered by (eigenvalue, j, k), so a degenerate
    eigenspace always lists its members in the same order, independent of
    any numerical eigensolver.
    """
    grid = op.grid
    if not 1 <= K <= grid.n_total:
        raise ValueError(f"K must be in 1..{grid.n_total}, got {K}")
    idx = np.indices(grid.n).reshape(grid.dim, -1)
    lam = op.eigenvalues().reshape(-1)
    order = np.lexsort((*idx[::-1], lam))[:K]
    modes = np.ones((K, 1))
    for a in range(grid.dim):
        factor = _sine_rows(grid.n[a], idx[a][order] + 1) / np.sqrt(grid.h[a])
        modes = (modes[:, :, None] * factor[:, None, :]).reshape(K, -1)
    return SpectralBasis(lam[order], modes)


# ---------------------------------------------------------------------------
# boundary end control
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# coupling bounds
# ---------------------------------------------------------------------------


def coupling_bounds(region, grid):
    """The constants of one multiplier coupling C = c * 1_O on the grid, in closed form.

    For c >= 0, which ``Region`` enforces, |Cw|^2 <= beta <Cw, w> holds with
    beta the largest value of the multiplier on its grid support (the
    ``Support`` that ``CascadeSystem`` builds for the coupling), and
    alpha |Pi w|^2 <= <Cw, w> with alpha the smallest, Pi the plain indicator
    of that support. Both sums run over nonnegative terms, so there is
    nothing left to sample. A support without grid nodes reports 0.0 for both.
    """
    amplitudes = Support(indicator_vector(region, grid)).amplitudes
    return {
        "bound": float(amplitudes.max(initial=0.0)),
        "coercivity": float(amplitudes.min()) if amplitudes.size else 0.0,
        "support": region.label or "coupling support",
    }
