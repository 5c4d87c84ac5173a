import os
import tempfile

import numpy as np
import pytest
from hypothesis import configuration

import cascade_lab as cl


def pytest_configure(config):
    # Hypothesis caches under ./.hypothesis by default; keep the working tree clean
    configuration.set_hypothesis_home_dir(os.path.join(tempfile.gettempdir(), "cascade-lab-hypothesis"))


@pytest.fixture
def grid1d():
    return cl.build_grid([1.0], [60])


@pytest.fixture
def basis1d(grid1d):
    return cl.spectral_basis(cl.assemble_operator(grid1d), 10)


def make_wave_cascade(n=60, K=10, c=1.0, coupling_box=(0.2, 0.4), control_box=(0.7, 0.9)):
    """Standard two-component wave cascade with disjoint regions."""
    grid = cl.build_grid([1.0], [n])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, K)
    O = cl.region_from_bounds([[list(coupling_box)]][0], c, "O")
    omega = cl.region_from_bounds([list(control_box)], 1.0, "omega")
    coupling = cl.CouplingSpec.from_dict(2, {(1, 2): O})
    control = cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),))
    return cl.CascadeSystem(cl.Hyperbolic(), op, basis, 2, 1, coupling, control)


def make_heat_cascade(n=60, K=10, c=1.0, theta=0.0):
    grid = cl.build_grid([1.0], [n])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, K)
    O = cl.region_from_bounds([[0.2, 0.4]], c, "O")
    omega = cl.region_from_bounds([[0.7, 0.9]], 1.0, "omega")
    coupling = cl.CouplingSpec.from_dict(2, {(1, 2): O})
    control = cl.ControlSpec(2, 1, ((2, cl.Distributed(omega)),))
    return cl.CascadeSystem(cl.Dissipative(theta), op, basis, 2, 1, coupling, control)


def make_single_free(n=60, K=8, family=None):
    grid = cl.build_grid([1.0], [n])
    op = cl.assemble_operator(grid)
    basis = cl.spectral_basis(op, K)
    fam = family if family is not None else cl.Hyperbolic()
    return cl.CascadeSystem(fam, op, basis, 1, 1, cl.CouplingSpec(1, ()), cl.ControlSpec(1, 1, ()))


def chained_dt(sys, T):
    """Largest stable step that divides T exactly."""
    M = int(np.ceil(T / cl.cfl_time_step(sys)))
    return T / max(M, 2)
