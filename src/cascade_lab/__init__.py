"""Numerical laboratory for indirect null control of cascade-coupled systems.

Builds desk-scale 1D/2D discretizations of cascade-coupled evolution systems
(wave-like and heat/Schroedinger-like), reports the closed-form coercivity and
coupling bounds, checks admissibility and the geometric control condition,
and synthesizes null controls from a dense HUM Gramian over spectrally
filtered adjoint seeds, assembled by one batched adjoint march and solved
through its eigendecomposition.
"""

__version__ = "0.1.0"

from .geometry import (
    Box,
    GccReport,
    Grid,
    RayState,
    Region,
    Support,
    build_grid,
    default_horizon,
    gcc_check,
    indicator_vector,
    interval_entry_time,
    region_from_bounds,
)
from .operators import (
    BoundaryEnd,
    EllipticOperator,
    SpectralBasis,
    coupling_bounds,
    spectral_basis,
)
from .dynamics import (
    CascadeSystem,
    ControlSignal,
    Dissipative,
    EnergyReport,
    Hyperbolic,
    SystemState,
    adjoint_duality_quadrature,
    adjoint_system,
    cfl_time_step,
    energy,
    forward_duality_pairing,
    solve,
    state_l2_norm,
    zero_state,
)
from .hum import (
    GramianOperator,
    HumResult,
    SeedSpace,
    SweepResult,
    assemble_dense_gramian,
    epsilon_sweep,
    synthesize_control,
)
from .analysis import (
    AdmissibilityReport,
    KalmanReport,
    admissibility_ratio,
    kalman_mode_test,
    observability_constants,
)
from .config import Experiment, build_experiment, config_hash, load_config
from .errors import (
    CascadeLabError,
    CflViolationError,
    ConfigError,
    NotApplicableError,
)
