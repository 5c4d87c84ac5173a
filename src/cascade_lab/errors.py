"""Exception types shared across the package."""


class CascadeLabError(Exception):
    """Base class for package-specific errors."""


class CflViolationError(CascadeLabError, ValueError):
    """Requested time step violates the explicit-scheme stability bound."""

    def __init__(self, dt, dt_admissible):
        self.dt = float(dt)
        self.dt_admissible = float(dt_admissible)
        super().__init__(
            f"dt={dt:.6g} is unstable for the explicit wave step; "
            f"use dt <= {dt_admissible:.6g}"
        )


class StepTooCoarseError(CascadeLabError, ValueError):
    """Ray sampling step is too large relative to the target region."""

    def __init__(self, dt_ray, min_width):
        self.dt_ray = float(dt_ray)
        self.min_width = float(min_width)
        super().__init__(
            f"dt_ray={dt_ray:.6g} >= smallest region part width {min_width:.6g}; "
            "rays could cross the region between samples"
        )


class HypothesisViolatedError(CascadeLabError, ArithmeticError):
    """A structural hypothesis failed on the assembled problem."""


class NotApplicableError(CascadeLabError, ValueError):
    """Requested diagnostic is undefined for this configuration."""


class ConfigError(CascadeLabError, ValueError):
    """Experiment configuration is malformed."""
