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


class NotApplicableError(CascadeLabError, ValueError):
    """Requested diagnostic is undefined for this configuration."""


class ConfigError(CascadeLabError, ValueError):
    """Experiment configuration is malformed."""
