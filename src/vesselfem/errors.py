"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad parameters, schema violations, rejected setups."""


class GeometryError(ConfigError):
    """Vessel geometry violates a structural requirement (collapse, leaves the box, ...)."""


class DomainError(ValueError):
    """Evaluation requested outside the admissible domain (arclength or box)."""


class SolverError(RuntimeError):
    """Linear solver failure: singular pivot or residual above tolerance."""


class ReleasedError(RuntimeError):
    """A marched system was stepped: its LU is freed when its march ends."""


class VerificationError(RuntimeError):
    """A built-in verification gate failed (e.g. source-term residual check)."""
