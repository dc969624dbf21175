"""Exception types shared across the package."""


class SafeFlError(Exception):
    """Base class for all errors raised by this package."""


class NotHurwitz(SafeFlError):
    """System matrix has an eigenvalue with non-negative real part."""


class SingularSystem(SafeFlError):
    """Linear system for the Lyapunov unknowns is rank-deficient."""


class InvalidUnsafeSet(SafeFlError):
    """Half-plane threshold does not define a valid unsafe set (needs d < 0)."""


class LevelTooSmall(SafeFlError):
    """Requested level v2 does not exceed the unsafe-set minimum v1."""


class MarginInfeasible(SafeFlError):
    """Chosen safety margin pushes the certified initial set out of the region."""


class NearSingular(SafeFlError):
    """Kinematic Jacobian too close to singular for task-space inversion."""


class NonFiniteState(SafeFlError):
    """Integration produced NaN or infinity."""


class ConfigError(SafeFlError):
    """Run configuration is malformed or fails schema validation."""
