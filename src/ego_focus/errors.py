"""Exception types shared across the package.

Every error that callers are expected to branch on gets its own class;
plain ValueError is reserved for programming mistakes (bad argument
shapes and the like).
"""

from __future__ import annotations


class EgoFocusError(Exception):
    """Base class for all package-specific errors."""


class InvalidPoseError(EgoFocusError):
    """Rotation is too far from orthonormal (or is a reflection)."""


class StreamDiscontinuityError(EgoFocusError):
    """Frame indices in a pose stream are missing or out of order."""


class StreamFormatError(EgoFocusError):
    """A pose stream line (or binary container) could not be parsed."""


class ConfigError(EgoFocusError):
    """A configuration value or file is invalid; names the offending key."""

    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


class PlanError(EgoFocusError):
    """A window plan or batch sequence violates the plan contract."""
