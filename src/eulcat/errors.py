"""Shared exception hierarchy.

Every error raised by this package derives from EulcatError so the CLI can
map validation failures to a single exit code.
"""


class EulcatError(Exception):
    """Base class for all errors raised by eulcat."""


class ValidationError(EulcatError):
    """Input data violates a structural invariant."""


class InvariantViolation(EulcatError):
    """Two routes to the same quantity disagree; ``witness`` holds the
    values that differ."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness
