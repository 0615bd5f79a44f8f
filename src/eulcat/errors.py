"""Shared exception hierarchy.

Every error raised by this package derives from EulcatError so the CLI can
map validation failures to a single exit code.  ``_trusted`` is the one way
the library builds a value without its constructor's checks.
"""


class EulcatError(Exception):
    """Base class for all errors raised by eulcat.  ``witness``, when set,
    holds the machine-readable offending data (a triple, a pair, values that
    differ)."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class ValidationError(EulcatError):
    """Input data violates a structural invariant."""


class InvariantViolation(EulcatError):
    """Two routes to the same quantity disagree; ``witness`` holds the
    values that differ."""


def _trusted(cls, **fields):
    """The frozen dataclass ``cls`` holding ``fields``, with no ``__post_init__``
    run: for values derived from validated ones, lawful by the caller's proof."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj
