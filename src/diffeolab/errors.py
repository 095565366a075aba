"""Shared exception types.

PreconditionError marks a numerical refusal: an operation declined to run
because a measured smallness or structural hypothesis failed.  It is a
reportable outcome (CLI exit code 3), distinct from verification failure.
"""


class PreconditionError(ValueError):
    pass


class ConstructionError(RuntimeError):
    """An internal construction could not be completed (e.g. a blend lost
    monotonicity after the retry, or a root find stalled)."""
