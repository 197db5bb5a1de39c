"""Shared exception types.

The CLI maps these onto exit codes: HypothesisError and SchemaError mean the
request itself is invalid (exit 2), PrecisionError means the inputs are fine
but too short (exit 3), VerificationFailure means a check ran and failed
(exit 1).  `REQUEST_BUDGET` bounds what one request may cost.
"""

from __future__ import annotations

# The most series terms, character residues or trial divisions one request
# may ask for; `check_budget` refuses a larger one before any work starts.
REQUEST_BUDGET = 4_000_000


class HypothesisError(ValueError):
    """A theorem hypothesis needed by the requested operation fails.

    `obstruction` is a short stable code, `case` optionally names the case of
    the level theorem the request falls under.
    """

    def __init__(self, obstruction: str, detail: str, case: str | None = None):
        super().__init__(detail)
        self.obstruction = obstruction
        self.detail = detail
        self.case = case


class PrecisionError(ValueError):
    """An operation needs input coefficients beyond the provable window."""

    def __init__(self, detail: str, required_lo: int, required_hi: int):
        super().__init__(detail)
        self.required_lo = required_lo
        self.required_hi = required_hi

    @property
    def required_window(self) -> tuple[int, int]:
        return (self.required_lo, self.required_hi)


class SchemaError(ValueError):
    """Malformed serialized input (JSON shape, not mathematics)."""


def check_budget(size: int, what: str) -> None:
    """SchemaError when `size`, the cost `what` names, exceeds REQUEST_BUDGET.
    The size itself is not printed: it may have more digits than Python
    converts to text."""
    if size > REQUEST_BUDGET:
        raise SchemaError("%s exceeds the request budget of %d" % (what, REQUEST_BUDGET))


class VerificationFailure(ValueError):
    """A verification check ran to completion and the object failed it.

    `first_mismatch` optionally locates the first disagreement as a tuple:
    (exponent, got, want) for a coefficient check, (component, exponent,
    denominator) for the support law of a vector-valued form.
    """

    def __init__(self, detail: str, first_mismatch: tuple | None = None):
        super().__init__(detail)
        self.first_mismatch = first_mismatch


class TailBoundError(ValueError):
    """A numeric evaluation could not certify the requested accuracy."""
