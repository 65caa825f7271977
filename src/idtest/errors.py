"""Exception types shared across the package."""


class IdTestError(Exception):
    """Base class for all errors raised by this package."""


class NegativeEntry(IdTestError):
    """A pmf entry is negative (no tolerance: -1e-12 is rejected)."""

    def __init__(self, index: int, value: float):
        self.index = index
        self.value = value
        super().__init__(f"pmf entry {index} is negative: {value!r}")


class SumOutOfTolerance(IdTestError):
    """The pmf entries do not sum to 1 within tolerance."""

    def __init__(self, actual_sum: float, tolerance: float):
        self.actual_sum = actual_sum
        self.tolerance = tolerance
        super().__init__(
            f"pmf sums to {actual_sum!r}, outside 1 +/- {tolerance:g}"
        )


class DomainMismatch(IdTestError):
    """Two objects disagree on the domain size n."""


class BadParams(IdTestError):
    """Invalid parameters for an operation or generator."""


class SampleExhausted(IdTestError):
    """A finite (file-backed) sample source ran out of samples mid-phase."""


class IndexOutOfRange(IdTestError):
    """Sample index outside [0, n)."""


class DimensionMismatch(IdTestError):
    """Vector length does not match the bucket count k+1."""


class BudgetExceeded(IdTestError):
    """Query accounting found more work than the closed-form budget allows.

    This indicates a bug in the tester, not a bad input.
    """


class InvariantViolated(IdTestError):
    """An internal invariant of the tester does not hold.

    Raised in place of `assert` so the check also runs under `python -O`.
    Like BudgetExceeded, it indicates a bug, not a bad input.
    """
