"""Error taxonomy shared by all modules.

Structural problems (wrong shapes), domain problems (inputs outside an
operation's mathematical domain), capacity limits (inputs too large for an
exact algorithm) and numerical failures (an iterative solver that did not
reach its target accuracy) are kept distinct so callers can react
differently to each.
"""


class DimensionMismatch(ValueError):
    """Vectors or operators whose sizes do not agree."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class CapacityError(ValueError):
    """Input size exceeds the cap of an exact algorithm."""


class NumericalFailure(RuntimeError):
    """An iterative solver stopped short of its accuracy target.

    Carries the best value found and the remaining certified gap so the
    caller can decide whether the partial answer is still usable.
    """

    def __init__(self, message, best_value=None, gap=None):
        super().__init__(message)
        self.best_value = best_value
        self.gap = gap


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree (exact vs grid) disagreed beyond tolerance."""
