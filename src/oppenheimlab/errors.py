"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class AccuracyError(RuntimeError):
    """A quadrature or series evaluation missed its error target.

    The achieved error estimate is carried in ``achieved``.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


class ConditionCheckError(RuntimeError):
    """A precondition check on a family or weight scheme failed."""
