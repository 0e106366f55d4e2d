"""Exception hierarchy shared across the package."""


class ContragpError(Exception):
    """Base class for all errors raised by contragp."""


class DimensionError(ContragpError):
    """An argument has the wrong shape or dimension."""

    def __init__(self, argument, expected, got):
        self.argument = argument
        self.expected = expected
        self.got = got
        super().__init__(
            f"argument '{argument}' has incompatible dimension: "
            f"expected {expected}, got {got}"
        )


class DataError(ContragpError):
    """Input data is malformed (NaNs, inconsistent counts, ...)."""


class FactorizationError(ContragpError):
    """A symmetric factorization failed; usually fixable with jitter."""


class InfeasibleError(ContragpError):
    """A synthesis step has no solution within its constraint family."""

    def __init__(self, message, best_margin=None, worst_label=None):
        self.best_margin = best_margin
        self.worst_label = worst_label
        super().__init__(message)


class UnboundedMarginError(ContragpError):
    """Margin maximization diverges; normalization blocks are required."""


class NumericalFailureError(ContragpError):
    """An iterative routine broke down; carries an iteration trace summary."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)


class VertexBudgetError(ContragpError):
    """Vertex enumeration of a hull cell would exceed its cap."""


class ConfigError(ContragpError):
    """A pipeline configuration is invalid."""
