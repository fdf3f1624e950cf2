"""Exception types shared across the package.

Everything derives from ValueError (bad inputs) or RuntimeError (a
guaranteed bound failed, which means a bug rather than a bad input), so
callers can stay coarse-grained if they want to.
"""


class LayoutMismatchError(ValueError):
    """Operands live on incompatible system layouts."""


class StateInvariantError(ValueError):
    """A density matrix violates hermiticity, positivity or normalization."""


class NotPureError(ValueError):
    """An operation requiring a pure state received a mixed one."""


class LocalityError(ValueError):
    """A protocol step touches factors its acting party does not own."""


class NotConvertibleError(ValueError):
    """Requested pure-state conversion is forbidden by majorization."""


class DivergingRateError(ValueError):
    """A conversion rate has no finite value (zero-entanglement target)."""


class DimensionCapError(ValueError):
    """Requested dense computation exceeds the supported total dimension."""


class BudgetError(ValueError):
    """A stated error budget or search budget is violated or invalid."""


class BoundViolationError(RuntimeError):
    """A bound that holds for all valid inputs failed numerically."""


class DocumentError(ValueError):
    """A serialized document has missing keys, wrong types or an unsupported format."""


class ScenarioError(ValueError):
    """A scenario file is malformed or contains unknown keys."""


class MissingSeriesError(ValueError):
    """A report lacks the data series required for the requested output."""
