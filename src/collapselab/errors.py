"""Shared exception types.

Every error raised on purpose by this package derives from CollapseLabError,
so callers can catch one base class. The subclasses distinguish the failure
families that the public contracts promise: degenerate inputs, broken
preconditions (an argument outside its valid domain and operands whose
shapes do not line up among them), bad experiment configs (a data table the
config names that cannot be read or parsed among them), non-finite
evaluations, and diverged runs.
"""


class CollapseLabError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateInputError(CollapseLabError, ValueError):
    """A vector whose norm is zero or not finite was given where a direction is required."""


class ContractError(CollapseLabError, ValueError):
    """A documented precondition was violated, operands whose shapes do not line up included."""


class ConfigError(CollapseLabError, ValueError):
    """An experiment configuration is invalid."""


class EvaluationError(CollapseLabError, RuntimeError):
    """A numeric evaluation produced a non-finite value."""


class TrainingDivergedError(CollapseLabError, RuntimeError):
    """Training produced a non-finite loss or gradient; message names the culprit."""
