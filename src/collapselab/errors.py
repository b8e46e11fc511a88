"""Shared exception types.

Every error raised on purpose by this package derives from CollapseLabError,
so callers can catch one base class. The subclasses distinguish the failure
families that the public contracts promise: shape mismatches, degenerate
inputs, broken preconditions (an argument outside its valid domain among
them), parse failures with line numbers, bad experiment configs, non-finite
evaluations, and diverged runs.
"""


class CollapseLabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(CollapseLabError, ValueError):
    """Operand dimensions do not line up."""


class DegenerateInputError(CollapseLabError, ValueError):
    """A zero vector was supplied where a direction is required."""


class ContractError(CollapseLabError, ValueError):
    """A documented precondition was violated."""


class ParseError(CollapseLabError, ValueError):
    """A file could not be parsed; the message carries the line number."""


class ConfigError(CollapseLabError, ValueError):
    """An experiment configuration is invalid."""


class EvaluationError(CollapseLabError, RuntimeError):
    """A numeric evaluation produced a non-finite value."""


class TrainingDivergedError(CollapseLabError, RuntimeError):
    """Training produced a non-finite loss or gradient; message names the culprit."""
