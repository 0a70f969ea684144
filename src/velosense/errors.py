"""Exception types shared across the toolkit."""

from contextlib import contextmanager


class VeloSenseError(Exception):
    """Base class for all toolkit errors."""


class MalformedInputError(VeloSenseError):
    """An input file or record violates the expected schema."""


class NoPathError(VeloSenseError):
    """Destination is unreachable from the origin."""


class InfeasiblePlanError(VeloSenseError):
    """A fleet plan cannot serve the trip log (no idle bike at a start stand)."""


class ConfigInfeasibleError(VeloSenseError):
    """A synthetic-data or experiment configuration admits no valid output."""


class HorizonError(VeloSenseError):
    """An event falls outside the simulation horizon."""


class UndefinedScoreError(VeloSenseError):
    """The sensing score is undefined (empty road network)."""


@contextmanager
def malformed_fields(source):
    """Report a missing or mistyped field of a loaded artifact as malformed input."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError) as exc:
        raise MalformedInputError(f"{source}: missing or malformed field {exc}") from exc
