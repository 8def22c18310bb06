"""Shared exception types."""


class ConfigError(ValueError):
    """Malformed configuration. `field` names the offending key path."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class CapExceededError(ValueError):
    """Instance too large for an exhaustive check or enumeration."""


class GraphGenerationError(RuntimeError):
    """Random graph generation exhausted its retry budget."""


class DisconnectedGraphError(ValueError):
    """Operation requires a connected graph."""


class ProtocolError(RuntimeError):
    """Base class for failures during a distributed run."""


class DesyncError(ProtocolError):
    """Agents disagree where the protocol requires agreement."""


class InfeasiblePsiError(ProtocolError):
    """The candidate sets of a round intersected to nothing."""


class MonotonicityError(ValueError):
    """An input function produced a negative marginal gain."""
