"""Exception types shared across the library."""


class OiaSimError(Exception):
    """Base class for all library errors."""


class DegenerateChannel(OiaSimError):
    """A channel draw is rank deficient or too ill conditioned to use.

    For a stack of drops, where is the boolean mask of the degenerate ones.
    """

    def __init__(self, message: str = "", where=None):
        super().__init__(message)
        self.where = where


class ShapeMismatch(OiaSimError, ValueError):
    """Operands live on different manifolds or have incompatible shapes."""


class LambertDomain(OiaSimError, ValueError):
    """Argument outside the domain of the requested Lambert W branch."""


class TooFewUsers(OiaSimError, ValueError):
    """K is outside the validity range of the requested threshold method."""


class OddBitSplit(OiaSimError, ValueError):
    """A bit budget that must split evenly across two codebooks is odd."""


class UnknownExperiment(OiaSimError, KeyError):
    """Requested experiment name is not in the registry."""


class IoError(OiaSimError, OSError):
    """Output path cannot be created or written."""


class ConfigError(OiaSimError, ValueError):
    """Malformed experiment configuration (unknown key, bad value)."""
