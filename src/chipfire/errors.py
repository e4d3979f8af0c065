"""Exception types shared across the package."""

__all__ = ["ChipfireError", "InputError", "NotConnectedError", "SizeError"]


class ChipfireError(Exception):
    """Base class for all errors raised by chipfire."""


class InputError(ChipfireError, ValueError):
    """Malformed or out-of-contract input (bad vertex, bad file, bad matrix)."""


class NotConnectedError(ChipfireError):
    """A group-level operation was asked about a disconnected graph."""


class SizeError(ChipfireError):
    """Input exceeds a size limit: the vertex budget of a graph, the cap on
    K_m and on the n of a cone, or the reach of a brute-force oracle."""
