"""The shared exception type."""


class ResolutionError(RuntimeError):
    """A grid is too coarse (or a window too small) to resolve the requested object."""

