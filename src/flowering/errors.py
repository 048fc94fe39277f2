"""Shared exception base for the flowering package."""


class FloweringError(Exception):
    """Base class for all errors raised by this package."""


class TooLargeError(FloweringError):
    """A table or brute-force routine was asked to exceed its size cap."""
