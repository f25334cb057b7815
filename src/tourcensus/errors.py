"""Exception types shared across the package."""

__all__ = [
    "TourCensusError",
    "EmptyTypeError",
    "IllFormedError",
    "TooShortError",
    "TypeTooLongError",
    "BadSubsetError",
    "ScopeTooLargeError",
    "UnknownPropertyError",
    "ParseError",
    "ParityViolationError",
    "DivisibilityViolationError",
]


class TourCensusError(Exception):
    """Base class for all package-specific errors."""


class EmptyTypeError(TourCensusError, ValueError):
    """A block tuple normalized to nothing (no nonzero entries)."""


class IllFormedError(TourCensusError, ValueError):
    """A block tuple violates the alternating-sign rules."""


class TooShortError(TourCensusError, ValueError):
    """A vertex sequence is too short to classify."""


class TypeTooLongError(TourCensusError, ValueError):
    """A block tuple needs more vertices than the host tournament has."""


class BadSubsetError(TourCensusError, ValueError):
    """An induced-subtournament request named vertices outside the host."""


class ScopeTooLargeError(TourCensusError, ValueError):
    """A sweep or table would exceed the supported size."""


class UnknownPropertyError(TourCensusError, ValueError):
    """Verification property id does not exist."""


class ParseError(TourCensusError, ValueError):
    """Malformed textual input; carries the byte offset of the problem."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte {offset})")
        self.message = message
        self.offset = offset


def _shown(token: str) -> str:
    """``token`` as an error message shows it: quoted up to 20 characters,
    else only its length, so a long token is not echoed."""
    return repr(token) if len(token) <= 20 else f"of {len(token)} characters"


class ParityViolationError(TourCensusError, RuntimeError):
    """Internal invariant failed: a symmetric type produced an odd count."""


class DivisibilityViolationError(TourCensusError, RuntimeError):
    """Internal invariant failed: an exact division left a remainder."""
