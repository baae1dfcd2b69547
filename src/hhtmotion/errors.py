"""Exception types shared across the toolkit: one public type per CLI exit
code, plus two that only library callers see."""

__all__ = ["HhtMotionError", "InputError", "ChannelError", "NoConvergence", "NoBeats",
           "BlendSpecError", "InvalidValue", "TooFewExtrema", "DegenerateSignal"]


class HhtMotionError(Exception):
    """Base class for all hhtmotion errors."""


class InputError(HhtMotionError):
    """Input the pipeline cannot work on: an unreadable or malformed BVH, WAV,
    archive or beat grid, non-finite or too few samples, or unusable audio."""


class ChannelError(HhtMotionError):
    """An unknown channel, channels or lengths that differ between inputs, or
    a beat grid outside the clip."""


class NoConvergence(HhtMotionError):
    """A sift that did not settle within its iteration limit."""


class NoBeats(HhtMotionError):
    """Audio with no periodic structure, or a grid with no steady beats."""


class BlendSpecError(HhtMotionError):
    """A blend spec that breaks its schema or addresses IMFs out of range."""


class InvalidValue(HhtMotionError, ValueError):
    """A parameter value outside the range the function accepts."""


# --- library only: no exit code of their own ---

class TooFewExtrema(HhtMotionError):
    """Not enough extrema to fit an envelope."""


class DegenerateSignal(HhtMotionError):
    """Too few frequencies or IMFs to compare."""
