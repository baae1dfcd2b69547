"""Exception types shared across the toolkit."""


class HhtMotionError(Exception):
    """Base class for all hhtmotion errors."""


class InvalidValue(HhtMotionError, ValueError):
    """A parameter value outside the range the function accepts."""


class InputFormatError(HhtMotionError):
    """An input file that cannot be read or breaks its documented format."""


# --- signal / decomposition ---

class SignalTooShort(HhtMotionError):
    pass


class NonFiniteSample(HhtMotionError):
    pass


class DegenerateSignal(HhtMotionError):
    pass


class TooFewExtrema(HhtMotionError):
    """Not enough extrema to fit an envelope.

    ``direction`` is set when raised for a projected multivariate signal.
    """

    def __init__(self, message, direction=None):
        super().__init__(message)
        self.direction = direction


class NoConvergence(HhtMotionError):
    pass


class BadDimension(HhtMotionError):
    pass


class ArchiveFormatError(InputFormatError):
    """A decomposition archive that is not of the documented shape."""


# --- motion-capture I/O ---

class BvhSyntaxError(InputFormatError):
    def __init__(self, line, expected):
        super().__init__(f"line {line}: expected {expected}")
        self.line = line
        self.expected = expected


class FrameCountMismatch(InputFormatError):
    pass


class UnknownChannelName(InputFormatError):
    pass


class UnknownChannel(HhtMotionError):
    def __init__(self, name):
        super().__init__(f"unknown channel: {name}")
        self.name = name


class LengthMismatch(HhtMotionError):
    pass


# --- beats / audio ---

class BadTempo(HhtMotionError):
    pass


class UnusableAudio(HhtMotionError):
    """Audio that onset detection cannot use: too short, or sampled below 8 kHz."""


class AudioTooShort(UnusableAudio):
    pass


class NoPeriodicity(HhtMotionError):
    pass


class NoBeats(HhtMotionError):
    pass


class GridOutsideClip(HhtMotionError):
    pass


class WavFormatError(InputFormatError):
    pass


class GridFormatError(InputFormatError):
    """A beat grid with a missing or malformed field, or gaps off its tempo."""


# --- analysis ---

class BadBinning(HhtMotionError):
    pass


class TooFewFrequencies(HhtMotionError):
    pass


class TooFewIMFs(HhtMotionError):
    pass


# --- editing ---

class SpecOutOfBounds(HhtMotionError):
    pass


class ChannelMismatch(HhtMotionError):
    def __init__(self, message, labels=None):
        super().__init__(message)
        self.labels = labels


class BlendSpecError(HhtMotionError):
    pass
