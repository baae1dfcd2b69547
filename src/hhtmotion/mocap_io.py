"""BVH motion-capture parsing, writing, and channel extraction.

The parser accepts the usual HIERARCHY/MOTION layout with ROOT, nested
JOINT, and End Site blocks.  A clip keeps its hierarchy as the text it was
read from and writes it back unchanged.  Joint-angle channels are exposed as
continuous signals: rotation columns are unwrapped so editing operates on
smooth series, and wrapped back to (-180, 180] when written into a clip.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelError, InputError
from .signal_core import TimeSeries, require_form

__all__ = [
    "MotionClip",
    "parse_bvh",
    "write_bvh",
    "extract_channels",
    "apply_channels",
    "unwrap_degrees",
    "wrap_degrees",
]

CHANNEL_NAMES = (
    "Xposition",
    "Yposition",
    "Zposition",
    "Xrotation",
    "Yrotation",
    "Zrotation",
)


@dataclass
class MotionClip:
    """Frames of the skeleton that ``hierarchy`` declares, the BVH text from
    ``HIERARCHY`` through the root's closing brace as it was read; ``labels``
    names the frames' columns in declaration (depth-first) order."""

    hierarchy: str
    frames: np.ndarray
    frame_time: float
    labels: list = field(init=False)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 2:
            raise ValueError("frames must be a matrix with at least 2 rows")
        if not 0.0 < self.frame_time < float("inf"):
            raise ValueError("frame_time must be positive and finite")
        if self.rate == float("inf"):
            raise ValueError("frame_time must give a finite rate")
        tokens = _Tokens(self.hierarchy)
        self.labels = _parse_hierarchy(tokens)
        if tokens.peek() is not None:
            raise InputError(f"line {tokens.line()}: expected the hierarchy to end "
                             "at the root's closing brace")
        if self.frames.shape[1] != len(self.labels):
            raise ValueError(
                f"frame width {self.frames.shape[1]} does not match the "
                f"skeleton's {len(self.labels)} channels"
            )

    @property
    def frame_count(self):
        return self.frames.shape[0]

    @property
    def rate(self):
        return 1.0 / self.frame_time

    @property
    def duration(self):
        return self.frame_count * self.frame_time

    def column(self, label):
        try:
            return self.labels.index(label)
        except ValueError:
            raise ChannelError(f"unknown channel: {label}") from None


# ---------------------------------------------------------------------------
# angle wrapping


def unwrap_degrees(values: np.ndarray) -> np.ndarray:
    """Remove +-360 jumps: steps larger than 180 degrees are shifted."""
    values = np.asarray(values, dtype=np.float64)
    steps = np.diff(values)
    turns = np.concatenate(([0.0], np.cumsum(np.round(steps / 360.0))))
    return values - 360.0 * turns


def wrap_degrees(values: np.ndarray) -> np.ndarray:
    """Map angles into (-180, 180]."""
    values = np.asarray(values, dtype=np.float64)
    return values - 360.0 * np.ceil((values - 180.0) / 360.0)


# ---------------------------------------------------------------------------
# parsing


_WORD = re.compile(r"\S+")  # \S is the exact complement of what str.split() splits on


class _Tokens:
    """BVH text read one token at a time from the start; ``end`` is the
    offset where the last token read ends.  A line is counted from an
    offset, and only for an error message."""

    def __init__(self, text):
        self.text = text
        self.end = 0
        self.match = _WORD.search(text)  # the next token's, or None past the last

    def line(self):
        """Line of the next token; past the last token, the last token's."""
        return len(self.text[:self.match.start() + 1 if self.match else self.end].splitlines())

    def last_line(self):
        """Line of the token just read."""
        return len(self.text[:self.end].splitlines())

    def peek(self):
        return self.match and self.match[0]

    def next(self, expected=None):
        # peek first: nesting too deep then trips the recursion limit in this
        # Python call, not in the C search below, whose message would differ
        token = self.peek()
        if token is None:
            raise InputError(f"line {self.line()}: expected {expected or 'more input'}")
        self.end = self.match.end()
        self.match = _WORD.search(self.text, self.end)
        return token

    def expect(self, literal):
        if self.peek() != literal:
            raise InputError(f"line {self.line()}: expected {literal!r}")
        self.next()

    def parse(self, kind, what):
        """The next token read by ``kind`` (``int`` or ``float``)."""
        token = self.next(expected=what)
        try:
            return kind(token)
        except ValueError:
            raise InputError(f"line {self.last_line()}: expected {what}") from None


def _parse_offset(tokens):
    """Read an OFFSET line; the values are checked, not kept."""
    tokens.expect("OFFSET")
    for _ in range(3):
        tokens.parse(float, "offset value")


def _parse_joint(tokens, taken):
    """Column labels of the joint whose name is next and of its subtree,
    '<joint>.<Channel>' in frame order.  A name already in ``taken`` gets the
    first suffix ``_<k>``, k >= 2, that is not; ``taken`` maps each name in
    use to the last k tried for it, so no k is tried twice."""
    name = label = tokens.next(expected="joint name")
    while label in taken:
        taken[name] += 1
        label = f"{name}_{taken[name]}"
    taken[label] = 1
    tokens.expect("{")
    _parse_offset(tokens)
    labels = []
    if tokens.peek() == "CHANNELS":
        tokens.next()
        count = tokens.parse(int, "channel count")
        if count not in (0, 3, 6):
            raise InputError(f"line {tokens.last_line()}: expected channel count 0, 3, or 6")
        for _ in range(count):
            ch = tokens.next(expected="channel name")
            if ch not in CHANNEL_NAMES:
                raise InputError(f"line {tokens.last_line()}: {ch}")
            labels.append(f"{label}.{ch}")
    while True:
        token = tokens.next(expected="'JOINT', 'End Site', or '}'")
        if token == "JOINT":
            labels.extend(_parse_joint(tokens, taken))
        elif token == "End":
            tokens.expect("Site")
            tokens.expect("{")
            _parse_offset(tokens)
            tokens.expect("}")
        elif token == "}":
            return labels
        else:
            raise InputError(f"line {tokens.last_line()}: expected 'JOINT', 'End Site', or '}}'")


def _parse_hierarchy(tokens):
    """Column labels of the skeleton declared from the next token, HIERARCHY,
    through the root's closing brace."""
    tokens.expect("HIERARCHY")
    tokens.expect("ROOT")
    labels = _parse_joint(tokens, {})
    if tokens.peek() == "ROOT":
        raise InputError(f"line {tokens.line()}: expected a single ROOT")
    if not labels:
        raise InputError(f"line {tokens.line()}: expected a joint that declares channels")
    return labels


def parse_bvh(text: str) -> MotionClip:
    """Parse BVH source into a motion clip.

    The clip keeps the hierarchy as text, as it was read.  Channel column
    order follows the declaration order exactly.  The declared frame count
    must match the number of data rows.  Duplicate joint names get numeric
    suffixes in the column labels.  A skeleton without channels, fewer than
    two frames and a frame time that is not positive or whose rate overflows
    raise :class:`InputError`.  Tokens are read one at a time up to the frame
    time, and the motion block after it is split in one pass; a value that
    ``float`` rejects and a short last row raise it with their line.
    """
    tokens = _Tokens(text)
    width = len(_parse_hierarchy(tokens))
    hierarchy = text[:tokens.end].lstrip()
    tokens.expect("MOTION")
    tokens.expect("Frames:")
    frame_count = tokens.parse(int, "frame count")
    if frame_count < 2:
        raise InputError(f"line {tokens.last_line()}: expected a frame count of at least 2")
    tokens.expect("Frame")
    tokens.expect("Time:")
    frame_time = tokens.parse(float, "frame time")
    if not 0.0 < frame_time < float("inf"):
        raise InputError(f"line {tokens.last_line()}: expected a positive frame time")
    if 1.0 / frame_time == float("inf"):
        raise InputError(f"line {tokens.last_line()}: expected a frame time with a finite rate")

    words = text[tokens.end:].split()
    try:
        values = np.array(list(map(float, words)))
    except ValueError:
        for _ in words:  # read on one token at a time: the first value float rejects raises
            tokens.parse(float, "a channel value")
    if len(values) % width != 0:
        last = len(text.rstrip().splitlines())  # the last token's line
        raise InputError(f"line {last}: expected rows of {width} channel values")
    frames = values.reshape(-1, width)
    if frames.shape[0] != frame_count:
        raise InputError(
            f"declared {frame_count} frames, found {frames.shape[0]}"
        )
    return MotionClip(hierarchy, frames, frame_time)


# ---------------------------------------------------------------------------
# writing


def write_bvh(clip: MotionClip) -> str:
    """Emit BVH text: the clip's hierarchy as it was read, then the motion
    block, whose numbers carry 6 decimal places."""
    row = " ".join(["%.6f"] * clip.frames.shape[1])
    values = tuple(clip.frames.ravel().tolist())
    return "\n".join([clip.hierarchy, "MOTION", f"Frames: {clip.frame_count}",
                      f"Frame Time: {clip.frame_time:.6f}",
                      "\n".join([row] * clip.frame_count) % values]) + "\n"


# ---------------------------------------------------------------------------
# channel extraction / writing back


def _is_rotation(label):
    return label.rsplit(".", 1)[-1].endswith("rotation")


def extract_channels(clip: MotionClip, selection) -> TimeSeries:
    """Selected columns as a series with a channel axis at the clip's frame
    rate, labelled with ``selection``.

    Rotation channels are unwrapped into continuous series; position channels
    pass through unchanged.
    """
    rows = []
    for label in selection:
        row = clip.frames[:, clip.column(label)]
        # checked before unwrapping, so NaN or Inf is rejected before any arithmetic
        if not np.all(np.isfinite(row)):
            raise InputError(f"{label}: samples contain NaN or Inf")
        rows.append(unwrap_degrees(row) if _is_rotation(label) else row)
    return TimeSeries(np.array(rows), clip.rate, labels=list(selection))


def apply_channels(clip: MotionClip, series: TimeSeries) -> MotionClip:
    """New clip with the columns that ``series.labels`` names replaced by
    ``series``'s rows.

    Rotation values are wrapped back to (-180, 180].  Other columns are
    untouched.  A label the clip lacks raises :class:`ChannelError`.
    """
    require_form(series, True, "apply_channels")
    if len(series) != clip.frame_count:
        raise ChannelError(
            f"series length {len(series)} != frame count {clip.frame_count}"
        )
    frames = clip.frames.copy()
    for label, values in zip(series.labels, series.samples):
        col = clip.column(label)
        frames[:, col] = wrap_degrees(values) if _is_rotation(label) else values
    return MotionClip(clip.hierarchy, frames, clip.frame_time)
