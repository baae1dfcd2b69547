"""BVH motion-capture parsing, writing, channel extraction, and resampling.

The parser accepts the usual HIERARCHY/MOTION layout with ROOT, nested
JOINT, and End Site blocks.  Joint-angle channels are exposed as continuous
signals: rotation columns are unwrapped so editing operates on smooth series,
and wrapped back to (-180, 180] when written into a clip.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ChannelError, InputError, InvalidValue
from .signal_core import TimeSeries, require_form
from .spline import cubic_spline

__all__ = [
    "Joint",
    "Skeleton",
    "MotionClip",
    "parse_bvh",
    "write_bvh",
    "extract_channels",
    "apply_channels",
    "resample",
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
class Joint:
    name: str
    offset: np.ndarray
    channels: list
    children: list = field(default_factory=list)
    end_site: np.ndarray | None = None


@dataclass
class Skeleton:
    root: Joint

    def joints(self):
        """All joints in declaration (depth-first) order."""
        out = []

        def walk(joint):
            out.append(joint)
            for child in joint.children:
                walk(child)

        walk(self.root)
        return out

    def channel_labels(self):
        """Column labels in frame order: '<joint>.<Channel>'."""
        labels = []
        for joint in self.joints():
            labels.extend(f"{joint.name}.{ch}" for ch in joint.channels)
        return labels

    @property
    def total_channels(self):
        return sum(len(j.channels) for j in self.joints())


@dataclass
class MotionClip:
    skeleton: Skeleton
    frames: np.ndarray
    frame_time: float

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[0] < 2:
            raise ValueError("frames must be a matrix with at least 2 rows")
        if self.frame_time <= 0:
            raise ValueError("frame_time must be positive")
        if self.frames.shape[1] != self.skeleton.total_channels:
            raise ValueError(
                f"frame width {self.frames.shape[1]} does not match the "
                f"skeleton's {self.skeleton.total_channels} channels"
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
        labels = self.skeleton.channel_labels()
        try:
            return labels.index(label)
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


class _Tokens:
    """Whitespace-separated tokens of BVH text, split a line at a time.

    Only the lines the header needs are split; :meth:`rest` hands over every
    token after the current one.  Line numbers count as
    :meth:`str.splitlines` does.
    """

    def __init__(self, text):
        self.lines = text.splitlines()
        # lines split so far; ``words`` and the token handed out last come
        # from the last of them
        self.line_no = 0
        self.words = []
        self.pos = 0
        self.token_line = 0  # line of the next token, else of the last one

    def _fill(self):
        """Split lines until a token is waiting; False at the end of the text."""
        while self.pos >= len(self.words):
            if self.line_no == len(self.lines):
                return False
            self.words = self.lines[self.line_no].split()
            self.pos = 0
            self.line_no += 1
            if self.words:
                self.token_line = self.line_no
        return True

    @property
    def line(self):
        self._fill()
        return self.token_line

    def peek(self):
        return self.words[self.pos] if self._fill() else None

    def next(self, expected=None):
        token = self.peek()
        if token is None:
            raise InputError(f"line {self.line}: expected {expected or 'more input'}")
        self.pos += 1
        return token

    def expect(self, literal):
        token = self.next(expected=repr(literal))
        if token != literal:
            raise InputError(f"line {self.line_no}: expected {literal!r}")
        return token

    def number(self, what="a number"):
        token = self.next(expected=what)
        try:
            return float(token)
        except ValueError:
            raise InputError(f"line {self.line_no}: expected {what}") from None

    def integer(self, what="an integer"):
        token = self.next(expected=what)
        try:
            return int(token)
        except ValueError:
            raise InputError(f"line {self.line_no}: expected {what}") from None

    def rest(self):
        """Every token not handed out yet, in order."""
        return self.words[self.pos:] + "\n".join(self.lines[self.line_no:]).split()

    def line_of(self, index):
        """Line of token ``index`` of :meth:`rest`; counts lines only when asked."""
        index -= len(self.words) - self.pos
        line_no = self.line_no
        while index >= 0:
            index -= len(self.lines[line_no].split())
            line_no += 1
        return line_no


def _parse_offset(tokens):
    tokens.expect("OFFSET")
    return np.array([tokens.number("offset value") for _ in range(3)])


def _parse_joint(tokens, names_seen):
    name = tokens.next(expected="joint name")
    names_seen[name] = names_seen.get(name, 0) + 1
    if names_seen[name] > 1:
        name = f"{name}_{names_seen[name]}"
    tokens.expect("{")
    offset = _parse_offset(tokens)
    channels = []
    if tokens.peek() == "CHANNELS":
        tokens.next()
        count = tokens.integer("channel count")
        if count not in (0, 3, 6):
            raise InputError(f"line {tokens.line}: expected channel count 0, 3, or 6")
        for _ in range(count):
            ch = tokens.next(expected="channel name")
            if ch not in CHANNEL_NAMES:
                raise InputError(f"line {tokens.line}: {ch}")
            channels.append(ch)
    joint = Joint(name=name, offset=offset, channels=channels)
    while True:
        token = tokens.peek()
        if token == "JOINT":
            tokens.next()
            joint.children.append(_parse_joint(tokens, names_seen))
        elif token == "End":
            tokens.next()
            tokens.expect("Site")
            tokens.expect("{")
            joint.end_site = _parse_offset(tokens)
            tokens.expect("}")
        elif token == "}":
            tokens.next()
            return joint
        else:
            raise InputError(f"line {tokens.line}: expected 'JOINT', 'End Site', or '}}'")


def _is_number(word):
    try:
        float(word)
    except ValueError:
        return False
    return True


def parse_bvh(text: str) -> MotionClip:
    """Parse BVH source into a motion clip.

    Channel column order follows the declaration order exactly.  The declared
    frame count must match the number of data rows.  Duplicate joint names
    get numeric suffixes.  A skeleton without channels, fewer than two
    frames and a frame time that is not positive raise
    :class:`InputError`.  The motion block is read in one pass; a value
    that ``float`` rejects and a short last row raise it with their line.
    """
    tokens = _Tokens(text)
    tokens.expect("HIERARCHY")
    tokens.expect("ROOT")
    names_seen = {}
    root = _parse_joint(tokens, names_seen)
    skeleton = Skeleton(root=root)
    if tokens.peek() == "ROOT":
        raise InputError(f"line {tokens.line}: expected a single ROOT")
    width = skeleton.total_channels
    if width == 0:
        raise InputError(f"line {tokens.line}: expected a joint that declares channels")
    tokens.expect("MOTION")
    tokens.expect("Frames:")
    line = tokens.line
    frame_count = tokens.integer("frame count")
    if frame_count < 2:
        raise InputError(f"line {line}: expected a frame count of at least 2")
    tokens.expect("Frame")
    tokens.expect("Time:")
    line = tokens.line
    frame_time = tokens.number("frame time")
    if not 0.0 < frame_time < float("inf"):
        raise InputError(f"line {line}: expected a positive frame time")

    words = tokens.rest()
    try:
        values = np.array(list(map(float, words)))
    except ValueError:
        bad = next(i for i, word in enumerate(words) if not _is_number(word))
        raise InputError(f"line {tokens.line_of(bad)}: expected a channel value") from None
    if len(values) % width != 0:
        last = tokens.line_of(len(words) - 1)
        raise InputError(f"line {last}: expected rows of {width} channel values")
    frames = values.reshape(-1, width)
    if frames.shape[0] != frame_count:
        raise InputError(
            f"declared {frame_count} frames, found {frames.shape[0]}"
        )
    return MotionClip(skeleton=skeleton, frames=frames, frame_time=frame_time)


# ---------------------------------------------------------------------------
# writing


def _write_joint(joint, depth, lines, is_root):
    indent = "\t" * depth
    lines.append(f"{indent}{'ROOT' if is_root else 'JOINT'} {joint.name}")
    lines.append(indent + "{")
    ox, oy, oz = joint.offset
    lines.append(f"{indent}\tOFFSET {ox:.6f} {oy:.6f} {oz:.6f}")
    if joint.channels:
        lines.append(
            f"{indent}\tCHANNELS {len(joint.channels)} " + " ".join(joint.channels)
        )
    for child in joint.children:
        _write_joint(child, depth + 1, lines, is_root=False)
    if joint.end_site is not None:
        ex, ey, ez = joint.end_site
        lines.append(f"{indent}\tEnd Site")
        lines.append(indent + "\t{")
        lines.append(f"{indent}\t\tOFFSET {ex:.6f} {ey:.6f} {ez:.6f}")
        lines.append(indent + "\t}")
    lines.append(indent + "}")


def write_bvh(clip: MotionClip) -> str:
    """Emit parseable BVH text; numbers carry 6 decimal places."""
    lines = ["HIERARCHY"]
    _write_joint(clip.skeleton.root, 0, lines, is_root=True)
    lines.append("MOTION")
    lines.append(f"Frames: {clip.frame_count}")
    lines.append(f"Frame Time: {clip.frame_time:.6f}")
    row = " ".join(["%.6f"] * clip.frames.shape[1])
    values = tuple(clip.frames.ravel().tolist())
    lines.append("\n".join([row] * clip.frame_count) % values)
    return "\n".join(lines) + "\n"


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
    return MotionClip(skeleton=clip.skeleton, frames=frames, frame_time=clip.frame_time)


def resample(clip: MotionClip, target_fps: float) -> MotionClip:
    """Channelwise cubic resampling onto a uniform grid of the same duration.

    Rotations are interpolated on their unwrapped values and wrapped back to
    (-180, 180]; positions are interpolated raw.
    """
    if not 0 < target_fps < np.inf:
        raise InvalidValue(f"target_fps must be a positive number, got {target_fps}")
    n_in = clip.frame_count
    n_out = max(2, int(round(clip.duration * target_fps)))
    t_in = np.arange(n_in) * clip.frame_time
    t_out = np.arange(n_out) / target_fps
    rotation = np.array([_is_rotation(label) for label in clip.skeleton.channel_labels()])
    columns = clip.frames.T.copy()
    for col in np.flatnonzero(rotation):
        columns[col] = unwrap_degrees(columns[col])
    out = cubic_spline(t_in, columns, t_out)
    out[rotation] = wrap_degrees(out[rotation])
    return MotionClip(
        skeleton=clip.skeleton, frames=out.T, frame_time=1.0 / target_fps
    )
