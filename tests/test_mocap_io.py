import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MINI_BVH, bvh_text, random_skeleton_bvh

from hhtmotion.errors import ChannelError, InputError
from hhtmotion.mocap_io import (
    MotionClip,
    _Tokens,
    apply_channels,
    extract_channels,
    parse_bvh,
    unwrap_degrees,
    wrap_degrees,
    write_bvh,
)
from hhtmotion.signal_core import TimeSeries


def header_labels(text):
    """'<joint>.<Channel>' for every CHANNELS line of BVH ``text``, in order;
    a joint whose name an earlier joint took is called '<name>_<k>', with the
    least k >= 2 that no earlier joint took."""
    labels, joint, taken = [], None, set()
    for words in (line.split() for line in text.splitlines()):
        if words[:1] in (["ROOT"], ["JOINT"]):
            joint, k = words[1], 2
            while joint in taken:
                joint, k = f"{words[1]}_{k}", k + 1
            taken.add(joint)
        elif words[:1] == ["CHANNELS"]:
            labels += [f"{joint}.{channel}" for channel in words[2:]]
    return labels


class TestParse:
    def test_minimal_fixture(self):
        clip = parse_bvh(MINI_BVH)
        assert clip.hierarchy == MINI_BVH[:MINI_BVH.index("\nMOTION")]
        assert clip.frames.shape == (2, 6)
        assert clip.frame_time == pytest.approx(0.025)
        assert clip.labels[0] == "hips.Xposition"

    def test_frame_count_mismatch(self):
        bad = MINI_BVH.replace("Frames: 2", "Frames: 3")
        with pytest.raises(InputError, match=r"^declared 3 frames, found 2$"):
            parse_bvh(bad)

    def test_unknown_channel_name(self):
        bad = MINI_BVH.replace("Xrotation", "Wrotation")
        with pytest.raises(InputError, match=r"^line \d+: Wrotation$"):
            parse_bvh(bad)

    def test_syntax_error_carries_line(self):
        bad = MINI_BVH.replace("OFFSET 0.000000 0.000000 0.000000", "OFFST 0 0 0")
        with pytest.raises(InputError, match=r"^line 4: "):
            parse_bvh(bad)

    def test_duplicate_names_suffixed(self):
        text = bvh_text({"hips.Xrotation": np.zeros(3)}).replace(
            "JOINT chest", "JOINT hips"
        )
        clip = parse_bvh(text)
        assert clip.labels[6:] == ["hips_2.Zrotation", "hips_2.Xrotation", "hips_2.Yrotation"]
        assert clip.labels == header_labels(text)
        assert "JOINT hips\n" in clip.hierarchy and "hips_2" not in clip.hierarchy

    @pytest.mark.parametrize("names, joints", [
        (["arm", "arm", "arm_2"], ["arm", "arm_2", "arm_2_2"]),
        (["arm", "arm_2", "arm"], ["arm", "arm_2", "arm_3"]),
        (["arm", "arm_3", "arm", "arm"], ["arm", "arm_3", "arm_2", "arm_4"]),
    ])
    def test_suffix_skips_a_taken_name(self, names, joints):
        # a chain of joints, each with one channel column
        text = "HIERARCHY\n" + "".join(
            f"{'ROOT' if i == 0 else 'JOINT'} {name}\n{{\nOFFSET 0 0 0\nCHANNELS 3 "
            "Zrotation Xrotation Yrotation\n" for i, name in enumerate(names))
        text += "End Site\n{\nOFFSET 0 0 0\n}\n" + "}\n" * len(names)
        text += "MOTION\nFrames: 2\nFrame Time: 0.025\n" + " 0" * 3 * len(names) * 2
        clip = parse_bvh(text)
        assert clip.labels == [f"{joint}.{channel}" for joint in joints
                               for channel in ("Zrotation", "Xrotation", "Yrotation")]
        assert clip.labels == header_labels(text)
        assert [clip.column(f"{joint}.Zrotation") for joint in joints] == list(
            range(0, 3 * len(names), 3))

    @pytest.mark.parametrize("frame_time", ["1e-310", "5e-324", "5.5e-309"])
    def test_frame_time_whose_rate_overflows(self, frame_time):
        # positive, but 1 / frame_time is inf: the clip's rate would not be a number
        with pytest.raises(InputError, match=r"^line 13: expected a frame time with a "
                                             r"finite rate$"):
            parse_bvh(MINI_BVH.replace("0.025000", frame_time))

    def test_least_frame_time_with_a_finite_rate(self):
        clip = parse_bvh(MINI_BVH.replace("0.025000", "5.6e-309"))
        assert clip.rate == 1 / 5.6e-309 < float("inf")

    def test_long_clip_metadata(self):
        # 60.5 s at 40 fps comes out to 2420 frames
        n = 2420
        clip = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(n)}, frame_time=0.025))
        assert clip.frame_count == 2420
        assert clip.frame_time == pytest.approx(0.025)
        assert clip.frame_count * clip.frame_time == pytest.approx(60.5)


class TestWrite:
    def test_round_trip_mini(self):
        clip = parse_bvh(MINI_BVH)
        text = write_bvh(clip)
        again = parse_bvh(text)
        assert np.allclose(clip.frames, again.frames, atol=1e-5)
        assert "Frame Time: 0.025000" in text

    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip_random_skeletons(self, seed):
        rng = np.random.default_rng(seed)
        clip = parse_bvh(random_skeleton_bvh(rng, max_joints=20, n_frames=60))
        text = write_bvh(clip)
        again = parse_bvh(text)
        assert np.max(np.abs(clip.frames - again.frames)) < 1e-5
        assert again.hierarchy == clip.hierarchy
        assert again.labels == clip.labels == header_labels(text)

    def test_hierarchy_written_as_read(self):
        # a repeated joint name, offsets %.6f would round, and a layout of
        # spaces: the written file declares the skeleton byte for byte as read
        hierarchy = (
            "HIERARCHY\n"
            "ROOT arm\n"
            "{\n"
            "  OFFSET 1.23456789 0 -2.5e-7\n"
            "  CHANNELS 3 Zrotation Xrotation Yrotation\n"
            "  JOINT arm\n"
            "  {\n"
            "    OFFSET 0 2.5e-7 0\n"
            "    CHANNELS 3 Zrotation Xrotation Yrotation\n"
            "    End Site\n"
            "    {\n"
            "      OFFSET 0 1.23456789 0\n"
            "    }\n"
            "  }\n"
            "}"
        )
        text = (hierarchy + "\nMOTION\nFrames: 2\nFrame Time: 0.025000\n"
                + "1.000000 2.000000 3.000000 4.000000 5.000000 6.000000\n" * 2)
        clip = parse_bvh("\n\n" + text)
        assert clip.hierarchy == hierarchy
        assert clip.labels[3:] == ["arm_2.Zrotation", "arm_2.Xrotation", "arm_2.Yrotation"]
        assert write_bvh(clip) == text

    def test_write_parse_write_fixed_point(self):
        rng = np.random.default_rng(9)
        clip = parse_bvh(random_skeleton_bvh(rng, max_joints=10, n_frames=20))
        text1 = write_bvh(clip)
        text2 = write_bvh(parse_bvh(text1))
        assert text1 == text2


EXAMPLES = settings(max_examples=80, derandomize=True, database=None, deadline=None)

MINI_HIERARCHY = MINI_BVH[: MINI_BVH.index("MOTION")].split()
MINI_HEAD = MINI_BVH[: MINI_BVH.index("0.000000 0.000000 0.000000 10")]  # through Frame Time
LINE_BREAKS = ["\n", "\r\n", "\u2028", " \n\t"]
SPACES = [" ", "\t", "\xa0", "\u2003", "\u3000"]
VALUE_SPELLINGS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1_0", "\u0661\u0662", "nan", "-inf", "+1.5", ".5", "-0", "1E3"]),
)


@st.composite
def motion_texts(draw):
    """MINI_BVH's hierarchy and 2-5 frames, laid out with varied whitespace."""
    rows = draw(st.integers(2, 5))
    values = draw(st.lists(VALUE_SPELLINGS, min_size=6 * rows, max_size=6 * rows))
    tokens = MINI_HIERARCHY + ["MOTION", "Frames:", str(rows), "Frame", "Time:", "0.025"]
    layout = draw(st.sampled_from(["one line", "mixed", "frame time alone"]))
    gaps = SPACES if layout == "one line" else SPACES + LINE_BREAKS
    seps = draw(st.lists(st.sampled_from(gaps), min_size=len(tokens) + len(values),
                         max_size=len(tokens) + len(values)))
    if layout == "frame time alone":
        seps[len(tokens) - 2] = draw(st.sampled_from(LINE_BREAKS))
        seps[len(tokens) - 1] = draw(st.sampled_from(LINE_BREAKS))
    return "".join(t + sep for t, sep in zip(tokens + values, seps))


def reference_frames(text, width):
    """The motion block read one token at a time, as ``float`` reads it."""
    tokens = text.split()
    values = [float(t) for t in tokens[tokens.index("Time:") + 2:]]
    return np.array(values).reshape(-1, width)


def reference_rows(frames):
    """The motion block written one f-string per value."""
    return "\n".join(" ".join(f"{v:.6f}" for v in row) for row in frames) + "\n"


# odd multiples of 1/128 are exact ties at the sixth decimal
WRITE_SPECIALS = [-0.0, -1e-9, 1e300, -1e300, float("inf"), float("-inf"), float("nan"),
                  1 / 128, 3 / 128, -5 / 128, 1e6 + 1 / 128, 0.0000005, 5e-324, 179.9999995]


class TestClip:
    def test_hierarchy_with_tokens_left_over(self):
        hierarchy = parse_bvh(MINI_BVH).hierarchy
        with pytest.raises(InputError, match=r"^line 11: expected the hierarchy to end "
                                             r"at the root's closing brace$"):
            MotionClip(hierarchy + "\nMOTION", np.zeros((2, 6)), 0.025)

    def test_hierarchy_without_channels(self):
        hierarchy = "HIERARCHY\nROOT hips\n{\n\tOFFSET 0 0 0\n\tCHANNELS 0\n}"
        with pytest.raises(InputError, match=r"^line 6: expected a joint that declares "
                                             r"channels$"):
            MotionClip(hierarchy, np.zeros((2, 6)), 0.025)

    @pytest.mark.parametrize("frame_time", [0.0, -0.025, float("nan"), float("inf")])
    def test_frame_time_positive_and_finite(self, frame_time):
        # write_bvh would write it, and parse_bvh refuse what it wrote
        with pytest.raises(ValueError, match=r"^frame_time must be positive and finite$"):
            MotionClip(parse_bvh(MINI_BVH).hierarchy, np.zeros((2, 6)), frame_time)

    @pytest.mark.parametrize("frame_time", [1e-310, 5e-324])
    def test_frame_time_gives_a_finite_rate(self, frame_time):
        with pytest.raises(ValueError, match=r"^frame_time must give a finite rate$"):
            MotionClip(parse_bvh(MINI_BVH).hierarchy, np.zeros((2, 6)), frame_time)

    def test_one_frame_row_refused(self):
        with pytest.raises(ValueError, match=r"^frames must be a matrix with at least 2 rows$"):
            MotionClip(parse_bvh(MINI_BVH).hierarchy, np.zeros((1, 6)), 0.025)

    def test_frame_width_must_match_the_skeleton(self):
        hierarchy = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(3)})).hierarchy
        with pytest.raises(ValueError, match=r"^frame width 1 does not match the "
                                             r"skeleton's 9 channels$"):
            MotionClip(hierarchy, np.zeros((3, 1)), 0.025)

    def test_labels_come_from_the_hierarchy(self):
        clip = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(3)}))
        again = MotionClip(clip.hierarchy, clip.frames, clip.frame_time)
        assert again.labels == clip.labels == header_labels(clip.hierarchy)


class TestMotionBlock:
    @EXAMPLES
    @given(motion_texts())
    def test_frames_equal_a_token_scan(self, text):
        clip = parse_bvh(text)
        assert np.array_equal(clip.frames, reference_frames(text, 6), equal_nan=True)
        assert clip.frame_time == 0.025
        assert clip.labels == parse_bvh(MINI_BVH).labels

    @EXAMPLES
    @given(st.integers(2, 5).flatmap(lambda rows: st.lists(
        st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(WRITE_SPECIALS),
        min_size=6 * rows, max_size=6 * rows)))
    def test_write_equals_per_value_format(self, values):
        frames = np.reshape(values, (-1, 6))
        clip = MotionClip(parse_bvh(MINI_BVH).hierarchy, frames, 0.025)
        assert write_bvh(clip).endswith("Frame Time: 0.025000\n" + reference_rows(frames))

    def test_write_special_values(self):
        frames = np.reshape(WRITE_SPECIALS + [0.0] * 4, (-1, 6))
        text = write_bvh(MotionClip(parse_bvh(MINI_BVH).hierarchy, frames, 0.025))
        assert text.endswith("Frame Time: 0.025000\n" + reference_rows(frames))
        assert "-0.000000 -0.000000 1" in text
        assert "0.007812 0.023438 -0.039062 1000000.007812" in text


# each message is the one the line-by-line token scanner gave
MALFORMED_MOTION = {
    "bad token mid-block": (
        MINI_HEAD + "0 0 0 10 20 30\n1 2 x 11 21 31\n",
        "line 15: expected a channel value"),
    "bad token on the frame time line": (
        MINI_HEAD.replace("0.025000\n", "0.025000 0 0 0 10 20 oops\n") + "1 2 3 11 21 31\n",
        "line 13: expected a channel value"),
    "first bad token wins over a short row": (
        MINI_HEAD + "0 0 0 10 20 30 1\n1 2 3 y 21 31\n",
        "line 15: expected a channel value"),
    "short last row": (
        MINI_HEAD + "0 0 0 10 20 30\n1 2 3 11 21\n",
        "line 15: expected rows of 6 channel values"),
    "short last row before blank lines": (
        MINI_HEAD + "0 0 0 10 20 30\n1 2 3 11 21\n\n  \n\t\n",
        "line 15: expected rows of 6 channel values"),
    "rows merged onto one line, one value short": (
        MINI_HEAD + "0 0 0 10 20 30 1 2 3 11 21\n",
        "line 14: expected rows of 6 channel values"),
    "frame-count mismatch": (
        MINI_BVH.replace("Frames: 2", "Frames: 3"),
        "declared 3 frames, found 2"),
    "one row too many": (
        MINI_HEAD + "0 0 0 10 20 30\n1 2 3 11 21 31\n1 2 3 11 21 31\n",
        "declared 2 frames, found 3"),
    "Frames: with no values": (
        MINI_HEAD, "declared 2 frames, found 0"),
    "Frames: with only blank lines": (
        MINI_HEAD + "\n \n\t\n", "declared 2 frames, found 0"),
    "U+2028 breaks a line, U+3000 does not": (
        MINI_HEAD + "0 0 0 10 20 30\u20281\u30002\u30003 11 21 x\n",
        "line 15: expected a channel value"),
    "NBSP layout, CRLF, short row": (
        MINI_HEAD + "0\xa00\xa00\xa010\xa020\xa030\r\n1 2 3 11 21\r\n",
        "line 15: expected rows of 6 channel values"),
    "CRLF throughout, bad token": (
        MINI_HEAD.replace("\n", "\r\n") + "0 0 0 10 20 30\r\n1 2 3 11 2.1.1 31\r\n",
        "line 15: expected a channel value"),
    "lone CR lines, bad token": (
        MINI_HEAD.replace("\n", "\r") + "0 0 0 10 20 30\r1 2 3 11 21 3O\r",
        "line 15: expected a channel value"),
}


@pytest.mark.parametrize("text, message", MALFORMED_MOTION.values(),
                         ids=list(MALFORMED_MOTION))
def test_malformed_motion_block(text, message):
    with pytest.raises(InputError) as exc:
        parse_bvh(text)
    assert type(exc.value) is InputError
    assert str(exc.value) == message


# MINI_BVH's lines with one defect each, the one of them the error names and
# the message's text; each message is the one the line-by-line token scanner gave
MINI_LINES = MINI_BVH.splitlines()
MALFORMED_HEADER = {
    "channel count 7": (
        [line.replace("CHANNELS 6", "CHANNELS 7") for line in MINI_LINES],
        5, "expected channel count 0, 3, or 6"),
    "unknown channel name": (
        [line.replace("Xrotation", "Wrotation") for line in MINI_LINES], 5, "Wrotation"),
    # a defect at the end of its line is named on that line, not the next
    "unknown last channel name": (
        [line.replace("Yrotation", "Wrotation") for line in MINI_LINES], 5, "Wrotation"),
    "channel count 7 ending its line": (
        MINI_LINES[:4] + MINI_LINES[4].replace(" 6 ", " 7\n").splitlines() + MINI_LINES[5:],
        5, "expected channel count 0, 3, or 6"),
    "missing {": (MINI_LINES[:2] + MINI_LINES[3:], 3, "expected '{'"),
    "a second ROOT": (
        MINI_LINES[:10] + ["ROOT chest"] + MINI_LINES[11:], 11, "expected a single ROOT"),
    "no channels": (
        MINI_LINES[:4] + ["CHANNELS 0"] + MINI_LINES[5:],
        11, "expected a joint that declares channels"),
    "Frames: 1": (
        [line.replace("Frames: 2", "Frames: 1") for line in MINI_LINES],
        12, "expected a frame count of at least 2"),
    "a bad frame time": (
        [line.replace("0.025000", "0") for line in MINI_LINES],
        13, "expected a positive frame time"),
    "text cut off mid-header": (MINI_LINES[:11] + ["Frames:"], 12, "expected frame count"),
}


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\x85", " "], ids=repr)
@pytest.mark.parametrize("lines, line, message", MALFORMED_HEADER.values(),
                         ids=list(MALFORMED_HEADER))
def test_malformed_header_names_its_line(lines, line, message, brk):
    # a blank line before the first line and one before the eleventh move
    # the line down by one or two; with " " for a break all is on line 1
    text = brk + brk.join(lines[:10]) + brk + brk + brk.join(lines[10:]) + brk
    line = 1 if brk == " " else line + 1 if line <= 10 else line + 2
    with pytest.raises(InputError) as exc:
        parse_bvh(text)
    assert type(exc.value) is InputError
    assert str(exc.value) == f"line {line}: {message}"


# ---------------------------------------------------------------------------
# references: the reader before it read by position, from one token list of
# the whole text; _Tokens must name the same lines and cut the same hierarchy


def reference_line_of(text, index):
    """Line of token ``index`` of ``text.split()`` as :meth:`str.splitlines`
    counts lines; past the last token, the last token's line; 0 when there
    are no tokens."""
    line = 0
    for number, words in enumerate(text.splitlines(), 1):
        count = len(words.split())
        if count:
            index -= count
            line = number
            if index < 0:
                break
    return line


def reference_consumed(text, count):
    """The text of the first ``count`` tokens, from the first one's start."""
    end = 0
    for word in text.split()[:count]:
        end = text.find(word, end) + len(word)
    return text[:end].lstrip()


# every character str.splitlines breaks a line at, and spaces that break none
WIDE_GAPS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
             "\u2028", "\u2029", " ", "\t", "\xa0", "\u2003", "\u3000"]


@st.composite
def relaid_texts(draw):
    """A text of motion_texts() with each gap, and a leading one, redrawn
    as 1-3 characters of WIDE_GAPS."""
    words = draw(motion_texts()).split()
    gaps = draw(st.lists(st.lists(st.sampled_from(WIDE_GAPS), min_size=1, max_size=3),
                         min_size=len(words) + 1, max_size=len(words) + 1))
    lead = "".join(gaps[0]) if draw(st.booleans()) else ""
    return lead + "".join(word + "".join(gap) for word, gap in zip(words, gaps[1:]))


class TestTokenPositions:
    @EXAMPLES
    @given(motion_texts() | relaid_texts())
    def test_lines_and_hierarchy_match_the_token_list(self, text):
        words = text.split()
        tokens = _Tokens(text)
        for index, word in enumerate(words):
            assert tokens.line() == reference_line_of(text, index)
            assert tokens.next() == word
            assert tokens.last_line() == reference_line_of(text, index)
        assert tokens.peek() is None
        assert tokens.line() == reference_line_of(text, len(words))
        assert parse_bvh(text).hierarchy == reference_consumed(text, len(MINI_HIERARCHY))

    @EXAMPLES
    @given(motion_texts() | relaid_texts(), st.data())
    def test_motion_block_errors_match_the_token_list(self, text, data):
        words = text.split()
        first = len(MINI_HIERARCHY) + 6  # the first channel value's index
        index = data.draw(st.integers(first, len(words) - 1))
        starts = [match.start() for match in re.finditer(r"\S+", text)]
        bad = text[:starts[index]] + "x" + text[starts[index] + len(words[index]):]
        with pytest.raises(InputError, match=rf"^line {reference_line_of(text, index)}: "
                                             r"expected a channel value$"):
            parse_bvh(bad)
        short = text[:starts[-1]] + text[starts[-1] + len(words[-1]):]
        with pytest.raises(InputError, match=rf"^line {reference_line_of(short, len(words) - 2)}"
                                             r": expected rows of 6 channel values$"):
            parse_bvh(short)


class TestWrapping:
    def test_unwrap_single_jump(self):
        assert list(unwrap_degrees([179.0, -179.0, -177.0])) == [179.0, 181.0, 183.0]

    def test_wrap_rule(self):
        wrapped = wrap_degrees(np.array([183.0, 180.0, -180.0, 0.0, 541.0]))
        assert list(wrapped) == [-177.0, 180.0, 180.0, 0.0, -179.0]

    def test_wrap_unwrap_inverse(self):
        rng = np.random.default_rng(0)
        # piecewise-smooth wrapped angle track
        t = np.arange(400) / 40.0
        raw = 500.0 * np.sin(2 * np.pi * 0.45 * t) + rng.normal(0, 5, t.size)
        stored = wrap_degrees(raw)
        assert np.allclose(wrap_degrees(unwrap_degrees(stored)), stored, atol=1e-9)


class TestExtractApply:
    def make_clip(self):
        t = np.arange(200) / 40.0
        return parse_bvh(
            bvh_text(
                {
                    "hips.Xrotation": 100 * np.sin(2 * np.pi * 0.7 * t),
                    "hips.Xposition": 3.0 * t,
                    "chest.Zrotation": 170 * np.sin(2 * np.pi * 1.3 * t),
                }
            )
        )

    def test_extract_shape_and_rate(self):
        clip = self.make_clip()
        sel = ["hips.Xrotation", "hips.Yrotation", "hips.Zrotation"]
        series = extract_channels(clip, sel)
        assert series.n_channels == 3
        assert series.rate == pytest.approx(40.0)
        assert series.labels == sel

    def test_rotation_unwrapped(self):
        clip = self.make_clip()
        series = extract_channels(clip, ["chest.Zrotation"])
        # a 170-degree amplitude sinusoid wraps in storage; the extracted
        # series must be continuous
        assert np.max(np.abs(np.diff(series.samples[0]))) < 180.0

    def test_position_passthrough(self):
        clip = self.make_clip()
        series = extract_channels(clip, ["hips.Xposition"])
        assert np.allclose(
            series.samples[0], clip.frames[:, clip.column("hips.Xposition")]
        )

    def test_inverse_pair(self):
        clip = self.make_clip()
        sel = ["hips.Xrotation", "chest.Zrotation", "hips.Xposition"]
        back = apply_channels(clip, extract_channels(clip, sel))
        assert np.allclose(back.frames, clip.frames, atol=1e-9)

    def test_written_values_rewrapped(self):
        clip = self.make_clip()
        sel = ["hips.Xrotation"]
        series = extract_channels(clip, sel)
        series.samples[0] = 183.0
        out = apply_channels(clip, series)
        assert np.all(out.frames[:, clip.column("hips.Xrotation")] == -177.0)

    def test_length_mismatch(self):
        clip = self.make_clip()
        series = extract_channels(clip, ["hips.Xrotation"])
        shorter = type(series)(series.samples[:, :-5], series.rate, labels=series.labels)
        with pytest.raises(ChannelError, match=r"^series length \d+ != frame count \d+$"):
            apply_channels(clip, shorter)

    def test_unknown_channel(self):
        clip = self.make_clip()
        with pytest.raises(ChannelError, match=r"^unknown channel: nope\.Xrotation$"):
            extract_channels(clip, ["nope.Xrotation"])

    def test_rows_go_to_the_columns_their_labels_name(self):
        clip = self.make_clip()
        series = extract_channels(clip, ["chest.Zrotation", "hips.Xrotation"])
        series.samples[:] = [[10.0], [20.0]]
        out = apply_channels(clip, series)
        assert np.all(out.frames[:, clip.column("chest.Zrotation")] == 10.0)
        assert np.all(out.frames[:, clip.column("hips.Xrotation")] == 20.0)
        untouched = [clip.column(label) for label in clip.labels
                     if label not in series.labels]
        assert np.array_equal(out.frames[:, untouched], clip.frames[:, untouched])

    def test_apply_unknown_channel(self):
        clip = self.make_clip()
        series = TimeSeries(np.zeros((1, clip.frame_count)), clip.rate,
                            labels=["nope.Xrotation"])
        with pytest.raises(ChannelError, match=r"^unknown channel: nope\.Xrotation$"):
            apply_channels(clip, series)
