import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import MINI_BVH, bvh_text, random_skeleton_bvh

from hhtmotion.errors import ChannelError, InputError
from hhtmotion.mocap_io import (
    MotionClip,
    apply_channels,
    extract_channels,
    parse_bvh,
    resample,
    unwrap_degrees,
    wrap_degrees,
    write_bvh,
)
from hhtmotion.signal_core import TimeSeries


class TestParse:
    def test_minimal_fixture(self):
        clip = parse_bvh(MINI_BVH)
        assert len(clip.skeleton.joints()) == 1
        assert clip.frames.shape == (2, 6)
        assert clip.frame_time == pytest.approx(0.025)
        assert clip.skeleton.channel_labels()[0] == "hips.Xposition"

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
        names = [j.name for j in clip.skeleton.joints()]
        assert names == ["hips", "hips_2"]

    def test_long_clip_metadata(self):
        # 60.5 s at 40 fps comes out to 2420 frames
        n = 2420
        clip = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(n)}, frame_time=0.025))
        assert clip.frame_count == 2420
        assert clip.frame_time == pytest.approx(0.025)
        assert clip.duration == pytest.approx(60.5)


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
        again = parse_bvh(write_bvh(clip))
        assert np.max(np.abs(clip.frames - again.frames)) < 1e-5
        assert [j.name for j in again.skeleton.joints()] == [
            j.name for j in clip.skeleton.joints()
        ]

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


class TestMotionBlock:
    @EXAMPLES
    @given(motion_texts())
    def test_frames_equal_a_token_scan(self, text):
        clip = parse_bvh(text)
        assert np.array_equal(clip.frames, reference_frames(text, 6), equal_nan=True)
        assert clip.frame_time == 0.025
        assert clip.skeleton.channel_labels() == parse_bvh(MINI_BVH).skeleton.channel_labels()

    @EXAMPLES
    @given(st.integers(2, 5).flatmap(lambda rows: st.lists(
        st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(WRITE_SPECIALS),
        min_size=6 * rows, max_size=6 * rows)))
    def test_write_equals_per_value_format(self, values):
        frames = np.reshape(values, (-1, 6))
        clip = MotionClip(parse_bvh(MINI_BVH).skeleton, frames, 0.025)
        assert write_bvh(clip).endswith("Frame Time: 0.025000\n" + reference_rows(frames))

    def test_write_special_values(self):
        frames = np.reshape(WRITE_SPECIALS + [0.0] * 4, (-1, 6))
        text = write_bvh(MotionClip(parse_bvh(MINI_BVH).skeleton, frames, 0.025))
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
        untouched = [clip.column(label) for label in clip.skeleton.channel_labels()
                     if label not in series.labels]
        assert np.array_equal(out.frames[:, untouched], clip.frames[:, untouched])

    def test_apply_unknown_channel(self):
        clip = self.make_clip()
        series = TimeSeries(np.zeros((1, clip.frame_count)), clip.rate,
                            labels=["nope.Xrotation"])
        with pytest.raises(ChannelError, match=r"^unknown channel: nope\.Xrotation$"):
            apply_channels(clip, series)


class TestResample:
    def test_identity(self):
        t = np.arange(120) / 40.0
        clip = parse_bvh(bvh_text({"hips.Xrotation": 90 * np.sin(t)}))
        out = resample(clip, 40.0)
        assert out.frame_count == clip.frame_count
        assert np.allclose(out.frames, clip.frames, atol=1e-9)

    def test_constant_clip(self):
        clip = parse_bvh(
            bvh_text({"hips.Xrotation": np.full(60, 42.0)}, frame_time=1 / 30)
        )
        out = resample(clip, 40.0)
        assert np.allclose(
            out.frames[:, clip.column("hips.Xrotation")], 42.0, atol=1e-9
        )

    def test_sinusoid_30_to_40(self):
        # 91 frames: the 40 fps grid lands exactly on the 30 fps span; sample
        # on the quantized frame_time the BVH text actually declares
        frame_time = float("0.033333")
        t30 = np.arange(91) * frame_time
        clip = parse_bvh(
            bvh_text(
                {"hips.Xrotation": 30 * np.sin(2 * np.pi * 1.0 * t30)},
                frame_time=frame_time,
            )
        )
        out = resample(clip, 40.0)
        t40 = np.arange(out.frame_count) / 40.0
        expected = 30 * np.sin(2 * np.pi * 1.0 * t40)
        got = out.frames[:, out.column("hips.Xrotation")]
        assert np.max(np.abs(got - expected)) < 1e-3

    @pytest.mark.parametrize("fps_pair", [(30.0, 40.0), (40.0, 30.0), (40.0, 25.0)])
    def test_duration_preserved(self, fps_pair):
        fps_in, fps_out = fps_pair
        n = 173
        clip = parse_bvh(
            bvh_text(
                {"hips.Xrotation": np.sin(np.arange(n) / 7.0)},
                frame_time=1.0 / fps_in,
            )
        )
        out = resample(clip, fps_out)
        assert abs(out.duration - clip.duration) <= 1.0 / fps_out + 1e-12
