import numpy as np
import pytest

from helpers import MINI_BVH, bvh_text, random_skeleton_bvh

from hhtmotion.errors import (
    BvhSyntaxError,
    FrameCountMismatch,
    LengthMismatch,
    UnknownChannel,
    UnknownChannelName,
)
from hhtmotion.mocap_io import (
    apply_channels,
    extract_channels,
    parse_bvh,
    resample,
    unwrap_degrees,
    wrap_degrees,
    write_bvh,
)


class TestParse:
    def test_minimal_fixture(self):
        clip = parse_bvh(MINI_BVH)
        assert len(clip.skeleton.joints()) == 1
        assert clip.frames.shape == (2, 6)
        assert clip.frame_time == pytest.approx(0.025)
        assert clip.skeleton.channel_labels()[0] == "hips.Xposition"

    def test_frame_count_mismatch(self):
        bad = MINI_BVH.replace("Frames: 2", "Frames: 3")
        with pytest.raises(FrameCountMismatch):
            parse_bvh(bad)

    def test_unknown_channel_name(self):
        bad = MINI_BVH.replace("Xrotation", "Wrotation")
        with pytest.raises(UnknownChannelName):
            parse_bvh(bad)

    def test_syntax_error_carries_line(self):
        bad = MINI_BVH.replace("OFFSET 0.000000 0.000000 0.000000", "OFFST 0 0 0")
        with pytest.raises(BvhSyntaxError) as exc:
            parse_bvh(bad)
        assert exc.value.line == 4

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
        back = apply_channels(clip, extract_channels(clip, sel), sel)
        assert np.allclose(back.frames, clip.frames, atol=1e-9)

    def test_written_values_rewrapped(self):
        clip = self.make_clip()
        sel = ["hips.Xrotation"]
        series = extract_channels(clip, sel)
        series.samples[0] = 183.0
        out = apply_channels(clip, series, sel)
        assert np.all(out.frames[:, clip.column("hips.Xrotation")] == -177.0)

    def test_length_mismatch(self):
        clip = self.make_clip()
        series = extract_channels(clip, ["hips.Xrotation"])
        shorter = type(series)(series.samples[:, :-5], series.rate, series.labels)
        with pytest.raises(LengthMismatch):
            apply_channels(clip, shorter, ["hips.Xrotation"])

    def test_unknown_channel(self):
        clip = self.make_clip()
        with pytest.raises(UnknownChannel):
            extract_channels(clip, ["nope.Xrotation"])


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
