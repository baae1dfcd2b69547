import numpy as np
import pytest

from hhtmotion.edit import (
    BlendOp,
    align,
    apply_blend,
    blend_spec_from_dict,
    merge_imfs,
    synthesize_clip,
)
from hhtmotion.errors import BlendSpecError, ChannelError
from hhtmotion.signal_core import Decomposition


def random_md(rng, n=400, rate=40.0, n_channels=2, n_imfs=3, labels=None):
    labels = labels or [f"ch{i}" for i in range(n_channels)]
    imfs, trend = [], []
    for _ in range(n_channels):
        imfs.append([rng.standard_normal(n) for _ in range(n_imfs)])
        trend.append(rng.standard_normal(n))
    return Decomposition(imfs=imfs, trend=trend, rate=rate, labels=labels)


def md_equal(a, b, atol=0.0):
    if a.labels != b.labels or a.imf_count != b.imf_count:
        return False
    for da, db in zip(a.per_channel, b.per_channel):
        if not np.allclose(da.trend, db.trend, atol=atol, rtol=0):
            return False
        for u, v in zip(da.imfs, db.imfs):
            if not np.allclose(u, v, atol=atol, rtol=0):
                return False
    return True


TOTAL_SWAP = [BlendOp(kind="swap"), BlendOp(kind="trend_exchange")]


class TestAlign:
    def test_identity_when_already_matched(self):
        rng = np.random.default_rng(0)
        a = random_md(rng)
        b = random_md(rng)
        aa, bb = align(a, b, target_rate=40.0)
        assert md_equal(aa, a, atol=1e-9)
        assert md_equal(bb, b, atol=1e-9)

    def test_imf_padding(self):
        rng = np.random.default_rng(1)
        a = random_md(rng, n_imfs=4)
        b = random_md(rng, n_imfs=2)
        a, b = align(a, b, target_rate=40.0)
        assert a.imf_count == b.imf_count == 4
        assert np.all(b.per_channel[0].imfs[3] == 0)

    def test_rate_and_duration_unified(self):
        rng = np.random.default_rng(2)
        a = random_md(rng, n=300, rate=30.0)  # 10 s
        b = random_md(rng, n=480, rate=40.0)  # 12 s
        a, b = align(a, b, target_rate=40.0)
        assert a.rate == pytest.approx(40.0)
        n = a.per_channel[0].trend.size
        assert n == b.per_channel[0].trend.size
        assert n == 400  # 10 s at 40 fps

    def test_single_channel_decompositions(self):
        rng = np.random.default_rng(7)
        a = Decomposition(imfs=rng.standard_normal((3, 300)), trend=np.zeros(300), rate=30.0)
        b = Decomposition(imfs=rng.standard_normal((2, 400)), trend=np.ones(400), rate=40.0)
        a, b = align(a, b, target_rate=40.0)
        assert a.imfs.shape == b.imfs.shape == (3, 400)
        assert a.labels is None and np.all(b.imfs[2] == 0)
        merged = merge_imfs(a, (1, 3)).imfs[0]
        assert np.array_equal(merged, a.imfs[0] + a.imfs[1] + a.imfs[2])

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_md(rng, labels=["x", "y"])
        b = random_md(rng, labels=["u", "v"])
        with pytest.raises(ChannelError, match=r"^channel labels differ: "):
            align(a, b, target_rate=40.0)


class TestMergeImfs:
    def test_merge_adjacent_pair(self):
        rng = np.random.default_rng(4)
        d = Decomposition(
            imfs=[rng.standard_normal(100) for _ in range(3)],
            trend=rng.standard_normal(100),
            rate=10.0,
        )
        merged = merge_imfs(d, (1, 2))
        assert merged.imf_count == 2
        assert np.allclose(
            merged.reconstruct(), d.reconstruct(), atol=1e-12 * np.max(np.abs(d.reconstruct()))
        )

    def test_merge_all(self):
        rng = np.random.default_rng(5)
        d = Decomposition(
            imfs=[rng.standard_normal(100) for _ in range(3)],
            trend=rng.standard_normal(100),
            rate=10.0,
        )
        merged = merge_imfs(d, (1, 3))
        assert merged.imf_count == 1
        assert np.allclose(merged.imfs[0], d.reconstruct() - d.trend)

    def test_bad_range(self):
        rng = np.random.default_rng(6)
        d = Decomposition(
            imfs=[rng.standard_normal(50) for _ in range(3)],
            trend=np.zeros(50),
            rate=10.0,
        )
        with pytest.raises(BlendSpecError, match=r"^merge range \[2, 2\] invalid for 3 IMFs$"):
            merge_imfs(d, (2, 2))
        with pytest.raises(BlendSpecError, match=r"^merge range \[0, 2\] invalid for 3 IMFs$"):
            merge_imfs(d, (0, 2))


class TestApplyBlend:
    def make_pair(self, seed=0):
        rng = np.random.default_rng(seed)
        a = random_md(rng)
        b = random_md(rng)
        return align(a, b, target_rate=40.0), a, b

    def test_empty_spec_is_identity(self):
        (a, b), _, _ = self.make_pair()
        out = apply_blend(a, b, [])
        assert md_equal(out, a)

    def test_total_swap_yields_b(self):
        (a, b), _, _ = self.make_pair()
        out = apply_blend(a, b, TOTAL_SWAP)
        assert md_equal(out, b)

    def test_double_swap_involution(self):
        (a, b), _, _ = self.make_pair()
        once = apply_blend(a, b, TOTAL_SWAP)
        back = apply_blend(once, a, TOTAL_SWAP)
        assert md_equal(back, a)

    def test_trend_exchange_reconstruction(self):
        # two decompositions sharing oscillatory content with known trends
        n, rate = 400, 40.0
        t = np.arange(n) / rate
        tone = np.sin(2 * np.pi * 2.0 * t)
        ramp_a = 0.5 * t
        ramp_b = -1.0 + 0.2 * t**2
        make = lambda ramp: Decomposition(
            imfs=[[tone.copy()]], trend=[ramp.copy()], rate=rate, labels=["j.Xrotation"]
        )
        a, b = align(make(ramp_a), make(ramp_b), target_rate=rate)
        out = apply_blend(
            a, b, [BlendOp(kind="trend_exchange")]
        )
        expected = tone + ramp_b
        got = out.reconstruct()[0]
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_blend_half_of_identical_pair(self):
        (a, b), _, _ = self.make_pair()
        out = apply_blend(
            a, a, [BlendOp(kind="blend", alpha=0.5)]
        )
        assert md_equal(out, a, atol=1e-12)

    def test_scale_and_zero(self):
        (a, b), _, _ = self.make_pair()
        out = apply_blend(
            a,
            b,
            [
                BlendOp(kind="scale", imfs=[1], alpha=2.0),
                BlendOp(kind="zero", imfs=[2]),
            ],
        )
        assert np.allclose(out.per_channel[0].imfs[0], 2 * a.per_channel[0].imfs[0])
        assert np.all(out.per_channel[0].imfs[1] == 0)

    def test_editing_linearity(self):
        (a, b), _, _ = self.make_pair(seed=9)
        spec = [
            BlendOp(kind="scale", imfs=[1], alpha=0.5),
            BlendOp(kind="zero", imfs=[2]),
            BlendOp(kind="blend", imfs=[3], alpha=0.25),
        ]
        out = apply_blend(a, b, spec).reconstruct().T
        expected = np.zeros_like(out)
        for ch in range(a.n_channels):
            da, db = a.per_channel[ch], b.per_channel[ch]
            expected[:, ch] = (
                0.5 * da.imfs[0]
                + 0.25 * da.imfs[2]
                + 0.75 * db.imfs[2]
                + da.trend
            )
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_channel_selection(self):
        (a, b), _, _ = self.make_pair()
        out = apply_blend(
            a,
            b,
            [BlendOp(kind="swap", channels=["ch1"])],
        )
        assert np.allclose(out.per_channel[0].imfs[0], a.per_channel[0].imfs[0])
        assert np.allclose(out.per_channel[1].imfs[0], b.per_channel[1].imfs[0])

    def test_merge_applies_to_all_channels(self):
        (a, b), _, _ = self.make_pair()
        out = apply_blend(
            a, b, [BlendOp(kind="merge", imfs=[1, 2])]
        )
        assert out.imf_count == a.imf_count - 1
        counts = {d.imf_count for d in out.per_channel}
        assert len(counts) == 1

    def test_merge_renumbers_both_donors(self):
        # after merging IMFs 1 and 2, IMF 2 is the former IMF 3 on every side
        def constant_imfs(values):
            imfs = np.broadcast_to(np.reshape(values, (1, 3, 1)), (2, 3, 50))
            return Decomposition(imfs=imfs, trend=np.zeros((2, 50)), rate=10.0,
                                 labels=["ch0", "ch1"])

        a, b = constant_imfs([1.0, 2.0, 3.0]), constant_imfs([10.0, 20.0, 30.0])
        spec = blend_spec_from_dict({"operations": [{"kind": "merge", "imfs": [1, 2]},
                                                    {"kind": "swap", "imfs": [2]}]})
        out = apply_blend(a, b, spec)
        assert np.array_equal(out.imfs, np.broadcast_to([[[3.0], [30.0]]], (2, 2, 50)))

    def test_repeated_selection_applies_twice(self):
        # an IMF or a channel listed twice gets the operation twice, as in a loop
        (a, b), _, _ = self.make_pair()
        out = apply_blend(
            a,
            b,
            [
                BlendOp(kind="scale", imfs=[1, 1], alpha=2.0),
                BlendOp(kind="blend", imfs=[2], channels=["ch0", "ch0"], alpha=0.5),
            ],
        )
        (a0, a1), b0 = a.per_channel, b.per_channel[0]
        once = 0.5 * a0.imfs[1] + (1.0 - 0.5) * b0.imfs[1]
        assert np.array_equal(out.per_channel[0].imfs[0], a0.imfs[0] * 2.0 * 2.0)
        assert np.array_equal(out.per_channel[1].imfs[0], a1.imfs[0] * 2.0 * 2.0)
        assert np.array_equal(out.per_channel[0].imfs[1], 0.5 * once + 0.5 * b0.imfs[1])
        assert np.array_equal(out.per_channel[1].imfs[1], a1.imfs[1])

    def test_out_of_bounds(self):
        (a, b), _, _ = self.make_pair()
        with pytest.raises(BlendSpecError, match=r"^IMF index 9 outside 1\.\.\d+$"):
            apply_blend(a, b, [BlendOp(kind="zero", imfs=[9])])

    def test_unaligned_pair_refused(self):
        rng = np.random.default_rng(14)
        a = random_md(rng)
        with pytest.raises(ChannelError, match=r"^IMFs shaped .*; align them first$"):
            apply_blend(a, random_md(rng, n=300), [BlendOp(kind="swap")])
        with pytest.raises(ChannelError, match=r"^IMFs shaped .*; align them first$"):
            apply_blend(a, random_md(rng, n_imfs=2), [])
        with pytest.raises(ChannelError, match=r"^channel labels differ: "):
            apply_blend(a, random_md(rng, labels=["x", "y"]), [])

    def test_unknown_channel(self):
        (a, b), _, _ = self.make_pair()
        with pytest.raises(ChannelError, match=r"^unknown channel: nope$"):
            apply_blend(
                a,
                b,
                [BlendOp(kind="swap", channels=["nope"])],
            )


class TestReconstructAndSynthesize:
    def test_unedited_reconstruction(self):
        from helpers import bvh_text
        from hhtmotion.memd import direction_set, memd
        from hhtmotion.mocap_io import extract_channels, parse_bvh

        rate = 40.0
        t = np.arange(400) / rate
        clip = parse_bvh(
            bvh_text(
                {
                    "hips.Xrotation": 40 * np.sin(2 * np.pi * 1.0 * t),
                    "chest.Zrotation": 25 * np.sin(2 * np.pi * 2.5 * t) + 3 * t,
                },
                frame_time=1.0 / rate,
            )
        )
        sel = ["hips.Xrotation", "chest.Zrotation"]
        series = extract_channels(clip, sel)
        md = memd(series, dirs=direction_set(2, 8, seed=0))
        back = md.reconstruct()
        assert np.max(np.abs(back.T - series.samples.T)) < 1e-8

        out = synthesize_clip(clip, md)
        assert np.max(np.abs(out.frames - clip.frames)) < 1e-6

    def test_labels_pick_the_template_columns(self):
        from helpers import bvh_text
        from hhtmotion.mocap_io import parse_bvh, wrap_degrees

        clip = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(400)}))
        md = random_md(np.random.default_rng(13), labels=["chest.Zrotation", "hips.Xrotation"])
        out = synthesize_clip(clip, md)
        for label, values in zip(md.labels, md.reconstruct()):
            assert np.array_equal(out.frames[:, clip.column(label)], wrap_degrees(values))

    def test_zeroing_imf_changes_rms_by_that_imf(self):
        rng = np.random.default_rng(11)
        md = random_md(rng, labels=["j.Xposition", "k.Xposition"])
        a, b = align(md, md, target_rate=40.0)
        zeroed = apply_blend(
            a, b, [BlendOp(kind="zero", imfs=[1])]
        )
        diff = a.reconstruct().T - zeroed.reconstruct().T
        for ch in range(2):
            assert np.allclose(diff[:, ch], a.per_channel[ch].imfs[0], atol=1e-9)

    def test_length_mismatch(self):
        from helpers import bvh_text
        from hhtmotion.mocap_io import parse_bvh

        rng = np.random.default_rng(12)
        clip = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(100)}))
        md = random_md(rng, n=50, labels=["hips.Xrotation"], n_channels=1)
        with pytest.raises(ChannelError, match=r"^series length 50 != frame count 100$"):
            synthesize_clip(clip, md)


class TestBlendSpecJson:
    def test_reads_the_operations_and_ignores_other_keys(self):
        ops = blend_spec_from_dict({"target_rate": 120, "operations": [{"kind": "swap"}]})
        assert ops == [BlendOp(kind="swap")]

    def test_schema_errors(self):
        with pytest.raises(BlendSpecError, match=r"^unknown op kind: 'explode'$"):
            blend_spec_from_dict({"operations": [{"kind": "explode"}]})
        with pytest.raises(BlendSpecError, match=r"^blend needs alpha in \[0, 1\]$"):
            blend_spec_from_dict({"operations": [{"kind": "blend", "alpha": 1.5}]})
        with pytest.raises(BlendSpecError, match=r"^spec must be an object with an "):
            blend_spec_from_dict({"nope": []})
        with pytest.raises(BlendSpecError, match=r"^unknown operation fields: \['weird'\]$"):
            blend_spec_from_dict({"operations": [{"kind": "swap", "weird": 1}]})
