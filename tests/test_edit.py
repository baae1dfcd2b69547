import numpy as np
import pytest

from hhtmotion.edit import (
    AlignedPair,
    BlendOp,
    BlendSpec,
    align,
    apply_blend,
    blend_spec_from_dict,
    blend_spec_to_dict,
    merge_imfs,
    reconstruct,
    synthesize_clip,
)
from hhtmotion.errors import (
    BadRange,
    BlendSpecError,
    ChannelMismatch,
    LengthMismatch,
    SpecOutOfBounds,
)
from hhtmotion.memd import MultivariateDecomposition
from hhtmotion.signal_core import Decomposition


def random_md(rng, n=400, rate=40.0, n_channels=2, n_imfs=3, labels=None):
    labels = labels or [f"ch{i}" for i in range(n_channels)]
    per_channel = []
    for _ in range(n_channels):
        imfs = [rng.standard_normal(n) for _ in range(n_imfs)]
        per_channel.append(
            Decomposition(imfs=imfs, trend=rng.standard_normal(n), rate=rate)
        )
    return MultivariateDecomposition(
        imfs=[d.imfs for d in per_channel],
        trend=[d.trend for d in per_channel],
        rate=rate,
        labels=labels,
    )


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


TOTAL_SWAP = BlendSpec(
    operations=[BlendOp(kind="swap"), BlendOp(kind="trend_exchange")]
)


class TestAlign:
    def test_identity_when_already_matched(self):
        rng = np.random.default_rng(0)
        a = random_md(rng)
        b = random_md(rng)
        pair = align(a, b, target_rate=40.0)
        assert md_equal(pair.a, a, atol=1e-9)
        assert md_equal(pair.b, b, atol=1e-9)

    def test_imf_padding(self):
        rng = np.random.default_rng(1)
        a = random_md(rng, n_imfs=4)
        b = random_md(rng, n_imfs=2)
        pair = align(a, b, target_rate=40.0)
        assert pair.a.imf_count == pair.b.imf_count == 4
        assert np.all(pair.b.per_channel[0].imfs[3] == 0)

    def test_rate_and_duration_unified(self):
        rng = np.random.default_rng(2)
        a = random_md(rng, n=300, rate=30.0)  # 10 s
        b = random_md(rng, n=480, rate=40.0)  # 12 s
        pair = align(a, b, target_rate=40.0)
        assert pair.a.rate == pytest.approx(40.0)
        n = pair.a.per_channel[0].trend.size
        assert n == pair.b.per_channel[0].trend.size
        assert n == 400  # 10 s at 40 fps

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_md(rng, labels=["x", "y"])
        b = random_md(rng, labels=["u", "v"])
        with pytest.raises(ChannelMismatch):
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
        with pytest.raises(BadRange):
            merge_imfs(d, (2, 2))
        with pytest.raises(BadRange):
            merge_imfs(d, (0, 2))


class TestApplyBlend:
    def make_pair(self, seed=0):
        rng = np.random.default_rng(seed)
        a = random_md(rng)
        b = random_md(rng)
        return align(a, b, target_rate=40.0), a, b

    def test_empty_spec_is_identity(self):
        pair, a, _ = self.make_pair()
        out = apply_blend(pair, BlendSpec(operations=[]))
        assert md_equal(out, pair.a)

    def test_total_swap_yields_b(self):
        pair, _, _ = self.make_pair()
        out = apply_blend(pair, TOTAL_SWAP)
        assert md_equal(out, pair.b)

    def test_double_swap_involution(self):
        pair, _, _ = self.make_pair()
        once = apply_blend(pair, TOTAL_SWAP)
        back = apply_blend(AlignedPair(a=once, b=pair.a), TOTAL_SWAP)
        assert md_equal(back, pair.a)

    def test_trend_exchange_reconstruction(self):
        # two decompositions sharing oscillatory content with known trends
        n, rate = 400, 40.0
        t = np.arange(n) / rate
        tone = np.sin(2 * np.pi * 2.0 * t)
        ramp_a = 0.5 * t
        ramp_b = -1.0 + 0.2 * t**2
        make = lambda ramp: MultivariateDecomposition(
            imfs=[[tone.copy()]], trend=[ramp.copy()], rate=rate, labels=["j.Xrotation"]
        )
        pair = align(make(ramp_a), make(ramp_b), target_rate=rate)
        out = apply_blend(
            pair, BlendSpec(operations=[BlendOp(kind="trend_exchange")])
        )
        expected = tone + ramp_b
        got = reconstruct(out).samples[0]
        assert np.max(np.abs(got - expected)) < 1e-6

    def test_blend_half_of_identical_pair(self):
        pair, _, _ = self.make_pair()
        same = AlignedPair(a=pair.a, b=pair.a)
        out = apply_blend(
            same, BlendSpec(operations=[BlendOp(kind="blend", alpha=0.5)])
        )
        assert md_equal(out, pair.a, atol=1e-12)

    def test_scale_and_zero(self):
        pair, _, _ = self.make_pair()
        out = apply_blend(
            pair,
            BlendSpec(
                operations=[
                    BlendOp(kind="scale", imfs=[1], alpha=2.0),
                    BlendOp(kind="zero", imfs=[2]),
                ]
            ),
        )
        assert np.allclose(out.per_channel[0].imfs[0], 2 * pair.a.per_channel[0].imfs[0])
        assert np.all(out.per_channel[0].imfs[1] == 0)

    def test_editing_linearity(self):
        pair, _, _ = self.make_pair(seed=9)
        spec = BlendSpec(
            operations=[
                BlendOp(kind="scale", imfs=[1], alpha=0.5),
                BlendOp(kind="zero", imfs=[2]),
                BlendOp(kind="blend", imfs=[3], alpha=0.25),
            ]
        )
        out = reconstruct(apply_blend(pair, spec)).samples.T
        expected = np.zeros_like(out)
        for ch in range(pair.a.n_channels):
            da, db = pair.a.per_channel[ch], pair.b.per_channel[ch]
            expected[:, ch] = (
                0.5 * da.imfs[0]
                + 0.25 * da.imfs[2]
                + 0.75 * db.imfs[2]
                + da.trend
            )
        assert np.max(np.abs(out - expected)) < 1e-9

    def test_channel_selection(self):
        pair, _, _ = self.make_pair()
        out = apply_blend(
            pair,
            BlendSpec(operations=[BlendOp(kind="swap", channels=["ch1"])]),
        )
        assert np.allclose(out.per_channel[0].imfs[0], pair.a.per_channel[0].imfs[0])
        assert np.allclose(out.per_channel[1].imfs[0], pair.b.per_channel[1].imfs[0])

    def test_merge_applies_to_all_channels(self):
        pair, _, _ = self.make_pair()
        out = apply_blend(
            pair, BlendSpec(operations=[BlendOp(kind="merge", imfs=[1, 2])])
        )
        assert out.imf_count == pair.a.imf_count - 1
        counts = {d.imf_count for d in out.per_channel}
        assert len(counts) == 1

    def test_repeated_selection_applies_twice(self):
        # an IMF or a channel listed twice gets the operation twice, as in a loop
        pair, _, _ = self.make_pair()
        out = apply_blend(
            pair,
            BlendSpec(
                operations=[
                    BlendOp(kind="scale", imfs=[1, 1], alpha=2.0),
                    BlendOp(kind="blend", imfs=[2], channels=["ch0", "ch0"], alpha=0.5),
                ]
            ),
        )
        (a0, a1), b0 = pair.a.per_channel, pair.b.per_channel[0]
        once = 0.5 * a0.imfs[1] + (1.0 - 0.5) * b0.imfs[1]
        assert np.array_equal(out.per_channel[0].imfs[0], a0.imfs[0] * 2.0 * 2.0)
        assert np.array_equal(out.per_channel[1].imfs[0], a1.imfs[0] * 2.0 * 2.0)
        assert np.array_equal(out.per_channel[0].imfs[1], 0.5 * once + 0.5 * b0.imfs[1])
        assert np.array_equal(out.per_channel[1].imfs[1], a1.imfs[1])

    def test_out_of_bounds(self):
        pair, _, _ = self.make_pair()
        with pytest.raises(SpecOutOfBounds):
            apply_blend(pair, BlendSpec(operations=[BlendOp(kind="zero", imfs=[9])]))

    def test_unknown_channel(self):
        pair, _, _ = self.make_pair()
        with pytest.raises(ChannelMismatch):
            apply_blend(
                pair,
                BlendSpec(operations=[BlendOp(kind="swap", channels=["nope"])]),
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
        back = reconstruct(md)
        assert np.max(np.abs(back.samples.T - series.samples.T)) < 1e-8

        out = synthesize_clip(clip, md, sel)
        assert np.max(np.abs(out.frames - clip.frames)) < 1e-6

    def test_zeroing_imf_changes_rms_by_that_imf(self):
        rng = np.random.default_rng(11)
        md = random_md(rng, labels=["j.Xposition", "k.Xposition"])
        pair = align(md, md, target_rate=40.0)
        zeroed = apply_blend(
            pair, BlendSpec(operations=[BlendOp(kind="zero", imfs=[1])])
        )
        diff = reconstruct(pair.a).samples.T - reconstruct(zeroed).samples.T
        for ch in range(2):
            assert np.allclose(diff[:, ch], pair.a.per_channel[ch].imfs[0], atol=1e-9)

    def test_length_mismatch(self):
        from helpers import bvh_text
        from hhtmotion.mocap_io import parse_bvh

        rng = np.random.default_rng(12)
        clip = parse_bvh(bvh_text({"hips.Xrotation": np.zeros(100)}))
        md = random_md(rng, n=50, labels=["hips.Xrotation"], n_channels=1)
        with pytest.raises(LengthMismatch):
            synthesize_clip(clip, md)


class TestBlendSpecJson:
    def test_round_trip(self):
        spec = BlendSpec(
            target_rate=40.0,
            operations=[
                BlendOp(kind="swap", imfs=[1, 2], channels=["hips.Xrotation"]),
                BlendOp(kind="blend", alpha=0.3),
            ],
        )
        obj = blend_spec_to_dict(spec)
        back = blend_spec_from_dict(obj)
        assert blend_spec_to_dict(back) == obj

    def test_schema_errors(self):
        with pytest.raises(BlendSpecError):
            blend_spec_from_dict({"operations": [{"kind": "explode"}]})
        with pytest.raises(BlendSpecError):
            blend_spec_from_dict({"operations": [{"kind": "blend", "alpha": 1.5}]})
        with pytest.raises(BlendSpecError):
            blend_spec_from_dict({"nope": []})
        with pytest.raises(BlendSpecError):
            blend_spec_from_dict({"operations": [{"kind": "swap", "weird": 1}]})
