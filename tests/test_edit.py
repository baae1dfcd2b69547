import itertools
import re

import numpy as np
import pytest

from hhtmotion.edit import (
    BlendOp,
    _merge_rows,
    align,
    apply_blend,
    blend_spec_from_dict,
    synthesize_clip,
)
from hhtmotion.errors import BlendSpecError, ChannelError, InvalidValue
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

    @pytest.mark.parametrize("rate", [119.88, 59.94, 29.97, 120])
    def test_rate_is_the_target_rate(self, rate):
        # 1 / (1 / 119.88) is 119.87999999999998
        rng = np.random.default_rng(5)
        a, b = align(random_md(rng), random_md(rng), target_rate=rate)
        assert a.rate == b.rate == rate

    @pytest.mark.parametrize("rate", [0.0, -1.0, float("inf"), float("nan")])
    def test_target_rate_must_be_positive_and_finite(self, rate):
        rng = np.random.default_rng(6)
        message = f"target rate must be a positive number, got {rate}"
        with pytest.raises(InvalidValue, match="^" + re.escape(message) + "$"):
            align(random_md(rng), random_md(rng), target_rate=rate)

    def test_single_channel_decompositions(self):
        rng = np.random.default_rng(7)
        a = Decomposition(imfs=rng.standard_normal((3, 300)), trend=np.zeros(300), rate=30.0)
        b = Decomposition(imfs=rng.standard_normal((2, 400)), trend=np.ones(400), rate=40.0)
        a, b = align(a, b, target_rate=40.0)
        assert a.imfs.shape == b.imfs.shape == (3, 400)
        assert a.labels is None and np.all(b.imfs[2] == 0)

    def test_channel_mismatch(self):
        rng = np.random.default_rng(3)
        a = random_md(rng, labels=["x", "y"])
        b = random_md(rng, labels=["u", "v"])
        with pytest.raises(ChannelError, match=r"^channel labels differ: "):
            align(a, b, target_rate=40.0)


def merge(d, imfs):
    """``d`` with the IMFs ``imfs`` merged by ``apply_blend``, ``d`` its own donor."""
    return apply_blend(d, d, [BlendOp(kind="merge", imfs=imfs)])


class TestMergeImfs:
    def test_merge_adjacent_pair(self):
        d = random_md(np.random.default_rng(4), n=100, rate=10.0)
        merged = merge(d, [1, 2])
        assert merged.imf_count == 2
        assert np.allclose(
            merged.reconstruct(), d.reconstruct(), atol=1e-12 * np.max(np.abs(d.reconstruct()))
        )

    def test_merge_all(self):
        d = random_md(np.random.default_rng(5), n=100, rate=10.0)
        merged = merge(d, [1, 3])
        assert merged.imf_count == 1
        assert np.allclose(merged.imfs[:, 0], d.reconstruct() - d.trend)

    def test_bad_range(self):
        d = random_md(np.random.default_rng(6), n=50, rate=10.0)
        with pytest.raises(BlendSpecError, match=r"^merge range \[2, 2\] invalid for 3 IMFs$"):
            merge(d, [2, 2])
        with pytest.raises(BlendSpecError, match=r"^merge range \[0, 2\] invalid for 3 IMFs$"):
            merge(d, [0, 2])


def per_cell_blend(a, b, operations):
    """``apply_blend`` as a loop over each (channel, IMF) cell of an operation."""
    imfs, trend = a.imfs.copy(), a.trend.copy()
    donors = {"a": a.imfs, "b": b.imfs}
    for op in operations:
        if op.kind == "merge":
            span = min(op.imfs), max(op.imfs)
            imfs = _merge_rows(imfs, *span)
            donors = {side: _merge_rows(d, *span) for side, d in donors.items()}
            continue
        names = a.labels if op.channels is None else op.channels
        channels = [a.labels.index(name) for name in names]
        side = op.source or "b"
        if op.kind == "trend_exchange":
            trend[channels] = (a if side == "a" else b).trend[channels]
            continue
        rows = range(imfs.shape[-2]) if op.imfs is None else [n - 1 for n in op.imfs]
        donor = donors[side]
        for cell in itertools.product(channels, rows):
            if op.kind == "scale":
                imfs[cell] = imfs[cell] * op.alpha
            elif op.kind == "zero":
                imfs[cell] = 0.0
            elif op.kind == "swap":
                imfs[cell] = donor[cell]
            else:
                donated = (1.0 - op.alpha) * donor[cell]
                imfs[cell] = op.alpha * imfs[cell] + donated
    return Decomposition(imfs=imfs, trend=trend, rate=a.rate, labels=a.labels)


def random_op(rng, count):
    """A random operation, but merge, on channels ch0-ch2 and ``count`` IMFs,
    listing no channel or IMF twice."""
    def selection(items):  # None (all) or some of them in a random order
        return None if rng.random() < 0.3 else rng.permutation(items)[
            : rng.integers(0, len(items) + 1)].tolist()

    kind = ["scale", "zero", "swap", "blend", "trend_exchange"][rng.integers(5)]
    return BlendOp(
        kind=kind,
        channels=selection(["ch0", "ch1", "ch2"]),
        imfs=None if kind == "trend_exchange" else selection(np.arange(1, count + 1)),
        alpha={"scale": rng.uniform(-2, 2), "blend": rng.random()}.get(kind),
        source=[None, "a", "b"][rng.integers(3)] if kind in ("swap", "blend",
                                                             "trend_exchange") else None,
    )


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

    def test_merge_refuses_channels(self):
        # a merge acts on every channel, so naming one is a spec error
        spec = {"operations": [{"kind": "merge", "imfs": [1, 2], "channels": ["ch0"]}]}
        with pytest.raises(BlendSpecError, match=r"^merge acts on every channel; it takes no "):
            blend_spec_from_dict(spec)

    @pytest.mark.parametrize("kind", ["zero", "swap", "trend_exchange", "merge"])
    def test_alpha_refused_where_ignored(self, kind):
        op = {"kind": kind, "imfs": [1, 2] if kind == "merge" else None, "alpha": 0.5}
        with pytest.raises(BlendSpecError, match=rf"^{kind} takes no alpha; only scale and "):
            blend_spec_from_dict({"operations": [op]})
        op["alpha"] = None  # null is "not given"
        assert blend_spec_from_dict({"operations": [op]})[0].alpha is None

    @pytest.mark.parametrize("kind", ["scale", "zero", "merge"])
    def test_source_refused_where_ignored(self, kind):
        op = {"kind": kind, "imfs": [1, 2] if kind == "merge" else None,
              "alpha": 2.0 if kind == "scale" else None, "source": "b"}
        with pytest.raises(BlendSpecError, match=rf"^{kind} takes no source; only swap, "):
            blend_spec_from_dict({"operations": [op]})
        op["source"] = None  # null is "not given"
        assert blend_spec_from_dict({"operations": [op]})[0].source is None

    @pytest.mark.parametrize("kind", ["swap", "blend", "trend_exchange"])
    def test_source_defaults_to_b(self, kind):
        (a, b), _, _ = self.make_pair()
        alpha = 0.25 if kind == "blend" else None
        given = {side: apply_blend(a, b, [BlendOp(kind=kind, alpha=alpha, source=side)])
                 for side in ("a", "b", None)}
        assert np.array_equal(given[None].imfs, given["b"].imfs)
        assert np.array_equal(given[None].trend, given["b"].trend)
        assert not np.array_equal(given[None].reconstruct(), given["a"].reconstruct())

    @pytest.mark.parametrize("imfs", [[1], [99]])
    def test_trend_exchange_refuses_imfs(self, imfs):
        # the IMF numbers would be ignored, in range or not
        spec = {"operations": [{"kind": "trend_exchange", "imfs": imfs}]}
        with pytest.raises(BlendSpecError, match=r"^trend_exchange moves trends; it takes no "):
            blend_spec_from_dict(spec)

    def test_repeated_selection_refused(self):
        # an IMF or a channel listed twice would get the operation twice
        alphas = {"scale": 2.0, "blend": 0.5}
        for kind in ("scale", "zero", "swap", "blend", "trend_exchange"):
            op = {"kind": kind, "alpha": alphas.get(kind), "channels": ["ch1", "ch0", "ch1"]}
            with pytest.raises(BlendSpecError, match=r"^channels lists ch1 twice$"):
                blend_spec_from_dict({"operations": [op]})
            if kind != "trend_exchange":
                op.update(imfs=[2, 1, 2], channels=None)
                with pytest.raises(BlendSpecError, match=r"^imfs lists 2 twice$"):
                    blend_spec_from_dict({"operations": [op]})
        # checked after every other refusal, so each keeps its message
        with pytest.raises(BlendSpecError, match=r"^trend_exchange moves trends; it takes "):
            BlendOp(kind="trend_exchange", imfs=[1, 1])
        with pytest.raises(BlendSpecError, match=r"^zero takes no alpha; only scale and "):
            BlendOp(kind="zero", imfs=[1, 1], alpha=1.0)
        # merge reads only its smallest and largest IMF number
        assert BlendOp(kind="merge", imfs=[3, 1, 3]).imfs == [3, 1, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_per_cell_loop(self, seed):
        # bit for bit, on repeat-free specs with a merge somewhere among them
        rng = np.random.default_rng(seed)
        a, b = align(random_md(rng, n=60, n_channels=3, n_imfs=5),
                     random_md(rng, n=60, n_channels=3, n_imfs=4), target_rate=40.0)
        count, spec, merge_at = a.imf_count, [], rng.integers(0, 6)
        for step in range(8):
            if step == merge_at:
                i, j = sorted(rng.choice(np.arange(1, count + 1), 2, replace=False).tolist())
                spec.append(BlendOp(kind="merge", imfs=[j, i]))
                count -= j - i
            else:
                spec.append(random_op(rng, count))
        out, expected = apply_blend(a, b, spec), per_cell_blend(a, b, spec)
        assert np.array_equal(out.imfs, expected.imfs)
        assert np.array_equal(out.trend, expected.trend)

    def test_out_of_bounds(self):
        (a, b), _, _ = self.make_pair()
        with pytest.raises(BlendSpecError, match=r"^IMF index 9 outside 1\.\.\d+$"):
            apply_blend(a, b, [BlendOp(kind="zero", imfs=[9])])
        # checked even when no channel, so no cell, is selected
        with pytest.raises(BlendSpecError, match=r"^IMF index 9 outside 1\.\.\d+$"):
            apply_blend(a, b, [BlendOp(kind="swap", imfs=[1, 9], channels=[])])

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
        with pytest.raises(BlendSpecError, match=r"^channels must list labels, got \[5\]$"):
            blend_spec_from_dict({"operations": [{"kind": "swap", "channels": [5]}]})
        with pytest.raises(BlendSpecError, match=r"^source must be 'a' or 'b', got 'c'$"):
            blend_spec_from_dict({"operations": [{"kind": "swap", "source": "c"}]})
        with pytest.raises(BlendSpecError, match=r"^scale needs alpha as the multiplier$"):
            blend_spec_from_dict({"operations": [{"kind": "scale", "imfs": [1]}]})
