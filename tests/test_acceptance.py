"""Acceptance checks: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time
import zlib

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import bvh_text, click_signal, pv_hilbert_oracle, random_skeleton_bvh

from hhtmotion.beat import estimate_tempo, onset_envelope, track_beats
from hhtmotion.cli import main as cli_main
from hhtmotion.edit import (
    BlendOp,
    align,
    apply_blend,
)
from hhtmotion.memd import (
    direction_set,
    memd,
    na_memd,
)
from hhtmotion.mocap_io import parse_bvh, wrap_degrees, write_bvh
from hhtmotion.analysis import fibonacci_relations, wafa
from hhtmotion.signal_core import (
    Decomposition,
    TimeSeries,
    analytic_signal,
    emd,
    imf_check,
    instantaneous_attributes,
)

ACCEPT_DIRECTIONS = 8  # keeps the 150-decomposition sweep inside the time budget


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}  {name}  {detail}".rstrip())
    assert ok, f"criterion {number} failed: {name} {detail}"


def rms(a):
    return float(np.sqrt(np.mean(np.square(a))))


# ---------------------------------------------------------------------------
# randomized corpus shared by criteria 1-2


def _corpus_signal(kind, rng):
    duration = float(rng.uniform(5.0, 25.0))
    rate = float(rng.uniform(30.0, 100.0))
    t = np.arange(0, duration, 1.0 / rate)
    nyquist = rate / 2.0

    def tone():
        f = rng.uniform(0.3, nyquist / 4.0)
        return rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * f * t + rng.uniform(0, 7))

    if kind == "tone":
        samples = tone()
    elif kind == "chirp":
        f0 = rng.uniform(0.3, nyquist / 8.0)
        f1 = rng.uniform(2 * f0, nyquist / 3.0)
        phase = 2 * np.pi * (f0 * t + (f1 - f0) / (2 * duration) * t**2)
        samples = rng.uniform(0.5, 2.0) * np.cos(phase)
    elif kind == "mixture":
        samples = tone() + tone() + tone()
    else:
        samples = rng.standard_normal(t.size)
    return TimeSeries(samples, rate)


@pytest.fixture(scope="module")
def corpus_results():
    rng = np.random.default_rng(20170627)
    kinds = ["tone", "chirp", "mixture", "noise"]
    signals = [_corpus_signal(kinds[i % 4], rng) for i in range(46)]
    # pin the duration extremes explicitly
    for kind in kinds:
        long_rng = np.random.default_rng(zlib.crc32(kind.encode()))
        t = np.arange(0, 60.0, 1.0 / 30.0)
        if kind == "noise":
            samples = long_rng.standard_normal(t.size)
        else:
            samples = np.sin(2 * np.pi * 0.7 * t) + 0.4 * np.sin(2 * np.pi * 3.1 * t)
        signals.append(TimeSeries(samples, 30.0))

    results = []
    started = time.perf_counter()
    for i, x in enumerate(signals):
        companion = TimeSeries(
            np.roll(x.samples, x.samples.size // 3) * 0.8
            + 0.1 * np.sin(np.arange(x.samples.size) * 0.05),
            x.rate,
        )
        pair = TimeSeries(
            np.stack([x.samples, companion.samples]), x.rate, labels=["a", "b"]
        )
        uni = emd(x)
        multi = memd(pair, dirs=direction_set(2, ACCEPT_DIRECTIONS, seed=i))
        assisted = na_memd(
            pair, seed=i, dirs=direction_set(3, ACCEPT_DIRECTIONS, seed=i)
        )
        results.append((x, pair, uni, multi, assisted))
    elapsed = time.perf_counter() - started
    return results, elapsed


def test_criterion_1_perfect_reconstruction(corpus_results):
    results, elapsed = corpus_results
    worst = 0.0
    for x, pair, uni, multi, assisted in results:
        scale = np.max(np.abs(x.samples))
        worst = max(worst, np.max(np.abs(uni.reconstruct() - x.samples)) / scale)
        for md in (multi, assisted):
            for ch, d in enumerate(md.per_channel):
                target = pair.samples[ch]
                err = np.max(np.abs(d.reconstruct() - target))
                worst = max(worst, err / np.max(np.abs(target)))
    ok = worst <= 1e-8 and elapsed < 60.0
    report(
        1,
        "perfect reconstruction (emd, memd, na_memd, 50 signals)",
        ok,
        f"worst relative error {worst:.2e}, runtime {elapsed:.1f}s",
    )


def test_criterion_2_imf_validity(corpus_results):
    results, _ = corpus_results
    checked = 0
    failures = 0
    for x, _, uni, _, _ in results:
        for c in uni.imfs:
            rep = imf_check(TimeSeries(c, uni.rate))
            checked += 1
            if not (rep.count_ok and rep.mean_env_rms <= 0.1 * rms(c)):
                failures += 1
    report(
        2,
        "every IMF satisfies the mode criteria",
        failures == 0,
        f"{checked - failures}/{checked} IMFs valid",
    )


def test_sifted_imfs_are_not_all_zeros(corpus_results):
    """Only padding makes an all-zero IMF: emd, memd and na_memd sift none."""
    results, _ = corpus_results
    for _, _, *decomps in results:
        for d in decomps:
            assert np.all(np.any(d.imfs, axis=-1))


def test_criterion_3_tone_separation():
    rate = 50.0
    t = np.arange(0, 20, 1 / rate)
    worst = 1.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        p1, p5 = rng.uniform(0, 2 * np.pi, 2)
        low = np.sin(2 * np.pi * 1 * t + p1)
        high = np.sin(2 * np.pi * 5 * t + p5)

        d = emd(TimeSeries(low + high, rate))
        for source in (low, high):
            best = max(abs(np.corrcoef(c, source)[0, 1]) for c in d.imfs)
            worst = min(worst, best)

        pair = TimeSeries(
            np.stack([low + high, 0.7 * low + 1.2 * high]), rate, labels=["a", "b"]
        )
        md = na_memd(pair, seed=seed, dirs=direction_set(3, 64, seed=seed))
        for ch in range(2):
            for source in (low, high):
                best = max(
                    abs(np.corrcoef(c, source)[0, 1])
                    for c in md.per_channel[ch].imfs
                )
                worst = min(worst, best)
    report(
        3,
        "1 Hz + 5 Hz separate into correlated IMFs (emd and na-memd)",
        worst > 0.95,
        f"weakest source correlation {worst:.4f}",
    )


def test_criterion_4_instantaneous_attributes():
    rate = 100.0
    worst_amp = worst_freq = 0.0
    for f in (0.5, 1.0, 2.0, 5.0):
        # 30.1 s: a non-integer cycle count at every test frequency
        t = np.arange(0, 30.1, 1 / rate)
        a = 1.7
        x = TimeSeries(a * np.cos(2 * np.pi * f * t), rate)
        amplitude, frequency = instantaneous_attributes(analytic_signal(x))
        k = t.size // 10
        worst_amp = max(worst_amp, np.max(np.abs(amplitude[k:-k] - a)) / a)
        worst_freq = max(worst_freq, np.max(np.abs(frequency[k:-k] - f)) / f)

    oracle_rate = 200.0
    ot = np.arange(0, 2, 1 / oracle_rate)
    s = np.sin(2 * np.pi * 3 * ot) + 0.5 * np.sin(2 * np.pi * 7 * ot)
    z = analytic_signal(TimeSeries(s, oracle_rate))
    oracle = pv_hilbert_oracle(s)
    k = s.size // 10
    oracle_rms = rms(z.imag_part[k:-k] - oracle[k:-k])

    ok = worst_amp < 0.01 and worst_freq < 0.02 and oracle_rms < 1e-6
    report(
        4,
        "tone amplitude/frequency recovery and PV-convolution oracle",
        ok,
        f"amp err {worst_amp:.4f}, freq err {worst_freq:.4f}, "
        f"oracle RMS {oracle_rms:.2e}",
    )


def test_criterion_5_filter_bank():
    ratios = {n: [] for n in range(1, 5)}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = TimeSeries(
            rng.standard_normal((1000, 2)).T, 100.0, labels=["a", "b"]
        )
        md = memd(x, dirs=direction_set(2, 64, seed=seed))
        for d in md.per_channel:
            _, freqs, _ = wafa(d)
            for n in range(1, 5):
                if len(freqs) > n and freqs[n - 1] > 0:
                    ratios[n].append(freqs[n] / freqs[n - 1])
    medians = {n: float(np.median(v)) for n, v in ratios.items()}
    ok = all(0.35 <= medians[n] <= 0.75 for n in range(1, 5))
    report(
        5,
        "dyadic filter-bank ratios on 2-channel white noise (20 seeds)",
        ok,
        "medians " + ", ".join(f"{medians[n]:.3f}" for n in range(1, 5)),
    )


def test_criterion_6_beat_tracking():
    details = []
    ok = True
    for bpm in (130.0, 90.0, 150.0):
        audio = click_signal(bpm, 30.0, 22050)
        envelope = onset_envelope(audio)
        tempo = estimate_tempo(envelope)
        grid = track_beats(envelope, tempo)
        truth = np.arange(0, 30.0, 60.0 / bpm)
        median_err = float(
            np.median([np.min(np.abs(b - truth)) for b in grid.beats])
        )
        ok = ok and abs(tempo - bpm) <= 2.0 and median_err <= 0.015
        details.append(f"{bpm:.0f}->{tempo:.1f} BPM/{median_err * 1000:.1f}ms")
    report(6, "click-train tempo and beat alignment", ok, "; ".join(details))


def test_criterion_7_fibonacci_chain():
    triples, chain_length = fibonacci_relations([0.5, 0.3, 0.2, 0.1, 0.1], tolerance=0.05)
    ok = all(abs(t[4]) <= 0.05 for t in triples) and chain_length == 3
    report(
        7,
        "frequency ladder 0.1+0.1=0.2, 0.1+0.2=0.3, 0.2+0.3=0.5 satisfied",
        ok,
        f"chain length {chain_length}",
    )


def _random_multivariate(rng, n=300, rate=40.0, n_imfs=4):
    labels = ["j.Xrotation", "j.Yrotation"]
    imfs, trend = [], []
    for _ in labels:
        imfs.append([rng.standard_normal(n) for _ in range(n_imfs)])
        trend.append(rng.standard_normal(n))
    return Decomposition(imfs=imfs, trend=trend, rate=rate, labels=labels)


def test_criterion_8_editing_laws():
    total_swap = [BlendOp(kind="swap"), BlendOp(kind="trend_exchange")]
    failures = []
    for case in range(20):
        rng = np.random.default_rng(1000 + case)
        a, b = align(
            _random_multivariate(rng), _random_multivariate(rng), target_rate=40.0
        )

        identity = apply_blend(a, b, [])
        if not _md_allclose(identity, a, 0.0):
            failures.append((case, "identity"))

        swapped = apply_blend(a, b, total_swap)
        if not _md_allclose(swapped, b, 0.0):
            failures.append((case, "total swap"))

        restored = apply_blend(swapped, a, total_swap)
        if not _md_allclose(restored, a, 0.0):
            failures.append((case, "involution"))

        merged = apply_blend(a, b, [BlendOp(kind="merge", imfs=[1, 2])])
        scale = np.max(np.abs(a.reconstruct()))
        if np.max(np.abs(merged.reconstruct() - a.reconstruct())) > 1e-12 * scale:
            failures.append((case, "merge reconstruction"))
    report(
        8,
        "editing laws: identity, total swap, involution, merge",
        not failures,
        f"20 randomized pairs{'; failures: ' + repr(failures) if failures else ''}",
    )


def _md_allclose(a, b, atol):
    for da, db in zip(a.per_channel, b.per_channel):
        if not np.allclose(da.trend, db.trend, atol=atol, rtol=0):
            return False
        for u, v in zip(da.imfs, db.imfs):
            if not np.allclose(u, v, atol=atol, rtol=0):
                return False
    return True


def test_criterion_9_bvh_round_trip():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        clip = parse_bvh(random_skeleton_bvh(rng, max_joints=30, n_frames=500))
        again = parse_bvh(write_bvh(clip))
        worst = max(worst, float(np.max(np.abs(clip.frames - again.frames))))
        if write_bvh(again) != write_bvh(clip):
            worst = np.inf

    n = 2420  # 60.5 s at 40 fps
    t = np.arange(n) * 0.025
    clip = parse_bvh(
        bvh_text({"hips.Xrotation": 45 * np.sin(2 * np.pi * 0.5 * t)},
                 frame_time=0.025)
    )
    again = parse_bvh(write_bvh(clip))
    ok = (
        worst < 1e-5
        and clip.frame_count == 2420
        and clip.frame_count * clip.frame_time == pytest.approx(60.5)
        and np.max(np.abs(clip.frames - again.frames)) < 1e-5
    )
    report(
        9,
        "BVH parse/write/parse fixed point (10 random skeletons + 2420-frame clip)",
        ok,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_10_end_to_end_trend_exchange(tmp_path):
    runner = CliRunner()
    fps = 40.0
    t = np.arange(480) / fps

    dance_a = {
        "hips.Xrotation": 25 * np.sin(2 * np.pi * 1.0 * t)
        + 8 * np.sin(2 * np.pi * 3.5 * t)
        + 0.9 * t,
        "hips.Yrotation": 20 * np.sin(2 * np.pi * 1.5 * t) + 5.0,
    }
    dance_b = {
        "hips.Xrotation": 18 * np.sin(2 * np.pi * 2.0 * t) - 1.1 * t + 12.0,
        "hips.Yrotation": 15 * np.sin(2 * np.pi * 0.8 * t) - 0.02 * t**2,
    }
    paths = {}
    for name, channels in (("a", dance_a), ("b", dance_b)):
        bvh = tmp_path / f"{name}.bvh"
        bvh.write_text(bvh_text(channels, frame_time=1.0 / fps))
        archive = tmp_path / f"{name}.json"
        result = runner.invoke(
            cli_main,
            ["decompose", str(bvh), "--channels",
             "hips.Xrotation,hips.Yrotation", "--method", "na-memd",
             "--directions", "8", "--seed", "3", "--out", str(archive)],
        )
        assert result.exit_code == 0, result.output
        paths[name] = (bvh, archive)

    analysis_out = tmp_path / "analysis.json"
    result = runner.invoke(
        cli_main, ["analyze", str(paths["a"][1]), "--out", str(analysis_out)]
    )
    assert result.exit_code == 0, result.output
    summary = json.loads(analysis_out.read_text())["summary"]

    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "target_rate": fps,
                "operations": [
                    {"kind": "trend_exchange", "channels": ["hips.Xrotation"]}
                ],
            }
        )
    )
    out_bvh = tmp_path / "exchanged.bvh"
    result = runner.invoke(
        cli_main,
        ["blend", str(paths["a"][1]), str(paths["b"][1]), "--spec", str(spec),
         "--template", str(paths["a"][0]), "--out", str(out_bvh)],
    )
    assert result.exit_code == 0, result.output

    archive_a = json.loads(paths["a"][1].read_text())
    archive_b = json.loads(paths["b"][1].read_text())
    expected = wrap_degrees(
        np.sum(archive_a["channels"][0]["imfs"], axis=0)
        + np.asarray(archive_b["channels"][0]["trend"])
    )
    blended = parse_bvh(out_bvh.read_text())
    got = blended.frames[:, blended.column("hips.Xrotation")]
    deviation = float(np.max(np.abs(got - expected)))
    ok = deviation < 1e-6 and summary["imf_count"] >= 2
    report(
        10,
        "pipeline decompose -> analyze -> blend trend exchange",
        ok,
        f"max channel deviation {deviation:.2e}, "
        f"{summary['imf_count']} IMFs analyzed",
    )
