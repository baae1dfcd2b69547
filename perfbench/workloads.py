"""The benchmark's workloads: seeded inputs plus the CLI stages of one pass.

``build(name, inputs_dir, seed, size)`` writes the inputs and returns a
:class:`Workload`; ``workload.plan(pass_dir)`` lists the invocations of one
pass, in order, each with the check its outputs must pass.  Paths are
absolute, so an invocation behaves the same from any working directory.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import checks
import gen

NAMES = ("dance-namemd", "wide-emd", "short-clips")
# wide-emd stays runnable by hand but is not in BENCHMARK.json: on the
# shared two-core machine the benchmark was written on, its pass time spread
# by 0.23-0.26 over ten seeds, beyond what the gate can bound.
STAGES = ("decompose", "beats", "analyze", "spectrum", "blend")
SPECTRUM_TIME_BIN = 0.05
SPECTRUM_FREQ_BINS = 100
SHORT_SKELETON = (("Hips", None),)


@dataclass(frozen=True)
class Size:
    dance_frames: int
    wav_seconds: float
    wide_frames: int
    short_frames: int
    short_clips: int


# Sized so that one pass of each workload takes 10-12 s on two cores: a
# 48-second run then makes four or five passes, and all the runs the
# benchmark needs fit in its time budget.
FULL = Size(dance_frames=2400, wav_seconds=30.0, wide_frames=1200, short_frames=1200,
            short_clips=2)
TINY = Size(dance_frames=480, wav_seconds=4.0, wide_frames=480, short_frames=360,
            short_clips=2)


@dataclass
class Step:
    stage: str
    argv: list
    outputs: list
    check: object


@dataclass
class Workload:
    params: dict  # generator parameters, recorded with the results
    plan: object  # pass_dir -> list of Step


def _clip(inputs_dir, name, seed, part, frames, joints=gen.SKELETON, root_positions=True):
    text, rotations = gen.make_clip([seed, part], frames, joints, root_positions)
    path = os.path.join(inputs_dir, name + ".bvh")
    gen.write_text(path, text)
    return path, rotations


def _cells(frames):
    n_time = max(1, math.ceil(frames / gen.FPS / SPECTRUM_TIME_BIN - 1e-9))
    return n_time * SPECTRUM_FREQ_BINS


def _decompose(bvh, labels, out, expected, method=None):
    argv = ["decompose", bvh, "--channels", ",".join(labels), "--out", out]
    if method is not None:
        argv += ["--method", method]
    want = {label: expected[label] for label in labels}
    return Step("decompose", argv, [out], functools.partial(checks.archive, out, want))


def _beats_fixed(duration, out):
    argv = ["beats", "--bpm", f"{gen.BPM:g}", "--duration", f"{duration:g}", "--out", out]
    return Step("beats", argv, [out], functools.partial(checks.beat_grid, out, gen.BPM))


def _analyze(archive, beats, out, labels):
    argv = ["analyze", archive, "--beats", beats, "--out", out]
    return Step("analyze", argv, [out], functools.partial(checks.analysis_report, out, labels))


def _spectrum(archive, out, frames):
    sidecar = os.path.splitext(out)[0] + ".json"
    argv = ["spectrum", archive, "--out", out]
    return Step("spectrum", argv, [out, sidecar],
                functools.partial(checks.spectrum_csv, out, _cells(frames)))


def _blend(a, b, spec, template, out, frames, width):
    argv = ["blend", a, b, "--spec", spec, "--template", template, "--out", out]
    return Step("blend", argv, [out], functools.partial(checks.bvh_clip, out, frames, width))


def dance_namemd(inputs_dir, seed, size):
    """The paper's pipeline once: NA-MEMD on a clip pair, WAV beats, blend."""
    labels = gen.rotation_labels()
    selection = labels[0:3] + labels[21:24] + labels[33:36] + labels[42:45]
    a, rot_a = _clip(inputs_dir, "a", seed, 0, size.dance_frames)
    b, rot_b = _clip(inputs_dir, "b", seed, 1, size.dance_frames)
    wav = os.path.join(inputs_dir, "click.wav")
    gen.write_click_wav(wav, [seed, 2], size.wav_seconds)
    spec = os.path.join(inputs_dir, "spec.json")
    gen.write_json(spec, gen.blend_spec(selection[0:6], selection[6:9], selection[9:12]))
    width = len(gen.POSITIONS) + len(labels)

    def plan(p):
        out = functools.partial(os.path.join, p)
        beats = out("beats.json")
        return [
            _decompose(a, selection, out("a.json"), rot_a),
            _decompose(b, selection, out("b.json"), rot_b),
            Step("beats", ["beats", wav, "--out", beats], [beats],
                 functools.partial(checks.beat_grid, beats, gen.BPM)),
            _analyze(out("a.json"), beats, out("analysis.json"), selection),
            _spectrum(out("a.json"), out("spectrum.csv"), size.dance_frames),
            _blend(out("a.json"), out("b.json"), spec, a, out("blend.bvh"),
                   size.dance_frames, width),
        ]

    params = {"clips": 2, "frames": size.dance_frames, "fps": gen.FPS, "channels": width,
              "decomposed": selection, "method": "na-memd", "wav_seconds": size.wav_seconds,
              "wav_rate": 22050, "bpm": gen.BPM}
    return Workload(params, plan)


def wide_emd(inputs_dir, seed, size):
    """All 60 rotation channels through univariate EMD; blend against itself."""
    labels = gen.rotation_labels()
    width = len(gen.POSITIONS) + len(labels)
    clip, rot = _clip(inputs_dir, "wide", seed, 0, size.wide_frames)
    spec = os.path.join(inputs_dir, "spec.json")
    gen.write_json(spec, gen.blend_spec(labels[0:6], labels[6:9], labels[9:12]))
    duration = size.wide_frames / gen.FPS

    def plan(p):
        out = functools.partial(os.path.join, p)
        archive = out("wide.json")
        return [
            _decompose(clip, labels, archive, rot, method="emd"),
            _beats_fixed(duration, out("beats.json")),
            _analyze(archive, out("beats.json"), out("analysis.json"), labels),
            _spectrum(archive, out("spectrum.csv"), size.wide_frames),
            _blend(archive, archive, spec, clip, out("blend.bvh"), size.wide_frames, width),
        ]

    params = {"clips": 1, "frames": size.wide_frames, "fps": gen.FPS, "channels": width,
              "decomposed": len(labels), "method": "emd", "bpm": gen.BPM}
    return Workload(params, plan)


def short_clips(inputs_dir, seed, size):
    """A batch of short three-channel clips through every stage: many small invocations."""
    labels = gen.rotation_labels(SHORT_SKELETON)
    clips = [_clip(inputs_dir, f"short{i}", seed, i, size.short_frames,
                   SHORT_SKELETON, root_positions=False)
             for i in range(size.short_clips)]
    spec = os.path.join(inputs_dir, "spec.json")
    gen.write_json(spec, gen.blend_spec(labels[0:1], labels[1:2], labels[2:3]))
    duration = size.short_frames / gen.FPS

    def plan(p):
        out = functools.partial(os.path.join, p)
        steps = []
        for i, (clip, rot) in enumerate(clips):
            archive = out(f"short{i}.json")
            beats = out(f"beats{i}.json")
            steps += [
                _decompose(clip, labels, archive, rot, method="memd"),
                _beats_fixed(duration, beats),
                _analyze(archive, beats, out(f"analysis{i}.json"), labels),
                _spectrum(archive, out(f"spectrum{i}.csv"), size.short_frames),
            ]
        # one blend per batch, so every workload runs every stage
        steps.append(_blend(out("short0.json"), out("short1.json"), spec, clips[0][0],
                            out("blend.bvh"), size.short_frames, len(labels)))
        return steps

    params = {"clips": size.short_clips, "frames": size.short_frames, "fps": gen.FPS,
              "channels": len(labels), "decomposed": len(labels), "method": "memd",
              "bpm": gen.BPM}
    return Workload(params, plan)


BUILDERS = {"dance-namemd": dance_namemd, "wide-emd": wide_emd, "short-clips": short_clips}


def build(name, inputs_dir, seed, size):
    os.makedirs(inputs_dir, exist_ok=True)
    return BUILDERS[name](inputs_dir, seed, size)
