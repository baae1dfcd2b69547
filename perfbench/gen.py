"""Seeded synthetic inputs for the pipeline benchmark.

Everything here depends only on numpy and the standard library: BVH text is
written by this module's own formatter (not ``hhtmotion.mocap_io.write_bvh``)
and the click track by ``wave``, so the inputs do not depend on a layer the
benchmark measures.  The same seed always yields byte-identical files.
"""

from __future__ import annotations

import json
import wave

import numpy as np

BPM = 130.0
FPS = 120.0
BEAT_HZ = BPM / 60.0

# Hips (6 channels) plus 19 three-channel joints: 63 channels, 60 rotations.
SKELETON = (
    ("Hips", None),
    ("Spine", "Hips"), ("Spine1", "Spine"), ("Spine2", "Spine1"),
    ("Neck", "Spine2"), ("Head", "Neck"),
    ("LeftShoulder", "Spine2"), ("LeftArm", "LeftShoulder"),
    ("LeftForeArm", "LeftArm"), ("LeftHand", "LeftForeArm"),
    ("RightShoulder", "Spine2"), ("RightArm", "RightShoulder"),
    ("RightForeArm", "RightArm"), ("RightHand", "RightForeArm"),
    ("LeftUpLeg", "Hips"), ("LeftLeg", "LeftUpLeg"), ("LeftFoot", "LeftLeg"),
    ("RightUpLeg", "Hips"), ("RightLeg", "RightUpLeg"), ("RightFoot", "RightLeg"),
)
ROTATIONS = ("Zrotation", "Xrotation", "Yrotation")
POSITIONS = ("Xposition", "Yposition", "Zposition")


def rotation_labels(joints=SKELETON):
    """Rotation labels in file column order (joints are listed depth first)."""
    return [f"{name}.{axis}" for name, _ in joints for axis in ROTATIONS]


def _children(joints):
    kids = {name: [] for name, _ in joints}
    for name, parent in joints:
        if parent is not None:
            kids[parent].append(name)
    return kids


def _hierarchy(joints, root_positions):
    kids = _children(joints)
    lines = ["HIERARCHY"]

    def emit(name, depth):
        pad = "  " * depth
        lines.append(f"{pad}{'ROOT' if depth == 0 else 'JOINT'} {name}")
        lines.append(pad + "{")
        lines.append(f"{pad}  OFFSET 0.0 {0.0 if depth == 0 else 10.0} 0.0")
        channels = (POSITIONS + ROTATIONS) if depth == 0 and root_positions else ROTATIONS
        lines.append(f"{pad}  CHANNELS {len(channels)} " + " ".join(channels))
        for child in kids[name]:
            emit(child, depth + 1)
        if not kids[name]:
            lines.append(f"{pad}  End Site")
            lines.append(pad + "  {")
            lines.append(f"{pad}    OFFSET 0.0 5.0 0.0")
            lines.append(pad + "  }")
        lines.append(pad + "}")

    emit(joints[0][0], 0)
    return lines


def _wrap(deg):
    return deg - 360.0 * np.ceil((deg - 180.0) / 360.0)


def _rotation_motion(rng, frames, n_channels, turn_first):
    """Beat-locked sinusoid mixtures plus slow drift and noise, in degrees.

    Each channel's mixture (weights and phases) is fixed by its index; the
    seed draws the offsets and the noise.  Seeds therefore vary the signals
    but barely the amount of sifting they need, which keeps the spread
    between runs low.
    """
    t = np.arange(frames) / FPS
    shape = np.random.default_rng(0)  # the same mixtures for every seed
    out = np.empty((frames, n_channels))
    for c in range(n_channels):
        weights = shape.uniform(0.3, 1.0, 5)
        phases = shape.uniform(0.0, 2 * np.pi, 5)
        drift_hz = shape.uniform(1.0 / 40.0, 1.0 / 15.0)
        x = rng.uniform(-40.0, 40.0) + rng.normal(0.0, 0.3, frames)
        for k, (mult, amp) in enumerate(((0.5, 14.0), (1.0, 18.0), (2.0, 8.0), (4.0, 3.0))):
            x += weights[k] * amp * np.sin(2 * np.pi * mult * BEAT_HZ * t + phases[k])
        x += 12.0 * weights[4] * np.sin(2 * np.pi * drift_hz * t + phases[4])
        out[:, c] = x
    if turn_first:
        # the root keeps turning, so its yaw crosses the +-180 wrap point
        out[:, 0] += 15.0 * t
    return out


def _format_frames(values):
    row = " ".join(["%.6f"] * values.shape[1])
    return [row % tuple(r) for r in values]


def make_clip(seed, frames, joints=SKELETON, root_positions=True):
    """BVH text and the unwrapped rotation channels as the parser will read them.

    Returns ``(text, rotations)`` where ``rotations`` maps each rotation label
    to its continuous value, i.e. the written (wrapped, 6-decimal) value
    unwrapped by the documented rule.
    """
    rng = np.random.default_rng(seed)
    labels = rotation_labels(joints)
    rot = _rotation_motion(rng, frames, len(labels), turn_first=root_positions)
    wrapped = np.round(_wrap(rot), 6)
    columns = []
    if root_positions:
        t = np.arange(frames) / FPS
        pos = np.column_stack((
            20.0 * np.sin(2 * np.pi * t / 17.0),
            90.0 + 2.0 * np.sin(2 * np.pi * BEAT_HZ * t),
            0.5 * t * 30.0,
        ))
        columns.append(np.round(pos, 6))
    columns.append(wrapped)
    table = np.column_stack(columns)
    lines = _hierarchy(joints, root_positions)
    lines += ["MOTION", f"Frames: {frames}", f"Frame Time: {1.0 / FPS:.6f}"]
    lines += _format_frames(table)
    steps = np.diff(wrapped, axis=0)
    turns = np.vstack((np.zeros((1, wrapped.shape[1])), np.cumsum(np.round(steps / 360.0), axis=0)))
    unwrapped = wrapped - 360.0 * turns
    return "\n".join(lines) + "\n", dict(zip(labels, unwrapped.T))


def write_click_wav(path, seed, seconds, rate=22050):
    """16-bit mono click track at BPM with accented downbeats."""
    rng = np.random.default_rng(seed)
    n = int(seconds * rate)
    audio = rng.normal(0.0, 0.005, n)
    offset = rng.uniform(0.1, 0.4)
    click_t = np.arange(int(0.03 * rate)) / rate
    click = np.sin(2 * np.pi * 1500.0 * click_t) * np.exp(-click_t / 0.008)
    period = 60.0 / BPM
    for k in range(int((seconds - offset) / period)):
        start = int(round((offset + k * period) * rate))
        stop = min(n, start + click.size)
        audio[start:stop] += (0.8 if k % 4 == 0 else 0.5) * click[: stop - start]
    pcm = np.clip(np.round(audio * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(pcm.tobytes())


def blend_spec(swap, mix, trend):
    """Swap IMFs 1-2 on ``swap``, blend at 0.5 on ``mix``, exchange trends on ``trend``."""
    return {
        "target_rate": FPS,
        "operations": [
            {"kind": "swap", "imfs": [1, 2], "channels": list(swap)},
            {"kind": "blend", "alpha": 0.5, "channels": list(mix)},
            {"kind": "trend_exchange", "channels": list(trend)},
        ],
    }


def write_text(path, text):
    with open(path, "w") as handle:
        handle.write(text)


def write_json(path, obj):
    write_text(path, json.dumps(obj, indent=1) + "\n")
