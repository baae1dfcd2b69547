"""Shared fixtures builders for the test suite."""

import struct
import wave

import numpy as np

from hhtmotion.signal_core import TimeSeries


def tone(freq, duration, rate, amp=1.0, phase=0.0):
    t = np.arange(0, duration, 1.0 / rate)
    return TimeSeries(amp * np.sin(2 * np.pi * freq * t + phase), rate)


def cosine(freq, duration, rate, amp=1.0, phase=0.0):
    t = np.arange(0, duration, 1.0 / rate)
    return TimeSeries(amp * np.cos(2 * np.pi * freq * t + phase), rate)


BEAT_HZ = 130.0 / 60.0
TONE_MULTIPLES = (0.5, 1.0, 2.0, 4.0)


def tone_sum_clip(seed, frames, n_channels, rate=120.0):
    """Dance-like joint angles, in degrees, and the tones they are built from.

    Each channel sums four beat-locked tones at 0.5, 1, 2 and 4 times a
    130 BPM beat, a slow drift, an offset and noise.  The tones' weights and
    phases are fixed by the channel's index; ``seed`` draws the offsets and
    the noise.  Returns ``(series, tones)``: a labelled (channels, frames)
    series and the (channels, 4, frames) tones, in ``TONE_MULTIPLES`` order.
    """
    rng = np.random.default_rng(seed)
    shape = np.random.default_rng(0)  # the same mixtures for every seed
    t = np.arange(frames) / rate
    samples = np.empty((n_channels, frames))
    tones = np.empty((n_channels, len(TONE_MULTIPLES), frames))
    for c in range(n_channels):
        weights = shape.uniform(0.3, 1.0, 5)
        phases = shape.uniform(0.0, 2 * np.pi, 5)
        drift_hz = shape.uniform(1.0 / 40.0, 1.0 / 15.0)
        for k, (mult, amp) in enumerate(zip(TONE_MULTIPLES, (14.0, 18.0, 8.0, 3.0))):
            tones[c, k] = weights[k] * amp * np.sin(2 * np.pi * mult * BEAT_HZ * t + phases[k])
        drift = 12.0 * weights[4] * np.sin(2 * np.pi * drift_hz * t + phases[4])
        samples[c] = rng.uniform(-40.0, 40.0) + rng.normal(0.0, 0.3, frames)
        samples[c] += tones[c].sum(axis=0) + drift
    labels = [f"joint{c}" for c in range(n_channels)]
    return TimeSeries(samples, rate, labels=labels), tones


def noise_clip(kind, seed, frames, n_channels, rate=120.0):
    """Seeded noise channels with no tones in them: ``"white"`` Gaussian
    noise of unit variance, or a ``"walk"`` that sums it sample by sample."""
    samples = np.random.default_rng(seed).standard_normal((n_channels, frames))
    if kind == "walk":
        samples = np.cumsum(samples, axis=-1)
    return TimeSeries(samples, rate, labels=[f"joint{c}" for c in range(n_channels)])


GOLDEN_RATIO = (1.0 + 5.0 ** 0.5) / 2.0


def golden_ladder(rate=120.0, duration=20.0):
    """Five unit sines at 6 / phi**k Hz, k = 0..4, highest first: each
    frequency is the sum of the next two, so the ladder is the Fibonacci
    relation's positive control.  Returns the (5, samples) array."""
    t = np.arange(int(duration * rate)) / rate
    return np.array([np.sin(2 * np.pi * 6.0 / GOLDEN_RATIO ** k * t) for k in range(5)])


def pv_hilbert_oracle(s):
    """Direct O(N^2) principal-value circular convolution.

    Closed-form discrete kernel: for even N, k[d] = (2/N) cot(pi d / N) for
    odd d and 0 for even d; for odd N, k[d] = (cot(pi d / N) - (-1)^d /
    sin(pi d / N)) / N for d != 0, and k[0] = 0.
    """
    s = np.asarray(s, dtype=np.float64)
    n = s.size
    d = np.arange(n)
    kern = np.zeros(n)
    if n % 2 == 0:
        odd = d % 2 == 1
        kern[odd] = 2.0 / n / np.tan(np.pi * d[odd] / n)
    else:
        angle = np.pi * d[1:] / n
        kern[1:] = (1.0 / np.tan(angle) - (-1.0) ** d[1:] / np.sin(angle)) / n
    out = np.empty(n)
    for i in range(n):
        out[i] = np.sum(s * kern[(i - d) % n])
    return out


def click_signal(bpm, duration, rate, click_len=0.005, amp=0.9, seed=1234):
    """Audio-like click train: short noise bursts at the beat period."""
    n = int(round(duration * rate))
    rng = np.random.default_rng(seed)
    samples = np.zeros(n)
    period = 60.0 / bpm
    burst = int(round(click_len * rate))
    k = 0
    while True:
        start = int(round(k * period * rate))
        if start >= n:
            break
        stop = min(start + burst, n)
        samples[start:stop] = amp * rng.uniform(0.5, 1.0, stop - start) * np.sign(
            rng.standard_normal(stop - start)
        )
        k += 1
    return TimeSeries(samples, rate)


def write_wav_pcm16(path, series):
    scaled = np.clip(series.samples, -1.0, 1.0)
    data = (scaled * 32767.0).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(int(series.rate))
        handle.writeframes(data.tobytes())


def write_wav_float32(path, series, channels=1):
    """Minimal IEEE-float WAV writer (stdlib wave cannot produce format 3)."""
    frames = np.asarray(series.samples, dtype="<f4")
    if channels > 1:
        frames = np.repeat(frames[:, None], channels, axis=1)
    payload = frames.tobytes()
    rate = int(series.rate)
    block_align = 4 * channels
    header = b"RIFF" + struct.pack("<I", 4 + 8 + 16 + 8 + len(payload)) + b"WAVE"
    fmt = b"fmt " + struct.pack(
        "<IHHIIHH", 16, 3, channels, rate, rate * block_align, block_align, 32
    )
    data = b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as handle:
        handle.write(header + fmt + data + payload)


MINI_BVH = """HIERARCHY
ROOT hips
{
\tOFFSET 0.000000 0.000000 0.000000
\tCHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation
\tEnd Site
\t{
\t\tOFFSET 0.000000 10.000000 0.000000
\t}
}
MOTION
Frames: 2
Frame Time: 0.025000
0.000000 0.000000 0.000000 10.000000 20.000000 30.000000
1.000000 2.000000 3.000000 11.000000 21.000000 31.000000
"""


def bvh_text(joint_signals, frame_time=0.025, positions=None):
    """BVH source for a two-joint skeleton with given rotation channel data.

    ``joint_signals`` maps "joint.Channel" labels to equal-length arrays for
    the joints "hips" (6 channels) and "chest" (3 channels).
    """
    lengths = {len(v) for v in joint_signals.values()}
    assert len(lengths) == 1
    n = lengths.pop()
    labels = [
        "hips.Xposition",
        "hips.Yposition",
        "hips.Zposition",
        "hips.Zrotation",
        "hips.Xrotation",
        "hips.Yrotation",
        "chest.Zrotation",
        "chest.Xrotation",
        "chest.Yrotation",
    ]
    columns = []
    for label in labels:
        if label in joint_signals:
            columns.append(np.asarray(joint_signals[label], dtype=float))
        else:
            columns.append(np.zeros(n))
    rows = np.stack(columns, axis=1)
    body = "\n".join(" ".join(f"{v:.6f}" for v in row) for row in rows)
    return f"""HIERARCHY
ROOT hips
{{
\tOFFSET 0.000000 0.000000 0.000000
\tCHANNELS 6 Xposition Yposition Zposition Zrotation Xrotation Yrotation
\tJOINT chest
\t{{
\t\tOFFSET 0.000000 5.000000 0.000000
\t\tCHANNELS 3 Zrotation Xrotation Yrotation
\t\tEnd Site
\t\t{{
\t\t\tOFFSET 0.000000 5.000000 0.000000
\t\t}}
\t}}
}}
MOTION
Frames: {n}
Frame Time: {frame_time:.6f}
{body}
"""


def random_skeleton_bvh(rng, max_joints=30, n_frames=500, frame_time=0.025):
    """Randomized skeleton/motion BVH text for round-trip stress tests."""
    n_joints = int(rng.integers(2, max_joints + 1))
    parents = [None] + [int(rng.integers(0, i)) for i in range(1, n_joints)]
    children = {i: [] for i in range(n_joints)}
    for i, p in enumerate(parents):
        if p is not None:
            children[p].append(i)
    total_channels = 6 + 3 * (n_joints - 1)
    lines = ["HIERARCHY"]

    def emit(i, depth):
        indent = "\t" * depth
        kind = "ROOT" if parents[i] is None else "JOINT"
        lines.append(f"{indent}{kind} joint{i}")
        lines.append(indent + "{")
        off = rng.uniform(-5, 5, 3)
        lines.append(
            f"{indent}\tOFFSET {off[0]:.6f} {off[1]:.6f} {off[2]:.6f}"
        )
        if parents[i] is None:
            lines.append(
                f"{indent}\tCHANNELS 6 Xposition Yposition Zposition "
                "Zrotation Xrotation Yrotation"
            )
        else:
            lines.append(f"{indent}\tCHANNELS 3 Zrotation Xrotation Yrotation")
        if children[i]:
            for ch in children[i]:
                emit(ch, depth + 1)
        else:
            lines.append(f"{indent}\tEnd Site")
            lines.append(indent + "\t{")
            site = rng.uniform(-2, 2, 3)
            lines.append(
                f"{indent}\t\tOFFSET {site[0]:.6f} {site[1]:.6f} {site[2]:.6f}"
            )
            lines.append(indent + "\t}")
        lines.append(indent + "}")

    emit(0, 0)
    lines.append("MOTION")
    lines.append(f"Frames: {n_frames}")
    lines.append(f"Frame Time: {frame_time:.6f}")
    frames = rng.uniform(-179.0, 179.0, (n_frames, total_channels))
    frames[:, :3] = rng.uniform(-50.0, 50.0, (n_frames, 3))
    for row in frames:
        lines.append(" ".join(f"{v:.6f}" for v in row))
    return "\n".join(lines) + "\n"
