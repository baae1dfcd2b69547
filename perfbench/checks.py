"""Output checks for the pipeline benchmark.

Each check reads a stage's output with the standard library and numpy only
(never through ``hhtmotion``) and returns an error message, or None when the
output is correct.  A failed check marks the invocation that wrote the file
as failed, which feeds the error rate.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

BPM_TOLERANCE = 0.01
RECONSTRUCTION_TOLERANCE = 1e-9


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def archive(path, expected):
    """IMFs plus trend of every channel rebuild the unwrapped input channel."""
    with open(path) as handle:
        obj = json.load(handle)
    channels = obj["channels"]
    labels = [entry["label"] for entry in channels]
    if labels != list(expected):
        return f"{path}: channels {labels[:3]}... differ from the selection"
    counts = {len(entry["imfs"]) for entry in channels}
    if len(counts) != 1:
        return f"{path}: channels have different IMF counts {sorted(counts)}"
    for entry in channels:
        want = expected[entry["label"]]
        got = np.asarray(entry["trend"], dtype=np.float64)
        for imf in entry["imfs"]:
            got = got + np.asarray(imf, dtype=np.float64)
        if got.shape != want.shape:
            return f"{path}: {entry['label']} has {got.size} samples, expected {want.size}"
        scale = float(np.max(np.abs(want)))
        error = float(np.max(np.abs(got - want)))
        if error > RECONSTRUCTION_TOLERANCE * scale:
            return (f"{path}: {entry['label']} reconstructs with error {error:.3g} "
                    f"(scale {scale:.3g})")
    return None


def beat_grid(path, bpm):
    with open(path) as handle:
        obj = json.load(handle)
    if abs(obj["bpm"] - bpm) > BPM_TOLERANCE * bpm:
        return f"{path}: tracked {obj['bpm']:.3f} BPM, expected {bpm} within 1%"
    if len(obj["beats"]) < 2 or len(obj["strong"]) != len(obj["beats"]):
        return f"{path}: malformed beat grid"
    return None


def analysis_report(path, labels):
    with open(path) as handle:
        obj = json.load(handle)
    got = [entry["label"] for entry in obj["channels"]]
    if got != list(labels):
        return f"{path}: report covers {len(got)} channels, expected {len(labels)}"
    if obj["summary"]["imf_count"] < 1:
        return f"{path}: report has no IMFs"
    return None


def spectrum_csv(path, cells):
    with open(path) as handle:
        header = handle.readline()
        rows = sum(1 for _ in handle)
    if header.strip() != "time_bin,freq_bin,energy":
        return f"{path}: unexpected header {header.strip()!r}"
    if rows != cells:
        return f"{path}: {rows} rows, expected {cells} grid cells"
    return None


def bvh_clip(path, frames, width):
    """The file is BVH with ``frames`` rows of ``width`` numbers each."""
    with open(path) as handle:
        text = handle.read()
    if not text.startswith("HIERARCHY") or "\nMOTION\n" not in text:
        return f"{path}: not a BVH file"
    motion = text.split("\nMOTION\n", 1)[1].splitlines()
    try:
        declared = int(motion[0].split(":")[1])
        rows = [[float(v) for v in line.split()] for line in motion[2:] if line.strip()]
    except (IndexError, ValueError) as exc:
        return f"{path}: unparseable motion section ({exc})"
    if declared != frames or len(rows) != frames:
        return f"{path}: {declared} declared / {len(rows)} rows, template has {frames}"
    if any(len(row) != width for row in rows):
        return f"{path}: a frame does not have {width} channels"
    return None
