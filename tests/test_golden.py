"""Byte identity of the pipeline's outputs, checked against ``tests/golden.json``.

``run_pipeline`` runs a fixed set of CLI invocations in-process: an NA-MEMD
clip pair through decompose, beats from a WAV, analyze, spectrum and blend; a
wide clip through ``--method emd`` (one channel is a ramp with no IMF); and two
short clips through ``--method memd``.  The inputs come from ``helpers``, and
every path is relative to a fresh working directory, so manifests record the
same paths wherever the test runs.

Two checks, in this order:

- **Digests, in every environment.**  Each invocation's exit code, and for
  each array decoded from a file the directory holds afterwards (JSON numbers,
  CSV columns, BVH frames, WAV samples) its shape, sum and sum of squares.
  The sum of squares must agree within ``RTOL`` of itself, and the sum within
  ``RTOL`` of the array's scale ``sqrt(size * sum of squares)``, since IMFs
  sum to almost nothing by cancellation.
- **Exact hashes, in a known environment.**  The sha256 of every file
  (inputs, outputs, sidecars and manifests) and of each invocation's stdout
  and stderr, keyed by ``numpy <version> <machine>``: numpy's FFT, BLAS and
  SIMD loops may round differently in another version or on another CPU.  An
  environment with no entry checks the digests alone.

After a change that moves outputs on purpose, rewrite the table with

    PYTHONPATH=src python tests/test_golden.py --write

and list the entries that moved, with the largest difference, beside the
change.  ``--write`` keeps other environments' hashes only while the digests
still hold; otherwise it drops them, as they describe outputs that are gone.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import sys
import wave
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from helpers import bvh_text, click_signal, write_wav_pcm16

from hhtmotion.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
FINGERPRINT = f"numpy {np.__version__} {platform.machine()}"

# How far rounding moves the digests, measured by putting relative noise into
# the steps whose last bits can differ between numpy versions and CPUs:
# - every spline envelope (EMD and MEMD) at 1e-15: at most 3e-13 (an EMD
#   trend, which keeps every sift's rounding);
# - the FFTs at 1e-15: 1.5e-15;
# - the MEMD directions, hence the projections that pick MEMD's extrema: no
#   digest moved at up to 1e-6; at 1e-4 extrema moved and an NA-MEMD trend
#   moved by 1e-3.
# So noise at the level of rounding leaves every digest within RTOL, with a
# margin of 300.  The digests that can jump instead are those behind a
# decision: MEMD's archives and all that is made from them (extrema of a
# projection), and analyze's excluded fractions and spectrum cells
# (thresholds and bins).  No decision flipped at 1e-9 of noise in any of the
# three steps; at 1e-6 in the envelopes, an excluded fraction moved by 4e-3.
# Writing BVH values at 5 decimals instead of 6 moves the blend outputs'
# digests by 2e-9 to 5e-9, well past RTOL.
RTOL = 1e-10

ROTATIONS = ["hips.Zrotation", "hips.Xrotation", "hips.Yrotation",
             "chest.Zrotation", "chest.Xrotation", "chest.Yrotation"]
HIPS = ROTATIONS[:3]
FRAME_TIME = 0.025


def _motion(seed, labels, frames):
    """Three seeded sines per channel: angles in degrees at 40 frames/s."""
    rng = np.random.default_rng(seed)
    t = np.arange(frames) * FRAME_TIME
    return {label: sum(rng.uniform(5, 40) * np.sin(2 * np.pi * rng.uniform(0.2, 4) * t
                                                   + rng.uniform(0, 2 * np.pi))
                       for _ in range(3))
            for label in labels}


def _write_inputs():
    """The pipeline's inputs, in the working directory."""
    def clip(name, signals):
        Path(name).write_text(bvh_text(signals, frame_time=FRAME_TIME))

    clip("a.bvh", _motion(1, ROTATIONS, 480))
    clip("b.bvh", _motion(2, ROTATIONS, 480))
    # the ramp has no extrema, so EMD gives it no IMF and pads its row
    clip("wide.bvh", dict(_motion(3, ROTATIONS, 480),
                          **{"hips.Xposition": np.linspace(-20.0, 20.0, 480)}))
    clip("short0.bvh", _motion(4, HIPS, 240))
    clip("short1.bvh", _motion(5, HIPS, 240))
    write_wav_pcm16("clicks.wav", click_signal(120.0, 4.0, 22050))
    for name, swap, mix, trend in [("spec.json", ROTATIONS[:3], ROTATIONS[3:5], ROTATIONS[5:]),
                                   ("short_spec.json", HIPS[:1], HIPS[1:2], HIPS[2:])]:
        Path(name).write_text(json.dumps({"operations": [
            {"kind": "swap", "imfs": [1, 2], "channels": swap},
            {"kind": "blend", "alpha": 0.5, "channels": mix},
            {"kind": "trend_exchange", "channels": trend},
        ]}))


def _steps():
    rotations, hips = ",".join(ROTATIONS), ",".join(HIPS)
    steps = [
        ["decompose", "a.bvh", "--channels", rotations, "--out", "a.json"],
        ["decompose", "b.bvh", "--channels", rotations, "--out", "b.json"],
        ["beats", "clicks.wav", "--out", "beats.json"],
        ["analyze", "a.json", "--beats", "beats.json", "--out", "analysis.json"],
        ["spectrum", "a.json", "--out", "spectrum.csv"],
        ["blend", "a.json", "b.json", "--spec", "spec.json", "--template", "a.bvh",
         "--out", "blend.bvh"],
        ["decompose", "wide.bvh", "--channels", "hips.Xposition," + rotations,
         "--method", "emd", "--out", "wide.json"],
        ["beats", "--bpm", "120", "--duration", "12", "--out", "wide_beats.json"],
        ["analyze", "wide.json", "--beats", "wide_beats.json", "--out", "wide_analysis.json"],
        ["spectrum", "wide.json", "--channel", "chest.Xrotation", "--out", "wide_spectrum.csv"],
        ["blend", "wide.json", "wide.json", "--spec", "spec.json", "--template", "wide.bvh",
         "--out", "wide_blend.bvh"],
    ]
    for i in range(2):
        steps += [
            ["decompose", f"short{i}.bvh", "--channels", hips, "--method", "memd",
             "--out", f"short{i}.json"],
            ["analyze", f"short{i}.json", "--out", f"short{i}_analysis.json"],
            ["spectrum", f"short{i}.json", "--out", f"short{i}_spectrum.csv"],
        ]
    steps.append(["blend", "short0.json", "short1.json", "--spec", "short_spec.json",
                  "--template", "short0.bvh", "--out", "short_blend.bvh"])
    return steps


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _is_numeric(value) -> bool:
    if isinstance(value, list):
        return all(map(_is_numeric, value))
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_arrays(value, path, out):
    """Every number and rectangular list of numbers in ``value``, by path."""
    if isinstance(value, dict):
        for key, item in value.items():
            _json_arrays(item, f"{path}.{key}", out)
    elif _is_numeric(value):
        out[path] = np.asarray(value, dtype=np.float64)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _json_arrays(item, f"{path}[{i}]", out)


def _decoded_arrays(name):
    """The arrays file ``name`` holds, keyed by ``name`` and where they are."""
    out = {}
    if name.endswith(".json"):
        with open(name) as handle:
            _json_arrays(json.load(handle), name, out)
    elif name.endswith(".csv"):
        with open(name) as handle:
            header = handle.readline().strip().split(",")
            table = np.loadtxt(handle, delimiter=",", ndmin=2)
        out.update((f"{name} {column}", table[:, i]) for i, column in enumerate(header))
    elif name.endswith(".bvh"):
        with open(name) as handle:
            motion = handle.read().split("Frame Time:", 1)[1].split()
        out[f"{name} frames"] = np.array(motion[1:], dtype=np.float64)
    elif name.endswith(".wav"):
        with wave.open(name) as handle:
            out[f"{name} samples"] = np.frombuffer(handle.readframes(handle.getnframes()),
                                                   dtype="<i2").astype(np.float64)
    else:
        raise AssertionError(f"no decoder for {name}")
    return out


def run_pipeline():
    """``(hashes, digests)`` of one run of ``_steps`` in a fresh directory."""
    runner = CliRunner()
    hashes, digests = {}, {}
    with runner.isolated_filesystem():
        _write_inputs()
        for i, argv in enumerate(_steps(), start=1):
            result = runner.invoke(main, argv)
            step = f"step {i:02d} {argv[0]} {argv[1]}"
            digests[f"{step} exit"] = result.exit_code
            hashes[f"{step} stdout"] = _sha256(result.stdout_bytes)
            hashes[f"{step} stderr"] = _sha256(result.stderr_bytes or b"")
        for name in sorted(os.listdir(".")):
            hashes[name] = _sha256(Path(name).read_bytes())
            for key, array in _decoded_arrays(name).items():
                digests[key] = [list(array.shape), math.fsum(array.ravel()),
                                math.fsum(np.square(array).ravel())]
    return hashes, digests


def _digest_holds(expected, actual) -> bool:
    if not isinstance(expected, list):  # an exit code
        return expected == actual
    shape, total, squares = expected
    scale = math.sqrt(math.prod(shape) * squares)
    return (actual[0] == shape
            and abs(actual[1] - total) <= RTOL * scale
            and abs(actual[2] - squares) <= RTOL * squares)


def digest_mismatches(expected, actual) -> list:
    """Keys missing from either table, or whose digests disagree."""
    return sorted(key for key in expected.keys() | actual.keys()
                  if key not in expected or key not in actual
                  or not _digest_holds(expected[key], actual[key]))


def test_outputs_match_the_golden_table():
    hashes, digests = run_pipeline()
    table = json.loads(GOLDEN.read_text())
    moved = digest_mismatches(table["digests"], digests)
    assert not moved, f"digests moved: {moved}"
    expected = table["exact"].get(FINGERPRINT)
    if expected is not None:
        moved = sorted(key for key in expected.keys() | hashes.keys()
                       if expected.get(key) != hashes.get(key))
        assert not moved, f"bytes moved under {FINGERPRINT}: {moved}"


def write_table():
    hashes, digests = run_pipeline()
    table = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else None
    if table is None or digest_mismatches(table["digests"], digests):
        table = {"digests": digests, "exact": {}}
    table["exact"][FINGERPRINT] = hashes
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: {len(digests)} digests; hashes for "
          + ", ".join(sorted(table["exact"])))


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_table()
