import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import MINI_BVH, bvh_text, click_signal, write_wav_pcm16

import hhtmotion
from hhtmotion import cli
from hhtmotion.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def make_two_tone_bvh(path, duration=10.0, fps=40.0):
    t = np.arange(int(duration * fps)) / fps
    text = bvh_text(
        {
            "hips.Xrotation": 30 * np.sin(2 * np.pi * 1.0 * t),
            "hips.Yrotation": 30 * np.sin(2 * np.pi * 1.0 * t + 0.7)
            + 10 * np.sin(2 * np.pi * 4.0 * t),
        },
        frame_time=1.0 / fps,
    )
    path.write_text(text)
    return path


class TestDecompose:
    def test_two_tone_archive(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        out = tmp_path / "archive.json"
        result = runner.invoke(
            main,
            [
                "decompose", str(bvh),
                "--channels", "hips.Xrotation,hips.Yrotation",
                "--method", "na-memd",
                "--directions", "8",
                "--seed", "0",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        archive = json.loads(out.read_text())
        assert len(archive["channels"]) == 2
        assert len(archive["channels"][0]["imfs"]) >= 2
        manifest = json.loads((tmp_path / "archive.json.manifest.json").read_text())
        assert manifest["command"] == "decompose"
        assert manifest["seed"] == 0
        assert str(bvh) in manifest["inputs"]

    def test_bad_channel_exits_3(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        result = runner.invoke(
            main,
            [
                "decompose", str(bvh),
                "--channels", "hips.Qrotation",
                "--out", str(tmp_path / "x.json"),
            ],
        )
        assert result.exit_code == 3
        assert "hips.Qrotation" in result.output

    def test_deterministic_archives(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                [
                    "decompose", str(bvh),
                    "--channels", "hips.Xrotation,hips.Yrotation",
                    "--method", "na-memd",
                    "--directions", "8",
                    "--seed", "7",
                    "--out", str(out),
                ],
            )
            assert result.exit_code == 0, result.output
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_emd_method_single_channel(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        out = tmp_path / "uni.json"
        result = runner.invoke(
            main,
            [
                "decompose", str(bvh),
                "--channels", "hips.Yrotation",
                "--method", "emd",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        archive = json.loads(out.read_text())
        assert len(archive["channels"]) == 1

    def test_emd_method_pads_channels_to_common_count(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        out = tmp_path / "multi.json"
        result = runner.invoke(
            main,
            [
                "decompose", str(bvh),
                "--channels", "hips.Xrotation,hips.Yrotation",
                "--method", "emd",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        archive = json.loads(out.read_text())
        counts = {len(ch["imfs"]) for ch in archive["channels"]}
        assert len(counts) == 1

    def test_unparseable_bvh_exits_2(self, runner, tmp_path):
        bad = tmp_path / "bad.bvh"
        bad.write_text("HIERARCHY\nnothing sensible\n")
        result = runner.invoke(
            main,
            ["decompose", str(bad), "--channels", "x", "--out",
             str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "edit, expected",
        [
            (lambda text: text.split("Frames:")[0] + "Frames: 0\nFrame Time: 0.025\n",
             "frame count"),
            (lambda text: text.replace("Frame Time: 0.025000", "Frame Time: 0"),
             "positive frame time"),
            (lambda text: text.replace("Frame Time: 0.025000", "Frame Time: -0.025"),
             "positive frame time"),
        ],
        ids=["zero-frames", "zero-frame-time", "negative-frame-time"],
    )
    def test_bad_motion_header_exits_2(self, runner, tmp_path, edit, expected):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh", fps=40.0)
        bvh.write_text(edit(bvh.read_text()))
        result = runner.invoke(
            main,
            ["decompose", str(bvh), "--channels", "hips.Xrotation",
             "--out", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2, result.output
        assert expected in result.output
        assert "Traceback" not in result.output

    def test_skeleton_without_channels_exits_2(self, runner, tmp_path):
        bvh = tmp_path / "empty.bvh"
        bvh.write_text(
            "HIERARCHY\nROOT hips\n{\n\tOFFSET 0 0 0\n\tEnd Site\n\t{\n"
            "\t\tOFFSET 0 1 0\n\t}\n}\nMOTION\nFrames: 2\nFrame Time: 0.025\n"
        )
        result = runner.invoke(
            main,
            ["decompose", str(bvh), "--channels", "hips.Xrotation",
             "--out", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2, result.output
        assert "declares channels" in result.output

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_channel_exits_2(self, runner, tmp_path, bad):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        lines = bvh.read_text().splitlines()
        row = lines[-5].split()
        row[4] = bad  # hips.Xrotation
        lines[-5] = " ".join(row)
        bvh.write_text("\n".join(lines) + "\n")
        result = runner.invoke(
            main,
            ["decompose", str(bvh), "--channels", "hips.Xrotation,hips.Yrotation",
             "--out", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 2, result.output
        assert result.output.count("\n") == 1

    def test_memd_raises_directions_to_two_per_channel(self, runner, tmp_path):
        """36 channels need 72 directions, above the default 64, as in na-memd."""
        joints = [f"j{k}" for k in range(12)]
        labels = [f"{joint}.{axis}rotation" for joint in joints for axis in "ZXY"]
        t = np.arange(200) / 40.0
        motion = np.stack([30 * np.sin(2 * np.pi * (0.5 + 0.1 * c) * t + c)
                           for c in range(len(labels))], axis=1)
        lines = ["HIERARCHY"]
        for k, joint in enumerate(joints):
            lines += ["JOINT " + joint if k else "ROOT " + joint, "{", "OFFSET 0 1 0",
                      "CHANNELS 3 Zrotation Xrotation Yrotation"]
        lines += ["End Site", "{", "OFFSET 0 1 0", "}"] + ["}"] * len(joints)
        lines += ["MOTION", f"Frames: {t.size}", "Frame Time: 0.025"]
        lines += [" ".join(f"{v:.6f}" for v in row) for row in motion]
        bvh = tmp_path / "wide.bvh"
        bvh.write_text("\n".join(lines) + "\n")
        out = tmp_path / "wide.json"
        result = runner.invoke(
            main,
            ["decompose", str(bvh), "--channels", ",".join(labels), "--method", "memd",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        archive = json.loads(out.read_text())
        assert len(archive["channels"]) == 36
        assert archive["meta"]["direction_count"] == 72

    def test_empty_channel_list_exits_64(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        result = runner.invoke(
            main,
            ["decompose", str(bvh), "--channels", ",", "--out", str(tmp_path / "x.json")],
        )
        assert result.exit_code == 64, result.output
        assert "no channel" in result.output


class TestBeats:
    def test_fixed_grid_count(self, runner, tmp_path):
        out = tmp_path / "grid.json"
        result = runner.invoke(
            main, ["beats", "--bpm", "130", "--duration", "60.5", "--out", str(out)]
        )
        assert result.exit_code == 0, result.output
        grid = json.loads(out.read_text())
        assert len(grid["beats"]) == 131
        assert grid["bpm"] == 130.0

    def test_tracked_from_wav(self, runner, tmp_path):
        wav = tmp_path / "clicks.wav"
        write_wav_pcm16(wav, click_signal(130.0, 20.0, 22050))
        out = tmp_path / "grid.json"
        result = runner.invoke(main, ["beats", str(wav), "--out", str(out)])
        assert result.exit_code == 0, result.output
        grid = json.loads(out.read_text())
        assert grid["bpm"] == pytest.approx(130.0, abs=2.0)

    def test_both_sources_usage_error(self, runner, tmp_path):
        wav = tmp_path / "clicks.wav"
        write_wav_pcm16(wav, click_signal(120.0, 2.0, 22050))
        result = runner.invoke(
            main,
            ["beats", str(wav), "--bpm", "120", "--duration", "10",
             "--out", str(tmp_path / "g.json")],
        )
        assert result.exit_code == 64

    def test_silent_audio_exits_5(self, runner, tmp_path):
        from hhtmotion.signal_core import TimeSeries

        wav = tmp_path / "silence.wav"
        write_wav_pcm16(wav, TimeSeries(np.zeros(22050 * 3), 22050.0))
        result = runner.invoke(
            main, ["beats", str(wav), "--out", str(tmp_path / "g.json")]
        )
        assert result.exit_code == 5


class TestAnalyze:
    def make_archive(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        out = tmp_path / "archive.json"
        result = runner.invoke(
            main,
            [
                "decompose", str(bvh),
                "--channels", "hips.Xrotation,hips.Yrotation",
                "--method", "na-memd", "--directions", "8",
                "--out", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        return out

    def test_reports_written(self, runner, tmp_path):
        archive = self.make_archive(runner, tmp_path)
        grid_path = tmp_path / "grid.json"
        runner.invoke(
            main, ["beats", "--bpm", "60", "--duration", "10", "--out", str(grid_path)]
        )
        out = tmp_path / "analysis.json"
        result = runner.invoke(
            main,
            ["analyze", str(archive), "--beats", str(grid_path), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["summary"]["imf_count"] >= 2
        assert len(payload["channels"]) == 2
        assert payload["channels"][0]["wafa"]["per_imf_per_segment"]

    def test_single_imf_archive_warns_but_succeeds(self, runner, tmp_path):
        archive = tmp_path / "single.json"
        t = np.arange(400) / 40.0
        archive.write_text(
            json.dumps(
                {
                    "rate": 40.0,
                    "channels": [
                        {
                            "label": "hips.Xrotation",
                            "imfs": [list(np.sin(2 * np.pi * t))],
                            "trend": list(np.zeros(t.size)),
                        }
                    ],
                    "meta": {"sd_threshold": 0.25},
                }
            )
        )
        out = tmp_path / "analysis.json"
        result = runner.invoke(main, ["analyze", str(archive), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        assert payload["channels"][0]["fibonacci"] is None
        assert payload["warnings"]
        assert payload["summary"]["imf_count"] == 1

    def test_frequency_chain_reported(self, runner, tmp_path):
        rate = 40.0
        t = np.arange(0, 60.0, 1 / rate)
        designed = [0.5, 0.3, 0.2, 0.1, 0.1]
        archive = tmp_path / "ladder.json"
        archive.write_text(
            json.dumps(
                {
                    "rate": rate,
                    "sd_threshold": 0.25,
                    "channels": [
                        {
                            "label": "hips.Xrotation",
                            "imfs": [
                                list(np.sin(2 * np.pi * f * t + 0.6 * k))
                                for k, f in enumerate(designed)
                            ],
                            "trend": list(np.zeros(t.size)),
                        }
                    ],
                    "meta": {},
                }
            )
        )
        out = tmp_path / "analysis.json"
        result = runner.invoke(main, ["analyze", str(archive), "--out", str(out)])
        assert result.exit_code == 0, result.output
        payload = json.loads(out.read_text())
        fib = payload["channels"][0]["fibonacci"]
        assert fib["chain_length"] == 3
        assert all(abs(t[4]) <= fib["tolerance"] for t in fib["triples"])

    def test_disjoint_grid_exits_3(self, runner, tmp_path):
        archive = self.make_archive(runner, tmp_path)
        grid_path = tmp_path / "grid.json"
        runner.invoke(
            main,
            ["beats", "--bpm", "60", "--duration", "10", "--offset", "100",
             "--out", str(grid_path)],
        )
        result = runner.invoke(
            main,
            ["analyze", str(archive), "--beats", str(grid_path),
             "--out", str(tmp_path / "a.json")],
        )
        assert result.exit_code == 3


class TestSpectrum:
    def test_csv_and_sidecar(self, runner, tmp_path):
        bvh = make_two_tone_bvh(tmp_path / "dance.bvh")
        archive = tmp_path / "archive.json"
        runner.invoke(
            main,
            ["decompose", str(bvh), "--channels", "hips.Xrotation,hips.Yrotation",
             "--method", "memd", "--directions", "8", "--out", str(archive)],
        )
        out = tmp_path / "spec.csv"
        result = runner.invoke(
            main,
            ["spectrum", str(archive), "--time-bin", "0.1", "--freq-bins", "40",
             "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "time_bin,freq_bin,energy"
        sidecar = json.loads((tmp_path / "spec.json").read_text())
        assert "freq_edges" in sidecar and "overflow" in sidecar

    def test_three_samples_are_too_few_for_the_transform(self, runner, tmp_path):
        # an IMF of under 4 samples gets no Hilbert transform: analyze excludes
        # all of it and the spectrum is empty, and both still succeed
        archive = tmp_path / "short.json"
        archive.write_text(json.dumps({"rate": 10.0, "meta": {}, "channels": [
            {"label": "a", "imfs": [[1.0, -1.0, 1.0]], "trend": [0.5, 0.5, 0.5]}]}))
        result = runner.invoke(main, ["analyze", str(archive), "--out",
                                      str(tmp_path / "analysis.json")])
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "analysis.json").read_text())
        assert report["summary"]["freq_range"] == [0.0, 0.0]
        assert report["channels"][0]["wafa"]["per_imf_overall"] == [0.0]
        assert report["channels"][0]["wafa"]["excluded_fraction"] == 1.0
        out = tmp_path / "spec.csv"
        result = runner.invoke(main, ["spectrum", str(archive), "--out", str(out)])
        assert result.exit_code == 0, result.output
        rows = out.read_text().splitlines()
        assert len(rows) == 1 + 6 * 100  # 0.3 s in 0.05 s bins, 100 frequency bins
        assert {row.rsplit(",", 1)[1] for row in rows[1:]} == {"0.0"}


class TestBlend:
    def setup_archives(self, runner, tmp_path):
        fps = 40.0
        t = np.arange(400) / fps
        tone = 20 * np.sin(2 * np.pi * 1.5 * t)
        a_text = bvh_text(
            {"hips.Xrotation": tone + 0.8 * t}, frame_time=1.0 / fps
        )
        b_text = bvh_text(
            {"hips.Xrotation": tone - 1.2 * t + 8.0}, frame_time=1.0 / fps
        )
        a_bvh = tmp_path / "a.bvh"
        b_bvh = tmp_path / "b.bvh"
        a_bvh.write_text(a_text)
        b_bvh.write_text(b_text)
        archives = []
        for path in (a_bvh, b_bvh):
            out = tmp_path / (path.stem + ".json")
            result = runner.invoke(
                main,
                ["decompose", str(path), "--channels",
                 "hips.Xrotation,hips.Yrotation", "--method", "memd",
                 "--directions", "8", "--out", str(out)],
            )
            assert result.exit_code == 0, result.output
            archives.append(out)
        return a_bvh, archives

    def test_empty_spec_round_trips_template(self, runner, tmp_path):
        template, (arch_a, arch_b) = self.setup_archives(runner, tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"operations": []}))
        out = tmp_path / "out.bvh"
        result = runner.invoke(
            main,
            ["blend", str(arch_a), str(arch_b), "--spec", str(spec),
             "--template", str(template), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        from hhtmotion.mocap_io import parse_bvh

        original = parse_bvh(template.read_text())
        blended = parse_bvh(out.read_text())
        col = original.column("hips.Xrotation")
        assert np.max(np.abs(original.frames[:, col] - blended.frames[:, col])) < 1e-5

    def test_blend_writes_the_template_hierarchy_as_read(self, runner, tmp_path):
        # a repeated joint name, an offset %.6f would round and a layout of
        # two spaces: the blended clip declares the template's skeleton unchanged
        t = np.arange(200) / 40.0
        text = bvh_text({"hips.Xrotation": 30 * np.sin(2 * np.pi * 1.5 * t),
                         "hips.Yrotation": 20 * np.sin(2 * np.pi * 0.7 * t)})
        text = (text.replace("JOINT chest", "JOINT hips").replace("\t", "  ")
                .replace("OFFSET 0.000000 5.000000", "OFFSET 0 2.5e-7", 1))
        hierarchy = text[:text.index("MOTION")]
        template = tmp_path / "clip.bvh"
        template.write_text(text)
        archive = tmp_path / "clip.json"
        result = runner.invoke(main, ["decompose", str(template), "--channels",
                                      "hips.Xrotation,hips.Yrotation", "--method", "memd",
                                      "--directions", "8", "--out", str(archive)])
        assert result.exit_code == 0, result.output
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"operations": []}))
        out = tmp_path / "out.bvh"
        result = runner.invoke(main, ["blend", str(archive), str(archive), "--spec", str(spec),
                                      "--template", str(template), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "JOINT hips\n" in hierarchy and "OFFSET 0 2.5e-7 0.000000\n" in hierarchy
        assert out.read_text().startswith(hierarchy + "MOTION\n")

    def test_blend_aligns_at_the_template_rate(self, runner, tmp_path):
        # "Frame Time: 0.008333" is 120.0048 fps: a spec's target_rate of 120
        # is ignored, so an empty spec gives back the template's columns exactly
        from hhtmotion.mocap_io import parse_bvh

        t = np.arange(240) / 120.0
        template = tmp_path / "clip.bvh"
        template.write_text(bvh_text(
            {"hips.Xrotation": 30 * np.sin(2 * np.pi * 1.5 * t) + 2 * t,
             "hips.Yrotation": 20 * np.sin(2 * np.pi * 0.7 * t) - 5.0},
            frame_time=1.0 / 120.0))
        assert "Frame Time: 0.008333\n" in template.read_text()
        archive = tmp_path / "clip.json"
        result = runner.invoke(main, ["decompose", str(template), "--channels",
                                      "hips.Xrotation,hips.Yrotation", "--method", "memd",
                                      "--directions", "8", "--out", str(archive)])
        assert result.exit_code == 0, result.output
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"target_rate": 120, "operations": []}))
        out = tmp_path / "out.bvh"
        result = runner.invoke(main, ["blend", str(archive), str(archive), "--spec", str(spec),
                                      "--template", str(template), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert np.array_equal(parse_bvh(out.read_text()).frames,
                              parse_bvh(template.read_text()).frames)
        manifest = json.loads((tmp_path / "out.bvh.manifest.json").read_text())
        assert manifest["parameters"] == {}

    def test_total_swap_matches_b(self, runner, tmp_path):
        template, (arch_a, arch_b) = self.setup_archives(runner, tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {"operations": [{"kind": "swap"}, {"kind": "trend_exchange"}]}
            )
        )
        out = tmp_path / "out.bvh"
        result = runner.invoke(
            main,
            ["blend", str(arch_a), str(arch_b), "--spec", str(spec),
             "--template", str(template), "--out", str(out)],
        )
        assert result.exit_code == 0, result.output
        archive_b = json.loads(arch_b.read_text())
        expected = np.sum(archive_b["channels"][0]["imfs"], axis=0) + np.asarray(
            archive_b["channels"][0]["trend"]
        )
        from hhtmotion.mocap_io import parse_bvh

        blended = parse_bvh(out.read_text())
        col = blended.column("hips.Xrotation")
        assert np.max(np.abs(blended.frames[:, col] - expected)) < 1e-5

    def test_bad_spec_exits_6(self, runner, tmp_path):
        template, (arch_a, arch_b) = self.setup_archives(runner, tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"operations": [{"kind": "explode"}]}))
        result = runner.invoke(
            main,
            ["blend", str(arch_a), str(arch_b), "--spec", str(spec),
             "--template", str(template), "--out", str(tmp_path / "o.bvh")],
        )
        assert result.exit_code == 6

    def test_unequal_channel_lengths_exit_2(self, runner, tmp_path):
        template, (arch_a, arch_b) = self.setup_archives(runner, tmp_path)
        archive = json.loads(arch_a.read_text())
        short = archive["channels"][1]
        short["imfs"] = [c[:-10] for c in short["imfs"]]
        short["trend"] = short["trend"][:-10]
        arch_a.write_text(json.dumps(archive))
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"operations": []}))
        result = runner.invoke(
            main,
            ["blend", str(arch_a), str(arch_b), "--spec", str(spec),
             "--template", str(template), "--out", str(tmp_path / "o.bvh")],
        )
        assert result.exit_code == 2, result.output
        assert "equal lengths" in result.output
        assert "Traceback" not in result.output

    def test_manifest_written(self, runner, tmp_path):
        template, (arch_a, arch_b) = self.setup_archives(runner, tmp_path)
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"operations": []}))
        out = tmp_path / "out.bvh"
        runner.invoke(
            main,
            ["blend", str(arch_a), str(arch_b), "--spec", str(spec),
             "--template", str(template), "--out", str(out)],
        )
        manifest = json.loads((tmp_path / "out.bvh.manifest.json").read_text())
        assert manifest["command"] == "blend"
        assert len(manifest["inputs"]) == 4


def test_zero_imf_archive_through_analyze_spectrum_and_blend(runner, tmp_path):
    # a ramp has no extrema, so emd finds no IMF and the archive holds "imfs": []
    bvh = tmp_path / "ramp.bvh"
    bvh.write_text(bvh_text({"hips.Xrotation": np.linspace(-30.0, 30.0, 400)}))
    archive = tmp_path / "ramp.json"
    result = runner.invoke(main, ["decompose", str(bvh), "--channels", "hips.Xrotation",
                                  "--method", "emd", "--out", str(archive)])
    assert result.exit_code == 0, result.output
    assert json.loads(archive.read_text())["channels"][0]["imfs"] == []

    report = tmp_path / "analysis.json"
    result = runner.invoke(main, ["analyze", str(archive), "--out", str(report)])
    assert result.exit_code == 0, result.output
    payload = json.loads(report.read_text())
    assert payload["summary"]["imf_count"] == 0
    assert payload["warnings"] == ["hips.Xrotation: need at least 3 frequencies",
                                   "hips.Xrotation: outlier detection needs at least 4 IMFs"]

    grid = tmp_path / "grid.csv"
    result = runner.invoke(main, ["spectrum", str(archive), "--out", str(grid)])
    assert result.exit_code == 0, result.output
    rows = grid.read_text().splitlines()
    assert rows[0] == "time_bin,freq_bin,energy" and len(rows) > 1
    assert {row.split(",")[2] for row in rows[1:]} == {"0.0"}

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"operations": [{"kind": "swap", "imfs": [1]}]}))
    result = runner.invoke(main, ["blend", str(archive), str(archive), "--spec", str(spec),
                                  "--template", str(bvh), "--out", str(tmp_path / "b.bvh")])
    assert result.exit_code == 6
    assert result.output == "error: IMF index 1 outside 1..0\n"


def _run_python(*argv, **env_overrides):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hhtmotion.__file__)))
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    env.update(env_overrides)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


def test_import_loads_no_scipy():
    """The CLI's import path stays numpy, click and the standard library."""
    probe = (
        "import sys, hhtmotion.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python("-c", probe) == ["[]"]


def test_module_runs_as_the_command():
    """``python -m hhtmotion.cli``, as the benchmark calls it, runs the commands."""
    assert _run_python("-m", "hhtmotion.cli", "--version")[-1] == hhtmotion.__version__


# prints the BLAS thread variable and the process's thread count after the import
_THREAD_PROBE = (
    "import os, hhtmotion.cli; task = '/proc/self/task'; "
    "print(os.environ['OPENBLAS_NUM_THREADS'], "
    "len(os.listdir(task)) if os.path.isdir(task) else 'absent')"
)


def test_import_starts_no_blas_threads():
    """Importing the package pins OpenBLAS to one thread before numpy loads."""
    value, threads = _run_python("-c", _THREAD_PROBE)
    assert value == "1"
    if threads == "absent":
        pytest.skip("no /proc/self/task to count threads")
    assert threads == "1"


def test_preset_blas_threads_kept():
    value, _ = _run_python("-c", _THREAD_PROBE, OPENBLAS_NUM_THREADS="2")
    assert value == "2"


def test_analyze_transforms_each_imf_once(runner, failure_inputs, monkeypatch):
    """One analytic signal per IMF per channel: the summary reuses wafa's frequencies."""
    import hhtmotion.analysis as analysis

    original = analysis.analytic_signal
    calls = []

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(analysis, "analytic_signal", counted)
    with open(failure_inputs["archive"]) as handle:
        archive = json.load(handle)
    result = runner.invoke(main, ["analyze", failure_inputs["archive"], "--beats",
                                  failure_inputs["grid"], "--out", failure_inputs["out"]])
    assert result.exit_code == 0, result.output
    imfs = [imf for channel in archive["channels"] for imf in channel["imfs"] if any(imf)]
    assert len(calls) == len(imfs) > 0


@pytest.fixture(scope="module")
def failure_inputs(tmp_path_factory):
    """One good archive, grid, spec and clip, plus the malformed inputs the
    failure cases below feed the CLI."""
    from hhtmotion.signal_core import TimeSeries

    root = tmp_path_factory.mktemp("failures")
    bvh = make_two_tone_bvh(root / "dance.bvh")
    archive = root / "archive.json"
    result = CliRunner().invoke(
        main,
        ["decompose", str(bvh), "--channels", "hips.Xrotation,hips.Yrotation",
         "--method", "memd", "--directions", "8", "--out", str(archive)],
    )
    assert result.exit_code == 0, result.output
    negative_rate = json.loads(archive.read_text())
    negative_rate["rate"] = -40
    duplicate_label = json.loads(archive.read_text())
    duplicate_label["channels"][1]["label"] = duplicate_label["channels"][0]["label"]
    reordered = json.loads(archive.read_text())
    reordered["channels"].reverse()
    nan_trend = json.loads(archive.read_text())
    nan_trend["channels"][0]["trend"][5] = float("nan")
    huge_trend = json.loads(archive.read_text())
    huge_trend["channels"][0]["trend"][5] = 1e200
    string_trend = json.loads(archive.read_text())
    string_trend["channels"][0]["trend"][5] = "x"
    meta_list = json.loads(archive.read_text())
    meta_list["meta"] = ["memd"]
    # each channel's IMFs given as one series, a flat list of numbers
    flat_imfs = json.loads(archive.read_text())
    for channel in flat_imfs["channels"]:
        channel["imfs"] = channel["trend"]
    files = {
        "bvh": bvh,
        "pelvis_bvh": root / "pelvis.bvh",
        "archive": archive,
        "negative_rate": root / "negative_rate.json",
        "duplicate_label": root / "duplicate_label.json",
        "reordered": root / "reordered.json",
        "nan_trend": root / "nan_trend.json",
        "huge_trend": root / "huge_trend.json",
        "huge_bvh": root / "huge.bvh",
        "string_trend": root / "string_trend.json",
        "meta_list": root / "meta_list.json",
        "flat_imfs": root / "flat_imfs.json",
        "archive_b": root / "archive_b.json",
        "noise_bvh": root / "noise.bvh",
        "tiny_frame_time_bvh": root / "tiny_frame_time.bvh",
        "flat": root / "flat.json",
        "grid": root / "grid.json",
        "grid_without_beats": root / "grid_without_beats.json",
        "grid_no_beats": root / "grid_no_beats.json",
        "grid_descending": root / "grid_descending.json",
        "spec": root / "spec.json",
        "spec_at_40": root / "spec_at_40.json",
        "alpha_x": root / "alpha_x.json",
        "merge_a": root / "merge_a.json",
        "merge_channels": root / "merge_channels.json",
        "unknown_channel": root / "unknown_channel.json",
        "imf_99": root / "imf_99.json",
        "alpha_on_swap": root / "alpha_on_swap.json",
        "imfs_on_trend_exchange": root / "imfs_on_trend_exchange.json",
        "source_on_zero": root / "source_on_zero.json",
        "operations_object": root / "operations_object.json",
        "operation_3": root / "operation_3.json",
        "merge_one": root / "merge_one.json",
        "imf_twice": root / "imf_twice.json",
        "channel_twice": root / "channel_twice.json",
        "bad_value_bvh": root / "bad_value.bvh",
        "overflow_frame_time_bvh": root / "overflow_frame_time.bvh",
        "wav_100_samples": root / "short.wav",
        "clicks_wav": root / "clicks.wav",
        "wav_1_hz": root / "one_hertz.wav",
        "wav_0_channels": root / "zero_channels.wav",
        "wav_0_hz": root / "zero_hertz.wav",
        "wav_no_chunks": root / "no_chunks.wav",
        "deep": root / "deep.json",
        "deep_bvh": root / "deep.bvh",
        "out": root / "out.json",
        "missing_dir": root / "missing" / "out.json",
        # spectrum's CSV: its sidecar is the .json beside it
        "missing_dir_csv": root / "missing" / "out.csv",
        # a directory where decompose's manifest, or spectrum's sidecar, would go
        "manifest_dir_out": root / "held.json",
        "manifest_dir": root / "held.json.manifest.json",
        "sidecar_dir_csv": root / "side.csv",
        "sidecar_dir": root / "side.json",
    }
    files["manifest_dir"].mkdir()
    files["sidecar_dir"].mkdir()
    files["negative_rate"].write_text(json.dumps(negative_rate))
    files["duplicate_label"].write_text(json.dumps(duplicate_label))
    files["reordered"].write_text(json.dumps(reordered))
    for name, obj in [("nan_trend", nan_trend), ("huge_trend", huge_trend),
                      ("string_trend", string_trend),
                      ("meta_list", meta_list), ("flat_imfs", flat_imfs)]:
        files[name].write_text(json.dumps(obj))
    files["archive_b"].write_text(json.dumps(json.loads(archive.read_text()), indent=1))
    # two channels whose squares overflow
    t = np.arange(400) / 40.0
    files["huge_bvh"].write_text(bvh_text({"hips.Xrotation": 1e200 * np.sin(2 * np.pi * t),
                                           "hips.Yrotation": 1e200 * np.cos(3 * t)}))
    files["noise_bvh"].write_text(
        bvh_text({"hips.Xrotation": np.random.default_rng(0).standard_normal(400)}))
    # a template at 1e12 fps: aligning the archives at its rate would not fit in memory
    files["tiny_frame_time_bvh"].write_text(
        bvh.read_text().replace("Frame Time: 0.025000", "Frame Time: 1e-12"))
    # the clip with its root renamed: a template without the archived hips channels
    files["pelvis_bvh"].write_text(bvh.read_text().replace("ROOT hips", "ROOT pelvis"))
    # the single-channel shape of earlier versions, which no longer reads
    files["flat"].write_text(json.dumps({"rate": 40.0, "sd_threshold": 0.25,
                                         "imfs": [[0, 1, 0, -1]], "trend": [0, 0, 0, 0],
                                         "meta": {}}))
    files["deep"].write_text("[" * 100000 + "]" * 100000)
    files["deep_bvh"].write_text(
        "HIERARCHY ROOT a { OFFSET 0 0 0 " + "JOINT b { OFFSET 0 0 0 " * 5000)
    files["grid"].write_text(json.dumps({"bpm": 60.0, "beats": [0.0, 1.0, 2.0],
                                         "strong": [True, False, False]}))
    files["grid_without_beats"].write_text(json.dumps({"bpm": 60.0, "strong": [True]}))
    files["grid_no_beats"].write_text(json.dumps({"bpm": 60.0, "beats": []}))
    files["grid_descending"].write_text(json.dumps({"bpm": 60.0, "beats": [1.0, 0.0]}))
    files["spec"].write_text(json.dumps({"operations": []}))
    files["spec_at_40"].write_text(json.dumps({"target_rate": 40, "operations": []}))
    files["alpha_x"].write_text(
        json.dumps({"operations": [{"kind": "scale", "imfs": [1], "alpha": "x"}]}))
    files["merge_a"].write_text(
        json.dumps({"operations": [{"kind": "merge", "imfs": [1, "a"]}]}))
    files["merge_channels"].write_text(json.dumps(
        {"operations": [{"kind": "merge", "imfs": [1, 2], "channels": ["nope"]}]}))
    files["unknown_channel"].write_text(
        json.dumps({"operations": [{"kind": "swap", "channels": ["nope"]}]}))
    files["imf_99"].write_text(json.dumps({"operations": [{"kind": "swap", "imfs": [99]}]}))
    files["alpha_on_swap"].write_text(
        json.dumps({"operations": [{"kind": "swap", "alpha": 0.5}]}))
    files["imfs_on_trend_exchange"].write_text(
        json.dumps({"operations": [{"kind": "trend_exchange", "imfs": [1]}]}))
    files["source_on_zero"].write_text(
        json.dumps({"operations": [{"kind": "zero", "source": "a"}]}))
    files["operations_object"].write_text(json.dumps({"operations": {}}))
    files["operation_3"].write_text(json.dumps({"operations": [3]}))
    files["merge_one"].write_text(json.dumps({"operations": [{"kind": "merge", "imfs": [1]}]}))
    files["imf_twice"].write_text(
        json.dumps({"operations": [{"kind": "scale", "imfs": [1, 1], "alpha": 2.0}]}))
    files["channel_twice"].write_text(json.dumps(
        {"operations": [{"kind": "swap", "channels": ["hips.Xrotation", "hips.Xrotation"]}]}))
    # "oops" for a channel value on the second motion line, line 15
    files["bad_value_bvh"].write_text(MINI_BVH.replace("21.000000", "oops"))
    # a frame time of 1e-310 s on line 13: positive, but its rate overflows to inf
    files["overflow_frame_time_bvh"].write_text(MINI_BVH.replace("0.025000", "1e-310"))
    write_wav_pcm16(files["wav_100_samples"], TimeSeries(np.zeros(100), 22050.0))
    write_wav_pcm16(files["clicks_wav"], click_signal(120.0, 8.0, 22050))
    write_wav_pcm16(files["wav_1_hz"], TimeSeries(np.zeros(100), 1.0))
    # the clicks with the fmt chunk's channel count, bytes 22-23, set to 0
    clicks = files["clicks_wav"].read_bytes()
    files["wav_0_channels"].write_bytes(clicks[:22] + b"\0\0" + clicks[24:])
    # and with its sample rate, bytes 24-27, set to 0
    files["wav_0_hz"].write_bytes(clicks[:24] + bytes(4) + clicks[28:])
    # a RIFF/WAVE header and nothing after it
    files["wav_no_chunks"].write_bytes(b"RIFF\x04\0\0\0WAVE")
    return {name: str(path) for name, path in files.items()}


def _decompose(f, *options, out="out"):
    return ["decompose", f["bvh"], "--channels", "hips.Xrotation,hips.Yrotation",
            *options, "--out", f[out]]


def _blend(f, *options, archive="archive", spec="spec", template="bvh", out="out"):
    return ["blend", f[archive], f["archive"], "--spec", f[spec],
            "--template", f[template], *options, "--out", f[out]]


# Each failure: (exit code, argv, the one line it prints).  A line is the
# exact output with ``{name}`` standing for the path of ``failure_inputs[name]``,
# or a compiled pattern it must match in full where it holds a computed float.
_TOO_MANY = "asks for {} array elements; the limit is 134217728"
_NO_DIR = "error: cannot write {missing_dir}: No such file or directory"
_FLAT = "error: {flat}: an archive needs channels with label, imfs and trend"

FAILURES = {
    "grid-without-beats": (2, lambda f: ["analyze", f["archive"], "--beats",
                                         f["grid_without_beats"], "--out", f["out"]],
                           "error: {grid_without_beats}: a beat grid is an object with bpm "
                           "and beats"),
    "grid-beats-empty": (2, lambda f: ["analyze", f["archive"], "--beats", f["grid_no_beats"],
                                       "--out", f["out"]],
                         "error: {grid_no_beats}: beats must be a non-empty list of times"),
    "grid-beats-descending": (2, lambda f: ["analyze", f["archive"], "--beats",
                                            f["grid_descending"], "--out", f["out"]],
                              "error: {grid_descending}: beats must be strictly ascending"),
    "beats-per-segment-0": (64, lambda f: ["analyze", f["archive"], "--beats", f["grid"],
                                           "--beats-per-segment", "0", "--out", f["out"]],
                            "error: beats_per_segment must be >= 1, got 0"),
    "time-bin-0": (64, lambda f: ["spectrum", f["archive"], "--time-bin", "0",
                                  "--out", f["out"]],
                   "error: bad binning: time_bin=0.0 freq_bins=100 freq_max=20.0"),
    "freq-bins-0": (64, lambda f: ["spectrum", f["archive"], "--freq-bins", "0",
                                   "--out", f["out"]],
                    "error: bad binning: time_bin=0.05 freq_bins=0 freq_max=20.0"),
    "freq-max-above-nyquist": (64, lambda f: ["spectrum", f["archive"], "--freq-max", "21",
                                              "--out", f["out"]],
                               "error: bad binning: time_bin=0.05 freq_bins=100 freq_max=21.0"),
    "analyze-negative-rate": (2, lambda f: ["analyze", f["negative_rate"], "--out", f["out"]],
                              "error: {negative_rate}: rate must be a positive number, got -40"),
    "spectrum-negative-rate": (2, lambda f: ["spectrum", f["negative_rate"],
                                             "--out", f["out"]],
                               "error: {negative_rate}: rate must be a positive number, "
                               "got -40"),
    "spec-alpha-not-a-number": (6, lambda f: _blend(f, spec="alpha_x"),
                                "error: {alpha_x}: alpha must be a number, got 'x'"),
    "spec-merge-imf-not-a-number": (6, lambda f: _blend(f, spec="merge_a"),
                                    "error: {merge_a}: imfs must list IMF numbers, "
                                    "got [1, 'a']"),
    "spec-merge-one-imf": (6, lambda f: _blend(f, spec="merge_one"),
                           "error: {merge_one}: merge needs at least two IMF indices"),
    "spec-operations-not-a-list": (6, lambda f: _blend(f, spec="operations_object"),
                                   "error: {operations_object}: 'operations' must be a list"),
    "spec-operation-not-an-object": (6, lambda f: _blend(f, spec="operation_3"),
                                     "error: {operation_3}: bad operation entry: 3"),
    # a selection listed twice would get the operation twice
    "spec-imf-listed-twice": (6, lambda f: _blend(f, spec="imf_twice"),
                              "error: {imf_twice}: imfs lists 1 twice"),
    "spec-channel-listed-twice": (6, lambda f: _blend(f, spec="channel_twice"),
                                  "error: {channel_twice}: channels lists hips.Xrotation "
                                  "twice"),
    "spec-merge-with-channels": (6, lambda f: _blend(f, spec="merge_channels"),
                                 "error: {merge_channels}: merge acts on every channel; "
                                 "it takes no channels"),
    # fields the operation's kind would ignore
    "spec-alpha-on-swap": (6, lambda f: _blend(f, spec="alpha_on_swap"),
                           "error: {alpha_on_swap}: swap takes no alpha; "
                           "only scale and blend do"),
    "spec-imfs-on-trend-exchange": (6, lambda f: _blend(f, spec="imfs_on_trend_exchange"),
                                    "error: {imfs_on_trend_exchange}: trend_exchange moves "
                                    "trends; it takes no imfs"),
    "spec-source-on-zero": (6, lambda f: _blend(f, spec="source_on_zero"),
                            "error: {source_on_zero}: zero takes no source; only swap, "
                            "blend and trend_exchange do"),
    "archive-duplicate-label": (2, lambda f: ["analyze", f["duplicate_label"],
                                              "--out", f["out"]],
                                "error: {duplicate_label}: channel hips.Xrotation is "
                                "labelled twice"),
    "archive-nan-trend": (2, lambda f: ["analyze", f["nan_trend"], "--out", f["out"]],
                          "error: {nan_trend}: trends holds NaN or Inf"),
    "archive-huge-trend": (2, lambda f: ["analyze", f["huge_trend"], "--out", f["out"]],
                           "error: {huge_trend}: trends exceed 1e+100 in magnitude"),
    "emd-huge-samples": (2, lambda f: ["decompose", f["huge_bvh"], "--channels",
                                       "hips.Xrotation,hips.Yrotation", "--method", "emd",
                                       "--out", f["out"]],
                         "error: {huge_bvh}: samples exceed 1e+100 in magnitude"),
    "na-memd-huge-samples": (2, lambda f: ["decompose", f["huge_bvh"], "--channels",
                                           "hips.Xrotation,hips.Yrotation", "--out", f["out"]],
                             "error: {huge_bvh}: samples exceed 1e+100 in magnitude"),
    "archive-string-trend": (2, lambda f: ["analyze", f["string_trend"], "--out", f["out"]],
                             "error: {string_trend}: trends holds something other than "
                             "numbers"),
    "archive-meta-list": (2, lambda f: ["analyze", f["meta_list"], "--out", f["out"]],
                          "error: {meta_list}: meta must be an object and every label a "
                          "string"),
    "archive-imfs-flat": (2, lambda f: ["analyze", f["flat_imfs"], "--out", f["out"]],
                          "error: {flat_imfs}: each trend needs 2 or more samples, each IMF "
                          "as many"),
    "channels-listed-twice": (64, lambda f: ["decompose", f["bvh"], "--channels",
                                             "hips.Xrotation,hips.Xrotation",
                                             "--out", f["out"]],
                              "error: --channels names hips.Xrotation twice"),
    "analyze-flat-archive": (2, lambda f: ["analyze", f["flat"], "--out", f["out"]], _FLAT),
    "spectrum-flat-archive": (2, lambda f: ["spectrum", f["flat"], "--out", f["out"]], _FLAT),
    "blend-flat-archive": (2, lambda f: _blend(f, archive="flat"), _FLAT),
    "spectrum-unknown-channel": (3, lambda f: ["spectrum", f["archive"], "--channel", "nope",
                                               "--out", f["out"]],
                                 "error: unknown channel: nope"),
    "blend-template-missing-channel": (3, lambda f: _blend(f, template="pelvis_bvh"),
                                       "error: unknown channel: hips.Xrotation"),
    "bvh-frame-time-rate-overflows": (2, lambda f: ["decompose", f["overflow_frame_time_bvh"],
                                                    "--channels", "hips.Xrotation",
                                                    "--out", f["out"]],
                                      "error: {overflow_frame_time_bvh}: line 13: expected a "
                                      "frame time with a finite rate"),
    "decompose-bad-value": (2, lambda f: ["decompose", f["bad_value_bvh"], "--channels",
                                          "hips.Xrotation", "--out", f["out"]],
                            "error: {bad_value_bvh}: line 15: expected a channel value"),
    "noise-pct-2": (64, lambda f: _decompose(f, "--noise-pct", "2"),
                    "error: noise_pct must lie in (0, 1), got 2.0"),
    "noise-channels-0": (64, lambda f: _decompose(f, "--noise-channels", "0"),
                         "error: --noise-channels: need at least one noise channel, got 0"),
    # with the 2 selected channels, fewer than 2 dimensions to sample directions in
    "noise-channels-negative": (64, lambda f: _decompose(f, "--noise-channels", "-3"),
                                "error: --noise-channels: need at least one noise channel, "
                                "got -3"),
    "memd-seed-negative": (64, lambda f: _decompose(f, "--method", "memd", "--seed", "-1"),
                           "error: seed must lie in [0, 2**128), got -1"),
    "memd-one-channel": (64, lambda f: ["decompose", f["bvh"], "--channels", "hips.Xrotation",
                                        "--method", "memd", "--out", f["out"]],
                         "error: direction sampling needs at least 2 dimensions"),
    "sd-threshold-5": (64, lambda f: _decompose(f, "--method", "emd", "--sd-threshold", "5"),
                       "error: sd_threshold must lie in (0, 1), got 5.0"),
    "wav-100-samples": (2, lambda f: ["beats", f["wav_100_samples"], "--out", f["out"]],
                        "error: {wav_100_samples}: need at least 1 s of audio"),
    # options that the chosen beat source would ignore
    "duration-with-wav": (64, lambda f: ["beats", f["clicks_wav"], "--duration", "2",
                                         "--out", f["out"]],
                          "error: --duration applies to --bpm, not to a WAV path"),
    "tightness-with-bpm": (64, lambda f: ["beats", "--bpm", "120", "--duration", "5",
                                          "--tightness", "400", "--out", f["out"]],
                           "error: --tightness applies to a WAV path, not to --bpm"),
    # options that the chosen decomposition method would ignore
    "noise-pct-with-memd": (64, lambda f: _decompose(f, "--method", "memd",
                                                     "--noise-pct", "0.1"),
                            "error: --noise-pct applies to --method na-memd, "
                            "not to --method memd"),
    "noise-channels-with-emd": (64, lambda f: _decompose(f, "--method", "emd",
                                                         "--noise-channels", "2"),
                                "error: --noise-channels applies to --method na-memd, "
                                "not to --method emd"),
    "directions-with-emd": (64, lambda f: _decompose(f, "--method", "emd",
                                                     "--directions", "8"),
                            "error: --directions applies to --method memd or na-memd, "
                            "not to --method emd"),
    "seed-with-emd": (64, lambda f: _decompose(f, "--method", "emd", "--seed", "0"),
                      "error: --seed applies to --method memd or na-memd, "
                      "not to --method emd"),
    # a penalty that outweighs the clicks: the grid would end at 1.5 s of 8
    "tightness-truncates-grid": (64, lambda f: ["beats", f["clicks_wav"], "--tightness",
                                                "1e12", "--out", f["out"]],
                                 re.compile(r"error: tightness 1e\+12 outweighs the onsets: "
                                            r"the median cumulative score at its peaks is "
                                            r"-\d[\d.e+]*, not above 0")),
    # no spacing penalty: the tracked beats keep no steady tempo
    "tightness-zero": (5, lambda f: ["beats", f["clicks_wav"], "--tightness", "0",
                                     "--out", f["out"]],
                       "error: tracked beats keep no steady tempo at tightness 0: "
                       "beat gaps deviate more than 25% from 60/bpm"),
    "wav-1-hz": (2, lambda f: ["beats", f["wav_1_hz"], "--out", f["out"]],
                 "error: {wav_1_hz}: audio rate must be at least 8000 Hz, got 1"),
    "wav-0-channels": (2, lambda f: ["beats", f["wav_0_channels"], "--out", f["out"]],
                       "error: {wav_0_channels}: fmt chunk declares 0 channels"),
    "wav-0-hz": (2, lambda f: ["beats", f["wav_0_hz"], "--out", f["out"]],
                 "error: {wav_0_hz}: sample rate is 0"),
    "wav-no-chunks": (2, lambda f: ["beats", f["wav_no_chunks"], "--out", f["out"]],
                      "error: {wav_no_chunks}: missing fmt or data chunk"),
    "decompose-out-missing-dir": (64, lambda f: _decompose(f, out="missing_dir"), _NO_DIR),
    "beats-out-missing-dir": (64, lambda f: ["beats", "--bpm", "120", "--duration", "5",
                                             "--out", f["missing_dir"]], _NO_DIR),
    "analyze-out-missing-dir": (64, lambda f: ["analyze", f["archive"],
                                               "--out", f["missing_dir"]], _NO_DIR),
    "spectrum-out-missing-dir": (64, lambda f: ["spectrum", f["archive"],
                                                "--out", f["missing_dir_csv"]],
                                 "error: cannot write {missing_dir_csv}: "
                                 "No such file or directory"),
    "blend-out-missing-dir": (64, lambda f: _blend(f, out="missing_dir"), _NO_DIR),
    # option values whose arrays would exceed cli.MAX_ELEMENTS; refused before allocating
    "directions-too-many": (64, lambda f: _decompose(f, "--directions", "100000000000"),
                            "error: --directions 100000000000 " + _TOO_MANY.format("4e+13")),
    "noise-channels-too-many": (64, lambda f: _decompose(f, "--noise-channels",
                                                         "100000000000"),
                                "error: --noise-channels 100000000000 "
                                + _TOO_MANY.format("2e+22")),
    "duration-too-long": (64, lambda f: ["beats", "--bpm", "120", "--duration", "1e12",
                                         "--out", f["out"]],
                          "error: --duration 1e+12 at --bpm 120 " + _TOO_MANY.format("2e+12")),
    "freq-bins-too-many": (64, lambda f: ["spectrum", f["archive"], "--freq-bins",
                                          "1000000000000", "--out", f["out"]],
                           "error: --time-bin 0.05 with --freq-bins 1000000000000 "
                           + _TOO_MANY.format("2e+14")),
    "time-bin-too-small": (64, lambda f: ["spectrum", f["archive"], "--time-bin", "1e-12",
                                          "--out", f["out"]],
                           "error: --time-bin 1e-12 with --freq-bins 100 "
                           + _TOO_MANY.format("1e+15")),
    # the spec's target_rate of 40 is ignored: the archives align at the template's rate
    "template-rate-too-high": (64, lambda f: _blend(f, spec="spec_at_40",
                                                    template="tiny_frame_time_bvh"),
                               "error: template rate 1e+12 " + _TOO_MANY.format("8e+13")),
    # the grid's 3 beats hold 2 beat gaps, fewer than one segment of 3
    "beats-per-segment-over-grid": (3, lambda f: ["analyze", f["archive"], "--beats", f["grid"],
                                                  "--beats-per-segment", "3",
                                                  "--out", f["out"]],
                                    "error: no segment of 3 beats fits inside the clip"),
    "archive-nested-too-deep": (2, lambda f: ["analyze", f["deep"], "--out", f["out"]],
                                "error: cannot read {deep}: nested too deep"),
    "bvh-nested-too-deep": (2, lambda f: ["decompose", f["deep_bvh"], "--channels",
                                          "b.Xrotation", "--out", f["out"]],
                            "error: cannot read {deep_bvh}: nested too deep"),
    "no-convergence": (4, lambda f: ["decompose", f["noise_bvh"], "--channels", "hips.Xrotation",
                                     "--method", "emd", "--sd-threshold", "1e-300",
                                     "--out", f["out"]],
                       re.compile(r"error: IMF 1: sifting did not settle within 100 iterations "
                                  r"\(SD \d[\d.e+-]*, threshold 1e-300\)")),
    "blend-labels-differ": (3, lambda f: _blend(f, archive="reordered"),
                            "error: channel labels differ: ['hips.Yrotation', "
                            "'hips.Xrotation'] vs ['hips.Xrotation', 'hips.Yrotation']"),
    "spec-unknown-channel": (3, lambda f: _blend(f, spec="unknown_channel"),
                             "error: unknown channel: nope"),
    "spec-imf-out-of-range": (6, lambda f: _blend(f, spec="imf_99"),
                              "error: IMF index 99 outside 1..3"),
    "bpm-out-of-range": (64, lambda f: ["beats", "--bpm", "500", "--duration", "5",
                                        "--out", f["out"]],
                         "error: bpm 500.0 outside [20, 400]"),
    # an offset that leaves no beat grid: not finite, or so large the beats collapse
    "offset-nan-with-bpm": (64, lambda f: ["beats", "--bpm", "120", "--duration", "4",
                                           "--offset", "nan", "--out", f["out"]],
                            "error: --offset nan: beats must be finite"),
    "offset-inf-with-wav": (64, lambda f: ["beats", f["clicks_wav"], "--offset", "inf",
                                           "--out", f["out"]],
                            "error: --offset inf: beats must be finite"),
    "offset-collapses-bpm-grid": (64, lambda f: ["beats", "--bpm", "120", "--duration", "4",
                                                 "--offset", "1e308", "--out", f["out"]],
                                  "error: --offset 1e+308: beats must be strictly ascending"),
    "offset-collapses-wav-grid": (64, lambda f: ["beats", f["clicks_wav"], "--offset", "1e308",
                                                 "--out", f["out"]],
                                  "error: --offset 1e+308: beats must be strictly ascending"),
    "fibonacci-tolerance-negative": (64, lambda f: ["analyze", f["archive"],
                                                    "--fibonacci-tolerance", "-0.1",
                                                    "--out", f["out"]],
                                     "error: tolerance must be a finite number >= 0, "
                                     "got -0.1"),
    "fibonacci-tolerance-nan": (64, lambda f: ["analyze", f["archive"],
                                               "--fibonacci-tolerance", "nan",
                                               "--out", f["out"]],
                                "error: tolerance must be a finite number >= 0, got nan"),
    # an output path that names an input, or another output of the same command
    "spectrum-sidecar-is-out": (64, lambda f: ["spectrum", f["archive"], "--out", f["out"]],
                                "error: the sidecar {out} would overwrite --out {out}"),
    "analyze-out-is-archive": (64, lambda f: ["analyze", f["archive"], "--out", f["archive"]],
                               "error: --out {archive} would overwrite the input {archive}"),
    "blend-out-is-template": (64, lambda f: _blend(f, out="bvh"),
                              "error: --out {bvh} would overwrite the input {bvh}"),
    # a directory at an output path: refused before --out is written
    "decompose-manifest-is-a-directory": (64, lambda f: _decompose(
                                              f, "--method", "memd", "--directions", "8",
                                              out="manifest_dir_out"),
                                          "error: the manifest {manifest_dir} is a directory"),
    "spectrum-sidecar-is-a-directory": (64, lambda f: ["spectrum", f["archive"],
                                                       "--out", f["sidecar_dir_csv"]],
                                        "error: the sidecar {sidecar_dir} is a directory"),
}


@pytest.mark.parametrize("name", list(FAILURES))
def test_failure_exits_with_its_code_and_one_line(runner, failure_inputs, name):
    code, argv, line = FAILURES[name]
    result = runner.invoke(main, argv(failure_inputs))
    assert result.exit_code == code, result.output
    if isinstance(line, re.Pattern):
        assert line.fullmatch(result.output[:-1]), result.output
        assert result.output.count("\n") == 1
    else:
        assert result.output == line.format(**failure_inputs) + "\n"


@pytest.mark.parametrize("name", ["channels-listed-twice", "archive-duplicate-label"])
def test_repeated_channel_error_names_it(runner, failure_inputs, name):
    result = runner.invoke(main, FAILURES[name][1](failure_inputs))
    assert "hips.Xrotation" in result.output and "twice" in result.output


@pytest.mark.parametrize("name", [name for name in FAILURES if name.endswith("flat-archive")])
def test_flat_archive_error_names_the_file(runner, failure_inputs, name):
    result = runner.invoke(main, FAILURES[name][1](failure_inputs))
    assert result.output == (f"error: {failure_inputs['flat']}: "
                             "an archive needs channels with label, imfs and trend\n")


class _LineRecorder:
    def __init__(self):
        self.lines = set()

    def trace(self, frame, event, arg):
        if event == "line":
            self.lines.add(frame.f_lineno)
        return self.trace


@pytest.mark.parametrize("name", [name for name in FAILURES if name.endswith("nested-too-deep")])
def test_nesting_error_keeps_its_line_under_a_line_tracer(runner, failure_inputs, name):
    # a bound method that records each traced line, as coverage.py's Python
    # tracer is, moves where the recursion limit trips and so its wording
    code, argv, line = FAILURES[name]
    traced = _LineRecorder()
    previous = sys.gettrace()
    sys.settrace(traced.trace)
    try:
        result = runner.invoke(main, argv(failure_inputs))
    finally:
        sys.settrace(previous)
    assert traced.lines
    assert result.exit_code == code, result.output
    assert result.output == line.format(**failure_inputs) + "\n"


def _snapshot(root):
    return {path: path.read_bytes() for path in sorted(root.iterdir()) if path.is_file()}


@pytest.mark.parametrize("name", [name for name in FAILURES if "-is-" in name])
def test_clashing_output_writes_nothing(runner, failure_inputs, name):
    root = Path(failure_inputs["archive"]).parent
    before = _snapshot(root)
    assert runner.invoke(main, FAILURES[name][1](failure_inputs)).exit_code == 64
    # no output, sidecar, manifest or temporary file appeared, and every input,
    # the archive included, keeps its bytes
    assert _snapshot(root) == before


def test_failed_write_replaces_nothing(runner, tmp_path, monkeypatch):
    # the manifest's temporary file, the last one staged, opens read-only,
    # so writing it fails after --out's temporary file is written
    out = tmp_path / "grid.json"
    out.write_text("old\n")
    staged = []

    def mkstemp(**kwargs):
        fd, tmp = tempfile.mkstemp(**kwargs)
        staged.append(tmp)
        if len(staged) == 2:
            os.close(fd)
            fd = os.open(tmp, os.O_RDONLY)
        return fd, tmp

    monkeypatch.setattr(cli, "tempfile", types.SimpleNamespace(mkstemp=mkstemp))
    result = runner.invoke(main, ["beats", "--bpm", "120", "--duration", "5",
                                  "--out", str(out)])
    assert result.exit_code == 64, result.output
    assert result.output == f"error: cannot write {out}.manifest.json: Bad file descriptor\n"
    assert len(staged) == 2
    # --out keeps its bytes, and no manifest or temporary file is left
    assert out.read_text() == "old\n"
    assert sorted(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_follow_the_umask(runner, failure_inputs, tmp_path, umask):
    out = tmp_path / "grid.csv"
    old = os.umask(umask)
    try:
        result = runner.invoke(main, ["spectrum", str(failure_inputs["archive"]),
                                      "--out", str(out)])
    finally:
        os.umask(old)
    assert result.exit_code == 0, result.output
    written = [out, tmp_path / "grid.json", tmp_path / "grid.csv.manifest.json"]
    assert sorted(tmp_path.iterdir()) == sorted(written)
    for path in written:
        assert os.stat(path).st_mode & 0o777 == 0o666 & ~umask, path


# Each command with some options given and the rest at their defaults:
# (argv, the input files given, the manifest's parameters, its seed).  The
# parameters are every option but the paths, --seed and the options the
# command's mode ignores, as given; decompose records its channel list as it
# was split.
MANIFESTS = {
    "decompose": (
        lambda f, out: ["decompose", f["bvh"], "--channels", " hips.Xrotation, hips.Yrotation",
                        "--method", "memd", "--sd-threshold", "0.3", "--directions", "8",
                        "--seed", "3", "--out", out],
        ["bvh"],
        {"channels": ["hips.Xrotation", "hips.Yrotation"], "method": "memd",
         "sd_threshold": 0.3, "directions": 8},
        3,
    ),
    "decompose-emd": (
        lambda f, out: ["decompose", f["bvh"], "--channels", "hips.Xrotation",
                        "--method", "emd", "--out", out],
        ["bvh"],
        {"channels": ["hips.Xrotation"], "method": "emd", "sd_threshold": 0.25},
        None,
    ),
    "decompose-na-memd": (
        lambda f, out: ["decompose", f["bvh"], "--channels", "hips.Xrotation",
                        "--noise-pct", "0.2", "--out", out],
        ["bvh"],
        {"channels": ["hips.Xrotation"], "method": "na-memd", "sd_threshold": 0.25,
         "directions": 64, "noise_pct": 0.2, "noise_channels": 1},
        0,
    ),
    "beats-bpm": (
        lambda f, out: ["beats", "--bpm", "130", "--duration", "5", "--offset", "0.25",
                        "--out", out],
        [],
        {"bpm": 130.0, "duration": 5.0, "offset": 0.25},
        None,
    ),
    "beats-wav": (
        lambda f, out: ["beats", f["clicks_wav"], "--tightness", "300", "--out", out],
        ["clicks_wav"],
        {"bpm": None, "offset": 0.0, "tightness": 300.0},
        None,
    ),
    "analyze": (
        lambda f, out: ["analyze", f["archive"], "--fibonacci-tolerance", "0.1", "--out", out],
        ["archive"],
        {"beats_per_segment": 1, "fibonacci_tolerance": 0.1},
        None,
    ),
    "analyze-beats": (
        lambda f, out: ["analyze", f["archive"], "--beats", f["grid"],
                        "--beats-per-segment", "2", "--out", out],
        ["archive", "grid"],
        {"beats_per_segment": 2, "fibonacci_tolerance": 0.05},
        None,
    ),
    "spectrum": (
        lambda f, out: ["spectrum", f["archive"], "--channel", "hips.Yrotation",
                        "--time-bin", "0.1", "--freq-bins", "40", "--out", out],
        ["archive"],
        {"channel": "hips.Yrotation", "time_bin": 0.1, "freq_bins": 40, "freq_max": None},
        None,
    ),
    "blend": (
        lambda f, out: ["blend", f["archive"], f["archive_b"], "--spec", f["spec"],
                        "--template", f["bvh"], "--out", out],
        ["archive", "archive_b", "spec", "bvh"],
        {},
        None,
    ),
}


@pytest.mark.parametrize("name", list(MANIFESTS))
def test_manifest_records_what_the_command_was_given(runner, failure_inputs, tmp_path,
                                                     name):
    argv, given, parameters, seed = MANIFESTS[name]
    out = str(tmp_path / ("out.csv" if name == "spectrum" else "out.json"))
    args = argv(failure_inputs, out)
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    with open(out + ".manifest.json") as handle:
        manifest = json.load(handle)
    assert manifest["command"] == args[0]
    assert manifest["parameters"] == parameters
    assert manifest["seed"] == seed
    inputs = {}
    for key in given:
        with open(failure_inputs[key], "rb") as handle:
            inputs[failure_inputs[key]] = "sha256:" + hashlib.sha256(handle.read()).hexdigest()
    assert manifest["inputs"] == inputs
    assert manifest["outputs"][0] == out


# The options each mode ignores, by its MANIFESTS row: refused when given, and
# left out of the manifest when defaulted, --seed as null.
IGNORED_BY_MODE = {
    "decompose-emd": ["noise_pct", "noise_channels", "directions", "seed"],
    "decompose": ["noise_pct", "noise_channels"],  # --method memd
    "beats-bpm": ["tightness"],
    "beats-wav": ["duration"],
}


@pytest.mark.parametrize("name", list(IGNORED_BY_MODE))
def test_manifest_leaves_out_what_the_mode_refuses(runner, failure_inputs, tmp_path, name):
    out = str(tmp_path / "out.json")
    argv = MANIFESTS[name][0](failure_inputs, out)
    assert runner.invoke(main, argv).exit_code == 0
    with open(out + ".manifest.json") as handle:
        manifest = json.load(handle)
    ignored = IGNORED_BY_MODE[name]
    assert not set(ignored) & set(manifest["parameters"]), manifest["parameters"]
    assert "seed" not in ignored or manifest["seed"] is None
    for key in ignored:
        option = "--" + key.replace("_", "-")
        result = runner.invoke(main, argv[:-2] + [option, "1", "--out", out])
        assert result.exit_code == 64, result.output
        assert result.output.startswith(f"error: {option} applies to ")
