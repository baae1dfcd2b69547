"""Property tests: the readers and the CLI fail only in documented ways.

Every reader either returns or raises an ``HhtMotionError``; every CLI run
exits with a documented code.  Runs are derandomized and bounded, so the
suite stays reproducible and quick.
"""

import json
import os

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import MINI_BVH, bvh_text, click_signal, write_wav_pcm16

from hhtmotion.beat import grid_from_dict, read_wav
from hhtmotion.cli import main
from hhtmotion.edit import blend_spec_from_dict
from hhtmotion.errors import HhtMotionError
from hhtmotion.memd import multivariate_from_dict
from hhtmotion.mocap_io import parse_bvh
from hhtmotion.signal_core import TimeSeries

FUZZ = settings(max_examples=60, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner,
                                                                max_size=4),
    max_leaves=12,
)
numbers = st.integers(-3, 5) | st.floats(allow_nan=True, allow_infinity=True)
samples = st.lists(st.floats(-1e3, 1e3), min_size=0, max_size=6)


def returns_or_raises_documented(reader, value):
    try:
        reader(value)
    except HhtMotionError:
        pass


BVH_WORDS = MINI_BVH.split() + ["JOINT", "End", "Site", "CHANNELS", "0", "3", "-1",
                                 "nan", "1e400", "Frames:", "}", "{"]


@FUZZ
@given(st.one_of(
    st.text(max_size=40),
    st.lists(st.sampled_from(BVH_WORDS), max_size=60).map(" ".join),
    st.tuples(st.integers(0, len(MINI_BVH.split()) - 1), st.sampled_from(BVH_WORDS + [""]))
    .map(lambda edit: " ".join(MINI_BVH.split()[: edit[0]] + [edit[1]]
                               + MINI_BVH.split()[edit[0] + 1:])),
))
def test_parse_bvh(text):
    returns_or_raises_documented(parse_bvh, text)


def _chunk(name, body):
    return name + len(body).to_bytes(4, "little") + body


@FUZZ
@given(
    fmt=st.binary(max_size=20) | st.tuples(
        st.sampled_from([1, 3, 2]), st.integers(0, 3), st.sampled_from([0, 1, 8000, 22050]),
        st.sampled_from([0, 8, 16, 32]),
    ).map(lambda f: (f[0].to_bytes(2, "little") + f[1].to_bytes(2, "little")
                     + f[2].to_bytes(4, "little") + bytes(6) + f[3].to_bytes(2, "little"))),
    data=st.binary(max_size=64),
    prefix=st.sampled_from([b"RIFF\0\0\0\0WAVE", b"RIFF", b""]),
)
def test_read_wav(tmp_path, fmt, data, prefix):
    path = tmp_path / "fuzz.wav"
    path.write_bytes(prefix + _chunk(b"fmt ", fmt) + _chunk(b"data", data))
    returns_or_raises_documented(read_wav, path)


operation = st.fixed_dictionaries({"kind": st.sampled_from(
    ["scale", "zero", "swap", "blend", "trend_exchange", "merge", "explode"])}, optional={
    "imfs": st.none() | st.lists(st.integers(-1, 4) | json_values, max_size=3) | json_values,
    "channels": st.none() | st.lists(st.text(max_size=3) | json_values, max_size=3),
    "alpha": numbers | json_values,
    "source": st.sampled_from(["a", "b", "c"]) | json_values,
})


@FUZZ
@given(json_values | st.fixed_dictionaries({"operations": st.lists(operation, max_size=3)},
                                           optional={"target_rate": numbers | json_values}))
def test_blend_spec_from_dict(obj):
    returns_or_raises_documented(blend_spec_from_dict, obj)


@FUZZ
@given(json_values | st.fixed_dictionaries({}, optional={
    "bpm": numbers | json_values,
    "beats": st.lists(st.floats(-2, 10) | st.floats(), max_size=5) | json_values,
    "strong": st.lists(st.booleans(), max_size=5) | json_values,
}))
def test_grid_from_dict(obj):
    returns_or_raises_documented(grid_from_dict, obj)


channel = st.fixed_dictionaries({}, optional={
    "label": st.text(max_size=3) | json_values,
    "imfs": st.lists(samples, max_size=3) | json_values,
    "trend": samples | json_values,
})


@FUZZ
@given(json_values | st.fixed_dictionaries({}, optional={
    "rate": numbers | json_values,
    "channels": st.lists(channel, max_size=3) | json_values,
    "imfs": st.lists(samples, max_size=3),
    "trend": samples,
    "meta": json_values,
}))
def test_archive_reader(obj):
    returns_or_raises_documented(multivariate_from_dict, obj)


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Good and bad inputs of every kind, made once for the CLI fuzz test."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    fps = 40.0
    t = np.arange(160) / fps
    signals = {"hips.Xrotation": 30 * np.sin(2 * np.pi * t),
               "hips.Yrotation": 20 * np.sin(2 * np.pi * 3 * t) + 5 * t}
    files = {"missing_dir": str(root / "missing" / "out.json")}

    def write(name, text):
        (root / name).write_text(text)
        files[name] = str(root / name)

    write("dance.bvh", bvh_text(signals, frame_time=1 / fps))
    write("short.bvh", bvh_text({k: v[:100] for k, v in signals.items()}, frame_time=1 / fps))
    write("garbage.txt", "not a BVH, not JSON")
    write("grid.json", json.dumps({"bpm": 60.0, "beats": [0.0, 1.0, 2.0, 3.0],
                                   "strong": [True, False, False, False]}))
    write("far_grid.json", json.dumps({"bpm": 60.0, "beats": [50.0, 51.0],
                                       "strong": [True, False]}))
    write("spec.json", json.dumps({"operations": [
        {"kind": "swap", "imfs": [1]}, {"kind": "blend", "alpha": 0.3},
        {"kind": "merge", "imfs": [1, 2]}, {"kind": "trend_exchange"}]}))
    write("bad_spec.json", json.dumps({"operations": [{"kind": "scale", "alpha": None}]}))
    write("flat.json", json.dumps({"rate": fps, "imfs": [list(np.sin(t))],
                                   "trend": list(t)}))
    write("bad_rate.json", json.dumps({"rate": 0, "imfs": [], "trend": [1, 2]}))
    for name, rate in (("clicks.wav", 22050), ("one_hertz.wav", 1)):
        write_wav_pcm16(root / name, click_signal(120.0, 3.0, 22050) if rate > 1
                        else TimeSeries(np.zeros(50), 1.0))
        files[name] = str(root / name)
    result = CliRunner().invoke(main, [
        "decompose", files["dance.bvh"], "--channels", "hips.Xrotation,hips.Yrotation",
        "--method", "memd", "--directions", "8", "--out", str(root / "archive.json")])
    assert result.exit_code == 0, result.output
    files["archive.json"] = str(root / "archive.json")
    return files


# Option values stay small so that each run is quick; test_extreme_option_value
# tries every float option at nan, +-inf and +-1e308.
FLOATS = ["-5", "0", "0.001", "0.05", "0.5", "2", "35", "nan", "inf", "-inf", "x"]
INTS = ["-1", "0", "1", "3", "8", "x"]


def _options(draw, spec):
    argv = []
    for option, values in spec.items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [option, value]
    return argv


def _argv(draw, files):
    def pick(names):
        return draw(st.sampled_from([files[n] for n in names]))

    archives = ["archive.json", "flat.json", "bad_rate.json", "garbage.txt", "grid.json"]
    command = draw(st.sampled_from(["decompose", "beats", "analyze", "spectrum", "blend"]))
    if command == "decompose":
        argv = [pick(["dance.bvh", "garbage.txt"]), "--channels", draw(st.sampled_from(
            ["hips.Xrotation,hips.Yrotation", "hips.Yrotation", "nope", ",",
             "hips.Xrotation,hips.Xrotation"]))]
        argv += _options(draw, {"--method": ["emd", "memd", "na-memd"],
                                "--sd-threshold": FLOATS, "--directions": INTS,
                                "--noise-pct": FLOATS, "--noise-channels": INTS,
                                "--seed": INTS})
    elif command == "beats":
        argv = draw(st.sampled_from([[], [files["clicks.wav"]], [files["one_hertz.wav"]],
                                     [files["garbage.txt"]]]))
        argv += _options(draw, {"--bpm": FLOATS + ["120"], "--duration": FLOATS,
                                "--offset": FLOATS, "--tightness": FLOATS})
    elif command == "analyze":
        argv = [pick(archives)]
        argv += _options(draw, {"--beats": [files[n] for n in
                                            ("grid.json", "far_grid.json", "flat.json")],
                                "--beats-per-segment": INTS,
                                "--fibonacci-tolerance": FLOATS})
    elif command == "spectrum":
        argv = [pick(archives)]
        argv += _options(draw, {"--channel": ["hips.Xrotation", "signal", "nope"],
                                "--time-bin": FLOATS, "--freq-bins": INTS,
                                "--freq-max": FLOATS})
    else:
        argv = [pick(archives), pick(archives), "--spec",
                pick(["spec.json", "bad_spec.json", "garbage.txt"]), "--template",
                pick(["dance.bvh", "short.bvh", "garbage.txt"])]
    out = draw(st.sampled_from([files["missing_dir"], files["garbage.txt"] + ".out"]))
    return [command] + argv + ["--out", out]


@settings(FUZZ, max_examples=100)
@given(data=st.data())
def test_cli_exits_with_a_documented_code(cli_files, data):
    argv = _argv(data.draw, cli_files)
    result = CliRunner().invoke(main, argv)
    assert result.exit_code in {0, 2, 3, 4, 5, 6, 64}, (argv, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), argv


# Every float option with each extreme value, in each form of its command:
# (form, option, the command's argv without the option, the output's name).
def _decompose_form(method):
    directions = [] if method == "emd" else ["--directions", "8"]  # emd refuses --directions
    return lambda f: ["decompose", f["dance.bvh"], "--channels",
                      "hips.Xrotation,hips.Yrotation", "--method", method, *directions]


def _beats_bpm_form(option):
    given = {"--bpm": "120", "--duration": "4"}
    given.pop(option, None)  # the value under test takes the option's place
    return lambda f: ["beats"] + [word for pair in given.items() for word in pair]


SWEEP_FORMS = [
    ("decompose", "--sd-threshold", _decompose_form("memd"), "archive.json"),
    ("decompose", "--noise-pct", _decompose_form("na-memd"), "archive.json"),
    ("decompose-memd", "--noise-pct", _decompose_form("memd"), "archive.json"),
    ("decompose-emd", "--noise-pct", _decompose_form("emd"), "archive.json"),
    ("analyze", "--fibonacci-tolerance", lambda f: ["analyze", f["archive.json"]],
     "analysis.json"),
    ("spectrum", "--time-bin", lambda f: ["spectrum", f["archive.json"]], "spectrum.csv"),
    ("spectrum", "--freq-max", lambda f: ["spectrum", f["archive.json"]], "spectrum.csv"),
] + [
    (form, option, base, "beats.json")
    for option in ("--bpm", "--duration", "--offset", "--tightness")
    for form, base in (("beats-bpm", _beats_bpm_form(option)),
                       ("beats-wav", lambda f: ["beats", f["clicks.wav"]]))
]
EXTREMES = ["nan", "inf", "-inf", "1e308", "-1e308"]


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("form,option,base,out_name,value", [
    pytest.param(form, option, base, out_name, value, id=f"{form}{option}={value}")
    for form, option, base, out_name in SWEEP_FORMS for value in EXTREMES
])
def test_extreme_option_value(cli_files, tmp_path, form, option, base, out_name, value):
    """Each run is refused with one ``error:`` line and exit 64, or writes
    strict JSON (no NaN or Infinity) and, from ``beats``, a grid that reads back."""
    out = tmp_path / out_name
    result = CliRunner().invoke(main, base(cli_files) + [option, value, "--out", str(out)])
    assert result.exception is None or isinstance(result.exception, SystemExit), result
    if result.exit_code != 0:
        assert result.exit_code == 64, result.output
        assert result.output.startswith("error: ") and result.output.count("\n") == 1
        return
    written = [name for name in os.listdir(tmp_path) if name.endswith(".json")]
    assert len(written) >= 2, written  # an output and its manifest
    for name in written:
        json.loads((tmp_path / name).read_text(), parse_constant=_refuse_constant)
    if form.startswith("beats"):
        grid_from_dict(json.loads(out.read_text()))
