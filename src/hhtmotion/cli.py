"""Command-line pipeline: decompose, beats, analyze, spectrum, blend.

Each stage reads and writes files (BVH, WAV, JSON archives) so runs can be
scripted and replayed.  Every command writes a ``<out>.manifest.json``
recording the command, content hashes of the inputs, all parameters, and the
output paths; re-running with identical inputs and parameters reproduces the
outputs byte for byte.

A failure prints one ``error:`` line and exits with the code that
``EXIT_CODES`` gives the error's type: 2 unreadable or malformed input
(BVH, WAV, archive, beat grid), 3 unknown channels or shape mismatch,
4 decomposition did not converge, 5 no periodicity in audio, 6 blend-spec
schema error, 64 invalid option value, an output that cannot be written, or
an output path that is a directory or names an input or another output.
click's own usage errors (an unknown option, a missing or mistyped value)
exit 2.  An option value, or a blend template's frame rate, that would
size an array beyond ``MAX_ELEMENTS`` counts as invalid and is refused
before anything is allocated.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

import click
from click.core import ParameterSource

from . import __version__, errors
from .analysis import (
    detect_singular_imfs,
    fibonacci_relations,
    hilbert_spectrum,
    spectrum_sidecar,
    spectrum_to_csv,
    summarize,
    trend_rms_fraction,
    wafa,
)
from .beat import (
    BeatGrid,
    estimate_tempo,
    fixed_grid,
    grid_from_dict,
    grid_to_dict,
    onset_envelope,
    read_wav,
    segment_by_beats,
    track_beats,
)
from .edit import align, apply_blend, blend_spec_from_dict, synthesize_clip
from .memd import (
    check_noise_channels,
    direction_set,
    memd,
    multivariate_from_dict,
    multivariate_to_dict,
    na_memd,
)
from .mocap_io import extract_channels, parse_bvh, write_bvh
from .signal_core import channel_index, emd

# Exit code of each error type, looked up along the raised type's MRO.
EXIT_CODES = {
    errors.HhtMotionError: 2,  # any other: input the pipeline cannot work on
    errors.InputError: 2,
    errors.ChannelError: 3,
    errors.NoConvergence: 4,
    errors.NoBeats: 5,
    errors.BlendSpecError: 6,
    errors.InvalidValue: 64,
}


# The largest array an option value or a blend template's frame rate may ask
# for: 2**27 elements, 1 GiB of float64.  A value past it exits 64 before
# anything is allocated.
MAX_ELEMENTS = 2**27


def _check_size(elements, what):
    if elements > MAX_ELEMENTS:
        raise errors.InvalidValue(
            f"{what} asks for {elements:.3g} array elements; the limit is {MAX_ELEMENTS}"
        )


# The options each mode ignores, each with what it applies to instead: given,
# they are refused (exit 64); defaulted, the manifest leaves them out.
_NA_MEMD, _MEMD = "--method na-memd", "--method memd or na-memd"
_IGNORED = {
    "--method emd": {"noise_pct": _NA_MEMD, "noise_channels": _NA_MEMD,
                     "directions": _MEMD, "seed": _MEMD},
    "--method memd": {"noise_pct": _NA_MEMD, "noise_channels": _NA_MEMD},
    "--method na-memd": {},
    "--bpm": {"tightness": "a WAV path"},
    "a WAV path": {"duration": "--bpm"},
}


def _refuse_ignored(mode):
    """Refuse the options that ``mode`` ignores if any was given explicitly:
    exit 64 naming the first, and what it applies to.  Returns those options."""
    ctx = click.get_current_context()
    for name, applies_to in _IGNORED[mode].items():
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
            option = "--" + name.replace("_", "-")
            raise errors.InvalidValue(f"{option} applies to {applies_to}, not to {mode}")
    return _IGNORED[mode]


class _Pipeline(click.Group):
    """The command group: an hhtmotion error ends any command with one
    ``error:`` line and the exit code ``EXIT_CODES`` gives its type."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except errors.HhtMotionError as exc:
            click.echo("error: " + " ".join(str(exc).splitlines()), err=True)
            sys.exit(next(EXIT_CODES[t] for t in type(exc).__mro__ if t in EXIT_CODES))


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(65536), b""):
            digest.update(block)
    return "sha256:" + digest.hexdigest()


def _dump_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_outputs(outputs, ignored=(), **recorded):
    """Write the running command's ``outputs``, ``(path, text)`` pairs with
    ``--out`` first and then any sidecar, and ``<--out>.manifest.json``.

    If two of these files, or one of them and an input, are the same file,
    or one of them is a directory, nothing is written and the command exits
    64.  Every file is written to a temporary file beside it before any
    replaces its path, so a failed write replaces none of them.  The
    manifest records the command's existing-path arguments that were given
    as its inputs, hashed, and its other options but paths and ``--seed`` as
    its parameters, as given, but for the ``ignored`` ones the run did not
    use (a null ``seed``); ``recorded`` replaces a value the command
    normalised.
    """
    ctx = click.get_current_context()
    inputs, parameters = [], {}
    for param in ctx.command.params:
        value = ctx.params[param.name]
        if isinstance(param.type, click.Path):
            if param.type.exists and value is not None:
                inputs.append(value)
        elif param.name not in ("seed", *ignored):
            parameters[param.name] = value
    parameters.update(recorded)
    paths = [str(path) for path, _ in outputs]
    manifest = {
        "command": ctx.info_name,
        "inputs": {path: _sha256(path) for path in inputs},
        "parameters": parameters,
        "seed": None if "seed" in ignored else ctx.params.get("seed"),
        "tool_version": __version__,
        "outputs": paths,
    }
    outputs = [*outputs, (paths[0] + ".manifest.json", _dump_json(manifest))]

    taken = {os.path.realpath(path): f"the input {path}" for path in inputs}
    roles = ["--out"] + ["the sidecar"] * (len(paths) - 1) + ["the manifest"]
    for role, (path, _) in zip(roles, outputs):
        key = os.path.realpath(path)
        if key in taken:
            raise errors.InvalidValue(f"{role} {path} would overwrite {taken[key]}")
        if os.path.isdir(path):
            raise errors.InvalidValue(f"{role} {path} is a directory")
        taken[key] = f"{role} {path}"

    # mkstemp makes its files 0600: give them the mode open() would, 0666 less the umask
    umask = os.umask(0)
    os.umask(umask)
    staged = []
    try:
        for path, text in outputs:
            fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                       prefix=".tmp-")
            staged.append(tmp)
            with os.fdopen(fd, "w") as handle:
                os.chmod(tmp, 0o666 & ~umask)
                handle.write(text)
        for tmp, (path, _) in zip(staged, outputs):
            os.replace(tmp, path)
    except OSError as exc:
        raise errors.InvalidValue(f"cannot write {path}: {exc.strerror}") from None
    finally:
        for tmp in staged:
            if os.path.exists(tmp):
                os.unlink(tmp)


@contextlib.contextmanager
def _reading(path, error=errors.InputError):
    """Name ``path`` in any error raised while reading it.

    hhtmotion errors keep their type, so their exit code; failing to open,
    decode or parse the file (nesting too deep included) raises ``error``.
    """
    try:
        yield
    except errors.HhtMotionError as exc:
        exc.args = (f"{path}: {exc}",)
        raise
    except RecursionError:  # its wording depends on where the limit trips
        raise error(f"cannot read {path}: nested too deep") from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def _load_archive(path):
    with _reading(path), open(path) as handle:
        return multivariate_from_dict(json.load(handle))


def _load_bvh(path):
    with _reading(path), open(path) as handle:
        return parse_bvh(handle.read())


@click.group(cls=_Pipeline)
@click.version_option(version=__version__)
def main():
    """Decompose, analyze, and blend motion-capture signals."""


@main.command("decompose")
@click.argument("bvh_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--channels", required=True,
              help="Comma-separated joint.Channel names, e.g. hips.Xrotation")
@click.option("--method", type=click.Choice(["emd", "memd", "na-memd"]),
              default="na-memd", show_default=True)
@click.option("--sd-threshold", type=float, default=0.25, show_default=True)
@click.option("--directions", type=int, default=64, show_default=True,
              help="Projection direction count for memd/na-memd; raised to "
                   "2 x dimensions (channels, plus noise channels for na-memd) "
                   "when below that")
@click.option("--noise-pct", type=float, default=0.09, show_default=True,
              help="Noise amplitude as a share of the signal RMS (na-memd)")
@click.option("--noise-channels", type=int, default=1, show_default=True,
              help="Noise channel count (na-memd)")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed of the direction set and of na-memd's noise (memd/na-memd)")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_decompose(bvh_path, channels, method, sd_threshold, directions,
                  noise_pct, noise_channels, seed, out):
    """Decompose selected BVH channels into an IMF archive."""
    ignored = _refuse_ignored(f"--method {method}")
    clip = _load_bvh(bvh_path)
    selection = [name.strip() for name in channels.split(",") if name.strip()]
    if not selection:
        raise errors.InvalidValue("--channels names no channel")
    repeated = [name for i, name in enumerate(selection) if name in selection[:i]]
    if repeated:
        raise errors.InvalidValue(f"--channels names {repeated[0]} twice")
    with _reading(bvh_path):
        series = extract_channels(clip, selection)

    if method == "emd":
        decomp = emd(series, sd_threshold=sd_threshold)
    else:
        # one direction set over the channels plus na-memd's noise channels;
        # direction_set raises the count to 2 per dimension
        noise = noise_channels if method == "na-memd" else 0
        dims = series.n_channels + noise
        if method == "na-memd":
            try:
                check_noise_channels(noise)
            except errors.InvalidValue as exc:
                raise errors.InvalidValue(f"--noise-channels: {exc}") from None
            _check_size(2 * dims * max(len(series), dims), f"--noise-channels {noise}")
        _check_size(max(directions, 2 * dims) * max(len(series), dims),
                    f"--directions {directions}")
        dirs = direction_set(dims, directions, seed=seed)
        if method == "memd":
            decomp = memd(series, dirs=dirs, sd_threshold=sd_threshold)
        else:
            decomp = na_memd(
                series,
                noise_channels=noise_channels,
                noise_pct=noise_pct,
                seed=seed,
                dirs=dirs,
                sd_threshold=sd_threshold,
            )

    _write_outputs([(out, _dump_json(multivariate_to_dict(decomp)))], ignored,
                   channels=selection)
    click.echo(
        f"{decomp.imf_count} IMFs; trend RMS fraction "
        f"{trend_rms_fraction(decomp):.4f}"
    )


@main.command("beats")
@click.argument("wav_path", required=False,
                type=click.Path(exists=True, dir_okay=False))
@click.option("--bpm", type=float, default=None,
              help="Fixed tempo instead of tracking audio")
@click.option("--duration", type=float, default=None,
              help="Grid length in seconds (with --bpm)")
@click.option("--offset", type=float, default=0.0, show_default=True)
@click.option("--tightness", type=float, default=400.0, show_default=True,
              help="Beat tracking's tempo rigidity (with a WAV path)")
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_beats(wav_path, bpm, duration, offset, tightness, out):
    """Produce a beat grid from audio or from a fixed tempo."""
    if (wav_path is None) == (bpm is None):
        raise errors.InvalidValue("provide exactly one of a WAV path or --bpm")
    if bpm is not None:
        if duration is None:
            raise errors.InvalidValue("--bpm needs --duration")
        ignored = _refuse_ignored("--bpm")
        _check_size(duration * bpm / 60.0, f"--duration {duration:g} at --bpm {bpm:g}")
        grid = fixed_grid(bpm, duration)
    else:
        ignored = _refuse_ignored("a WAV path")
        with _reading(wav_path):
            envelope = onset_envelope(read_wav(wav_path))
        tempo = estimate_tempo(envelope)
        grid = track_beats(envelope, tempo, tightness=tightness)
    try:
        grid = BeatGrid(beats=grid.beats + offset, bpm=grid.bpm)
    except ValueError as exc:
        raise errors.InvalidValue(f"--offset {offset:g}: {exc}") from None

    _write_outputs([(out, _dump_json(grid_to_dict(grid)))], ignored)
    click.echo(f"{len(grid)} beats at {grid.bpm:.2f} BPM")


@main.command("analyze")
@click.argument("archive_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--beats", "beats_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Beat grid JSON for per-segment statistics")
@click.option("--beats-per-segment", type=int, default=1, show_default=True)
@click.option("--fibonacci-tolerance", type=float, default=0.05, show_default=True)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_analyze(archive_path, beats_path, beats_per_segment,
                fibonacci_tolerance, out):
    """Weighted-frequency, sum-relation, and summary reports for an archive."""
    decomp = _load_archive(archive_path)
    segments = None
    if beats_path is not None:
        with _reading(beats_path), open(beats_path) as handle:
            grid = grid_from_dict(json.load(handle))
        segments = segment_by_beats(decomp.n_samples, decomp.rate, grid,
                                    beats_per_segment)

    channels_report = []
    warnings = []
    overall_freqs = []
    for label, d in zip(decomp.labels, decomp.per_channel):
        per_segment, overall, excluded_fraction = wafa(d, segments)
        overall_freqs.append(overall)
        entry = {
            "label": label,
            "wafa": {
                "per_imf_per_segment": per_segment.tolist(),
                "per_imf_overall": overall.tolist(),
                "excluded_fraction": excluded_fraction,
            },
        }
        try:
            triples, chain_length = fibonacci_relations(overall,
                                                        tolerance=fibonacci_tolerance)
            entry["fibonacci"] = {
                "triples": [list(t) for t in triples],
                "chain_length": chain_length,
                "tolerance": fibonacci_tolerance,
            }
        except errors.DegenerateSignal as exc:
            entry["fibonacci"] = None
            warnings.append(f"{label}: {exc}")
        try:
            entry["singular_imfs"] = detect_singular_imfs(overall)
        except errors.DegenerateSignal as exc:
            entry["singular_imfs"] = None
            warnings.append(f"{label}: {exc}")
        channels_report.append(entry)

    low, high = summarize(decomp, overall_freqs)
    payload = {
        "summary": {
            "imf_count": decomp.imf_count,
            "freq_range": [low, high],
            "trend_rms_fraction": trend_rms_fraction(decomp),
        },
        "channels": channels_report,
        "warnings": warnings,
    }
    _write_outputs([(out, _dump_json(payload))])
    for message in warnings:
        click.echo(f"warning: {message}", err=True)
    click.echo(f"{decomp.imf_count} IMFs, frequency range [{low:.2f}, {high:.2f}] Hz")


@main.command("spectrum")
@click.argument("archive_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--channel", default=None,
              help="Channel label (defaults to the first channel)")
@click.option("--time-bin", type=float, default=0.05, show_default=True)
@click.option("--freq-bins", type=int, default=100, show_default=True)
@click.option("--freq-max", type=float, default=None,
              help="Upper frequency edge in Hz (defaults to Nyquist)")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="CSV path; a .json sidecar lands next to it")
def cmd_spectrum(archive_path, channel, time_bin, freq_bins, freq_max, out):
    """Export a time-frequency energy grid as CSV plus a JSON sidecar."""
    decomp = _load_archive(archive_path)
    d = decomp.per_channel[0 if channel is None else channel_index(decomp.labels, channel)]
    if time_bin > 0:  # hilbert_spectrum refuses the rest
        _check_size(decomp.n_samples / decomp.rate / time_bin * freq_bins,
                    f"--time-bin {time_bin:g} with --freq-bins {freq_bins}")
    energy, time_edges, freq_edges, overflow = hilbert_spectrum(
        d, time_bin=time_bin, freq_max=freq_max, freq_bins=freq_bins)
    sidecar = _dump_json(spectrum_sidecar(time_edges, freq_edges, overflow))
    _write_outputs([(out, spectrum_to_csv(energy)),
                    (os.path.splitext(out)[0] + ".json", sidecar)])
    click.echo(f"grid {energy.shape[0]} x {energy.shape[1]}, overflow {overflow:.4g}")


@main.command("blend")
@click.argument("archive_a", type=click.Path(exists=True, dir_okay=False))
@click.argument("archive_b", type=click.Path(exists=True, dir_okay=False))
@click.option("--spec", "spec_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--template", "template_path", required=True,
              type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_blend(archive_a, archive_b, spec_path, template_path, out):
    """Edit archive A against archive B and write the result into a BVH.

    Both archives are resampled to the template's frame rate, one sample
    per template frame."""
    a = _load_archive(archive_a)
    b = _load_archive(archive_b)
    with _reading(spec_path, errors.BlendSpecError), open(spec_path) as handle:
        operations = blend_spec_from_dict(json.load(handle))
    template = _load_bvh(template_path)

    seconds = min(a.n_samples / a.rate, b.n_samples / b.rate)
    rows = a.n_channels * (max(a.imf_count, b.imf_count) + 1)
    _check_size(seconds * template.rate * rows, f"template rate {template.rate:g}")
    a, b = align(a, b, template.rate)
    clip = synthesize_clip(template, apply_blend(a, b, operations))

    _write_outputs([(out, write_bvh(clip))])
    click.echo(f"wrote {clip.frame_count} frames to {out}")


if __name__ == "__main__":
    main()
