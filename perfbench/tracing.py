"""Traced replay: each stage run in-process with a span around every layer call.

The replay runs the CLI's own command (``hhtmotion.cli.main``) in this
process, after rebinding each function the command module imported from
another layer to a wrapper that records a span around the call.  The replay
therefore calls the same public functions as the CLI, in the same order and
with the same arguments, and its outputs are compared byte for byte with
those of the untraced invocations.

Spans are kept in memory as ``(name, start, end, parent, pass_id)`` and
written out with the run's results.  A span's name is ``<layer>.<function>``;
the stage itself is the span ``cli.<stage>``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import re
import statistics
import subprocess
import sys
import time

import workloads

# (layer, function) pairs the CLI module imports and calls; each gets a span.
LAYER_CALLS = {
    "mocap_io": ("parse_bvh", "extract_channels", "write_bvh"),
    "memd": ("direction_set", "memd", "na_memd"),
    "signal_core": ("emd",),
    "beat": ("read_wav", "onset_envelope", "estimate_tempo", "track_beats", "fixed_grid",
             "grid_from_dict", "grid_to_dict"),
    "analysis": ("wafa", "fibonacci_relations", "detect_singular_imfs", "summarize",
                 "hilbert_spectrum", "spectrum_to_csv", "spectrum_sidecar"),
    "edit": ("align", "apply_blend", "blend_spec_from_dict", "synthesize_clip"),
}
LAYERS = ("cli",) + tuple(LAYER_CALLS)

# Per-layer metrics reported by a traced run.  Times are totals over the
# pass; "moves" names the end-to-end metric and workload each should move.
PER_LAYER = {
    "cli.import_s": ("s", "every stage time, most on short-clips"),
    "cli.import_scipy_s": ("s", "every stage time, most on short-clips"),
    "cli.archive_write_s": ("s", "decompose_s on wide-emd"),
    "cli.archive_read_s": ("s", "analyze_s, spectrum_s and blend_s on wide-emd"),
    "cli.archive_mb": ("MB", "decompose_s, analyze_s, spectrum_s and blend_s on wide-emd"),
    "cli.other_s": ("s", "every stage time"),
    "mocap_io.parse_bvh_s": ("s", "decompose_s and blend_s on dance-namemd"),
    "mocap_io.write_bvh_s": ("s", "blend_s on dance-namemd"),
    "mocap_io.extract_channels_s": ("s", "decompose_s on dance-namemd"),
    "memd.na_memd_s": ("s", "decompose_s on dance-namemd; nothing on wide-emd"),
    "memd.memd_s": ("s", "decompose_s on short-clips; nothing on wide-emd"),
    "memd.mean_envelope_s": ("s", "decompose_s on dance-namemd and short-clips"),
    "memd.sifts_est": ("count", "decompose_s on dance-namemd and short-clips"),
    "memd.imf_count": ("count", "decompose_s on dance-namemd and short-clips"),
    "signal_core.emd_s": ("s", "decompose_s on wide-emd"),
    "signal_core.envelope_pair_s": ("s", "decompose_s on wide-emd"),
    "signal_core.imf_count": ("count", "decompose_s and analyze_s on wide-emd"),
    "signal_core.hilbert_s": ("s", "analyze_s and spectrum_s on wide-emd"),
    "beat.read_wav_s": ("s", "beats_s on dance-namemd"),
    "beat.onset_envelope_s": ("s", "beats_s on dance-namemd"),
    "beat.estimate_tempo_s": ("s", "beats_s on dance-namemd"),
    "beat.track_beats_s": ("s", "beats_s on dance-namemd"),
    "analysis.wafa_s": ("s", "analyze_s on wide-emd"),
    "analysis.summarize_s": ("s", "analyze_s and decompose_s on wide-emd"),
    "analysis.hilbert_spectrum_s": ("s", "spectrum_s on wide-emd"),
    "analysis.spectrum_to_csv_s": ("s", "spectrum_s on every workload"),
    "edit.align_s": ("s", "blend_s on wide-emd and dance-namemd"),
    "edit.apply_blend_s": ("s", "blend_s on wide-emd and dance-namemd"),
    "edit.synthesize_clip_s": ("s", "blend_s on wide-emd and dance-namemd"),
}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = ("s", f"the stages that call {_layer}")
PER_LAYER["trace.coverage"] = ("ratio", "none: share of stage wall time inside layer spans")


class Tracer:
    """Spans kept in memory: ``[name, start, end, parent index, pass id]``."""

    def __init__(self, pass_id):
        self.pass_id = pass_id
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn, record=None):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if record is not None:
                record.append((args, kwargs, result))
            return result
        return traced

    def total(self, name):
        return sum((end - start for n, start, end, _, _ in self.spans if n == name), 0.0)

    def self_times(self):
        """Each layer's span time minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        totals = dict.fromkeys(LAYERS, 0.0)
        for (name, *_), seconds in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            if layer in totals:
                totals[layer] += seconds
        return totals


@contextlib.contextmanager
def _patched(items):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in items]
    for obj, attr, value in items:
        setattr(obj, attr, value)
    try:
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)


def replay(steps, pass_id):
    """Run ``steps`` in-process under spans; returns (tracer, exit codes, records).

    ``records`` keeps what the probes need: each EMD call, each input that
    reaches MEMD (NA-MEMD's includes its noise channels), and each
    decomposition the CLI archives.
    """
    import click
    import hhtmotion.cli as cli

    # the package re-exports the function memd under the module's name
    memd_module = importlib.import_module("hhtmotion.memd")

    tracer = Tracer(pass_id)
    records = {"emd": [], "memd_input": [], "decompose": []}
    dump_json, memd_fn = cli._dump_json, memd_module.memd

    def memd_recorded(x, *args, **kwargs):
        records["memd_input"].append((x, kwargs.get("dirs")))
        return memd_fn(x, *args, **kwargs)

    def to_dict(md):
        records["decompose"].append(md)
        with tracer.span("cli.archive_write"):
            return memd_module.multivariate_to_dict(md)

    def dump(obj):
        if isinstance(obj, dict) and "channels" in obj and "rate" in obj:
            with tracer.span("cli.archive_write"):
                return dump_json(obj)
        return dump_json(obj)

    calls = {name: getattr(cli, name) for names in LAYER_CALLS.values() for name in names}
    calls["memd"] = memd_recorded
    patches = [(cli, name, tracer.wrap(f"{layer}.{name}", calls[name], records.get(name)))
               for layer, names in LAYER_CALLS.items() for name in names]
    patches += [
        (cli, "_load_archive", tracer.wrap("cli.archive_read", cli._load_archive)),
        (cli, "_dump_json", dump),
        (cli, "multivariate_to_dict", to_dict),
        (memd_module, "memd", memd_recorded),
    ]

    codes = []
    with _patched(patches), contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for step in steps:
            with tracer.span(f"cli.{step.stage}"):
                try:
                    cli.main.main(args=list(step.argv), prog_name="hhtmotion",
                                  standalone_mode=False)
                    code = 0
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except click.ClickException as exc:
                    code = exc.exit_code
            codes.append(code)
    return tracer, codes, records


def probes(records):
    """Single-call layer costs on the replay's own inputs.

    ``mean_envelope_s`` is the median over MEMD inputs (the NA-MEMD input
    includes its noise channel) of one mean envelope with their direction set;
    ``envelope_pair_s`` is one envelope pair per EMD channel; ``hilbert_s``
    is the analytic signal plus instantaneous attributes of every IMF.
    """
    from hhtmotion.errors import DegenerateSignal
    from hhtmotion.memd import multivariate_mean_envelope
    from hhtmotion.signal_core import (TimeSeries, analytic_signal, envelope_pair,
                                       instantaneous_attributes)

    out = {}
    envelopes = []
    for x, dirs in records["memd_input"]:
        start = time.perf_counter()
        multivariate_mean_envelope(x, dirs)
        envelopes.append(time.perf_counter() - start)
    out["memd.mean_envelope_s"] = statistics.median(envelopes) if envelopes else 0.0

    pairs = 0.0
    for args, _, _ in records["emd"]:
        start = time.perf_counter()
        envelope_pair(args[0])
        pairs += time.perf_counter() - start
    out["signal_core.envelope_pair_s"] = pairs

    hilbert = 0.0
    for md in records["decompose"]:
        for d in md.per_channel:
            for c in d.imfs:
                if not c.any():
                    continue
                start = time.perf_counter()
                try:
                    instantaneous_attributes(analytic_signal(TimeSeries(c, d.rate)))
                except DegenerateSignal:
                    pass
                hilbert += time.perf_counter() - start
    out["signal_core.hilbert_s"] = hilbert
    return out


# "import time: <self us> | <cumulative us> | <indent><module>"
_IMPORT_LINE = re.compile(r"import time:\s+(\d+)\s+\|\s+\d+\s+\|\s*(\S+)")
_IMPORT_PROBE = ("import time, sys; t = time.perf_counter(); import hhtmotion.cli; "
                 "sys.stdout.write(repr(time.perf_counter() - t))")


def import_probe(env, cwd, repeats=3):
    """Median import time of ``hhtmotion.cli`` in a fresh interpreter, and its scipy share."""
    totals, scipy = [], []
    for _ in range(repeats):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", _IMPORT_PROBE],
                              env=env, cwd=cwd, capture_output=True, text=True, check=True)
        totals.append(float(done.stdout))
        self_us = sum(int(m.group(1)) for m in map(_IMPORT_LINE.match, done.stderr.splitlines())
                      if m and m.group(2).split(".")[0] == "scipy")
        scipy.append(self_us / 1e6)
    return statistics.median(totals), statistics.median(scipy)


def layer_metrics(tracer, records, walls, import_s, import_scipy_s, archive_bytes):
    """Per-layer metric values from a replay and the untraced stage walls."""
    stage_spans = {f"cli.{stage}" for stage in workloads.STAGES}
    layer_spans = sum(end - start for name, start, end, _, _ in tracer.spans
                      if name not in stage_spans)
    m = probes(records)
    m.update({
        "cli.import_s": import_s,
        "cli.import_scipy_s": import_scipy_s,
        "cli.archive_mb": archive_bytes / 1e6,
        "cli.other_s": sum(walls) - len(walls) * import_s - layer_spans,
        "trace.coverage": layer_spans / sum(walls),
    })
    for layer, seconds in tracer.self_times().items():
        m[f"{layer}.self_s"] = seconds
    # the remaining times are span totals: "<layer>.<function>_s"
    for name in PER_LAYER:
        if name not in m and name.endswith("_s"):
            m[name] = tracer.total(name[:-2])
    emd_counts = [result.imf_count for _, _, result in records["emd"]]
    memd_counts = [md.imf_count for md in records["decompose"] if md.meta.get("source") != "emd"]
    m["signal_core.imf_count"] = statistics.mean(emd_counts) if emd_counts else 0.0
    m["memd.imf_count"] = statistics.mean(memd_counts) if memd_counts else 0.0
    sifting = m["memd.na_memd_s"] + m["memd.memd_s"]
    m["memd.sifts_est"] = sifting / m["memd.mean_envelope_s"] if m["memd.mean_envelope_s"] else 0.0
    return {name: m[name] for name in PER_LAYER}


def write_spans(path, tracer):
    with open(path, "w") as handle:
        for name, start, end, parent, pass_id in tracer.spans:
            handle.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "pass": pass_id}) + "\n")
