"""IMF algebra for motion synthesis.

Decompositions of two clips are first aligned (common rate, common duration,
equal IMF counts via zero padding), then an ordered list of operations edits
a working copy of the first: scaling, zeroing, swapping or blending IMFs with
the second decomposition, exchanging trends, and merging adjacent IMFs.
Reconstruction sums IMFs plus trend per channel, and the result can be
written back into a motion clip.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .errors import (
    BadRange,
    BlendSpecError,
    ChannelMismatch,
    InvalidValue,
    LengthMismatch,
    SpecOutOfBounds,
)
from .memd import MultivariateDecomposition, MultivariateSeries
from .mocap_io import MotionClip, apply_channels
from .signal_core import Decomposition, is_number, sum_modes
from .spline import cubic_spline

__all__ = [
    "BlendOp",
    "BlendSpec",
    "AlignedPair",
    "align",
    "merge_imfs",
    "apply_blend",
    "reconstruct",
    "synthesize_clip",
    "blend_spec_from_dict",
    "blend_spec_to_dict",
]

OP_KINDS = ("scale", "zero", "swap", "blend", "trend_exchange", "merge")


def _list_of(value, kind):
    return isinstance(value, (list, tuple)) and all(
        isinstance(v, kind) and not isinstance(v, bool) for v in value
    )


@dataclass
class BlendOp:
    """One editing step.

    ``imfs`` lists 1-based IMF numbers (1 = highest frequency); None means
    all.  ``channels`` lists channel labels; None means all.  ``alpha`` is
    the blend weight (share of the working copy, in [0, 1]) and doubles as
    the multiplier for ``scale``.  ``source`` picks the donor side for swap,
    blend, and trend_exchange: "b" (default) or "a" for the unedited
    original.
    """

    kind: str
    imfs: list | None = None
    channels: list | None = None
    alpha: float | None = None
    source: str = "b"

    def __post_init__(self):
        if self.alpha is not None and not is_number(self.alpha):
            raise BlendSpecError(f"alpha must be a number, got {self.alpha!r:.40}")
        if self.imfs is not None and not _list_of(self.imfs, Integral):
            raise BlendSpecError(f"imfs must list IMF numbers, got {self.imfs!r:.40}")
        if self.channels is not None and not _list_of(self.channels, str):
            raise BlendSpecError(f"channels must list labels, got {self.channels!r:.40}")
        if self.kind not in OP_KINDS:
            raise BlendSpecError(f"unknown op kind: {self.kind!r}")
        if self.source not in ("a", "b"):
            raise BlendSpecError(f"source must be 'a' or 'b', got {self.source!r}")
        if self.kind == "blend":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise BlendSpecError("blend needs alpha in [0, 1]")
        if self.kind == "scale" and self.alpha is None:
            raise BlendSpecError("scale needs alpha as the multiplier")
        if self.kind == "merge" and (self.imfs is None or len(self.imfs) < 2):
            raise BlendSpecError("merge needs at least two IMF indices")


@dataclass
class BlendSpec:
    operations: list
    target_rate: float | None = None

    def __post_init__(self):
        if self.target_rate is not None:
            if not (is_number(self.target_rate) and self.target_rate > 0):
                raise BlendSpecError(
                    f"target_rate must be a positive number, got {self.target_rate!r:.40}"
                )
            self.target_rate = float(self.target_rate)


@dataclass
class AlignedPair:
    """Two decompositions with identical shape: rate, length, labels, IMF count."""

    a: MultivariateDecomposition
    b: MultivariateDecomposition


# ---------------------------------------------------------------------------
# alignment


def _conform(md, times_out, imf_count):
    """Resample ``md`` onto ``times_out`` in one spline call; pad to ``imf_count`` IMFs.

    All channels of a decomposition share one rate and length, so their
    IMFs and trends are fitted as columns of a single not-a-knot spline.
    """
    k = md.imf_count
    series = np.concatenate([md.imfs, md.trend[:, None]], axis=1)
    t_in = np.arange(md.n_samples) / md.rate
    resampled = cubic_spline(t_in, series, times_out)
    imfs = resampled[:, :k]
    if imf_count > k:
        padding = np.zeros((md.n_channels, imf_count - k, times_out.size))
        imfs = np.concatenate([imfs, padding], axis=1)
    return MultivariateDecomposition(
        imfs=imfs,
        trend=resampled[:, k],
        rate=1.0 / (times_out[1] - times_out[0]),
        labels=list(md.labels),
        meta=dict(md.meta),
    )


def align(
    a: MultivariateDecomposition,
    b: MultivariateDecomposition,
    target_rate: float,
) -> AlignedPair:
    """Bring two decompositions onto a common grid and IMF count.

    Every series is cubically resampled to ``target_rate``, both sides are
    truncated to the shorter duration, and the shorter IMF list is padded
    with zero IMFs at the low-frequency end.
    """
    if not 0 < target_rate < np.inf:
        raise InvalidValue(f"target rate must be a positive number, got {target_rate}")
    if list(a.labels) != list(b.labels):
        raise ChannelMismatch(
            f"channel labels differ: {a.labels} vs {b.labels}",
            labels=(list(a.labels), list(b.labels)),
        )
    duration = min(a.n_samples / a.rate, b.n_samples / b.rate)
    n_out = max(2, int(round(duration * target_rate)))
    times_out = np.arange(n_out) / target_rate
    imf_count = max(a.imf_count, b.imf_count)
    return AlignedPair(
        a=_conform(a, times_out, imf_count),
        b=_conform(b, times_out, imf_count),
    )


# ---------------------------------------------------------------------------
# merging


def _merge_rows(imfs, i, j):
    """IMFs ``i..j`` (1-based, inclusive, along axis -2) summed in order into one."""
    merged = imfs[..., i - 1, :].copy()
    for k in range(i, j):
        merged += imfs[..., k, :]
    return np.concatenate(
        [imfs[..., : i - 1, :], merged[..., None, :], imfs[..., j:, :]], axis=-2
    )


def merge_imfs(d: Decomposition, imf_range) -> Decomposition:
    """Sum IMFs ``i..j`` (1-based, inclusive) into one; reconstruction unchanged."""
    i, j = imf_range
    if not (1 <= i < j <= d.imf_count):
        raise BadRange(f"range [{i}, {j}] invalid for {d.imf_count} IMFs")
    return Decomposition(imfs=_merge_rows(d.imfs, i, j), trend=d.trend.copy(),
                         rate=d.rate, meta=dict(d.meta))


# ---------------------------------------------------------------------------
# blending


def _channel_indices(labels, selection):
    if selection is None:
        return list(range(len(labels)))
    indices = []
    for name in selection:
        if name not in labels:
            raise ChannelMismatch(f"unknown channel: {name}", labels=[name])
        indices.append(labels.index(name))
    return indices


def _imf_rows(op_imfs, count):
    if op_imfs is None:
        return list(range(count))
    rows = []
    for n in op_imfs:
        if not 1 <= n <= count:
            raise SpecOutOfBounds(f"IMF index {n} outside 1..{count}")
        rows.append(n - 1)
    return rows


def _passes(channels, rows):
    """(channel, row) index arrays of each pass over the selected cells.

    A cell selected m times (a channel or an IMF listed twice) is in the
    first m passes, so an operation applies to it m times, as if looped.
    """
    ch, ch_times = np.unique(np.asarray(channels, dtype=int), return_counts=True)
    row, row_times = np.unique(np.asarray(rows, dtype=int), return_counts=True)
    times = np.outer(ch_times, row_times)
    for n in range(times.max(initial=0)):
        i, j = np.nonzero(times > n)
        yield ch[i], row[j]


def apply_blend(pair: AlignedPair, spec: BlendSpec) -> MultivariateDecomposition:
    """Apply the operations in order to a working copy of ``pair.a``.

    Overlapping selections compose last-writer-wins.  ``merge`` always acts
    on every channel so the result stays mode-aligned.
    """
    imfs, trend = pair.a.imfs.copy(), pair.a.trend.copy()
    donors = {"a": pair.a, "b": pair.b}
    for op in spec.operations:
        channels = _channel_indices(pair.a.labels, op.channels)
        donor = donors[op.source]
        count = imfs.shape[1]
        if op.kind == "merge":
            lo, hi = min(op.imfs), max(op.imfs)
            if not (1 <= lo < hi <= count):
                raise SpecOutOfBounds(
                    f"merge range [{lo}, {hi}] invalid for {count} IMFs"
                )
            imfs = _merge_rows(imfs, lo, hi)
            continue
        rows = _imf_rows(op.imfs, count)
        if op.kind == "trend_exchange":
            trend[channels] = donor.trend[channels]
            continue
        for cells in _passes(channels, rows):
            if op.kind == "scale":
                imfs[cells] = imfs[cells] * op.alpha
            elif op.kind == "zero":
                imfs[cells] = 0.0
            elif op.kind == "swap":
                imfs[cells] = donor.imfs[cells]
            else:
                donated = (1.0 - op.alpha) * donor.imfs[cells]
                imfs[cells] = op.alpha * imfs[cells] + donated
    return MultivariateDecomposition(
        imfs=imfs, trend=trend, rate=pair.a.rate, labels=list(pair.a.labels),
        meta=dict(pair.a.meta),
    )


def reconstruct(d: MultivariateDecomposition) -> MultivariateSeries:
    """Per-channel sum of IMFs plus trend."""
    return MultivariateSeries(sum_modes(d.imfs, d.trend), rate=d.rate, labels=d.labels)


def synthesize_clip(
    template: MotionClip, d: MultivariateDecomposition, selection=None
) -> MotionClip:
    """Write the reconstruction of ``d`` into ``template``'s channels.

    ``selection`` defaults to the decomposition's channel labels.  The
    decomposition length must match the template frame count (resample
    first if it does not).
    """
    selection = list(selection) if selection is not None else list(d.labels)
    series = reconstruct(d)
    if len(series) != template.frame_count:
        raise LengthMismatch(
            f"decomposition length {len(series)} != template frames "
            f"{template.frame_count}"
        )
    return apply_channels(template, series, selection)


# ---------------------------------------------------------------------------
# JSON spec


def blend_spec_from_dict(obj: dict) -> BlendSpec:
    """Parse {target_rate, operations:[{kind, imfs, channels, alpha, source}]}."""
    if not isinstance(obj, dict) or "operations" not in obj:
        raise BlendSpecError("spec must be an object with an 'operations' list")
    if not isinstance(obj["operations"], list):
        raise BlendSpecError("'operations' must be a list")
    operations = []
    for entry in obj["operations"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise BlendSpecError(f"bad operation entry: {entry!r}")
        unknown = set(entry) - {"kind", "imfs", "channels", "alpha", "source"}
        if unknown:
            raise BlendSpecError(f"unknown operation fields: {sorted(unknown)}")
        operations.append(
            BlendOp(
                kind=entry["kind"],
                imfs=entry.get("imfs"),
                channels=entry.get("channels"),
                alpha=entry.get("alpha"),
                source=entry.get("source", "b"),
            )
        )
    return BlendSpec(operations=operations, target_rate=obj.get("target_rate"))


def blend_spec_to_dict(spec: BlendSpec) -> dict:
    return {
        "target_rate": spec.target_rate,
        "operations": [
            {
                "kind": op.kind,
                "imfs": op.imfs,
                "channels": op.channels,
                "alpha": op.alpha,
                "source": op.source,
            }
            for op in spec.operations
        ],
    }
