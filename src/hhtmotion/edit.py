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

import numpy as np

from .errors import (
    BadRange,
    BlendSpecError,
    ChannelMismatch,
    LengthMismatch,
    SpecOutOfBounds,
)
from .memd import MultivariateDecomposition, MultivariateSeries
from .mocap_io import MotionClip, apply_channels
from .signal_core import Decomposition
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


@dataclass
class AlignedPair:
    """Two decompositions with identical shape: rate, length, labels, IMF count."""

    a: MultivariateDecomposition
    b: MultivariateDecomposition


# ---------------------------------------------------------------------------
# alignment


def _conform(md, n_out, times_out, imf_count):
    """Resample every series of ``md`` onto ``times_out`` in one spline call.

    All channels of a decomposition share one rate and length, so their
    IMFs and trends are fitted as columns of a single not-a-knot spline.
    """
    k = md.imf_count
    series = np.array([d.imfs + [d.trend] for d in md.per_channel])
    t_in = np.arange(series.shape[-1]) / md.rate
    resampled = cubic_spline(t_in, series, times_out)
    per_channel = []
    for d, rows in zip(md.per_channel, resampled):
        imfs = list(rows[:k])
        imfs.extend(np.zeros(n_out) for _ in range(imf_count - k))
        per_channel.append(
            Decomposition(
                imfs=imfs,
                trend=rows[k],
                rate=1.0 / (times_out[1] - times_out[0]),
                meta=dict(d.meta),
            )
        )
    return MultivariateDecomposition(
        per_channel=per_channel, labels=list(md.labels), meta=dict(md.meta)
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
    if list(a.labels) != list(b.labels):
        raise ChannelMismatch(
            f"channel labels differ: {a.labels} vs {b.labels}",
            labels=(list(a.labels), list(b.labels)),
        )
    dur_a = a.per_channel[0].trend.size / a.rate
    dur_b = b.per_channel[0].trend.size / b.rate
    n_out = max(2, int(round(min(dur_a, dur_b) * target_rate)))
    times_out = np.arange(n_out) / target_rate
    imf_count = max(a.imf_count, b.imf_count)
    return AlignedPair(
        a=_conform(a, n_out, times_out, imf_count),
        b=_conform(b, n_out, times_out, imf_count),
    )


# ---------------------------------------------------------------------------
# merging


def merge_imfs(d: Decomposition, imf_range) -> Decomposition:
    """Sum IMFs ``i..j`` (1-based, inclusive) into one; reconstruction unchanged."""
    i, j = imf_range
    if not (1 <= i < j <= d.imf_count):
        raise BadRange(f"range [{i}, {j}] invalid for {d.imf_count} IMFs")
    merged = d.imfs[i - 1].copy()
    for c in d.imfs[i : j]:
        merged = merged + c
    imfs = d.imfs[: i - 1] + [merged] + d.imfs[j:]
    return Decomposition(imfs=imfs, trend=d.trend.copy(), rate=d.rate,
                         meta=dict(d.meta))


# ---------------------------------------------------------------------------
# blending


def _copy_multivariate(md):
    return MultivariateDecomposition(
        per_channel=[
            Decomposition(
                imfs=[c.copy() for c in d.imfs],
                trend=d.trend.copy(),
                rate=d.rate,
                meta=dict(d.meta),
            )
            for d in md.per_channel
        ],
        labels=list(md.labels),
        meta=dict(md.meta),
    )


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


def apply_blend(pair: AlignedPair, spec: BlendSpec) -> MultivariateDecomposition:
    """Apply the operations in order to a working copy of ``pair.a``.

    Overlapping selections compose last-writer-wins.  ``merge`` always acts
    on every channel so the result stays mode-aligned.
    """
    work = _copy_multivariate(pair.a)
    donors = {"a": pair.a, "b": pair.b}
    for op in spec.operations:
        channels = _channel_indices(work.labels, op.channels)
        donor = donors[op.source]
        if op.kind == "merge":
            lo, hi = min(op.imfs), max(op.imfs)
            if not (1 <= lo < hi <= work.imf_count):
                raise SpecOutOfBounds(
                    f"merge range [{lo}, {hi}] invalid for {work.imf_count} IMFs"
                )
            work = MultivariateDecomposition(
                per_channel=[merge_imfs(d, (lo, hi)) for d in work.per_channel],
                labels=work.labels,
                meta=work.meta,
            )
            continue
        rows = _imf_rows(op.imfs, work.imf_count)
        for ch in channels:
            target = work.per_channel[ch]
            if op.kind == "trend_exchange":
                target.trend = donor.per_channel[ch].trend.copy()
                continue
            for row in rows:
                if op.kind == "scale":
                    target.imfs[row] = target.imfs[row] * op.alpha
                elif op.kind == "zero":
                    target.imfs[row] = np.zeros_like(target.imfs[row])
                elif op.kind == "swap":
                    if row >= donor.imf_count:
                        raise SpecOutOfBounds(
                            f"IMF index {row + 1} missing from donor"
                        )
                    target.imfs[row] = donor.per_channel[ch].imfs[row].copy()
                elif op.kind == "blend":
                    if row >= donor.imf_count:
                        raise SpecOutOfBounds(
                            f"IMF index {row + 1} missing from donor"
                        )
                    target.imfs[row] = (
                        op.alpha * target.imfs[row]
                        + (1.0 - op.alpha) * donor.per_channel[ch].imfs[row]
                    )
    return work


def reconstruct(d: MultivariateDecomposition) -> MultivariateSeries:
    """Per-channel sum of IMFs plus trend."""
    matrix = np.stack([dec.reconstruct() for dec in d.per_channel], axis=1)
    return MultivariateSeries.from_matrix(matrix, rate=d.rate, labels=d.labels)


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
    target_rate = obj.get("target_rate")
    return BlendSpec(
        operations=operations,
        target_rate=float(target_rate) if target_rate is not None else None,
    )


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
