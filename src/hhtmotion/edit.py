"""IMF algebra for motion synthesis.

Decompositions of two clips are first aligned (common rate, common duration,
equal IMF counts via zero padding), then an ordered list of operations edits
a working copy of the first: scaling, zeroing, swapping or blending IMFs with
the second decomposition, exchanging trends, and merging adjacent IMFs.
Reconstruction sums IMFs plus trend per channel, and the result can be
written back into a motion clip.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

from .errors import BlendSpecError, ChannelError, InvalidValue
from .mocap_io import MotionClip, apply_channels
from .signal_core import (
    Decomposition,
    TimeSeries,
    channel_index,
    is_number,
    pad_imfs,
    require_form,
    sum_modes,
)
from .spline import cubic_spline

__all__ = [
    "BlendOp",
    "align",
    "apply_blend",
    "synthesize_clip",
    "blend_spec_from_dict",
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
    all, the only value ``trend_exchange`` takes, since it moves trends.
    ``channels`` lists channel labels; None means all, the only value
    ``merge`` takes, since it acts on every channel.  ``alpha`` is
    the blend weight (share of the working copy, in [0, 1]) and doubles as
    the multiplier for ``scale``; the other kinds take None.  ``source``
    picks the donor side for swap, blend, and trend_exchange: "b" (None, the
    default, means "b") or "a" for the unedited original; the other kinds
    take None.  An entry listed twice is refused, but in ``merge``'s
    ``imfs``, which reads only their smallest and largest.
    """

    kind: str
    imfs: list | None = None
    channels: list | None = None
    alpha: float | None = None
    source: str | None = None

    def __post_init__(self):
        if self.alpha is not None and not is_number(self.alpha):
            raise BlendSpecError(f"alpha must be a number, got {self.alpha!r:.40}")
        if self.imfs is not None and not _list_of(self.imfs, Integral):
            raise BlendSpecError(f"imfs must list IMF numbers, got {self.imfs!r:.40}")
        if self.channels is not None and not _list_of(self.channels, str):
            raise BlendSpecError(f"channels must list labels, got {self.channels!r:.40}")
        if self.kind not in OP_KINDS:
            raise BlendSpecError(f"unknown op kind: {self.kind!r}")
        if self.source not in (None, "a", "b"):
            raise BlendSpecError(f"source must be 'a' or 'b', got {self.source!r}")
        if self.kind == "blend":
            if self.alpha is None or not 0.0 <= self.alpha <= 1.0:
                raise BlendSpecError("blend needs alpha in [0, 1]")
        if self.kind == "scale" and self.alpha is None:
            raise BlendSpecError("scale needs alpha as the multiplier")
        if self.kind == "merge" and (self.imfs is None or len(self.imfs) < 2):
            raise BlendSpecError("merge needs at least two IMF indices")
        if self.kind == "merge" and self.channels is not None:
            raise BlendSpecError("merge acts on every channel; it takes no channels")
        if self.alpha is not None and self.kind not in ("scale", "blend"):
            raise BlendSpecError(f"{self.kind} takes no alpha; only scale and blend do")
        if self.kind == "trend_exchange" and self.imfs is not None:
            raise BlendSpecError("trend_exchange moves trends; it takes no imfs")
        if self.source is not None and self.kind in ("scale", "zero", "merge"):
            raise BlendSpecError(
                f"{self.kind} takes no source; only swap, blend and trend_exchange do")
        if self.kind != "merge":
            for name in ("imfs", "channels"):
                listed = getattr(self, name) or []
                repeated = [v for i, v in enumerate(listed) if v in listed[:i]]
                if repeated:
                    raise BlendSpecError(f"{name} lists {repeated[0]} twice")


# ---------------------------------------------------------------------------
# alignment


def _conform(d, times_out, rate, imf_count):
    """Resample ``d`` onto ``times_out`` at ``rate`` in one spline call; pad to ``imf_count`` IMFs.

    All channels of a decomposition share one rate and length, so their
    IMFs and trends are fitted as columns of a single not-a-knot spline.
    """
    k = d.imf_count
    series = np.concatenate([d.imfs, d.trend[..., None, :]], axis=-2)
    t_in = np.arange(d.n_samples) / d.rate
    resampled = cubic_spline(t_in, series, times_out)
    return Decomposition(
        imfs=pad_imfs(resampled[..., :k, :], imf_count),
        trend=resampled[..., k, :],
        rate=rate,
        meta=dict(d.meta),
        labels=d.labels,
    )


def _same_labels(a, b):
    if a.labels != b.labels:
        raise ChannelError(f"channel labels differ: {a.labels} vs {b.labels}")


def align(a: Decomposition, b: Decomposition, target_rate: float) -> tuple:
    """Bring two decompositions onto a common grid and IMF count; returns
    the pair ``(a, b)`` conformed, with equal labels and shapes.

    Every series is cubically resampled to ``target_rate``, both sides are
    truncated to the shorter duration, and the shorter IMF list is padded
    with zero IMFs at the low-frequency end.
    """
    if not 0 < target_rate < np.inf:
        raise InvalidValue(f"target rate must be a positive number, got {target_rate}")
    _same_labels(a, b)
    duration = min(a.n_samples / a.rate, b.n_samples / b.rate)
    n_out = max(2, int(round(duration * target_rate)))
    times_out = np.arange(n_out) / target_rate
    imf_count = max(a.imf_count, b.imf_count)
    rate = float(target_rate)
    return _conform(a, times_out, rate, imf_count), _conform(b, times_out, rate, imf_count)


# ---------------------------------------------------------------------------
# merging


def _merge_rows(imfs, i, j):
    """IMFs ``i..j`` (1-based, inclusive, along axis -2) summed in order into one."""
    if not (1 <= i < j <= imfs.shape[-2]):
        raise BlendSpecError(f"merge range [{i}, {j}] invalid for {imfs.shape[-2]} IMFs")
    merged = sum_modes(imfs[..., i:j, :], imfs[..., i - 1, :])
    return np.concatenate(
        [imfs[..., : i - 1, :], merged[..., None, :], imfs[..., j:, :]], axis=-2
    )


# ---------------------------------------------------------------------------
# blending


def _imf_rows(op_imfs, count):
    if op_imfs is None:
        return list(range(count))
    for n in op_imfs:
        if not 1 <= n <= count:
            raise BlendSpecError(f"IMF index {n} outside 1..{count}")
    return [n - 1 for n in op_imfs]


def apply_blend(a: Decomposition, b: Decomposition, operations: list) -> Decomposition:
    """Apply the :class:`BlendOp` list ``operations`` in order to a working
    copy of ``a``, with ``b`` as the donor.

    Both decompositions need a channel axis, the same labels and the same
    IMF and sample counts (:class:`ChannelError` otherwise), as :func:`align`
    returns them.  Overlapping selections compose last-writer-wins.
    ``merge`` always acts on every channel so the result stays mode-aligned,
    and on both donors too, so that IMF k names the same rows on every side.
    """
    for d in (a, b):
        require_form(d, True, "apply_blend")
    _same_labels(a, b)
    if a.imfs.shape != b.imfs.shape:
        raise ChannelError(f"IMFs shaped {a.imfs.shape} vs {b.imfs.shape}; align them first")
    imfs, trend = a.imfs.copy(), a.trend.copy()
    donors = {"a": a.imfs, "b": b.imfs}
    for op in operations:
        if op.kind == "merge":
            span = min(op.imfs), max(op.imfs)
            imfs = _merge_rows(imfs, *span)
            donors = {side: _merge_rows(d, *span) for side, d in donors.items()}
            continue
        names = a.labels if op.channels is None else op.channels
        channels = [channel_index(a.labels, name) for name in names]
        side = op.source or "b"
        if op.kind == "trend_exchange":
            trend[channels] = (a if side == "a" else b).trend[channels]
            continue
        cells = np.ix_(channels, _imf_rows(op.imfs, imfs.shape[-2]))
        donor = donors[side]
        if op.kind == "scale":
            imfs[cells] *= op.alpha
        elif op.kind == "zero":
            imfs[cells] = 0.0
        elif op.kind == "swap":
            imfs[cells] = donor[cells]
        else:
            imfs[cells] = op.alpha * imfs[cells] + (1.0 - op.alpha) * donor[cells]
    return Decomposition(imfs=imfs, trend=trend, rate=a.rate, meta=dict(a.meta),
                         labels=a.labels)


def synthesize_clip(template: MotionClip, d: Decomposition) -> MotionClip:
    """Write the reconstruction of ``d``, which has a channel axis, into the
    ``template`` channels that ``d.labels`` names.

    The decomposition length must match the template frame count (resample
    first if it does not).
    """
    require_form(d, True, "synthesize_clip")
    return apply_channels(template, TimeSeries(d.reconstruct(), d.rate, labels=d.labels))


# ---------------------------------------------------------------------------
# JSON spec


def blend_spec_from_dict(obj: dict) -> list:
    """The :class:`BlendOp` list of a spec ``{operations: [{kind, imfs,
    channels, alpha, source}]}``.  Other top-level keys are ignored, so the
    ``target_rate`` of earlier specs still reads and has no effect."""
    if not isinstance(obj, dict) or "operations" not in obj:
        raise BlendSpecError("spec must be an object with an 'operations' list")
    if not isinstance(obj["operations"], list):
        raise BlendSpecError("'operations' must be a list")
    operations = []
    for entry in obj["operations"]:
        if not isinstance(entry, dict) or "kind" not in entry:
            raise BlendSpecError(f"bad operation entry: {entry!r}")
        unknown = set(entry) - {field.name for field in fields(BlendOp)}
        if unknown:
            raise BlendSpecError(f"unknown operation fields: {sorted(unknown)}")
        operations.append(BlendOp(**entry))
    return operations
