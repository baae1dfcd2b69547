"""Time-frequency analysis of decompositions.

Builds Hilbert spectra (instantaneous energy binned over time and
frequency), energy-weighted average frequencies per IMF and segment,
summary statistics, sum-relation detection between consecutive IMF
frequencies, and outlier-IMF flagging.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateSignal, InvalidValue
from .signal_core import (
    Decomposition,
    _analytic,
    instantaneous_attributes,
    is_number,
    require_form,
)

__all__ = [
    "hilbert_spectrum",
    "wafa",
    "summarize",
    "trend_rms_fraction",
    "fibonacci_relations",
    "detect_singular_imfs",
    "spectrum_to_csv",
    "spectrum_sidecar",
]

# amplitude floor relative to an IMF's peak amplitude; quieter samples carry
# no usable phase and are excluded from weighting
_AMP_FLOOR = 1e-9
# an IMF carries no signal when it is under 4 samples long, or when its
# amplitude is below this on more than half of its samples
_SILENT = 1e-12


def _imf_attributes(d: Decomposition) -> tuple:
    """``(amplitude, frequency, carries)`` of every IMF of ``d``, from one
    transform: two arrays shaped like ``d.imfs`` and one boolean per IMF,
    False for an IMF that carries no signal."""
    amplitude, frequency = instantaneous_attributes(_analytic(d.imfs, d.rate))
    carries = (d.n_samples >= 4) & (np.mean(amplitude < _SILENT, axis=-1) <= 0.5)
    return amplitude, frequency, carries


def hilbert_spectrum(
    d: Decomposition,
    time_bin: float = 0.05,
    freq_max: float | None = None,
    freq_bins: int = 100,
) -> tuple:
    """Deposit per-IMF instantaneous energy of one channel into a time x
    frequency grid; returns ``(energy, time_edges, freq_edges, overflow)``.

    ``energy[i, j]`` sums the squared amplitude, over all IMFs, of the
    samples in time bin i and frequency bin j, whose edges the two edge
    arrays give.  Samples with negative or out-of-range frequency add to the
    float ``overflow`` instead of the grid.
    """
    require_form(d, False, "hilbert_spectrum")
    if freq_max is None:
        freq_max = d.rate / 2.0
    if not 0 < time_bin < np.inf or freq_bins < 1 or not 0 < freq_max <= d.rate / 2.0:
        raise InvalidValue(
            f"bad binning: time_bin={time_bin} freq_bins={freq_bins} freq_max={freq_max}"
        )
    n = d.trend.size
    duration = n / d.rate
    n_time = max(1, int(np.ceil(duration / time_bin - 1e-9)))
    time_edges = time_bin * np.arange(n_time + 1)
    freq_edges = np.linspace(0.0, freq_max, freq_bins + 1)

    energy = np.zeros((n_time, freq_bins))
    amplitude, frequency, carries = _imf_attributes(d)
    a2, frequency = np.square(amplitude[carries]), frequency[carries]
    in_range = (frequency >= 0.0) & (frequency <= freq_max)
    overflow = 0.0  # per-IMF sums added in IMF order, which fixes the last bits
    for row, kept in zip(a2, in_range):
        overflow += float(np.sum(row[~kept]))
    t_idx = np.minimum((np.arange(n) / d.rate / time_bin).astype(int), n_time - 1)
    f_idx = np.minimum((frequency[in_range] / (freq_max / freq_bins)).astype(int),
                       freq_bins - 1)
    np.add.at(energy, (np.broadcast_to(t_idx, a2.shape)[in_range], f_idx), a2[in_range])
    return energy, time_edges, freq_edges, overflow


def _weighted_mean(weights, frequency, valid) -> float:
    """sum(w f) / sum(w) over the ``valid`` samples; 0 when they weigh nothing."""
    w = weights[valid]
    denom = float(np.sum(w))
    if denom <= 0.0:
        return 0.0
    return float(np.sum(w * frequency[valid]) / denom)


def wafa(d: Decomposition, segments=None) -> tuple:
    """Energy-weighted mean frequency of each IMF of one channel, per segment
    and overall; returns ``(per_segment, overall, excluded_fraction)``.

    Weighted mean = sum(A^2 f) / sum(A^2) over samples with positive
    frequency and non-negligible amplitude.  ``segments`` lists half-open
    ``(start, end)`` frame pairs, as :func:`segment_by_beats` returns them;
    None means one whole-clip segment.  Row k of the (IMFs, segments) array
    ``per_segment`` and entry k of ``overall`` belong to IMF k+1.  A mean
    over positive frequencies is positive, so 0 marks a cell with no usable
    sample.  ``excluded_fraction`` is the share of all IMF samples left out.
    """
    require_form(d, False, "wafa")
    n = d.trend.size
    spans = [(0, n)] if segments is None else [*segments, (0, n)]
    means = np.zeros((d.imf_count, len(spans)))
    amplitude, frequency, carries = _imf_attributes(d)
    valid = (carries[:, None] & (frequency > 0.0)
             & (amplitude > _AMP_FLOOR * np.max(amplitude, axis=-1, keepdims=True)))
    weights = np.square(amplitude)
    excluded = int(np.count_nonzero(~valid))
    for row in range(d.imf_count):
        for col, (lo, hi) in enumerate(spans):
            cell = slice(max(lo, 0), max(hi, 0))
            means[row, col] = _weighted_mean(weights[row, cell], frequency[row, cell],
                                             valid[row, cell])
    total = n * d.imf_count
    per_segment = means if segments is None else means[:, :-1]
    return per_segment, means[:, -1], excluded / total if total else 0.0


def trend_rms_fraction(d: Decomposition) -> float:
    """RMS of the trend over RMS of the input, both rebuilt from ``d``.

    The channels of a decomposition with a channel axis are stacked.  Needs
    no Hilbert transform.
    """
    # channel sums added in order as Python floats, which fixes the last bits
    trend_sq = input_sq = 0.0
    for t, x in zip(np.sum(np.square(d.trend), axis=-1).reshape(-1),
                    np.sum(np.square(d.reconstruct()), axis=-1).reshape(-1)):
        trend_sq += float(t)
        input_sq += float(x)
    return float(np.sqrt(trend_sq / input_sq)) if input_sq > 0 else 0.0


def summarize(d: Decomposition, overall) -> tuple:
    """The ``(low, high)`` range of overall weighted frequencies.

    ``overall`` holds ``wafa``'s second value (segments do not change it) for
    each channel, one frequency per entry of ``d.imfs.shape[:-1]``; with a
    channel axis the range spans all channels.  It covers only IMFs carrying
    at least 1% of their channel's input RMS, so near-empty residue modes do
    not stretch it; ``(0.0, 0.0)`` if none does.
    """
    try:
        freqs = np.asarray(overall, dtype=np.float64).reshape(d.imfs.shape[:-1])
    except (TypeError, ValueError):
        raise InvalidValue("overall must hold one frequency per channel and IMF, "
                           f"shaped {d.imfs.shape[:-1]}") from None
    input_rms = np.sqrt(np.mean(np.square(d.reconstruct()), axis=-1))
    imf_rms = np.sqrt(np.mean(np.square(d.imfs), axis=-1))
    kept = freqs[(freqs > 0) & (imf_rms >= 0.01 * input_rms[..., None])]
    if not kept.size:
        return 0.0, 0.0
    return float(np.min(kept)), float(np.max(kept))


def fibonacci_relations(freqs, tolerance: float = 0.05) -> tuple:
    """Check every consecutive triple for f_n ~= f_{n+1} + f_{n+2}.

    ``freqs`` is expected in decomposition order (descending).  Returns
    ``(triples, chain_length)``: every triple as (n, f_n, f_n1, f_n2,
    residual) with 1-based n and signed residual f_n - (f_n1 + f_n2), and the
    longest run of triples whose residual magnitude is within ``tolerance``,
    so callers can trim noisy end IMFs themselves.  A ``tolerance`` that is
    not a finite number >= 0 raises :class:`InvalidValue` before ``freqs``
    is looked at.
    """
    if not (is_number(tolerance) and tolerance >= 0):
        raise InvalidValue(f"tolerance must be a finite number >= 0, got {tolerance}")
    freqs = [float(f) for f in freqs]
    if len(freqs) < 3:
        raise DegenerateSignal("need at least 3 frequencies")
    triples = []
    chain = best = 0
    for i in range(len(freqs) - 2):
        residual = freqs[i] - (freqs[i + 1] + freqs[i + 2])
        triples.append((i + 1, freqs[i], freqs[i + 1], freqs[i + 2], residual))
        chain = chain + 1 if abs(residual) <= tolerance else 0
        best = max(best, chain)
    return triples, best


def detect_singular_imfs(freqs) -> list:
    """Flag IMFs whose overall frequency is an outlier against both neighbors.

    ``freqs`` lists the overall frequency of each IMF (``wafa``'s second
    value), which normally descends with decomposition order.  An interior
    IMF is flagged when a pairwise violation exceeds factor 1.5 *and* its
    neighbors are consistent without it (removing it locally restores the
    descending order), which pins the blame on the outlier rather than its
    neighbors.  Milder order violations are not flagged; ``freqs`` shows
    them.  Returns 1-based IMF numbers.
    """
    freqs = np.asarray(freqs, dtype=float)
    if freqs.size < 4:
        raise DegenerateSignal("outlier detection needs at least 4 IMFs")
    flagged = []
    for i in range(1, freqs.size - 1):
        f_prev, f, f_next = freqs[i - 1], freqs[i], freqs[i + 1]
        neighbors_consistent = f_next <= f_prev
        spike_up = f > 1.5 * f_prev and neighbors_consistent
        spike_down = f < f_next / 1.5 and neighbors_consistent
        if spike_up or spike_down:
            flagged.append(i + 1)
    return flagged


# ---------------------------------------------------------------------------
# spectrum export


def spectrum_to_csv(energy: np.ndarray) -> str:
    """Grid cells of ``hilbert_spectrum``'s energy as CSV rows:
    time_bin,freq_bin,energy."""
    return "time_bin,freq_bin,energy\n" + "".join(
        f"{i},{j},{value!r}\n" for i, row in enumerate(energy.tolist())
        for j, value in enumerate(row))


def spectrum_sidecar(time_edges, freq_edges, overflow) -> dict:
    """Bin edges and overflow that accompany the CSV grid."""
    return {
        "time_edges": time_edges.tolist(),
        "freq_edges": freq_edges.tolist(),
        "overflow": overflow,
    }
