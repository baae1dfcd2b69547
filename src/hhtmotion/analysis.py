"""Time-frequency analysis of decompositions.

Builds Hilbert spectra (instantaneous energy binned over time and
frequency), energy-weighted average frequencies per IMF and segment,
summary statistics, sum-relation detection between consecutive IMF
frequencies, and outlier-IMF flagging.
"""

from __future__ import annotations

import io
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSignal, InvalidValue
from .signal_core import (
    Decomposition,
    TimeSeries,
    analytic_signal,
    instantaneous_attributes,
    require_form,
)

logger = logging.getLogger(__name__)

__all__ = [
    "HilbertSpectrum",
    "WafaReport",
    "FibonacciReport",
    "Summary",
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


@dataclass
class HilbertSpectrum:
    """Instantaneous energy on a time x frequency grid.

    ``energy[i, j]`` sums squared amplitude of samples falling in time bin i
    and frequency bin j, over all IMFs.  Samples with negative or out-of-range
    frequency accumulate into ``overflow`` instead of the grid.
    """

    time_bins: np.ndarray
    freq_bins: np.ndarray
    energy: np.ndarray
    overflow: float


@dataclass
class WafaReport:
    """Energy-weighted mean frequency per IMF and segment.

    Row k of ``per_imf_per_segment`` corresponds to IMF k+1.  Cells whose
    weighting was empty (no valid samples) hold 0 and are listed in
    ``empty_cells`` as (imf_row, segment_column) pairs.
    """

    per_imf_per_segment: np.ndarray
    per_imf_overall: np.ndarray
    excluded_fraction: float
    empty_cells: list


@dataclass
class FibonacciReport:
    """Consecutive-triple sum relations between IMF frequencies.

    Each triple is (n, f_n, f_n1, f_n2, residual) with 1-based n and signed
    residual f_n - (f_n1 + f_n2); a triple is satisfied when the residual
    magnitude is within tolerance.
    """

    triples: list
    chain_length: int
    tolerance: float

    def satisfied(self):
        return [abs(t[4]) <= self.tolerance for t in self.triples]


@dataclass
class Summary:
    imf_count: int
    freq_range: tuple
    trend_rms_fraction: float


def _imf_attributes(samples: np.ndarray, rate: float):
    """Amplitude/frequency of one IMF, or None when it carries no signal."""
    if samples.size < 4 or not np.any(samples):
        return None
    try:
        att = instantaneous_attributes(analytic_signal(TimeSeries(samples, rate)))
    except DegenerateSignal:
        return None
    return att


def hilbert_spectrum(
    d: Decomposition,
    time_bin: float = 0.05,
    freq_max: float | None = None,
    freq_bins: int = 100,
) -> HilbertSpectrum:
    """Deposit per-IMF instantaneous energy of one channel into a time x
    frequency grid."""
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
    overflow = 0.0
    t = np.arange(n) / d.rate
    t_idx = np.minimum((t / time_bin).astype(int), n_time - 1)
    width = freq_max / freq_bins
    for samples in d.imfs:
        att = _imf_attributes(samples, d.rate)
        if att is None:
            continue
        a2 = np.square(att.amplitude)
        in_range = (att.frequency >= 0.0) & (att.frequency <= freq_max)
        overflow += float(np.sum(a2[~in_range]))
        f_idx = np.minimum((att.frequency[in_range] / width).astype(int), freq_bins - 1)
        np.add.at(energy, (t_idx[in_range], f_idx), a2[in_range])
    return HilbertSpectrum(
        time_bins=time_edges, freq_bins=freq_edges, energy=energy, overflow=overflow
    )


def wafa(d: Decomposition, segments=None) -> WafaReport:
    """Energy-weighted mean frequency of each IMF of one channel, per segment
    and overall.

    Weighted mean = sum(A^2 f) / sum(A^2) over samples with positive
    frequency and non-negligible amplitude.  ``segments`` is a list of
    objects with half-open ``start_frame``/``end_frame`` spans; None means
    one whole-clip segment.
    """
    require_form(d, False, "wafa")
    n = d.trend.size
    if segments is None:
        spans = [(0, n)]
    else:
        spans = [(s.start_frame, s.end_frame) for s in segments]

    n_imfs = d.imf_count
    per_seg = np.zeros((n_imfs, len(spans)))
    overall = np.zeros(n_imfs)
    empty_cells = []
    excluded = 0
    total = 0

    for row, samples in enumerate(d.imfs):
        att = _imf_attributes(samples, d.rate)
        if att is None:
            excluded += n
            total += n
            for col in range(len(spans)):
                empty_cells.append((row, col))
            continue
        amp_floor = _AMP_FLOOR * float(np.max(att.amplitude))
        valid = (att.frequency > 0.0) & (att.amplitude > amp_floor)
        weights = np.square(att.amplitude)
        excluded += int(np.count_nonzero(~valid))
        total += n

        def weighted_mean(mask):
            good = mask & valid
            denom = float(np.sum(weights[good]))
            if denom <= 0.0:
                return None
            return float(np.sum(weights[good] * att.frequency[good]) / denom)

        for col, (lo, hi) in enumerate(spans):
            mask = np.zeros(n, dtype=bool)
            mask[max(lo, 0) : max(hi, 0)] = True
            value = weighted_mean(mask)
            if value is None:
                empty_cells.append((row, col))
            else:
                per_seg[row, col] = value
        value = weighted_mean(np.ones(n, dtype=bool))
        overall[row] = 0.0 if value is None else value

    return WafaReport(
        per_imf_per_segment=per_seg,
        per_imf_overall=overall,
        excluded_fraction=excluded / total if total else 0.0,
        empty_cells=empty_cells,
    )


def trend_rms_fraction(d: Decomposition) -> float:
    """RMS of the trend over RMS of the input, both rebuilt from ``d``.

    The channels of a decomposition with a channel axis are stacked.  Needs
    no Hilbert transform.
    """
    trend_sq = 0.0
    input_sq = 0.0
    for dec in d.per_channel:
        trend_sq += float(np.sum(np.square(dec.trend)))
        input_sq += float(np.sum(np.square(dec.reconstruct())))
    return float(np.sqrt(trend_sq / input_sq)) if input_sq > 0 else 0.0


def summarize(d: Decomposition, overall=None) -> Summary:
    """IMF count, overall weighted-frequency range, and trend energy share.

    With a channel axis the range spans all channels and the RMS ratio
    stacks channels.  The frequency range covers only IMFs carrying at least
    1% of the input RMS, so near-empty residue modes do not stretch it.  ``overall`` lists
    each channel's ``wafa(...).per_imf_overall``, which segments do not
    change, for a caller that has them; by default they are computed here.
    """
    decomps = d.per_channel
    if overall is None:
        overall = [wafa(dec).per_imf_overall for dec in decomps]
    freqs = []
    for dec, channel_freqs in zip(decomps, overall):
        input_rms = float(np.sqrt(np.mean(np.square(dec.reconstruct()))))
        for c, f in zip(dec.imfs, channel_freqs):
            imf_rms = float(np.sqrt(np.mean(np.square(c))))
            if f > 0 and imf_rms >= 0.01 * input_rms:
                freqs.append(f)
    if freqs:
        freq_range = (float(min(freqs)), float(max(freqs)))
    else:
        freq_range = (0.0, 0.0)
    return Summary(
        imf_count=d.imf_count,
        freq_range=freq_range,
        trend_rms_fraction=trend_rms_fraction(d),
    )


def fibonacci_relations(freqs, tolerance: float = 0.05) -> FibonacciReport:
    """Check every consecutive triple for f_n ~= f_{n+1} + f_{n+2}.

    ``freqs`` is expected in decomposition order (descending).  Returns all
    triples with signed residuals plus the longest run of satisfied ones, so
    callers can trim noisy end IMFs themselves.
    """
    freqs = [float(f) for f in freqs]
    if len(freqs) < 3:
        raise DegenerateSignal("need at least 3 frequencies")
    triples = []
    for i in range(len(freqs) - 2):
        residual = freqs[i] - (freqs[i + 1] + freqs[i + 2])
        triples.append((i + 1, freqs[i], freqs[i + 1], freqs[i + 2], residual))
    chain = best = 0
    for _, _, _, _, residual in triples:
        chain = chain + 1 if abs(residual) <= tolerance else 0
        best = max(best, chain)
    return FibonacciReport(triples=triples, chain_length=best, tolerance=tolerance)


def detect_singular_imfs(report: WafaReport) -> list:
    """Flag IMFs whose overall frequency is an outlier against both neighbors.

    IMF frequencies normally descend with decomposition order.  An interior
    IMF is flagged when a pairwise violation exceeds factor 1.5 *and* its
    neighbors are consistent without it (removing it locally restores the
    descending order), which pins the blame on the outlier rather than its
    neighbors.  Mild order violations within the factor are logged, not
    flagged.  Returns 1-based IMF numbers.
    """
    freqs = np.asarray(report.per_imf_overall, dtype=float)
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
        elif f > f_prev:
            logger.warning(
                "IMF %d breaks descending frequency order (%.3g > %.3g) within factor",
                i + 1,
                f,
                f_prev,
            )
    return flagged


# ---------------------------------------------------------------------------
# spectrum export


def spectrum_to_csv(spectrum: HilbertSpectrum) -> str:
    """Grid cells as CSV rows: time_bin,freq_bin,energy."""
    out = io.StringIO()
    out.write("time_bin,freq_bin,energy\n")
    n_time, n_freq = spectrum.energy.shape
    for i in range(n_time):
        for j in range(n_freq):
            out.write(f"{i},{j},{float(spectrum.energy[i, j])!r}\n")
    return out.getvalue()


def spectrum_sidecar(spectrum: HilbertSpectrum) -> dict:
    """Bin edges and overflow that accompany the CSV grid."""
    return {
        "time_edges": spectrum.time_bins.tolist(),
        "freq_edges": spectrum.freq_bins.tolist(),
        "overflow": spectrum.overflow,
    }
